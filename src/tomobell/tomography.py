"""Forward (Radon) and inverse tomographic transforms, closed-form tomograms,
sign-binned probabilities, and the angular-integral machinery of the
pair-coherent example.

Closed forms, in the package convention (vacuum quadrature variance 1/4):

  squeezed vacuum   w = (2/pi) N exp(-2 a X1^2 - 2 a X2^2 - 4 b X1 X2)
                    a = cosh(2s)/D, b = sinh(2s) cos(t1+t2)/D,
                    D = cosh^2(2s) - sinh^2(2s) cos^2(t1+t2), N = sqrt(a^2-b^2).
                    The cross term is -4b: it is what the Radon projection of
                    the squeezed-vacuum Wigner function produces, and the only
                    form consistent with the arctan(b/N) quadrant probabilities.

  Fock pair and     w = 2 |sum_n c_n e^{-i n (t1+t2)} psi_n(u1) psi_n(u2)|^2
  pair coherent     over the Schmidt vector |psi> = sum_n c_n |n n>, with
                    u = sqrt(2) X and psi_k the normalized Hermite functions.
                    Every Schmidt-diagonal state depends on the angles only
                    through their sum t1 + t2, as the Radon oracle confirms.

The pair-coherent angular integral I(sqrt(2) X1, sqrt(2) X2), with
w = |I|^2 exp(-2 X1^2 - 2 X2^2) / (2 pi^3 I0(2 r^2)), is kept as two test
oracles of that sum: direct quadrature of its shifted form, and the Hermite
series 2 pi sum_n H_n(x1) H_n(x2) alpha^{2n} / (2^n (n!)^2),
alpha = r exp(-i (t1+t2)/2).

Sign-binned probabilities are scale invariant; beyond the squeezed vacuum
they come from a Fock-basis sum over the Schmidt vector (sign_binned_closed_form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from . import states as st
from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    NormalizationError,
    UnsupportedStateError,
)
from .special import gauss_legendre, hermite_functions, laguerre, periodic_trapezoid

PROB_SUM_TOL = 1e-6
PROB_RANGE_TOL = 1e-9
#: Cap on the Fock levels of the sign-correlation Schmidt sum (an 8 MB G matrix).
MAX_SCHMIDT_LEVELS = 1024


@dataclass(frozen=True)
class SymplecticSetting:
    """One mode's symplectic parameters (mu, nu); X = mu q + nu p."""

    mu: float
    nu: float

    def __post_init__(self):
        if self.mu == 0.0 and self.nu == 0.0:
            raise DomainError("symplectic setting (mu, nu) = (0, 0) is degenerate")

    @classmethod
    def from_angle(cls, theta: float) -> "SymplecticSetting":
        """Optical-homodyne special case mu = cos(theta), nu = sin(theta)."""
        return cls(math.cos(theta), math.sin(theta))

    @property
    def scale(self) -> float:
        return math.hypot(self.mu, self.nu)

    def line(self, x, t):
        """(q, p) at parameter t on the line mu q + nu p = X (see radon_forward_symplectic)."""
        r = self.scale
        return self.mu * x / r**2 - (self.nu / r) * t, self.nu * x / r**2 + (self.mu / r) * t


@dataclass(frozen=True)
class SignBinnedProbs:
    """The quadruple (w_pp, w_pm, w_mp, w_mm) at homodyne angles (theta1, theta2)."""

    w_pp: float
    w_pm: float
    w_mp: float
    w_mm: float
    theta1: float
    theta2: float

    def validate(self, sum_tol: float = PROB_SUM_TOL) -> "SignBinnedProbs":
        vals = (self.w_pp, self.w_pm, self.w_mp, self.w_mm)
        for name, v in zip(("w_pp", "w_pm", "w_mp", "w_mm"), vals):
            if not (-PROB_RANGE_TOL <= v <= 1.0 + PROB_RANGE_TOL):
                raise NormalizationError(f"{name} = {v} outside [0, 1]")
        total = sum(vals)
        if abs(total - 1.0) > sum_tol:
            raise NormalizationError(
                f"sign-binned probabilities sum to {total:.12f} (deviation {total - 1.0:.3e})"
            )
        return self

    def as_tuple(self):
        return (self.w_pp, self.w_pm, self.w_mp, self.w_mm)


@dataclass(frozen=True)
class GaussianTomogramParams:
    """(a, b, N) of the squeezed-vacuum tomogram Gaussian."""

    a: float
    b: float
    norm: float

    def __post_init__(self):
        if not (self.a > 0.0):
            raise DomainError(f"Gaussian tomogram requires a > 0, got {self.a}")
        if abs(self.b) >= self.a:
            raise DomainError(f"Gaussian tomogram requires |b| < a, got a={self.a}, b={self.b}")

    @classmethod
    def from_squeezing(cls, s: float, theta_sum: float) -> "GaussianTomogramParams":
        c, t = math.cosh(2.0 * s), math.sinh(2.0 * s)
        # cosh^2(2s) - sinh^2(2s) cos^2 = 1 + sinh^2(2s) sin^2, which avoids
        # the catastrophic cancellation of the direct difference at large s;
        # the same identity gives N = sqrt(a^2 - b^2) = 1/sqrt(D) exactly
        d = 1.0 + (t * math.sin(theta_sum)) ** 2
        a = c / d
        b = t * math.cos(theta_sum) / d
        return cls(a, b, 1.0 / math.sqrt(d))


# ---------------------------------------------------------------------------
# Forward Radon projection
# ---------------------------------------------------------------------------


def _default_half_width(state) -> float:
    if isinstance(state, st.SqueezedVacuum):
        return 3.5 * math.exp(state.s) / 2.0 + 2.0
    if isinstance(state, st.FockPairSuperposition):
        # past |n>'s turning point sqrt(n + 1/2); at least 4.4, where exp(-2 t^2) < 1e-16
        return max(4.4, 3.0 + math.sqrt(state.n + 0.5))
    if isinstance(state, st.PairCoherent):
        return 4.0 + 1.7 * state.r
    raise UnsupportedStateError(f"no Wigner evaluator for {type(state).__name__}")


def radon_forward_symplectic(
    state,
    x1,
    setting1: SymplecticSetting,
    x2,
    setting2: SymplecticSetting,
    *,
    half_width: float | None = None,
    order: int = 96,
    max_doublings: int = 3,
    tol: float = 1e-8,
    angular_order: int = st.DEFAULT_ANGULAR_ORDER,
):
    """Symplectic tomogram w(X1, mu1, nu1, X2, mu2, nu2) by line projection.

    Per mode the line mu q + nu p = X is parametrized as
    q = mu X / r^2 - (nu / r) t, p = nu X / r^2 + (mu / r) t with
    r = sqrt(mu^2 + nu^2); the tomogram is the double line integral of the
    Wigner function divided by r1 r2.  The Gauss-Legendre order is doubled
    until two successive estimates agree to ``tol``.

    The Fock pair and the pair-coherent state are projected through the
    factor form of their Wigner function (``states.wigner_factors``): each
    mode's factors are integrated along its own line first, once per distinct
    X value.  The squeezed vacuum, whose Gaussian cross term does not factor,
    is summed on the full (t1, t2) grid.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.broadcast_arrays(np.atleast_1d(x1), np.atleast_1d(x2))
    if half_width is None:
        half_width = _default_half_width(state)
    factors = (
        None if isinstance(state, st.SqueezedVacuum)
        else st.wigner_factors(state, angular_order=angular_order)
    )

    prev = None
    residuals = []
    m = order
    for _ in range(max_doublings + 1):
        rule = gauss_legendre(m, -half_width, half_width)
        if factors is None:
            cur = _project_dense(state, x1, setting1, x2, setting2, rule, angular_order)
        else:
            cur = _project_factored(factors, x1, setting1, x2, setting2, rule)
        if prev is not None:
            residuals.append(float(np.max(np.abs(cur - prev))))
            if residuals[-1] <= tol * max(1.0, float(np.max(np.abs(cur)))):
                return float(cur[0]) if scalar else cur
        prev = cur
        m *= 2
    raise ConvergenceError(
        f"Radon projection did not stabilize to {tol} within {max_doublings} grid doublings: "
        f"Gauss-Legendre orders {[order * 2**k for k in range(max_doublings + 1)]}, "
        f"max |change| at each doubling "
        f"[{', '.join(f'{res:.3e}' for res in residuals)}]"
    )


def _project_dense(state, x1, setting1, x2, setting2, rule, angular_order):
    """Line integrals of ``states.wigner`` on the full (X, t1, t2) grid of one rule."""
    q1, p1 = setting1.line(x1[..., None, None], rule.nodes[:, None])
    q2, p2 = setting2.line(x2[..., None, None], rule.nodes[None, :])
    wig = st.wigner(state, q1, p1, q2, p2, angular_order=angular_order)
    w2d = rule.weights[:, None] * rule.weights[None, :]
    return np.sum(wig * w2d, axis=(-2, -1)) / (setting1.scale * setting2.scale)


def _project_factored(factors, x1, setting1, x2, setting2, rule):
    """Line integrals of a Wigner factor form on one rule, one mode at a time.

    Per mode and distinct X: A_jk(X) = sum_t w_t left_j right_k, a (J x m)(m x K)
    product; then w(X1, X2) = Re sum_jk C_jk A_jk(X1) B_jk(X2) / (r1 r2).
    """
    lines = []
    for i, (x, setting) in enumerate(((x1, setting1), (x2, setting2))):
        values, index = np.unique(x.ravel(), return_inverse=True)
        left, right = factors.mode(i, *setting.line(values[:, None], rule.nodes[None, :]))
        along = np.swapaxes(left * rule.weights[:, None], 1, 2) @ right  # (N, J, K)
        lines.append((along.reshape(values.size, -1), index))
    (a1, i1), (a2, i2) = lines
    grid = ((a1 * factors.coupling.ravel()) @ a2.T).real
    return grid[i1, i2].reshape(x1.shape) / (setting1.scale * setting2.scale)


def radon_forward(state, x1, theta1, x2, theta2, **kwargs):
    """Homodyne tomogram w(X1, theta1, X2, theta2) by numeric Radon projection."""
    return radon_forward_symplectic(
        state,
        x1,
        SymplecticSetting.from_angle(theta1),
        x2,
        SymplecticSetting.from_angle(theta2),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Closed-form tomograms
# ---------------------------------------------------------------------------


def tomogram_closed_form(state, x1, theta1, x2, theta2):
    """Closed-form tomogram of a benchmark state (vectorized over X1, X2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if isinstance(state, st.SqueezedVacuum):
        par = GaussianTomogramParams.from_squeezing(state.s, theta1 + theta2)
        val = (2.0 / math.pi) * par.norm * np.exp(
            -2.0 * par.a * x1**2 - 2.0 * par.a * x2**2 - 4.0 * par.b * x1 * x2
        )
    else:
        theta = theta1 + theta2
        psi1 = hermite_functions(math.sqrt(2.0) * x1)
        psi2 = hermite_functions(math.sqrt(2.0) * x2)
        coefficients = st.significant_schmidt(state).coefficients
        re = im = 0.0
        for n, (c, f1, f2) in enumerate(zip(coefficients, psi1, psi2)):
            if c != 0.0:
                term = f1 * f2
                re += term * (c * math.cos(n * theta))
                im += term * (c * math.sin(n * theta))
        val = 2.0 * (re * re + im * im)
    return float(val) if np.ndim(val) == 0 else val


def pair_coherent_integral_direct(x1, theta1, x2, theta2, r, order: int = 256) -> complex:
    """The pair-coherent angular integral I(X1, theta1, X2, theta2).

    Quadrature of the shifted integrand: with phi0 = (theta1 + theta2)/2 and
    alpha = r exp(-i phi0),

      I = int_0^{2 pi} exp[-(alpha^2/2)(e^{2 i phi} + e^{-2 i phi})
                           + sqrt(2) alpha (X1 e^{i phi} + X2 e^{-i phi})] dphi.

    Arguments are in natural units (vacuum variance 1/2), matching the
    Hermite-series form; the closed-form tomogram feeds it sqrt(2) X.
    """
    if order < 64:
        raise DomainError(f"pair-coherent integral needs order >= 64, got {order}")
    phi0 = 0.5 * (theta1 + theta2)
    alpha = r * np.exp(-1j * phi0)
    rule = periodic_trapezoid(order)
    eip = np.exp(1j * rule.nodes)
    eim = eip.conj()
    integrand = np.exp(
        -0.5 * alpha**2 * (eip**2 + eim**2)
        + math.sqrt(2.0) * alpha * (x1 * eip + x2 * eim)
    )
    return complex(np.sum(rule.weights * integrand))


def pair_coherent_integral_series(
    x1, x2, phi0, r, *, terms: int | None = None, tol: float = 1e-12
):
    """Hermite-series form of the pair-coherent angular integral.

    I = 2 pi sum_n H_n(x1) H_n(x2) alpha^{2n} / (2^n (n!)^2),
    alpha = r exp(-i phi0).  Truncated when the term ratio test certifies a
    relative tail below ``tol``; vectorized over x1, x2.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.broadcast_arrays(x1, x2)
    alpha2 = (r * np.exp(-1j * phi0)) ** 2

    cap = terms if terms is not None else 400
    h1_prev = np.ones_like(x1)
    h2_prev = np.ones_like(x2)
    h1 = 2.0 * x1
    h2 = 2.0 * x2
    total = np.ones_like(x1, dtype=complex)  # n = 0 term
    coef = 1.0 + 0.0j
    converged = terms is not None
    for n in range(1, cap + 1):
        coef = coef * alpha2 / (2.0 * n * n)
        term = coef * h1 * h2
        total = total + term
        if terms is None:
            scale = max(1.0, float(np.max(np.abs(total))))
            ratio = float(np.max(np.abs(term))) / scale
            # Cramer's bound makes the term ratio <= |alpha|^2 / (n + 1), so
            # past n ~ 8 |alpha|^2 the tail is geometric with ratio < 1/8.
            if ratio < 0.5 * tol and n > 8.0 * abs(alpha2) + 8:
                converged = True
                break
        if n < cap:
            h1, h1_prev = 2.0 * x1 * h1 - 2.0 * n * h1_prev, h1
            h2, h2_prev = 2.0 * x2 * h2 - 2.0 * n * h2_prev, h2
    if not converged:
        raise ConvergenceError(
            f"pair-coherent Hermite series not converged after {cap} terms"
        )
    total = 2.0 * math.pi * total
    return complex(total) if scalar and np.ndim(total) == 0 else total


# ---------------------------------------------------------------------------
# Sign-binned probabilities
# ---------------------------------------------------------------------------


def sign_binned_numeric(
    density,
    theta1: float,
    theta2: float,
    *,
    scale: float = 1.0,
    gl_order: int = 24,
    initial_panels: int = 4,
    tol: float = 1e-10,
    max_doublings: int = 6,
    sum_tol: float = PROB_SUM_TOL,
) -> SignBinnedProbs:
    """Quadrant integrals of a normalized joint density w(X1, X2).

    ``density`` is a vectorized callable already bound to the angles; the
    angles are only recorded in the result.  Each half line is mapped to
    (0, 1) by X = scale * atanh(t) and integrated with ``gl_order``-point
    Gauss-Legendre panels; the panel count doubles until the quadruple is
    stable to ``tol``.  Deviation of the sum from 1 beyond ``sum_tol`` is
    treated as an error signal, never renormalized away.
    """
    prev = None
    panels = initial_panels
    for _ in range(max_doublings + 1):
        nodes, weights = _tanh_half_line(scale, gl_order, panels)
        xp = nodes[:, None]
        yp = nodes[None, :]
        w2 = weights[:, None] * weights[None, :]
        quads = np.array(
            [
                np.sum(w2 * density(xp, yp)),
                np.sum(w2 * density(xp, -yp)),
                np.sum(w2 * density(-xp, yp)),
                np.sum(w2 * density(-xp, -yp)),
            ]
        )
        if prev is not None and np.max(np.abs(quads - prev)) <= tol:
            break
        prev = quads
        panels *= 2
    else:
        raise ConvergenceError(
            f"quadrant integrals did not stabilize to {tol} within {max_doublings} panel doublings"
        )
    probs = SignBinnedProbs(*quads, theta1=theta1, theta2=theta2)
    return probs.validate(sum_tol)


def _tanh_half_line(scale: float, gl_order: int, panels: int):
    """Nodes/weights for int_0^inf f(X) dX via X = scale * atanh(t), t in (0,1)."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    base = gauss_legendre(gl_order, 0.0, 1.0)
    t = (edges[:-1, None] + np.diff(edges)[:, None] * base.nodes[None, :]).ravel()
    wt = (np.diff(edges)[:, None] * base.weights[None, :]).ravel()
    nodes = scale * np.arctanh(t)
    weights = wt * scale / (1.0 - t * t)
    return nodes, weights


def sign_binned_closed_form(
    state, theta1: float, theta2: float, *, order: int = 96
) -> SignBinnedProbs:
    """Closed-form sign-binned probabilities ((1+E)/4, (1-E)/4, (1-E)/4, (1+E)/4).

    Squeezed vacuum: E = -(2/pi) arctan(b/N), continuous in theta1 + theta2
    through the principal branch of arctan (b changes sign with
    cos(theta1 + theta2), so no piecewise sign bookkeeping is needed).

    Fock pair and pair coherent, sum_n c_n |n n>: the Fock-basis sum (Munro,
    PRA 59, 4197 (1999)) E = sum_{m,n} c_m c_n G_mn^2 cos((m - n)(theta1 +
    theta2)) with G = sign_matrix.  The Fock levels follow from c_n alone, so
    ``order`` is accepted and ignored.
    """
    if isinstance(state, st.SqueezedVacuum):
        par = GaussianTomogramParams.from_squeezing(state.s, theta1 + theta2)
        corr = -2.0 * math.atan(par.b / par.norm) / math.pi
    else:
        h = _sign_harmonics(state)
        corr = float(h @ np.cos(np.arange(h.size) * (theta1 + theta2)))
    same, diff = 0.25 * (1.0 + corr), 0.25 * (1.0 - corr)
    return SignBinnedProbs(same, diff, diff, same, theta1, theta2).validate()


@lru_cache(maxsize=128)
def _sign_harmonics(state):
    """h_d = sum_{|m-n|=d} c_m c_n G_mn^2 over the significant Schmidt levels of the state."""
    c = st.significant_schmidt(state).coefficients
    if c.size > MAX_SCHMIDT_LEVELS:
        missed = 1.0 - float(np.sum(c[:MAX_SCHMIDT_LEVELS] ** 2))
        raise ConvergenceError(
            f"{MAX_SCHMIDT_LEVELS} Fock levels of {state} miss {missed:.3e} of the norm"
        )
    k = np.arange(c.size)
    weights = np.outer(c, c) * sign_matrix(c.size) ** 2
    return np.bincount(np.abs(np.subtract.outer(k, k)).ravel(), weights=weights.ravel())


def sign_matrix(levels: int) -> np.ndarray:
    """G_mn = <m| sgn X |n> = (psi_n(0) psi_m'(0) - psi_m(0) psi_n'(0)) / (m - n).

    This integrates the Wronskian identity (psi_m psi_n' - psi_n psi_m')' =
    2 (m - n) psi_m psi_n over X > 0; psi_k'(0) = sqrt(2k) psi_{k-1}(0), and
    the numerator vanishes for m + n even, where G_mn = 0.
    """
    k = np.arange(levels)
    psi0 = np.fromiter(islice(hermite_functions(0.0), levels), float, levels)
    dpsi0 = np.sqrt(2.0 * k) * np.concatenate(([0.0], psi0[:-1]))
    diff = np.subtract.outer(k, k)
    return (np.outer(dpsi0, psi0) - np.outer(psi0, dpsi0)) / np.where(diff == 0, 1, diff)


# ---------------------------------------------------------------------------
# Single-mode quadrature densities (inputs to the reconstruction routines)
# ---------------------------------------------------------------------------


def vacuum_quadrature_density(x, theta=0.0):
    """Vacuum homodyne density sqrt(2/pi) exp(-2 X^2), angle independent."""
    x = np.asarray(x, dtype=float)
    val = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * x**2)
    return float(val) if val.ndim == 0 else val + 0.0 * np.asarray(theta)


def fock_quadrature_density(n, x, theta=0.0):
    """Homodyne density |psi_n(X)|^2 of the Fock state |n>, angle independent."""
    psi = hermite_functions(math.sqrt(2.0) * np.asarray(x, dtype=float))
    val = math.sqrt(2.0) * next(islice(psi, n, None)) ** 2
    return float(val) if val.ndim == 0 else val + 0.0 * np.asarray(theta)


def epr_marginal_density(lam, x, theta=0.0):
    """Single-mode marginal of the squeezed vacuum: a Gaussian of variance cosh(2s)/4."""
    var = math.cosh(2.0 * math.atanh(lam)) / 4.0
    x = np.asarray(x, dtype=float)
    val = np.exp(-0.5 * x**2 / var) / math.sqrt(2.0 * math.pi * var)
    return float(val) if val.ndim == 0 else val + 0.0 * np.asarray(theta)


# ---------------------------------------------------------------------------
# Inverse transforms
# ---------------------------------------------------------------------------


def inverse_fourier_wigner(
    tomogram_values,
    x_nodes,
    theta_nodes,
    q_nodes,
    p_nodes,
    *,
    damping_width: float = 0.02,
    k_max: float = 12.0,
    k_order: int = 256,
    norm_tol: float = 0.05,
    imag_tol: float = 1e-8,
):
    """Single-mode Wigner function from homodyne tomogram samples.

    ``tomogram_values[i, j] = w(X_i, theta_j)`` on a uniform X grid and a
    uniform theta grid covering [0, pi).  Filtered back-projection:

      W(q, p) = (1/4 pi^2) int_0^pi dtheta int_{-K}^{K} dk |k|
                e^{-k^2 sigma^2 / 2} int dX w(X, theta)
                e^{i k (X - q cos theta - p sin theta)},

    where the 1/(2 pi)^2 factor is the normalization that makes the vacuum
    reconstruct to a unit-mass Wigner surface and the Gaussian window of
    width ``damping_width`` regularizes the |k| filter.  The raw surface
    must integrate to 1 within ``norm_tol`` and be real within ``imag_tol``
    (relative); it is then renormalized exactly.

    Returns (wigner_grid, raw_integral): the renormalized real surface of
    shape (q_nodes.size, p_nodes.size) and the integral before
    renormalization.
    """
    w = np.asarray(tomogram_values, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    theta_nodes = np.asarray(theta_nodes, dtype=float)
    if w.shape != (x_nodes.size, theta_nodes.size):
        raise DomainError(
            f"tomogram grid shape {w.shape} does not match ({x_nodes.size}, {theta_nodes.size})"
        )
    dx = float(x_nodes[1] - x_nodes[0])
    dtheta = float(theta_nodes[1] - theta_nodes[0]) if theta_nodes.size > 1 else math.pi

    # mirrored half-line rules keep the |k| kink at the panel boundary
    half = gauss_legendre(max(2, k_order // 2), 0.0, k_max)
    k = np.concatenate([-half.nodes[::-1], half.nodes])
    k_weights = np.concatenate([half.weights[::-1], half.weights])
    filt = k_weights * np.abs(k) * np.exp(-0.5 * (damping_width * k) ** 2)

    x_weights = np.full(x_nodes.size, dx)
    x_weights[0] *= 0.5
    x_weights[-1] *= 0.5
    chi = np.exp(1j * np.outer(k, x_nodes)) @ (x_weights[:, None] * w)  # (nk, ntheta)
    coef = filt[:, None] * chi

    q = np.asarray(q_nodes, dtype=float)
    p = np.asarray(p_nodes, dtype=float)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    acc = np.zeros(qq.size, dtype=complex)
    for j, th in enumerate(theta_nodes):
        x0 = qq.ravel() * math.cos(th) + pp.ravel() * math.sin(th)
        acc += np.exp(-1j * np.outer(x0, k)) @ coef[:, j]
    surface = (dtheta / (4.0 * math.pi**2)) * acc.reshape(qq.shape)

    scale = float(np.max(np.abs(surface.real))) or 1.0
    if float(np.max(np.abs(surface.imag))) > imag_tol * scale:
        raise AccuracyError(
            f"reconstructed Wigner surface has imaginary residue {np.max(np.abs(surface.imag)):.3e}"
        )
    wig = surface.real
    raw = float(np.trapezoid(np.trapezoid(wig, p, axis=1), q))
    if abs(raw - 1.0) > norm_tol:
        raise AccuracyError(
            f"reconstructed Wigner integrates to {raw:.4f}; deviation exceeds {norm_tol:.0%}"
        )
    return wig / raw, raw


def kernel_fock_matrix_element(m: int, n: int, k, theta):
    """Matrix element <m| D(beta) |n> with beta = -i k e^{i theta} / 2.

    The reconstruction kernel reduces to (1/4 pi) e^{i X} D((nu - i mu)/2)
    in this package's convention; in polar coordinates mu = k cos(theta),
    nu = k sin(theta) the displacement amplitude is beta = -i k e^{i theta}/2.
    """
    k = np.asarray(k, dtype=float)
    p_low = min(m, n)
    d = m - n
    amp = (
        math.sqrt(math.factorial(p_low) / math.factorial(p_low + abs(d)))
        * (-0.5j * k) ** abs(d)
        * np.exp(-0.125 * k * k)
        * laguerre(p_low, 0.25 * k * k, alpha=float(abs(d)))
    )
    return amp * np.exp(1j * d * np.asarray(theta))


def kernel_reconstruct_density(
    tomogram,
    cutoff: int,
    *,
    k_max: float = 12.0,
    k_order: int = 96,
    theta_order: int = 64,
    x_half: float = 8.0,
    x_order: int = 160,
    reg_widths=(0.4, 0.25, 0.1),
    growth_tol: float = 1.05,
):
    """Single-mode density matrix from a tomogram callable w(X, theta).

    rho_mn = (1/4 pi) int_0^{2 pi} dtheta int_0^{k_max} k dk
             <m| D(-i k e^{i theta}/2) |n> int dX w(X, theta) e^{i k X},

    with a Gaussian regularizer exp(-k^2 eta^2 / 2) applied at each width in
    ``reg_widths`` and the result Richardson-extrapolated to eta = 0 (the
    dependence is analytic in eta^2).  Non-shrinking extrapolation steps
    raise an accuracy error carrying the step diagnostics.

    Returns (rho, diagnostics) where rho is a (cutoff, cutoff) complex array.
    """
    if cutoff > 10:
        raise DomainError(f"kernel reconstruction is desk scale: cutoff <= 10, got {cutoff}")
    if cutoff < 1:
        raise DomainError(f"cutoff must be >= 1, got {cutoff}")
    if len(reg_widths) < 2:
        raise DomainError("need at least two regularizer widths to extrapolate")

    x_rule = gauss_legendre(x_order, -x_half, x_half)
    norm_probe = float(np.sum(x_rule.weights * np.asarray(tomogram(x_rule.nodes, 0.0))))
    if abs(norm_probe - 1.0) > 1e-3:
        raise NormalizationError(
            f"input tomogram integrates to {norm_probe:.6f} at theta = 0; expected 1"
        )

    theta = np.arange(theta_order) * (2.0 * math.pi / theta_order)
    dtheta = 2.0 * math.pi / theta_order
    k_rule = gauss_legendre(k_order, 0.0, k_max)
    k = k_rule.nodes

    wvals = np.asarray(tomogram(x_rule.nodes[:, None], theta[None, :]), dtype=float)
    chi = np.exp(1j * np.outer(k, x_rule.nodes)) @ (x_rule.weights[:, None] * wvals)

    # angular reduction: A_d(k) = dtheta * sum_j e^{i d theta_j} chi(k, theta_j)
    d_vals = np.arange(-(cutoff - 1), cutoff)
    ang = np.exp(1j * np.outer(d_vals, theta))  # (nd, ntheta)
    a_dk = dtheta * (chi @ ang.T)  # (nk, nd)

    def assemble(eta: float) -> np.ndarray:
        damp = np.exp(-0.5 * (eta * k) ** 2)
        rho = np.zeros((cutoff, cutoff), dtype=complex)
        for m in range(cutoff):
            for n in range(cutoff):
                d = m - n
                p_low = min(m, n)
                radial = (
                    k_rule.weights
                    * k
                    * damp
                    * np.exp(-0.125 * k * k)
                    * (-0.5j * k) ** abs(d)
                    * laguerre(p_low, 0.25 * k * k, alpha=float(abs(d)))
                    * math.sqrt(math.factorial(p_low) / math.factorial(p_low + abs(d)))
                )
                rho[m, n] = np.sum(radial * a_dk[:, d + cutoff - 1]) / (4.0 * math.pi)
        return rho

    widths = sorted((float(w) for w in reg_widths), reverse=True)
    estimates = [assemble(eta) for eta in widths]
    steps = [
        float(np.max(np.abs(b - a))) for a, b in zip(estimates[:-1], estimates[1:])
    ]
    for earlier, later in zip(steps[:-1], steps[1:]):
        if later > growth_tol * earlier + 1e-14:
            raise AccuracyError(
                "regularizer extrapolation not converging: "
                f"step norms {steps} for widths {widths}"
            )
    # rho(eta) is analytic in eta^2; Lagrange-extrapolate the last <= 3
    # estimates to eta = 0.
    tail = min(3, len(widths))
    etasq = np.array(widths[-tail:]) ** 2
    rho0 = np.zeros_like(estimates[0])
    for i in range(tail):
        coef = 1.0
        for j in range(tail):
            if j != i:
                coef *= etasq[j] / (etasq[j] - etasq[i])
        rho0 += coef * estimates[-tail + i]
    diagnostics = {
        "reg_widths": widths,
        "step_norms": steps,
        "traces": [float(e.diagonal().real.sum()) for e in estimates],
        "extrapolated_trace": float(rho0.diagonal().real.sum()),
    }
    return rho0, diagnostics
