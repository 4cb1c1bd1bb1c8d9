"""Forward (Radon) and inverse tomographic transforms, closed-form tomograms,
sign-binned probabilities, and the angular-integral machinery of the
pair-coherent example.

Closed forms, in the package convention (vacuum quadrature variance 1/4):

  squeezed vacuum   w = (2/pi) N exp(-2 a X1^2 - 2 a X2^2 - 4 b X1 X2)
                    a = cosh(2s)/D, b = sinh(2s) cos(t1+t2)/D,
                    D = cosh^2(2s) - sinh^2(2s) cos^2(t1+t2), N = sqrt(a^2-b^2)
                    = 1/sqrt(D), all read from states.squeezed_homodyne.
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

The kernel reconstruction of a single-mode density matrix
(kernel_reconstruct_density) sums its k integral directly on [0, 20], with
no regularizer: <m|D(k)|n> and the tomogram's characteristic function each
carry exp(-k^2/8).  Its diagnostics are k_tail, the largest |integrand| at
the last k node, and the trace.
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
)
from .special import gauss_legendre, hermite_functions, laguerre, periodic_trapezoid

PROB_SUM_TOL = 1e-6
PROB_RANGE_TOL = 1e-9
#: Cap on the Fock levels of the sign-correlation Schmidt sum (an 8 MB G matrix).
MAX_SCHMIDT_LEVELS = 1024
#: Rules of kernel_reconstruct_density.  k = 20 is where the integrand of
#: |9><9| falls below 1e-16; with k up to 12 its rho is off by 0.096.
KERNEL_K_MAX = 20.0
KERNEL_K_ORDER = 96
KERNEL_THETA_ORDER = 64
KERNEL_X_HALF = 8.0
KERNEL_X_ORDER = 160
#: Node cap of the squeezed vacuum's Radon check: each X pair's (m, m) weight
#: grid and Wigner buffer take 72 MiB at m = 3072.
MAX_DENSE_ORDER = 3072
#: Rules of sign_binned_numeric: Gauss-Legendre nodes per panel, the starting
#: panel count, the stability tolerance and the most panel doublings.
NUMERIC_GL_ORDER = 24
NUMERIC_PANELS = 4
NUMERIC_TOL = 1e-10
NUMERIC_MAX_DOUBLINGS = 6
#: Relative tail below which pair_coherent_integral_series stops.
SERIES_TOL = 1e-12
#: Rules of inverse_fourier_wigner: the Gaussian window of the |k| filter, the
#: k range and node count, and the bounds on the surface's integral and on its
#: imaginary residue.
INVERSE_DAMPING_WIDTH = 0.02
INVERSE_K_MAX = 12.0
INVERSE_K_ORDER = 256
INVERSE_NORM_TOL = 0.05
INVERSE_IMAG_TOL = 1e-8


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

    def validate(self) -> "SignBinnedProbs":
        vals = (self.w_pp, self.w_pm, self.w_mp, self.w_mm)
        for name, v in zip(("w_pp", "w_pm", "w_mp", "w_mm"), vals):
            if not (-PROB_RANGE_TOL <= v <= 1.0 + PROB_RANGE_TOL):
                raise NormalizationError(f"{name} = {v} outside [0, 1]")
        total = sum(vals)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise NormalizationError(
                f"sign-binned probabilities sum to {total:.12f} (deviation {total - 1.0:.3e})"
            )
        return self

    def as_tuple(self):
        return (self.w_pp, self.w_pm, self.w_mp, self.w_mm)


# ---------------------------------------------------------------------------
# Forward Radon projection
# ---------------------------------------------------------------------------


def _fringe_doublings(state, half_width: float, order: int) -> int:
    """Doublings that take ``order`` to 8 nodes per fringe, never fewer than 3.

    The top Schmidt level n of the state makes about half_width * sqrt(n)
    fringes along a line of that half-width.  8 nodes per fringe is where
    the Fock pair at n = 140 first converges (1536 nodes).
    """
    top = st.significant_schmidt(state).coefficients.size - 1
    nodes = 8.0 * half_width * math.sqrt(top)
    return max(3, math.ceil(math.log2(max(1.0, nodes / order))))


def _squeezing_doublings(state, order: int) -> int:
    """Doublings that take ``order`` to 32 e^{2s} nodes: at least 3, at most MAX_DENSE_ORDER nodes.

    The squeezed vacuum's Wigner function is e^{-s} narrow across lines that
    grow as e^{s}; its check converges at 384 nodes for lambda = 0.9, 768 for
    0.94, and 1536 for 0.96 and 0.97.
    """
    need = math.ceil(math.log2(32.0 * math.exp(2.0 * state.s) / order))
    return max(3, min(need, int(math.log2(MAX_DENSE_ORDER / order))))


def radon_forward_symplectic(
    state,
    x1,
    setting1: SymplecticSetting,
    x2,
    setting2: SymplecticSetting,
    *,
    order: int = 96,
    max_doublings: int | None = None,
    tol: float = 1e-8,
    record: dict | None = None,
):
    """Symplectic tomogram w(X1, mu1, nu1, X2, mu2, nu2) by line projection.

    Per mode the line mu q + nu p = X is parametrized as
    q = mu X / r^2 - (nu / r) t, p = nu X / r^2 + (mu / r) t with
    r = sqrt(mu^2 + nu^2); the tomogram is the double line integral of the
    Wigner function divided by r1 r2.  The Gauss-Legendre order is doubled
    until two successive estimates agree to ``tol``, at most ``max_doublings``
    times; by default, for the squeezed vacuum, enough to reach 32 e^{2s}
    nodes but no more than ``MAX_DENSE_ORDER`` (``_squeezing_doublings``)
    and, for the other states, enough to reach 8 nodes per fringe
    (``_fringe_doublings``).  Each line spans +/- ``state.half_width``.

    The Fock pair and the pair-coherent state are projected through the
    factor form of their Wigner function (``TwoModeState.wigner_factors``): each
    mode's factors are integrated along its own line first, once per distinct
    X value.  The squeezed vacuum, whose Gaussian cross term does not factor,
    is summed on each X pair's full (t1, t2) grid, with ``states.wigner``
    evaluated in blocks of at most ``states.MAX_BLOCK`` points
    (``_project_dense``); its (m, m) weight grid and pair buffer take
    8 m^2 bytes each.

    A ``record`` dict receives what the check ran, whether or not it
    converges: ``orders``, the Gauss-Legendre orders, and ``changes``, the
    largest change at each doubling.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.broadcast_arrays(np.atleast_1d(x1), np.atleast_1d(x2))
    half_width = state.half_width
    factors = None if state.gaussian else state.wigner_factors()
    if max_doublings is None:
        if factors is None:
            max_doublings = _squeezing_doublings(state, order)
        else:
            max_doublings = _fringe_doublings(state, half_width, order)

    prev = None
    orders, changes = [], []
    if record is not None:
        record.update(orders=orders, changes=changes)  # filled in as the orders run
    for k in range(max_doublings + 1):
        orders.append(order * 2**k)
        rule = gauss_legendre(orders[-1], -half_width, half_width)
        if factors is None:
            cur = _project_dense(state, x1, setting1, x2, setting2, rule,
                                 st.DEFAULT_ANGULAR_ORDER)
        else:
            cur = _project_factored(factors, x1, setting1, x2, setting2, rule)
        if prev is not None:
            changes.append(float(np.max(np.abs(cur - prev))))
            if changes[-1] <= tol * max(1.0, float(np.max(np.abs(cur)))):
                return float(cur[0]) if scalar else cur
        prev = cur
    capped = factors is None and orders[-1] >= MAX_DENSE_ORDER
    raise ConvergenceError(
        f"Radon projection did not stabilize to {tol} within {max_doublings} grid doublings: "
        f"Gauss-Legendre orders {orders}, "
        f"max |change| at each doubling "
        f"[{', '.join(f'{change:.3e}' for change in changes)}]"
        + (f"; {MAX_DENSE_ORDER} nodes is the squeezed vacuum's cap" if capped else "")
    )


def _project_dense(state, x1, setting1, x2, setting2, rule, angular_order):
    """Line integrals of ``states.wigner`` on the full (t1, t2) grid of each X pair.

    ``states.wigner`` sees at most about ``states.MAX_BLOCK`` points per call:
    whole X pairs while one pair's m x m grid is smaller, else row blocks of
    one pair's grid.  Each pair's weighted (m, m) grid is then reduced by the
    same sum as a single call on the whole (X, t1, t2) grid would be, so the
    result does not depend on the blocking, bit for bit.
    """
    t = rule.nodes
    m = t.size
    pairs = max(1, st.MAX_BLOCK // (m * m))
    rows = min(m, max(1, st.MAX_BLOCK // (pairs * m)))
    w2d = rule.weights[:, None] * rule.weights[None, :]
    xs1, xs2 = x1.ravel(), x2.ravel()
    out = np.empty(xs1.size)
    grid = np.empty((min(pairs, out.size), m, m))
    for start in range(0, out.size, pairs):
        stop = min(start + pairs, out.size)
        block = grid[: stop - start]
        q2, p2 = setting2.line(xs2[start:stop, None, None], t[None, :])
        for row in range(0, m, rows):
            q1, p1 = setting1.line(xs1[start:stop, None, None], t[row : row + rows, None])
            wig = st.wigner(state, q1, p1, q2, p2, angular_order=angular_order)
            np.multiply(wig, w2d[row : row + rows], out=block[:, row : row + rows])
        out[start:stop] = np.sum(block, axis=(-2, -1))
    return out.reshape(x1.shape) / (setting1.scale * setting2.scale)


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
    if state.gaussian:
        c, b, d = st.squeezed_homodyne(state.s, theta1 + theta2)
        a, b = c / d, b / d
        val = (2.0 / math.pi) * (1.0 / math.sqrt(d)) * np.exp(
            -2.0 * a * x1**2 - 2.0 * a * x2**2 - 4.0 * b * x1 * x2
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


def pair_coherent_integral_series(x1, x2, phi0, r, *, terms: int | None = None):
    """Hermite-series form of the pair-coherent angular integral.

    I = 2 pi sum_n H_n(x1) H_n(x2) alpha^{2n} / (2^n (n!)^2),
    alpha = r exp(-i phi0).  Truncated after ``terms`` terms or, by default,
    when the term ratio test certifies a relative tail below ``SERIES_TOL``;
    vectorized over x1, x2.
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
            if ratio < 0.5 * SERIES_TOL and n > 8.0 * abs(alpha2) + 8:
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
    density, theta1: float, theta2: float, *, scale: float = 1.0
) -> SignBinnedProbs:
    """Quadrant integrals of a normalized joint density w(X1, X2).

    ``density`` is a vectorized callable already bound to the angles; the
    angles are only recorded in the result.  Each half line is mapped to
    (0, 1) by X = scale * atanh(t) and integrated with ``NUMERIC_GL_ORDER``-point
    Gauss-Legendre panels; the panel count doubles from ``NUMERIC_PANELS``
    until the quadruple is stable to ``NUMERIC_TOL``.  Deviation of the sum
    from 1 beyond ``PROB_SUM_TOL`` is treated as an error signal, never
    renormalized away.
    """
    prev = None
    panels = NUMERIC_PANELS
    for _ in range(NUMERIC_MAX_DOUBLINGS + 1):
        nodes, weights = _tanh_half_line(scale, panels)
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
        if prev is not None and np.max(np.abs(quads - prev)) <= NUMERIC_TOL:
            break
        prev = quads
        panels *= 2
    else:
        raise ConvergenceError(
            f"quadrant integrals did not stabilize to {NUMERIC_TOL} "
            f"within {NUMERIC_MAX_DOUBLINGS} panel doublings"
        )
    return SignBinnedProbs(*quads, theta1=theta1, theta2=theta2).validate()


def _tanh_half_line(scale: float, panels: int):
    """Nodes/weights for int_0^inf f(X) dX via X = scale * atanh(t), t in (0,1)."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    base = gauss_legendre(NUMERIC_GL_ORDER, 0.0, 1.0)
    t = (edges[:-1, None] + np.diff(edges)[:, None] * base.nodes[None, :]).ravel()
    wt = (np.diff(edges)[:, None] * base.weights[None, :]).ravel()
    nodes = scale * np.arctanh(t)
    weights = wt * scale / (1.0 - t * t)
    return nodes, weights


def sign_binned_closed_form(state, theta1: float, theta2: float) -> SignBinnedProbs:
    """Closed-form sign-binned probabilities ((1+E)/4, (1-E)/4, (1-E)/4, (1+E)/4).

    Squeezed vacuum: E = -(2/pi) arctan(b/N), continuous in theta1 + theta2
    through the principal branch of arctan (b changes sign with
    cos(theta1 + theta2), so no piecewise sign bookkeeping is needed).

    Fock pair and pair coherent, sum_n c_n |n n>: the Fock-basis sum (Munro,
    PRA 59, 4197 (1999)) E = sum_{m,n} c_m c_n G_mn^2 cos((m - n)(theta1 +
    theta2)) with G = sign_matrix, over the Fock levels that c_n needs.
    """
    if state.gaussian:
        _, b, d = st.squeezed_homodyne(state.s, theta1 + theta2)
        corr = -2.0 * math.atan((b / d) / (1.0 / math.sqrt(d))) / math.pi  # b/N of the tomogram
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
    var = st.squeezed_homodyne(math.atanh(lam), 0.0)[0] / 4.0
    x = np.asarray(x, dtype=float)
    val = np.exp(-0.5 * x**2 / var) / math.sqrt(2.0 * math.pi * var)
    return float(val) if val.ndim == 0 else val + 0.0 * np.asarray(theta)


# ---------------------------------------------------------------------------
# Inverse transforms
# ---------------------------------------------------------------------------


def inverse_fourier_wigner(tomogram_values, x_nodes, theta_nodes, q_nodes, p_nodes):
    """Single-mode Wigner function from homodyne tomogram samples.

    ``tomogram_values[i, j] = w(X_i, theta_j)`` on a uniform X grid and a
    uniform theta grid covering [0, pi).  Filtered back-projection:

      W(q, p) = (1/4 pi^2) int_0^pi dtheta int_{-K}^{K} dk |k|
                e^{-k^2 sigma^2 / 2} int dX w(X, theta)
                e^{i k (X - q cos theta - p sin theta)},

    where the 1/(2 pi)^2 factor is the normalization that makes the vacuum
    reconstruct to a unit-mass Wigner surface, K = ``INVERSE_K_MAX`` and the
    Gaussian window of width sigma = ``INVERSE_DAMPING_WIDTH`` regularizes
    the |k| filter.  The surface must integrate to 1 within
    ``INVERSE_NORM_TOL`` and be real within ``INVERSE_IMAG_TOL`` (relative);
    it is never renormalized.

    Returns (wigner_grid, integral): the real surface of shape
    (q_nodes.size, p_nodes.size) as computed, and its trapezoid integral.
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
    half = gauss_legendre(INVERSE_K_ORDER // 2, 0.0, INVERSE_K_MAX)
    k = np.concatenate([-half.nodes[::-1], half.nodes])
    k_weights = np.concatenate([half.weights[::-1], half.weights])
    filt = k_weights * np.abs(k) * np.exp(-0.5 * (INVERSE_DAMPING_WIDTH * k) ** 2)

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
    if float(np.max(np.abs(surface.imag))) > INVERSE_IMAG_TOL * scale:
        raise AccuracyError(
            f"reconstructed Wigner surface has imaginary residue {np.max(np.abs(surface.imag)):.3e}"
        )
    wig = surface.real
    integral = float(np.trapezoid(np.trapezoid(wig, p, axis=1), q))
    if abs(integral - 1.0) > INVERSE_NORM_TOL:
        raise AccuracyError(
            f"reconstructed Wigner integrates to {integral:.4f}; "
            f"deviation exceeds {INVERSE_NORM_TOL:.0%}"
        )
    return wig, integral


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


def kernel_reconstruct_density(tomogram, cutoff: int):
    """Single-mode density matrix from a tomogram callable w(X, theta).

    rho_mn = (1/4 pi) int_0^{2 pi} dtheta int_0^{K} k dk
             <m| D(-i k e^{i theta}/2) |n> int dX w(X, theta) e^{i k X},

    summed directly on fixed rules: Gauss-Legendre in k on [0, K] with
    K = KERNEL_K_MAX and in X on [-KERNEL_X_HALF, KERNEL_X_HALF], and a
    uniform theta grid.  No regularizer is needed: <m|D|n> and the
    characteristic function of the tomogram each carry exp(-k^2/8).

    Returns (rho, diagnostics) where rho is a (cutoff, cutoff) complex array
    and diagnostics holds ``k_tail``, the largest |integrand| at the last k
    node (which bounds the truncation at K), and ``trace``.
    """
    if cutoff > 10:
        raise DomainError(f"kernel reconstruction is desk scale: cutoff <= 10, got {cutoff}")
    if cutoff < 1:
        raise DomainError(f"cutoff must be >= 1, got {cutoff}")

    x_rule = gauss_legendre(KERNEL_X_ORDER, -KERNEL_X_HALF, KERNEL_X_HALF)
    norm_probe = float(np.sum(x_rule.weights * np.asarray(tomogram(x_rule.nodes, 0.0))))
    if abs(norm_probe - 1.0) > 1e-3:
        raise NormalizationError(
            f"input tomogram integrates to {norm_probe:.6f} at theta = 0; expected 1"
        )

    theta = periodic_trapezoid(KERNEL_THETA_ORDER).nodes
    dtheta = 2.0 * math.pi / KERNEL_THETA_ORDER
    k_rule = gauss_legendre(KERNEL_K_ORDER, 0.0, KERNEL_K_MAX)
    k = k_rule.nodes

    wvals = np.asarray(tomogram(x_rule.nodes[:, None], theta[None, :]), dtype=float)
    chi = np.exp(1j * np.outer(k, x_rule.nodes)) @ (x_rule.weights[:, None] * wvals)

    # angular reduction: A_d(k) = dtheta * sum_j e^{i d theta_j} chi(k, theta_j)
    d_vals = np.arange(-(cutoff - 1), cutoff)
    ang = np.exp(1j * np.outer(d_vals, theta))  # (nd, ntheta)
    a_dk = dtheta * (chi @ ang.T)  # (nk, nd)

    # kernel[m, n] = k <m|D|n> A_{m-n}(k) / 4 pi
    levels = range(cutoff)
    kernel = np.array([[kernel_fock_matrix_element(m, n, k, 0.0) for n in levels] for m in levels])
    kernel *= k * a_dk.T[np.subtract.outer(levels, levels) + cutoff - 1] / (4.0 * math.pi)
    rho = kernel @ k_rule.weights
    diagnostics = {
        "k_tail": float(np.max(np.abs(kernel[:, :, -1]))),
        "trace": float(rho.diagonal().real.sum()),
    }
    return rho, diagnostics
