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
w = |I|^2 exp(-2 X1^2 - 2 X2^2) / (2 pi^3 I0(2 r^2)), is kept as a test
oracle of that sum: the Hermite series 2 pi sum_n H_n(x1) H_n(x2)
alpha^{2n} / (2^n (n!)^2), alpha = r exp(-i (t1+t2)/2)
(pair_coherent_integral_series).

Sign-binned probabilities are scale invariant; beyond the squeezed vacuum
they come from a Fock-basis sum over the Schmidt vector (sign_binned_closed_form).
sign_correlation sets that sum up once per state and returns the correlation
E(theta1, theta2) that the CHSH searches call.

The kernel reconstruction of a single-mode density matrix
(kernel_reconstruct_density) sums its k integral directly on [0, 20], with
no regularizer: <m|D(k)|n> and the tomogram's characteristic function each
carry exp(-k^2/8).  Its diagnostics are k_tail, the largest |integrand| at
the last k node, and the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

import numpy as np

from . import states as st
from .errors import ConvergenceError, DomainError, NormalizationError
from .special import gauss_legendre, hermite_functions, laguerre_pairs, periodic_trapezoid

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
#: Half-width of the squeezed vacuum's Radon grid in its integrand's
#: principal-axis coordinates, where the integrand is exp(-xi^2 - eta^2):
#: each axis leaves out erfc(6) < 3e-17 of its mass.
GAUSSIAN_HALF_WIDTH = 6.0
#: First Gauss-Legendre order of that grid: 48 nodes on +/- 6 integrate
#: exp(-x^2) to rounding (32 nodes miss by 5e-11), and one doubling checks it.
GAUSSIAN_ORDER = 48
#: First Gauss-Legendre order of the factored Radon lines.
FACTORED_ORDER = 96
#: Relative tail below which pair_coherent_integral_series stops.
SERIES_TOL = 1e-12


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
        _check_quadrants(self.as_tuple())
        return self

    def as_tuple(self):
        return (self.w_pp, self.w_pm, self.w_mp, self.w_mm)


def _check_quadrants(probs) -> None:
    """Raise NormalizationError unless (w_pp, w_pm, w_mp, w_mm) lie in [0, 1] and sum to 1."""
    for name, v in zip(("w_pp", "w_pm", "w_mp", "w_mm"), probs):
        if not (-PROB_RANGE_TOL <= v <= 1.0 + PROB_RANGE_TOL):
            raise NormalizationError(f"{name} = {v} outside [0, 1]")
    total = sum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise NormalizationError(
            f"sign-binned probabilities sum to {total:.12f} (deviation {total - 1.0:.3e})"
        )


# ---------------------------------------------------------------------------
# Forward Radon projection
# ---------------------------------------------------------------------------


def radon_forward_symplectic(
    state,
    x1,
    setting1: SymplecticSetting,
    x2,
    setting2: SymplecticSetting,
    *,
    order: int | None = None,
    max_doublings: int | None = None,
    tol: float = 1e-8,
    record: dict | None = None,
):
    """Symplectic tomogram w(X1, mu1, nu1, X2, mu2, nu2) by line projection.

    Per mode the line mu q + nu p = X is parametrized as
    q = mu X / r^2 - (nu / r) t, p = nu X / r^2 + (mu / r) t with
    r = sqrt(mu^2 + nu^2); the tomogram is the double line integral of the
    Wigner function divided by r1 r2.  The Gauss-Legendre order starts at
    ``order`` and is doubled until two successive estimates agree to ``tol``,
    at most ``max_doublings`` times.  By default the squeezed vacuum starts
    at ``GAUSSIAN_ORDER`` (48) and doubles once; the other states start at
    ``FACTORED_ORDER`` (96) and double up to the node count of the sampler's
    grid, 8 per lobe of the narrowest fringe, and at least 3 times.

    Every other state is projected through the factor form of its Wigner
    function (``TwoModeState.wigner_factors``, at its default angular order):
    each mode's factors are integrated along its own line first, once per
    distinct X value, on lines that span the sampler's square (the
    ``half_width`` and ``grid_points`` of ``states.significant_schmidt``).
    The squeezed vacuum, whose Gaussian cross term does not factor,
    is summed with one ``states.wigner`` call per X pair, on a grid along
    its integrand's principal axes (``_gaussian_axes``) that spans
    +/- ``GAUSSIAN_HALF_WIDTH``.

    A ``record`` dict receives what the check ran, whether or not it
    converges: ``orders``, the Gauss-Legendre orders, ``changes``, the
    largest change at each doubling, and ``half_width``, the rules' span
    (in principal-axis units for the squeezed vacuum); for the factored
    states also ``angular_order``, the K of the pair-coherent factors'
    angular rule (None for the Fock-basis sum, which has none).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.broadcast_arrays(np.atleast_1d(x1), np.atleast_1d(x2))
    orders, changes = [], []
    record = {} if record is None else record
    record.update(orders=orders, changes=changes)  # filled in as the orders run
    if state.gaussian:  # never the Schmidt vector: near lambda = 1 it has ~1e7 levels
        half_width, budget = GAUSSIAN_HALF_WIDTH, 1
        order = GAUSSIAN_ORDER if order is None else order
        project = partial(_project_gaussian, state, *_gaussian_axes(state, setting1, setting2))
    else:
        schmidt = st.significant_schmidt(state)
        half_width = schmidt.half_width
        order = FACTORED_ORDER if order is None else order
        budget = max(3, math.ceil(math.log2(schmidt.grid_points / order)))
        factors = state.wigner_factors()
        record["angular_order"] = factors.angular_order
        project = partial(_project_factored, factors)
    record["half_width"] = half_width
    max_doublings = budget if max_doublings is None else max_doublings

    prev = None
    for k in range(max_doublings + 1):
        orders.append(order * 2**k)
        rule = gauss_legendre(orders[-1], -half_width, half_width)
        cur = project(x1, setting1, x2, setting2, rule)
        if prev is not None:
            changes.append(float(np.max(np.abs(cur - prev))))
            if changes[-1] <= tol * max(1.0, float(np.max(np.abs(cur)))):
                return float(cur[0]) if scalar else cur
        prev = cur
    raise ConvergenceError(
        f"Radon projection did not stabilize to {tol} within {max_doublings} grid doublings: "
        f"Gauss-Legendre orders {orders}, max |change| at each doubling "
        f"[{', '.join(f'{change:.3e}' for change in changes)}]"
    )


def _gaussian_axes(state, setting1, setting2):
    """Centre and principal axes of a Gaussian Wigner function's integrand along the two lines.

    -log W is an exact quadratic c + g.z + z.H.z / 2 in z = (t1, t2, X1, X2),
    so a forward-difference stencil of ``states.wigner`` at the origin, where
    W is largest, gives g and H exactly up to rounding.  At fixed X the
    integrand peaks at t0 = -H_tt^-1 (g_t + H_tX X); with t = t0 + A (xi, eta),
    A = V diag(sqrt(2 / h)) from H_tt = V diag(h) V^T, it is
    W(t0) exp(-xi^2 - eta^2).  Returns (centre, A), t0 = centre @ (1, X1, X2).
    The two line directions are orthonormal in (q1, p1, q2, p2), so the
    eigenvalues h lie within those of -log W's own Hessian and are positive.
    """
    step = 1e-2
    i, j = np.triu_indices(4)
    eye = np.eye(4)
    z = step * np.vstack([np.zeros(4), eye, eye[i] + eye[j]])
    w = st.wigner(state, *setting1.line(z[:, 2], z[:, 0]), *setting2.line(z[:, 3], z[:, 1]))
    if not np.all(w > 0.0):
        raise ConvergenceError(f"W underflows on the Radon finite-difference stencil ({step} step)")
    f = -np.log(w)
    hess = np.empty((4, 4))
    hess[i, j] = hess[j, i] = (f[5:] - f[1 + i] - f[1 + j] + f[0]) / step**2
    grad = (f[1:5] - f[0]) / step - 0.5 * step * hess.diagonal()
    curvatures, vectors = np.linalg.eigh(hess[:2, :2])
    centre = -np.linalg.solve(hess[:2, :2], np.column_stack([grad[:2], hess[:2, 2:]]))
    return centre, vectors * np.sqrt(2.0 / curvatures)


def _project_gaussian(state, centre, axes, x1, setting1, x2, setting2, rule):
    """Line integrals of ``states.wigner`` on each X pair's grid along ``_gaussian_axes``."""
    shifts = np.tensordot(axes, np.meshgrid(rule.nodes, rule.nodes, indexing="ij"), 1)
    # line() is affine in t: each pair's (q, p) grid is its peak's point plus these offsets
    (dq1, dp1), (dq2, dp2) = setting1.line(0.0, shifts[0]), setting2.line(0.0, shifts[1])
    peaks = centre @ np.stack([np.ones(x1.size), x1.ravel(), x2.ravel()])
    out = np.empty(x1.size)
    for k, (a, b, t1, t2) in enumerate(zip(x1.flat, x2.flat, *peaks)):
        (q1, p1), (q2, p2) = setting1.line(a, t1), setting2.line(b, t2)
        wig = st.wigner(state, q1 + dq1, p1 + dp1, q2 + dq2, p2 + dp2)
        out[k] = rule.weights @ wig @ rule.weights
    return abs(np.linalg.det(axes)) * out.reshape(x1.shape) / (setting1.scale * setting2.scale)


def _project_factored(factors, x1, setting1, x2, setting2, rule):
    """Line integrals of a Wigner factor form on one rule, one mode at a time.

    Per mode and distinct X: A_jk(X) = sum_t w_t left_j right_k, a (J x m)(m x K)
    product; then w(X1, X2) = Re sum_jk C_jk A_jk(X1) B_jk(X2) / (r1 r2).
    The X values go in blocks whose (X, m, J) and (X, m, K) factor arrays
    hold at most ``states.MAX_BLOCK`` entries together, or one X value.
    """
    chunk = max(1, st.MAX_BLOCK // (rule.nodes.size * sum(factors.coupling.shape)))
    lines = []
    for i, (x, setting) in enumerate(((x1, setting1), (x2, setting2))):
        values, index = np.unique(x.ravel(), return_inverse=True)
        blocks = []
        for start in range(0, values.size, chunk):
            q, p = setting.line(values[start:start + chunk, None], rule.nodes[None, :])
            left, right = factors.mode(i, q, p)
            blocks.append(np.swapaxes(left * rule.weights[:, None], 1, 2) @ right)  # (X, J, K)
        lines.append((np.concatenate(blocks).reshape(values.size, -1), index))
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
                im += term * (c * math.sin(n * theta))
                term *= c * math.cos(n * theta)
                re += term
        val = 2.0 * (re * re + im * im)
    return float(val) if np.ndim(val) == 0 else val


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


def sign_binned_closed_form(state, theta1: float, theta2: float) -> SignBinnedProbs:
    """Closed-form sign-binned probabilities ((1+E)/4, (1-E)/4, (1-E)/4, (1+E)/4).

    E is the state's sign correlation at theta1 + theta2 (``_sign_series``).
    """
    probs = _quadrants(_sign_series(state)(theta1 + theta2))
    return SignBinnedProbs(*probs, theta1, theta2).validate()


def sign_correlation(state):
    """The tomographic correlation E(theta1, theta2) = w_pp - w_pm - w_mp + w_mm of a state.

    The state's series is set up once, and each call of the returned function
    checks its probabilities as ``SignBinnedProbs.validate`` does, raising the
    same ``NormalizationError``: E equals the difference taken from
    ``sign_binned_closed_form``, bit for bit.
    """
    series = _sign_series(state)

    def correlation(theta1, theta2):
        w_pp, w_pm, w_mp, w_mm = probs = _quadrants(series(theta1 + theta2))
        _check_quadrants(probs)
        return w_pp - w_pm - w_mp + w_mm

    return correlation


def _quadrants(corr: float) -> tuple[float, float, float, float]:
    same, diff = 0.25 * (1.0 + corr), 0.25 * (1.0 - corr)
    return same, diff, diff, same


def _sign_series(state):
    """The sign-binned correlation E of a state as a function of theta1 + theta2.

    Squeezed vacuum: E = -(2/pi) arctan(b/N), continuous in theta1 + theta2
    through the principal branch of arctan (b changes sign with
    cos(theta1 + theta2), so no piecewise sign bookkeeping is needed).

    Fock pair and pair coherent, sum_n c_n |n n>: the Fock-basis sum (Munro,
    PRA 59, 4197 (1999)) E = sum_{m,n} c_m c_n G_mn^2 cos((m - n)(theta1 +
    theta2)) with G = sign_matrix, over the Fock levels that c_n needs,
    gathered once into the harmonics h_d of ``_sign_harmonics``.
    """
    if state.gaussian:
        def series(theta):
            _, b, d = st.squeezed_homodyne(state.s, theta)
            return -2.0 * math.atan((b / d) / (1.0 / math.sqrt(d))) / math.pi  # b/N of the tomogram

        return series
    h = _sign_harmonics(state)
    levels = np.arange(h.size)

    def series(theta):
        return float(h @ np.cos(levels * theta))

    return series


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


def displacement_matrix(cutoff: int, k):
    """The (cutoff, cutoff, k.size) array of <m| D(-i k/2) |n> over an array of k >= 0.

    The reconstruction kernel reduces to (1/4 pi) e^{i X} D((nu - i mu)/2)
    in this package's convention; on the line mu = k, nu = 0 the displacement
    amplitude is -i k/2.  The element is (-i)^|d| times the normalized Laguerre
    function of order min(m, n) and alpha = |d| at k^2/4, d = m - n
    (``laguerre_pairs``).
    """
    out = np.empty((cutoff, cutoff, k.size), dtype=complex)
    pairs = [(m, m + d) for d in range(cutoff) for m in range(cutoff - d)]
    for (m, n), l in zip(pairs, laguerre_pairs(0.25 * k * k, pairs)):
        out[m, n] = out[n, m] = (1.0, -1j, -1.0, 1j)[(n - m) % 4] * l
    return out


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

    # kernel[m, n] = k <m|D|n> A_{m-n}(k) / 4 pi, with D = D(-i k/2) at theta = 0
    levels = np.arange(cutoff)
    kernel = displacement_matrix(cutoff, k)
    kernel *= k * a_dk.T[np.subtract.outer(levels, levels) + cutoff - 1] / (4.0 * math.pi)
    rho = kernel @ k_rule.weights
    diagnostics = {
        "k_tail": float(np.max(np.abs(kernel[:, :, -1]))),
        "trace": float(rho.diagonal().real.sum()),
    }
    return rho, diagnostics
