"""Independent numerical oracles of the package's closed forms, for the tests only.

No command calls them: each one checks a closed form of ``tomobell`` by a
different route.

- ``pair_coherent_integral_direct``: direct quadrature of the pair-coherent
  angular integral, against its Hermite series and the closed-form tomogram.
- ``sign_binned_numeric``: quadrant integrals of a joint density, against
  ``tomography.sign_binned_closed_form``.
- ``correlation_tomographic``: E from a validated ``SignBinnedProbs``,
  against ``tomography.sign_correlation``.
- ``inverse_fourier_wigner``: filtered back-projection of a single-mode
  tomogram, against the Wigner function at the origin.
- ``radon_wigner_grid_sum``: the Radon projection as one ``states.wigner``
  call on the whole (X, t1, t2) grid, against the factored projection.
- ``second_moments_numeric``: the second moments of a joint quadrature
  density on a Gauss-Legendre grid, against the per-mode variance that sets
  the sampler's grid and the squeezed vacuum's homodyne covariance.
- ``homodyne_marginal_tail``: P(X1 >= x0) of a Schmidt-diagonal state from
  numpy's Hermite polynomials, against the rejection sampler's batches and
  ``sampling.marginal_tail``.
- ``fock_superposition_tomogram``: the tomogram of a single-mode Fock
  superposition with phases, against ``tomography.kernel_reconstruct_density``.
- ``schmidt_tomogram``: the joint tomogram of a raw Schmidt vector from
  numpy's Hermite polynomials, against ``tomography.tomogram_closed_form``.
- ``schmidt_wigner``: the Wigner function of a Schmidt vector summed in the
  Fock basis from scipy's Laguerre polynomials, against ``states.wigner``.
- ``RandomSchmidt``: a state whose Schmidt coefficients are random and of
  both signs, which no benchmark state has.
- ``PairCoherentRule``: the pair-coherent state on an angular rule of a
  given node count, against the count ``PairCoherent.angular_order`` picks.
- ``schmidt_sign_correlation``: the sign-binned E of a raw Schmidt vector
  from numpy's Hermite polynomials, against ``tomography.sign_correlation``.
- ``schmidt_xz_dense``: the pseudospin x-z block of a raw Schmidt vector
  from a dense ``np.kron`` density matrix, against ``pseudospin_xz``.
- ``dense_sign_harmonics`` and ``dense_schmidt_pairs``: the Schmidt sums on
  the full L x L grid of levels, zeros included, against the sums that visit
  only the levels with c_n != 0 (bit for bit), on ``SPARSE_PIN_STATES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tomobell import states
from tomobell.errors import AccuracyError, ConvergenceError, DomainError
from tomobell.special import gauss_legendre, hermite_functions, periodic_trapezoid
from tomobell.tomography import SignBinnedProbs

#: Rules of sign_binned_numeric: Gauss-Legendre nodes per panel, the starting
#: panel count, the stability tolerance and the most panel doublings.
NUMERIC_GL_ORDER = 24
NUMERIC_PANELS = 4
NUMERIC_TOL = 1e-10
NUMERIC_MAX_DOUBLINGS = 6
#: Rules of inverse_fourier_wigner: the Gaussian window of the |k| filter, the
#: k range and node count, and the bounds on the surface's integral and on its
#: imaginary residue.
INVERSE_DAMPING_WIDTH = 0.02
INVERSE_K_MAX = 12.0
INVERSE_K_ORDER = 256
INVERSE_NORM_TOL = 0.05
INVERSE_IMAG_TOL = 1e-8


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


def sign_binned_numeric(
    density, theta1: float, theta2: float, *, scale: float = 1.0
) -> SignBinnedProbs:
    """Quadrant integrals of a normalized joint density w(X1, X2).

    ``density`` is a vectorized callable already bound to the angles; the
    angles are only recorded in the result.  Each half line is mapped to
    (0, 1) by X = scale * atanh(t) and integrated with ``NUMERIC_GL_ORDER``-point
    Gauss-Legendre panels; the panel count doubles from ``NUMERIC_PANELS``
    until the quadruple is stable to ``NUMERIC_TOL``.  Deviation of the sum
    from 1 beyond ``tomography.PROB_SUM_TOL`` is treated as an error signal,
    never renormalized away.
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


def correlation_tomographic(probs) -> float:
    """E = w_pp - w_pm - w_mp + w_mm from validated sign-binned probabilities."""
    probs.validate()
    return probs.w_pp - probs.w_pm - probs.w_mp + probs.w_mm


def _tanh_half_line(scale: float, panels: int):
    """Nodes/weights for int_0^inf f(X) dX via X = scale * atanh(t), t in (0,1)."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    base = gauss_legendre(NUMERIC_GL_ORDER, 0.0, 1.0)
    t = (edges[:-1, None] + np.diff(edges)[:, None] * base.nodes[None, :]).ravel()
    wt = (np.diff(edges)[:, None] * base.weights[None, :]).ravel()
    nodes = scale * np.arctanh(t)
    weights = wt * scale / (1.0 - t * t)
    return nodes, weights


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


def radon_wigner_grid_sum(state, x1, setting1, x2, setting2, rule):
    """Line integrals of ``states.wigner`` by one Gauss-Legendre sum over the whole grid.

    Both lines of every (X1, X2) pair are laid on ``rule``'s nodes, as in
    ``tomography.radon_forward_symplectic``, and ``states.wigner`` is called
    once on the (X, t1, t2) grid.
    """
    t = rule.nodes
    q1, p1 = setting1.line(x1[..., None, None], t[:, None])
    q2, p2 = setting2.line(x2[..., None, None], t[None, :])
    wig = states.wigner(state, q1, p1, q2, p2)
    grid_sum = np.sum(wig * np.outer(rule.weights, rule.weights), axis=(-2, -1))
    return grid_sum / (setting1.scale * setting2.scale)


def second_moments_numeric(density, half_width: float, order: int):
    """(<X1^2>, <X2^2>, <X1 X2>) of w(X1, X2) by an order x order Gauss-Legendre rule.

    The rule covers [-half_width, half_width]^2; the zeroth moment must be 1
    to 1e-12, or the window or the order is too small for the density.
    """
    rule = gauss_legendre(order, -half_width, half_width)
    x, w = rule.nodes, rule.weights
    values = density(x[:, None], x[None, :]) * (w[:, None] * w[None, :])
    norm = float(np.sum(values))
    if abs(norm - 1.0) > 1e-12:
        raise AccuracyError(f"density integrates to {norm!r} on the grid, not 1")
    return (float(np.sum(values * (x * x)[:, None])), float(np.sum(values * (x * x)[None, :])),
            float(np.sum(values * np.outer(x, x))))


def _hermite_function_rows(y, levels: int) -> np.ndarray:
    """psi_n(y), n < levels, from numpy's physicists' Hermite series, one row per n."""
    rows = []
    for n in range(levels):
        unit = np.zeros(n + 1)
        unit[n] = 1.0
        rows.append(np.polynomial.hermite.hermval(y, unit) * np.exp(-0.5 * y * y)
                    / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi)))
    return np.array(rows)


def homodyne_marginal_tail(coefficients, x0: float, order: int = 400) -> float:
    """P(X1 >= x0) of sum_n c_n |n n>: the integral of sqrt(2) sum c_n^2 psi_n(sqrt(2) X)^2.

    psi_n(y) = H_n(y) e^{-y^2/2} / sqrt(2^n n! sqrt(pi)) from numpy's
    physicists' Hermite series, integrated over y = sqrt(2) X in
    [sqrt(2) x0, 20] by Gauss-Legendre; for the few dozen levels of the test
    states the tail past y = 20 is below 1e-100.
    """
    rule = gauss_legendre(order, math.sqrt(2.0) * x0, 20.0)
    psi = _hermite_function_rows(rule.nodes, len(coefficients))
    return float(np.square(coefficients) @ np.square(psi) @ rule.weights)


def fock_superposition_tomogram(amplitudes, x, theta):
    """w(X, theta) of the single-mode state sum_n a_n |n>.

    w = sqrt(2) |sum_n a_n e^{-i n theta} psi_n(sqrt(2) X)|^2, psi_n from numpy's
    physicists' Hermite series; X and theta broadcast.
    """
    x, theta = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(theta, dtype=float))
    psi = _hermite_function_rows(math.sqrt(2.0) * x.ravel(), len(amplitudes))
    phases = np.exp(-1j * np.outer(np.arange(len(amplitudes)), theta.ravel()))
    amplitude = np.sum(np.asarray(amplitudes)[:, None] * phases * psi, axis=0)
    return math.sqrt(2.0) * (np.abs(amplitude) ** 2).reshape(x.shape)


def schmidt_tomogram(c, x1, x2, theta_sum: float):
    """w(X1, X2) of sum_n c_n |n n> at theta1 + theta2 = ``theta_sum``, from the raw vector.

    2 |sum_n c_n e^{-i n theta_sum} psi_n(sqrt(2) X1) psi_n(sqrt(2) X2)|^2,
    psi_n from numpy's physicists' Hermite series; X1 and X2 broadcast.
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    c = np.asarray(c, dtype=float)
    psi1, psi2 = (_hermite_function_rows(math.sqrt(2.0) * x.ravel(), c.size) for x in (x1, x2))
    weights = c * np.exp(-1j * theta_sum * np.arange(c.size))
    return 2.0 * (np.abs(weights @ (psi1 * psi2)) ** 2).reshape(x1.shape)


def schmidt_wigner(c, q1, p1, q2, p2):
    """The Wigner function of sum_n c_n |n n>, summed over Fock-basis pairs m <= n.

    W = (2/pi)^2 sum_{m<=n} (2 - delta_mn) c_m c_n Re[F_mn(a1) F_mn(a2)],
    F_mn(a) = sqrt(m!/n!) (2a)^(n-m) L_m^(n-m)(4|a|^2) e^{-2|a|^2}, a = q - i p:
    the (-1)^m of each mode's |m><n| Wigner function cancels in the product.
    The Laguerre polynomials come from scipy's ``eval_genlaguerre`` and
    sqrt(m!/n!) from its ``gammaln``.
    """
    from scipy.special import eval_genlaguerre, gammaln

    modes = [np.asarray(q, dtype=float) - 1j * np.asarray(p, dtype=float)
             for q, p in ((q1, p1), (q2, p2))]
    total = np.zeros(np.broadcast(*modes).shape)
    for n in range(len(c)):
        for m in range(n + 1):
            if c[m] * c[n] == 0.0:
                continue
            f1, f2 = (
                math.exp(0.5 * (gammaln(m + 1.0) - gammaln(n + 1.0))) * (2.0 * a) ** (n - m)
                * eval_genlaguerre(m, n - m, 4.0 * np.abs(a) ** 2) * np.exp(-2.0 * np.abs(a) ** 2)
                for a in modes
            )
            total += (1.0 if m == n else 2.0) * c[m] * c[n] * (f1 * f2).real
    return (2.0 / math.pi) ** 2 * total


@dataclass(frozen=True)
class RandomSchmidt(states.TwoModeState):
    """sum_n c_n |n n> with ``levels`` normal random c_n of both signs, normalized.

    c_n = 0 past ``levels``; the seed fixes the vector.
    """

    seed: int
    levels: int

    @property
    def coefficients(self) -> np.ndarray:
        c = np.random.default_rng(self.seed).standard_normal(self.levels)
        return c / np.linalg.norm(c)

    def schmidt(self, levels):
        return np.concatenate((self.coefficients, np.zeros(levels)))[:levels]


@dataclass(frozen=True)
class PairCoherentRule(states.PairCoherent):
    """The pair-coherent state whose Wigner factors take ``nodes`` angular nodes."""

    nodes: int

    @property
    def angular_order(self) -> int:
        return self.nodes


def schmidt_sign_correlation(c, theta_sum: float, order: int = 400) -> float:
    """E = sum_mn c_m c_n G_mn^2 cos((m - n) Theta) with G_mn = <m| sgn X |n> by quadrature.

    G_mn = (1 - (-1)^(m+n)) int_0^20 psi_m psi_n dy, Gauss-Legendre on
    [0, 20]: psi_m psi_n has parity (-1)^(m+n), and for the few dozen levels
    of the test states the tail past y = 20 is below 1e-100.
    """
    c = np.asarray(c, dtype=float)
    rule = gauss_legendre(order, 0.0, 20.0)
    psi = _hermite_function_rows(rule.nodes, c.size)
    k = np.arange(c.size)
    g = (1.0 - (-1.0) ** np.add.outer(k, k)) * ((psi * rule.weights) @ psi.T)
    return float(np.sum(np.outer(c, c) * g * g * np.cos(np.subtract.outer(k, k) * theta_sum)))


def schmidt_xz_dense(c, cutoff: int) -> tuple[float, float, float, float]:
    """(T_zz, T_xx, T_xz, T_zx) = Tr[rho (a . S) x (b . S)] of rho = |psi><psi|, dense.

    |psi> = sum_n c_n |n> x |n> is built with ``np.kron`` on ``cutoff`` levels
    per mode; Sz = diag((-1)^n) and Sx pairs |2k> with |2k+1>.
    """
    eye = np.eye(cutoff)
    psi = sum(cn * np.kron(eye[n], eye[n]) for n, cn in enumerate(c[:cutoff]))
    rho = np.outer(psi, psi)
    sz = np.diag((-1.0) ** np.arange(cutoff))
    sx = np.zeros((cutoff, cutoff))
    sx[np.arange(0, cutoff, 2), np.arange(1, cutoff, 2)] = 1.0
    sx += sx.T
    pairs = ((sz, sz), (sx, sx), (sx, sz), (sz, sx))
    return tuple(float(np.trace(rho @ np.kron(a, b))) for a, b in pairs)


#: States whose nonzero-level Schmidt sums are pinned to the dense ones: every
#: level nonzero (pair coherent), two of up to 1001 (Fock pair), and signed.
SPARSE_PIN_STATES = (
    [states.PairCoherent(r) for r in (0.5, 1.0, 1.1, 2.0, 8.0, 18.0)]
    + [states.FockPairSuperposition(n) for n in (1, 3, 50, 1000)]
    + [RandomSchmidt(1, 6), RandomSchmidt(2, 9), RandomSchmidt(3, 16)]
)


def dense_sign_harmonics(c) -> np.ndarray:
    """h_d = sum_{|m-n|=d} c_m c_n G_mn^2 from the full L x L matrices of c_m c_n and G_mn."""
    levels = np.arange(c.size)
    psi0 = np.array([p for _, p in zip(levels, hermite_functions(0.0))])
    dpsi0 = np.sqrt(2.0 * levels) * np.concatenate(([0.0], psi0[:-1]))
    diff = np.subtract.outer(levels, levels)
    g = (np.outer(dpsi0, psi0) - np.outer(psi0, dpsi0)) / np.where(diff == 0, 1, diff)
    weights = np.outer(c, c) * g**2
    return np.bincount(np.abs(diff).ravel(), weights=weights.ravel())


def dense_schmidt_pairs(c, upper: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) with c_m c_n != 0 from the full L x L matrix c_m c_n (m <= n if ``upper``)."""
    products = np.outer(c, c)
    return np.nonzero(np.triu(products) if upper else products)
