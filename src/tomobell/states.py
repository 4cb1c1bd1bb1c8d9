"""Benchmark two-mode states: Schmidt vectors, density matrices, Wigner functions.

Quadrature convention, fixed once and used everywhere in the package: the
vacuum variance of every rotated quadrature X(theta) = q cos(theta) +
p sin(theta) is 1/4, so the single-mode vacuum Wigner function is
W(q, p) = (2/pi) exp(-2 q^2 - 2 p^2).  The squeezed-vacuum formulas are
native to this convention.  The Fock-pair and pair-coherent closed forms
are natively written in units where the vacuum variance is 1/2; they are
mapped here by scaling the arguments by sqrt(2) and multiplying by the
Jacobian (a factor 2 per mode for Wigner functions, sqrt(2) per quadrature
for tomograms).  Sign-binned probabilities and every Bell quantity are
invariant under that rescaling.

All three benchmark states are Schmidt-diagonal, |psi> = sum_n c_n |n>|n>:

    squeezed vacuum      c_n = sqrt(1 - lam^2) lam^n        (lam = tanh s)
    Fock pair (|00>+|nn>)/sqrt(2)   c_k = (delta_k0 + delta_kn)/sqrt(2)
    pair coherent        c_n = r^{2n} / (n! sqrt(I0(2 r^2)))

Density matrices are stored truncated at a per-mode cutoff; the probability
mass lost to truncation is reported as ``trace_deficit``, never silently
renormalized away.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, UnsupportedStateError
from .special import bessel_i0, bessel_j0, hermite_functions, laguerre_pairs, periodic_trapezoid

HERMITICITY_TOL = 1e-12
DIAGONAL_TOL = 1e-12
TRACE_TOL = 1e-9

#: Default per-mode Fock cutoff for density matrices.
DEFAULT_CUTOFF = 64

#: Largest share of the norm a truncated Schmidt vector may miss: in ``significant_schmidt``,
#: and in the CLI's pseudospin blocks, whose larger ``trace_deficit`` exits 3.
DEFICIT_TOL = 1e-12

#: Largest mass of w that the square of ``square_half_width`` may leave
#: outside: the resolution of the sampler's uniform draws.
OUTSIDE_MASS_LIMIT = 2.0**-53

#: Largest r whose pair-coherent Wigner function ``wigner`` evaluates: past it the
#: factors cancel so far that rounding errors reach 1e-6 of the peak (r = 13.5).
MAX_WIGNER_R = 13.0

#: Elements per evaluation block (1 MB of complex): the entries of each
#: (points, J) or (points, K) factor array inside ``wigner``.
MAX_BLOCK = 1 << 16


class TwoModeState:
    """A two-mode state, and the facts about it that the package's formulas need.

    ``schmidt`` defaults to an ``UnsupportedStateError``; a benchmark state overrides
    it, and ``wigner_factors`` and ``pseudospin_xz`` read it unless overridden too.
    ``gaussian`` marks the squeezed vacuum, whose tomograms, sign-binned
    probabilities and samples have Gaussian closed forms (``squeezed_homodyne``).
    """

    gaussian = False

    def schmidt(self, levels: int) -> np.ndarray:
        """The first ``levels`` Schmidt coefficients c_n of sum_n c_n |n n>."""
        raise UnsupportedStateError(
            f"schmidt_coefficients needs a pure benchmark state, got {type(self).__name__}"
        )

    def wigner_factors(self, order: int | None = None) -> "WignerFactors":
        """The Fock-basis sum over ``significant_schmidt`` (see ``wigner``); no angular rule."""
        _check_angular_order(order)
        c = significant_schmidt(self).coefficients
        k = np.flatnonzero(c)  # only these levels enter: the Fock pair's 2 of its n + 1
        m, n = (k[i] for i in np.nonzero(np.triu(np.outer(c[k], c[k]))))
        pairs, diagonals = list(zip(m.tolist(), n.tolist())), set((n - m).tolist())

        def mode(_, q, p):
            turn = -1j * np.arctan2(p, q)  # i arg a, a = q - i p
            phase = {d: np.exp(d * turn) if d else 1.0 for d in diagonals}
            run = laguerre_pairs(4.0 * (q * q + p * p), pairs)
            left = np.stack([l * phase[j - i] for (i, j), l in zip(pairs, run)], -1)
            return left, np.ones(left.shape[:-1] + (1,))

        return WignerFactors((np.where(m == n, 4.0, 8.0) / math.pi**2 * c[m] * c[n])[:, None], mode)

    def pseudospin_xz(self, cutoff: int) -> tuple[tuple[float, float, float, float], float | None]:
        """(T, trace_deficit): the x-z block T = (T_zz, T_xx, T_xz, T_zx) of ``bell.correlation_xz``.

        By default T comes from the Schmidt vector truncated at ``cutoff``, and
        its deficit bounds |E_true - E|.  A closed form is exact at every cutoff
        and has deficit None.
        """
        schmidt = schmidt_coefficients(self, cutoff)
        return schmidt.xz_block(), schmidt.deficit


@dataclass(frozen=True)
class SqueezedVacuum(TwoModeState):
    """Two-mode squeezed vacuum with lam = tanh(s) in [0, 1)."""

    lam: float
    gaussian = True

    def __post_init__(self):
        if not (0.0 <= self.lam < 1.0):
            raise DomainError(f"squeezed vacuum requires 0 <= lambda < 1, got {self.lam}")

    @property
    def s(self) -> float:
        """Squeezing parameter s = atanh(lambda)."""
        return math.atanh(self.lam)

    def schmidt(self, levels):
        return math.sqrt(1.0 - self.lam**2) * self.lam ** np.arange(levels)

    def wigner_factors(self, order=None):
        """Refused: ``wigner`` has the Gaussian, and c_n may need ~1e7 levels (lam -> 1)."""
        raise UnsupportedStateError("the squeezed vacuum has no factor form of its Wigner function")

    def pseudospin_xz(self, cutoff):
        """((1, 2 lam / (1 + lam^2), 0, 0), None) at every cutoff."""
        return (1.0, 2.0 * self.lam / (1.0 + self.lam**2), 0.0, 0.0), None


@dataclass(frozen=True)
class FockPairSuperposition(TwoModeState):
    """The superposition (|00> + |nn>)/sqrt(2) with n >= 1."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DomainError(f"Fock pair superposition requires integer n >= 1, got {self.n}")

    def schmidt(self, levels):
        coeffs = np.zeros(levels)
        coeffs[0] = 1.0 / math.sqrt(2.0)
        if self.n < levels:
            coeffs[self.n] = 1.0 / math.sqrt(2.0)
        return coeffs

    def pseudospin_xz(self, cutoff):
        """((1, 1, 0, 0), None) for n = 1, ((1, 0, 0, 0), None) for n > 1, at every cutoff."""
        return (1.0, 1.0 if self.n == 1 else 0.0, 0.0, 0.0), None


@dataclass(frozen=True)
class PairCoherent(TwoModeState):
    """Phase-averaged pair of equal-amplitude coherent states, r > 0."""

    r: float

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(bessel_i0(2.0 * self.r * self.r))):  # r < ~18.9
            raise DomainError(f"pair-coherent r must be > 0 with I0(2 r^2) finite, got {self.r}")

    def schmidt(self, levels):
        coeffs = np.empty(levels)
        term = 1.0
        coeffs[0] = term
        for n in range(1, levels):
            term *= self.r**2 / n
            coeffs[n] = term
        return coeffs / math.sqrt(bessel_i0(2.0 * self.r**2))

    @property
    def angular_order(self) -> int:
        """Default node count K of ``wigner_factors``' angular rule.

        K is the smallest multiple of 8, at least 16, with (e r^2 / (2K))^(K/2)
        <= 1e-20: about the largest Fourier coefficient e^{-|a|^2} I_K(2 r |a|)
        of a mode factor, which the K-node rule aliases onto its integral.
        32 at r = 1, 128 at r = 6.5, 280 at r = 12.
        """
        order = 16
        while 0.5 * order * math.log(math.e * self.r**2 / (2 * order)) > math.log(1e-20):
            order += 8
        return order

    def wigner_factors(self, order=None):
        """Both angular integrals on ``order`` trapezoid nodes, ``angular_order`` by default
        (``wigner``); only r up to ``MAX_WIGNER_R`` is evaluated."""
        if self.r > MAX_WIGNER_R:
            raise DomainError(
                f"pair-coherent Wigner function needs r <= {MAX_WIGNER_R}, got {self.r}: "
                "past it rounding dominates its factor sums"
            )
        order = self.angular_order if order is None else _check_angular_order(order)
        r = self.r
        rule = periodic_trapezoid(order)
        phi = rule.nodes
        coupling = (
            np.outer(rule.weights, rule.weights)
            * np.exp(-2.0 * r * r * np.cos(phi[:, None] - phi[None, :]))
            / (math.pi**4 * bessel_i0(2.0 * r * r))
        )
        turns = (np.exp(1j * phi), np.exp(-1j * phi))

        def mode(i, q, p):
            # sqrt(g) goes into each factor, which keeps both of them below exp(r^2)
            a = (q - 1j * p)[..., None]
            half_gauss = -(q * q + p * p)[..., None]
            left = np.exp(half_gauss + 2.0 * r * a * turns[i])
            right = np.exp(half_gauss + 2.0 * r * a.conj() * turns[1 - i])
            return left, right

        return WignerFactors(coupling, mode, order)


def squeezed_homodyne(s: float, theta_sum: float) -> tuple[float, float, float]:
    """(cosh 2s, sinh 2s cos Theta, d) of the squeezed vacuum's homodyne Gaussian.

    At angle sum Theta = theta1 + theta2, (X1, X2) has variances cosh(2s)/4
    and covariance -sinh(2s) cos(Theta)/4; ``tomography`` writes its
    tomogram and quadrant correlation with a = cosh(2s)/d, b = sinh(2s)
    cos(Theta)/d and N = 1/sqrt(d).  d = cosh^2(2s) - sinh^2(2s) cos^2 Theta
    is taken as 1 + sinh^2(2s) sin^2 Theta, which avoids the catastrophic
    cancellation of the direct difference at large s.
    """
    t = math.sinh(2.0 * s)
    return math.cosh(2.0 * s), t * math.cos(theta_sum), 1.0 + (t * math.sin(theta_sum)) ** 2


def pair_coherent_bessel_coefficient(r: float) -> float:
    """The Bessel-ratio x-x coefficient c(r) = r^2 (1 - J0/I0)(2 r^2)."""
    x = 2.0 * r * r
    return r * r * (1.0 - bessel_j0(x) / bessel_i0(x))


class DensityMatrix:
    """Truncated two-mode Fock-basis density matrix, held as its nonzero entries.

    Entry k is rho[rows[k], cols[k]] = values[k], with flat index
    i = n1 * cutoff + n2 (row-major, kron-compatible); unlisted entries are 0.
    Construction sorts the entries into row-major order and validates the
    cutoff, the indices, hermiticity, nonnegative diagonal, and trace +
    trace_deficit = 1 within fixed tolerances.
    """

    def __init__(self, cutoff: int, rows, cols, values, trace_deficit: float):
        rows, cols, values = np.asarray(rows), np.asarray(cols), np.asarray(values, dtype=complex)
        if not rows.shape == cols.shape == values.shape == (rows.size,):
            raise DimensionError("rows, cols and values must be 1-D arrays of one length")
        if not (math.isfinite(cutoff) and cutoff == math.floor(cutoff) and cutoff >= 1):
            raise DomainError(f"density-matrix cutoff must be a finite integer >= 1, got {cutoff}")
        dim = int(cutoff) ** 2
        for index in (rows, cols):
            if not np.all(np.isfinite(index) & (index == np.floor(index))):
                raise DomainError("density-matrix entry indices must be finite integers")
            if index.size and (index.min() < 0 or index.max() >= dim):
                raise DimensionError(f"entry index outside [0, {dim}) for cutoff {cutoff}")
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        keys, order = np.unique(rows * dim + cols, return_index=True)
        if keys.size < rows.size:
            raise DomainError(f"density matrix repeats {rows.size - keys.size} of its (i, j) entries")
        rows, cols, values = rows[order], cols[order], values[order]
        mirror = cols * dim + rows
        at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        mirrored = np.where(keys[at] == mirror, values[at].conj(), 0.0)
        defect = float(np.abs(values - mirrored).max(initial=0.0))
        if defect > HERMITICITY_TOL:
            raise DomainError(f"density matrix not hermitian: max defect {defect:.3e}")
        diag = values[rows == cols].real
        if diag.min(initial=0.0) < -DIAGONAL_TOL:
            raise DomainError(f"density matrix has negative diagonal entry {diag.min():.3e}")
        trace = float(diag.sum())
        if abs(trace + trace_deficit - 1.0) > TRACE_TOL:
            raise DomainError(
                f"trace {trace:.12f} + deficit {trace_deficit:.3e} deviates from 1"
            )
        self.cutoff = int(cutoff)
        self.rows, self.cols, self.values = rows, cols, values
        self.trace_deficit = float(trace_deficit)
        for a in (rows, cols, values):
            a.setflags(write=False)

    def trace(self) -> float:
        return float(self.values[self.rows == self.cols].real.sum())

    def to_json_dict(self) -> dict:
        """Serialize as {cutoff, entries: [(i, j, re, im), ...], trace_deficit}.

        Entries that are exactly 0 are skipped; the rest are written in
        row-major order.
        """
        keep = self.values != 0
        rows, cols, values = (a[keep].tolist() for a in (self.rows, self.cols, self.values))
        entries = [[i, j, v.real, v.imag] for i, j, v in zip(rows, cols, values)]
        return {"cutoff": self.cutoff, "entries": entries, "trace_deficit": self.trace_deficit}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        if sorted(payload) != ["cutoff", "entries", "trace_deficit"]:
            raise KeyError(f"keys {sorted(payload)}, expected cutoff, entries, trace_deficit")
        quads = np.array(payload["entries"], dtype=float).reshape(len(payload["entries"]), 4)
        values = quads[:, 2:].copy().view(complex)[:, 0]  # the (re, im) pairs, bit for bit
        return cls(payload["cutoff"], *quads[:, :2].T, values, float(payload["trace_deficit"]))

    @classmethod
    def load(cls, path: str) -> "DensityMatrix":
        try:
            with open(path) as fh:
                return cls.from_json_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:  # DomainError is a ValueError too
            raise ConfigError(f"{path}: not a valid density-matrix file ({exc!r})") from None


@dataclass(frozen=True)
class SchmidtVector:
    """Real Schmidt coefficients c_n of |psi> = sum_n c_n |n>|n>."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        total = float(np.sum(coeffs**2))
        if total > 1.0 + 1e-12:
            raise DomainError(f"Schmidt weights sum to {total} > 1")
        coeffs.setflags(write=False)

    @property
    def deficit(self) -> float:
        """Probability mass beyond the truncation, 1 - sum c_n^2."""
        return max(0.0, 1.0 - float(np.sum(self.coefficients**2)))

    def xz_block(self) -> tuple[float, float, float, float]:
        """(T_zz, T_xx, T_xz, T_zx) = (sum c_n^2, 2 sum c_2k c_2k+1, 0, 0).

        The cutoff must be even: whole (2k, 2k+1) pairs make the pseudospins commute
        with the truncation, so |E_true - E| <= deficit for every E = u . T . v.
        """
        c = self.coefficients
        if c.size % 2:
            raise DomainError(f"pseudospin entries need an even cutoff, got {c.size}")
        return float(c @ c), 2.0 * float(c[0::2] @ c[1::2]), 0.0, 0.0

    @cached_property
    def half_width(self) -> float:
        """``square_half_width`` of the coefficients: the sampler's square and the Radon lines."""
        return square_half_width(self.coefficients)

    @cached_property
    def grid_points(self) -> int:
        """``fringe_points`` on that square: the sampler's grid and the Radon rules' cap."""
        return fringe_points(self.coefficients, self.half_width)

    @cached_property
    def outside_mass_bound(self) -> float:
        """4 P(X1 > a) at a = ``half_width``: at most the mass of w outside the square."""
        return 4.0 * marginal_tail(self.coefficients, self.half_width)


def schmidt_coefficients(state: TwoModeState, cutoff: int = DEFAULT_CUTOFF) -> SchmidtVector:
    """Schmidt coefficients of a benchmark state, truncated at ``cutoff``."""
    if cutoff < 2:
        raise DomainError(f"cutoff must be >= 2, got {cutoff}")
    return SchmidtVector(state.schmidt(cutoff))


@lru_cache(maxsize=128)
def significant_schmidt(state: TwoModeState) -> SchmidtVector:
    """c_n up to the last c_n^2 > 1e-32, from levels that miss at most ``DEFICIT_TOL`` of the norm.

    The level count doubles from 64 until the last level is below 1e-32: no cap.
    """
    levels = DEFAULT_CUTOFF
    while True:
        schmidt = schmidt_coefficients(state, levels)
        c = schmidt.coefficients
        if schmidt.deficit <= DEFICIT_TOL and c[-1] ** 2 <= 1e-32:
            return SchmidtVector(c[: np.flatnonzero(c * c > 1e-32)[-1] + 1])
        levels *= 2


def square_half_width(coefficients) -> float:
    """The least a, to 2^-8, with 4 P(X1 > a) <= ``OUTSIDE_MASS_LIMIT``.

    w puts at most P(|X1| > a) + P(|X2| > a) = 4 P(X1 > a) outside the
    square |X1|, |X2| <= a.  The tail (``marginal_tail``) falls with a, so a
    bisection finds a, from a bracket that reaches 5 past the turning point
    sqrt(N + 1/2) of the top level N: about 12 tail evaluations.  The
    sampler's tables and the factored Radon lines span this square.
    """
    def outside(a):
        return 4.0 * marginal_tail(coefficients, a) > OUTSIDE_MASS_LIMIT

    lo, hi = 0.0, math.sqrt(len(coefficients) - 0.5) + 5.0
    while outside(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 2.0**-8:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if outside(mid) else (lo, mid)
    return hi


def fringe_points(coefficients, half_width: float) -> int:
    """Points of a grid on [-a, a] with 8 per lobe of w's narrowest fringe, at least 201.

    |psi_n(sqrt(2) X)|^2 has lobes pi / sqrt(2 (2n + 1)) wide at X = 0, and
    n = 2 <n> stands for the top level: the Fock pair's, and twice the mean
    photon number of the pair-coherent state.  The factored Radon check
    doubles its rule up to the sampler's grid.
    """
    weights = np.square(coefficients)
    mean = float(np.sum(np.arange(weights.size) * weights))
    lobe_width = math.pi / math.sqrt(2.0 * (4.0 * mean + 1.0))
    lobes = math.ceil(2.0 * half_width / lobe_width)
    return max(201, 8 * lobes + 1)


def marginal_tail(coefficients, x0: float) -> float:
    """P(X1 >= x0) of the Schmidt-diagonal state sum_n c_n |n n>, for x0 >= 0.

    X1 has the density sqrt(2) sum_n c_n^2 psi_n(x)^2 at x = sqrt(2) X1.  As
    (psi_k psi_{k-1})' = sqrt(2k) (psi_{k-1}^2 - psi_k^2), the tail of
    psi_n^2 beyond x is erfc(x) / 2 + sum_{k=1..n} psi_k psi_{k-1} / sqrt(2k),
    and the mixture weighs the k-th term by S_k = sum_{n >= k} c_n^2.  Past
    the largest zero of the top level every term is positive, so the tail is
    summed directly, without the cancellation of 1 - F.
    """
    weights = np.cumsum(np.square(coefficients)[::-1])[::-1]
    x = math.sqrt(2.0) * x0
    tail = 0.5 * float(weights[0]) * math.erfc(x)
    psi = hermite_functions(x)
    prev = next(psi)
    for k, (weight, cur) in enumerate(zip(weights[1:], psi), start=1):
        tail += float(weight * prev * cur) / math.sqrt(2.0 * k)
        prev = cur
    return tail


def density_matrix(state: TwoModeState, cutoff: int = DEFAULT_CUTOFF) -> DensityMatrix:
    """Truncated |psi><psi| of a benchmark state: c_m c_n at (m (cutoff + 1), n (cutoff + 1))."""
    schmidt = schmidt_coefficients(state, cutoff)
    c = schmidt.coefficients
    k = np.flatnonzero(c)
    m, n = (k[i] for i in np.nonzero(np.outer(c[k], c[k])))
    return DensityMatrix(cutoff, m * (cutoff + 1), n * (cutoff + 1), c[m] * c[n], schmidt.deficit)


# ---------------------------------------------------------------------------
# Wigner functions
# ---------------------------------------------------------------------------


def _check_angular_order(order: int | None) -> int | None:
    """``order`` if None (the state's own K) or >= 16, for every state, with or without a rule."""
    if order is not None and order < 16:
        raise ConfigError(f"Wigner angular quadrature order must be >= 16, got {order}")
    return order


def wigner(state, q1, p1, q2, p2, *, angular_order: int | None = None):
    """Two-mode Wigner function W(q1, p1, q2, p2), normalized to 1.

    Accepts scalars or broadcastable arrays.  The squeezed vacuum has its
    Gaussian closed form; every other state is summed pointwise from its factor
    form (``TwoModeState.wigner_factors``), W = Re sum_jk C_jk F1_jk(q1, p1) F2_jk(q2, p2).
    By default F_mn = L_mn on the pairs m <= n of the significant Schmidt vector
    with c_m c_n != 0, where, with a = q - i p and l from ``special.laguerre_pairs``,

        L_mn = e^{i (n - m) arg a} l_m^(n - m)(4 |a|^2),  C_mn = (2/pi)^2 (2 - delta_mn) c_m c_n.

    The pair-coherent state overrides it with its angular form, F_jk = g L_j R_k, g = e^{-2 |a|^2}:

        L_j = exp(2 r a e^{+-i phi_j}),  R_k = exp(2 r a* e^{-+i phi_k}),
        C_jk = (2 pi/K)^2 exp(-2 r^2 cos(phi_j - phi_k)) / (pi^4 I0(2 r^2)),

    the upper signs for mode 1 and the lower for mode 2.  For the pair-coherent
    state the phi_j = 2 pi j / K are the nodes of a periodic trapezoid rule
    for its two angular integrals, K = ``angular_order`` (>= 16, for every
    state), by default ``PairCoherent.angular_order``, which grows with r (32
    at r = 1, 280 at r = 12).  Against K = 1024 on the Radon check's lines,
    the default is within 5e-16 of the peak |W| = 4/pi^2 for every r from 0.5
    to 13, where a fixed K = 128 missed by 4.7e-8 at r = 12.  Past r =
    ``MAX_WIGNER_R`` the factors cancel below rounding, and the pair-coherent
    state raises ``DomainError``.
    """
    if state.gaussian:
        _check_angular_order(angular_order)  # the Gaussian has no angular rule to use it on
        return _wigner_squeezed_vacuum(state.s, q1, p1, q2, p2)
    factors = state.wigner_factors(angular_order)
    q1, p1, q2, p2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (q1, p1, q2, p2))
    )
    flat = [np.ravel(v) for v in (q1, p1, q2, p2)]
    out = np.empty(flat[0].size)
    chunk = max(1, MAX_BLOCK // sum(factors.coupling.shape))
    for start in range(0, out.size, chunk):
        part = slice(start, start + chunk)
        left1, right1 = factors.mode(0, flat[0][part], flat[1][part])
        left2, right2 = factors.mode(1, flat[2][part], flat[3][part])
        out[part] = np.sum(((left1 * left2) @ factors.coupling) * (right1 * right2), axis=-1).real
    out = out.reshape(q1.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WignerFactors:
    """The factor form W = Re sum_jk coupling_jk F1_jk(q1, p1) F2_jk(q2, p2) of ``wigner``.

    ``mode(i, q, p)`` returns the factors (left, right) of mode i = 0, 1 with
    shapes q.shape + (J,) and q.shape + (K,), so that F_jk = left_j right_k;
    the Gaussian g = exp(-2 (q^2 + p^2)) is folded into them.
    """

    coupling: np.ndarray  # (J, K)
    mode: Callable
    angular_order: int | None = None  # K of a periodic trapezoid rule, if the form has one


def _wigner_squeezed_vacuum(s, q1, p1, q2, p2):
    em, ep = math.exp(-2.0 * s), math.exp(2.0 * s)
    q1, p1, q2, p2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (q1, p1, q2, p2))
    )
    val = (4.0 / math.pi**2) * np.exp(
        -em * ((q1 - q2) ** 2 + (p1 + p2) ** 2) - ep * ((q1 + q2) ** 2 + (p1 - p2) ** 2)
    )
    return float(val) if val.ndim == 0 else val
