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
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, UnsupportedStateError
from .special import bessel_i0, bessel_j0, laguerre_function, periodic_trapezoid

HERMITICITY_TOL = 1e-12
DIAGONAL_TOL = 1e-12
TRACE_TOL = 1e-9
#: Rows per block of the hermiticity check, which bounds its peak memory.
HERMITICITY_BLOCK = 256

#: Default per-mode Fock cutoff for density matrices.
DEFAULT_CUTOFF = 64

#: Default node count for each angular integral of the pair-coherent Wigner.
DEFAULT_ANGULAR_ORDER = 128

#: Elements per evaluation block (1 MB of complex): the grid points of one
#: ``wigner`` call in the squeezed vacuum's Radon projection, and the entries
#: of each (points, J) or (points, K) factor array inside ``wigner``.
MAX_BLOCK = 1 << 16


class TwoModeState:
    """A two-mode state, and the facts about it that the package's formulas need.

    Each fact but ``pseudospin_xz``, which reads ``schmidt``, defaults to an
    ``UnsupportedStateError``; a benchmark state overrides the ones it has.
    ``gaussian`` marks the squeezed vacuum, whose tomograms, sign-binned
    probabilities and samples have Gaussian closed forms (``squeezed_homodyne``).
    """

    gaussian = False

    def schmidt(self, levels: int) -> np.ndarray:
        """The first ``levels`` Schmidt coefficients c_n of sum_n c_n |n n>."""
        raise UnsupportedStateError(
            f"schmidt_coefficients needs a pure benchmark state, got {type(self).__name__}"
        )

    @property
    def half_width(self) -> float:
        """Half-width of the Radon projection's lines, past where W is negligible."""
        raise UnsupportedStateError(f"no Wigner evaluator for {type(self).__name__}")

    def wigner_factors(self, order: int = DEFAULT_ANGULAR_ORDER) -> "WignerFactors":
        """Factor form of the Wigner function (see ``wigner``)."""
        raise UnsupportedStateError(
            f"no factor form of the Wigner function for {type(self).__name__}"
        )

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

    @property
    def half_width(self):
        return 3.5 * math.exp(self.s) / 2.0 + 2.0

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

    @property
    def half_width(self):
        # past |n>'s turning point sqrt(n + 1/2); at least 4.4, where exp(-2 t^2) < 1e-16
        return max(4.4, 3.0 + math.sqrt(self.n + 0.5))

    def wigner_factors(self, order=DEFAULT_ANGULAR_ORDER):
        # With x = 4|a|^2 = |2a|^2, g L_n(x) is the Laguerre function and
        # g |2a|^n / sqrt(n!) = exp((n log x - x - log n!) / 2), so neither n! nor
        # (2a)^n is ever formed
        n = self.n
        log_factorial = math.lgamma(n + 1.0)

        def mode(_, q, p):
            x = 4.0 * (q * q + p * p)
            with np.errstate(divide="ignore"):  # a = 0: log 0 = -inf and the factor is 0
                size = np.exp(0.5 * (n * np.log(x) - x - log_factorial))
            cross = size * np.exp(-1j * n * np.arctan2(p, q))  # arg a = -atan2(p, q)
            left = np.stack([np.exp(-0.5 * x), laguerre_function(n, x), cross], axis=-1)
            return left, np.ones(left.shape[:-1] + (1,))

        return WignerFactors(np.array([[1.0], [1.0], [2.0]]) * (2.0 / math.pi**2), mode)

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
    def half_width(self):
        return 4.0 + 1.7 * self.r

    def wigner_factors(self, order=DEFAULT_ANGULAR_ORDER):
        if order < 16:
            raise ConfigError(
                f"pair-coherent Wigner needs angular quadrature order >= 16, got {order}"
            )
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

        return WignerFactors(coupling, mode)


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
    """Truncated two-mode Fock-basis density matrix.

    ``entries`` has shape (cutoff^2, cutoff^2) with flat index
    i = n1 * cutoff + n2 (row-major, kron-compatible).  Construction
    validates hermiticity, nonnegative diagonal, and trace + trace_deficit
    = 1 within fixed tolerances.
    """

    def __init__(self, cutoff: int, entries: np.ndarray, trace_deficit: float):
        entries = np.asarray(entries, dtype=complex)
        dim = cutoff * cutoff
        if entries.shape != (dim, dim):
            raise DimensionError(
                f"entries shape {entries.shape} does not match cutoff {cutoff} (expected {(dim, dim)})"
            )
        defect = _hermiticity_defect(entries)
        if defect > HERMITICITY_TOL:
            raise DomainError(f"density matrix not hermitian: max defect {defect:.3e}")
        diag = entries.diagonal().real
        if diag.min() < -DIAGONAL_TOL:
            raise DomainError(f"density matrix has negative diagonal entry {diag.min():.3e}")
        trace = float(diag.sum())
        if abs(trace + trace_deficit - 1.0) > TRACE_TOL:
            raise DomainError(
                f"trace {trace:.12f} + deficit {trace_deficit:.3e} deviates from 1"
            )
        self.cutoff = int(cutoff)
        self.entries = entries
        self.trace_deficit = float(trace_deficit)
        self.entries.setflags(write=False)

    def trace(self) -> float:
        return float(self.entries.diagonal().real.sum())

    def to_json_dict(self) -> dict:
        """Serialize as {cutoff, entries: [(i, j, re, im), ...], trace_deficit}.

        Only nonzero entries are written; the full matrix is recovered by
        zero-filling.
        """
        i_idx, j_idx = np.nonzero(self.entries)
        vals = self.entries[i_idx, j_idx]
        quads = [
            [int(i), int(j), float(v.real), float(v.imag)]
            for i, j, v in zip(i_idx, j_idx, vals)
        ]
        return {
            "cutoff": self.cutoff,
            "entries": quads,
            "trace_deficit": self.trace_deficit,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        cutoff = int(payload["cutoff"])
        dim = cutoff * cutoff
        entries = np.zeros((dim, dim), dtype=complex)
        for i, j, re, im in payload["entries"]:
            entries[int(i), int(j)] = complex(re, im)
        return cls(cutoff, entries, float(payload["trace_deficit"]))

    @classmethod
    def load(cls, path: str) -> "DensityMatrix":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


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


def _hermiticity_defect(entries: np.ndarray) -> float:
    """max |rho - rho^dagger| computed in blocks of ``HERMITICITY_BLOCK`` rows."""
    worst = 0.0
    n = entries.shape[0]
    for start in range(0, n, HERMITICITY_BLOCK):
        stop = min(start + HERMITICITY_BLOCK, n)
        diff = entries[start:stop, :] - entries[:, start:stop].conj().T
        worst = max(worst, float(np.abs(diff).max()))
    return worst


def schmidt_coefficients(state: TwoModeState, cutoff: int = DEFAULT_CUTOFF) -> SchmidtVector:
    """Schmidt coefficients of a benchmark state, truncated at ``cutoff``."""
    if cutoff < 2:
        raise DomainError(f"cutoff must be >= 2, got {cutoff}")
    return SchmidtVector(state.schmidt(cutoff))


@lru_cache(maxsize=128)
def significant_schmidt(state: TwoModeState) -> SchmidtVector:
    """c_n up to the last c_n^2 > 1e-32, from levels that miss at most 1e-12 of the norm.

    The level count doubles from 64 until the last level is below 1e-32: no cap.
    """
    levels = DEFAULT_CUTOFF
    while True:
        schmidt = schmidt_coefficients(state, levels)
        c = schmidt.coefficients
        if schmidt.deficit <= 1e-12 and c[-1] ** 2 <= 1e-32:
            return SchmidtVector(c[: np.flatnonzero(c * c > 1e-32)[-1] + 1])
        levels *= 2


def density_matrix(state: TwoModeState, cutoff: int = DEFAULT_CUTOFF) -> DensityMatrix:
    """Truncated |psi><psi| of a benchmark state."""
    schmidt = schmidt_coefficients(state, cutoff)
    psi = np.zeros(cutoff * cutoff)
    idx = np.arange(cutoff)
    psi[idx * cutoff + idx] = schmidt.coefficients
    entries = np.outer(psi, psi).astype(complex)
    return DensityMatrix(cutoff, entries, schmidt.deficit)


def partial_trace(dm: DensityMatrix, keep_mode: int = 0) -> np.ndarray:
    """Single-mode reduced density matrix (plain cutoff x cutoff array)."""
    n = dm.cutoff
    rho4 = dm.entries.reshape(n, n, n, n)
    if keep_mode == 0:
        return np.einsum("abcb->ac", rho4)
    if keep_mode == 1:
        return np.einsum("abad->bd", rho4)
    raise DomainError(f"keep_mode must be 0 or 1, got {keep_mode}")


# ---------------------------------------------------------------------------
# Wigner functions
# ---------------------------------------------------------------------------


def wigner(state, q1, p1, q2, p2, *, angular_order: int = DEFAULT_ANGULAR_ORDER):
    """Two-mode Wigner function W(q1, p1, q2, p2), normalized to 1.

    Accepts scalars or broadcastable arrays.  The squeezed vacuum has its
    Gaussian closed form.  The Fock pair and the pair-coherent state are
    summed pointwise from their factor form (``TwoModeState.wigner_factors``):

        W = Re sum_jk C_jk F1_jk(q1, p1) F2_jk(q2, p2),
        F_jk(q, p) = g(q, p) L_j(q, p) R_k(q, p),  g = exp(-2 (q^2 + p^2)),

    with a = q - i p:

        Fock pair       L = [1, L_n(4 |a|^2), (2a)^n / sqrt(n!)],  R = [1],
                        C = (2/pi^2) [1, 1, 2];
        pair coherent   L_j = exp(2 r a e^{+-i phi_j}),  R_k = exp(2 r a* e^{-+i phi_k}),
                        C_jk = (2 pi/K)^2 exp(-2 r^2 cos(phi_j - phi_k)) / (pi^4 I0(2 r^2)),

    the upper signs for mode 1 and the lower for mode 2.  For the pair-coherent
    state the phi_j = 2 pi j / K are the nodes of a periodic trapezoid rule
    for its two angular integrals, K = ``angular_order`` (>= 16).
    """
    if state.gaussian:
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


def _wigner_squeezed_vacuum(s, q1, p1, q2, p2):
    em, ep = math.exp(-2.0 * s), math.exp(2.0 * s)
    q1, p1, q2, p2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (q1, p1, q2, p2))
    )
    val = (4.0 / math.pi**2) * np.exp(
        -em * ((q1 - q2) ** 2 + (p1 + p2) ** 2) - ep * ((q1 + q2) ** 2 + (p1 - p2) ** 2)
    )
    return float(val) if val.ndim == 0 else val
