"""CHSH functionals in the tomographic and pseudospin formulations.

Both formulations share the same combination

    B = | E(a, b) + E(a, b') + E(a', b) - E(a', b') |,

with E either the sign-binned expectation w_pp - w_pm - w_mp + w_mm or the
pseudospin correlation Tr[rho (u . S^(1)) (v . S^(2))].

Every coplanar pseudospin correlation (u, v in the x-z plane) is carried by
one x-z block T = (T_zz, T_xx, T_xz, T_zx), T_ab = <S_a^(1) S_b^(2)>: a
density matrix gives it through ``density_xz_entries`` and a benchmark state
through ``TwoModeState.pseudospin_xz``, from its closed form or its Schmidt
vector (``SchmidtVector.xz_block``).  ``correlation_xz`` evaluates E from it
on floats or on whole angle grids, and ``calb_curve`` a whole calB curve.

The pair-coherent Bessel-ratio coefficient c(r) = r^2 (1 -
J0(2 r^2)/I0(2 r^2)) exceeds 1 for r near 1.05, which is impossible for
unit-norm dichotomic observables; ``pair_coherent_sx_report`` exposes it
side by side with the Fock-basis value Tr[rho Sx Sx] so the discrepancy is
reported rather than silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import states as st
from .errors import AccuracyError, DimensionError, DomainError
from .states import pair_coherent_bessel_coefficient

TWO_PI = 2.0 * math.pi
#: Stopping test of maximize_chsh's Nelder-Mead refinement: the simplex
#: spread in angle and in CHSH value.
NELDER_MEAD_XATOL = 1e-9
NELDER_MEAD_FATOL = 1e-13


@dataclass(frozen=True)
class BellAnglesQuadrature:
    """Four homodyne measurement settings (theta1, theta1p, theta2, theta2p)."""

    theta1: float
    theta1p: float
    theta2: float
    theta2p: float

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not math.isfinite(v):
                raise DomainError(f"Bell angle {name} must be finite, got {v}")

    def reduced(self) -> "BellAnglesQuadrature":
        """Angles reduced mod 2 pi for reporting."""
        return BellAnglesQuadrature(
            self.theta1 % TWO_PI,
            self.theta1p % TWO_PI,
            self.theta2 % TWO_PI,
            self.theta2p % TWO_PI,
        )

    def pairs(self):
        """The four (theta1, theta2) settings in CHSH order (ab, ab', a'b, a'b')."""
        return (
            (self.theta1, self.theta2),
            (self.theta1, self.theta2p),
            (self.theta1p, self.theta2),
            (self.theta1p, self.theta2p),
        )


def _unit_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionError(f"{name} must be a 3-vector, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise DomainError(f"{name} must have unit norm, |{name}| = {np.linalg.norm(v)}")
    return v


@dataclass(frozen=True)
class PseudospinOps:
    """Per-mode pseudospin matrices on an even Fock truncation."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    def dotted(self, vec) -> np.ndarray:
        """The matrix vec . S for a unit 3-vector."""
        vec = _unit_vector(vec, "direction")
        return vec[0] * self.sx + vec[1] * self.sy + vec[2] * self.sz


@lru_cache(maxsize=16)
def pseudospin_matrices(cutoff: int) -> PseudospinOps:
    """Pseudospin operators Sx, Sy, Sz truncated at an even cutoff.

    Sx = sum |2n><2n+1| + h.c., Sy = -i sum (|2n><2n+1| - h.c.),
    Sz = sum (-1)^n |n><n|.  Even cutoffs keep the (2n, 2n+1) pairing
    intact, so Sx^2 = Sy^2 = Sz^2 = 1 and [Sx, Sy] = 2 i Sz hold exactly
    on the truncated space.
    """
    if cutoff < 2 or cutoff % 2 != 0:
        raise DomainError(f"pseudospin operators need an even cutoff >= 2, got {cutoff}")
    sx = np.zeros((cutoff, cutoff), dtype=complex)
    sy = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(0, cutoff - 1, 2):
        sx[n, n + 1] = sx[n + 1, n] = 1.0
        sy[n, n + 1] = -1j
        sy[n + 1, n] = 1j
    sz = np.diag((-1.0 + 0j) ** np.arange(cutoff))
    for m in (sx, sy, sz):
        m.setflags(write=False)
    return PseudospinOps(sx, sy, sz)


def correlation_pseudospin(rho: st.DensityMatrix, u, v) -> float:
    """E(u, v) = Tr[rho (u . S^(1)) (v . S^(2))] on the truncated Fock space."""
    ops = pseudospin_matrices(rho.cutoff)
    a, b = ops.dotted(u), ops.dotted(v)
    m1, m2 = np.divmod(rho.rows, rho.cutoff)
    n1, n2 = np.divmod(rho.cols, rho.cutoff)
    # Tr[rho (A x B)] = sum rho[(m1 m2), (n1 n2)] A[n1, m1] B[n2, m2], summed in row-major
    # order: unlike np.sum's pairwise tree, its bits do not depend on where zeros fall
    val = complex(np.cumsum(np.append(0j, rho.values * a[n1, m1] * b[n2, m2]))[-1])
    if abs(val.imag) > 1e-10:
        raise AccuracyError(f"pseudospin correlation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def density_xz_entries(rho: st.DensityMatrix) -> tuple[float, float, float, float]:
    """(T_zz, T_xx, T_xz, T_zx) = Tr[rho (a . S^(1)) (b . S^(2))] for a, b along z and x."""
    x, z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    return tuple(correlation_pseudospin(rho, a, b) for a, b in ((z, z), (x, x), (x, z), (z, x)))


def direction(theta):
    """(cos theta, sin theta) of an x-z direction theta from the z axis.

    A float gives floats; an array gives arrays, tabulated entry by entry with
    the same ``math.cos`` and ``math.sin``, so both forms agree bit for bit on
    any numpy build.
    """
    if np.ndim(theta) == 0:
        return math.cos(theta), math.sin(theta)
    flat = np.asarray(theta, dtype=float).tolist()
    return np.array([math.cos(t) for t in flat]), np.array([math.sin(t) for t in flat])


def correlation_xz(t, u, v):
    """Coplanar E(u, v) = T_zz cu cv + T_xx su sv + T_xz su cv + T_zx cu sv.

    ``t`` is the x-z block (T_zz, T_xx, T_xz, T_zx); ``u`` and ``v`` are
    ``direction`` pairs (cos, sin) of floats or of arrays, which broadcast.
    """
    t_zz, t_xx, t_xz, t_zx = t
    (cu, su), (cv, sv) = u, v
    return t_zz * cu * cv + t_xx * su * sv + t_xz * su * cv + t_zx * cu * sv


def calb_curve(t, grid, tv: float, tup: float, tvp: float) -> np.ndarray:
    """calB(theta_u) at fixed theta_v, theta_u', theta_v' for every theta_u of ``grid``.

    ``grid`` is ``direction(theta_u values)``, tabulated once for any number of
    blocks ``t``.  The entries of ``t`` may be (n, 1) arrays, one block per row:
    the result is then (n, len(theta_u)), one curve per row.  Each value equals
    the scalar ``chsh`` of four ``correlation_xz`` calls bit for bit.
    """
    v, up, vp = direction(tv), direction(tup), direction(tvp)
    return chsh(correlation_xz(t, grid, v), correlation_xz(t, grid, vp),
                correlation_xz(t, up, v), correlation_xz(t, up, vp))


def closed_form_correlation(state, theta_u: float, theta_v: float) -> float:
    """Coplanar pseudospin correlation of a benchmark state from its x-z block.

    Each state gives its own (``TwoModeState.pseudospin_xz`` at ``states.DEFAULT_CUTOFF``).
    """
    t, _ = state.pseudospin_xz(st.DEFAULT_CUTOFF)
    return correlation_xz(t, direction(theta_u), direction(theta_v))


@dataclass(frozen=True)
class PairCoherentSxReport:
    """Side-by-side values of the Bessel-ratio c(r) and the Fock-basis oracle."""

    r: float
    cutoff: int
    bessel: float
    fock: float

    @property
    def difference(self) -> float:
        return self.bessel - self.fock


def pair_coherent_sx_report(r: float, cutoff: int = 64) -> PairCoherentSxReport:
    """Compare the Bessel-ratio c(r) with Tr[rho Sx Sx] from the Schmidt vector."""
    fock = st.PairCoherent(r).pseudospin_xz(cutoff)[0][1]
    return PairCoherentSxReport(r, cutoff, pair_coherent_bessel_coefficient(r), fock)


def chsh(e_ab, e_abp, e_apb, e_apbp):
    """The CHSH combination |E(a,b) + E(a,b') + E(a',b) - E(a',b')| of floats or arrays."""
    return abs(e_ab + e_abp + e_apb - e_apbp)


@dataclass(frozen=True)
class NelderMeadResult:
    """Where a Nelder-Mead run ended and what it spent getting there.

    ``converged`` is False when ``max_iter`` evaluations or iterations ran out
    before the ``xatol``/``fatol`` test passed.
    """

    x: np.ndarray
    fun: float
    evaluations: int
    iterations: int
    converged: bool


class _BudgetSpent(Exception):
    """The objective was asked for one evaluation past the budget."""


def _nelder_mead(func, x0, xatol: float, fatol: float, max_iter: int) -> NelderMeadResult:
    """Minimize ``func`` by the simplex method of Nelder & Mead, Comput. J. 7, 308 (1965).

    The non-adaptive variant, step for step as the usual reference
    ``minimize(method="Nelder-Mead")`` takes it with ``maxiter = maxfev =
    max_iter``, so both return the same floats (``tests/test_bell.py`` checks
    this bit for bit): the initial simplex x_k -> 1.05 x_k, or 0.00025 where
    x_k == 0; reflection 1, expansion 2, contraction 1/2 and shrink 1/2, as
    the same float products; an argsort reordering after every iteration;
    and the stopping test max |x_j - x_0| <= xatol and max |f_j - f_0| <=
    fatol.  An exhausted evaluation budget ends the run partway through an
    iteration.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    evaluations = 0

    def f(x):
        nonlocal evaluations
        if evaluations >= max_iter:
            raise _BudgetSpent
        evaluations += 1
        return func(x)

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return sim[order], fsim[order]

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as the reference does: argsort need not leave tied values in place
    sim, fsim = by_value(*by_value(sim, fsim))

    iterations = 1
    while evaluations < max_iter and iterations < max_iter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = sim[:-1].sum(axis=0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)

    converged = evaluations < max_iter and iterations < max_iter
    return NelderMeadResult(sim[0], float(np.min(fsim)), evaluations, iterations, converged)


@dataclass(frozen=True)
class ChshMaximum:
    """The best angles and CHSH value, and the Nelder-Mead record ``refine``.

    Unpacks as ``(angles, value)``.
    """

    angles: BellAnglesQuadrature
    value: float
    refine: NelderMeadResult

    def __iter__(self):
        return iter((self.angles, self.value))


def maximize_chsh(
    correlation,
    *,
    grid_points: int = 24,
    max_iter: int = 4000,
) -> ChshMaximum:
    """Maximize the CHSH value over four angles for E(theta1, theta2).

    A coarse deterministic search tabulates E on a ``grid_points``^2 angle
    grid (so the full grid_points^4 CHSH lattice costs only grid_points^2
    correlation evaluations) and the best cell seeds a Nelder-Mead
    refinement, which stops at ``NELDER_MEAD_XATOL`` and ``NELDER_MEAD_FATOL``
    or after ``max_iter`` evaluations (0 keeps the grid start).  Returns a
    ``ChshMaximum``, which unpacks as (BellAnglesQuadrature, value).
    """
    thetas = np.arange(grid_points) * (TWO_PI / grid_points)
    table = np.empty((grid_points, grid_points))
    for i, t1 in enumerate(thetas):
        for j, t2 in enumerate(thetas):
            table[i, j] = correlation(t1, t2)
    if not np.all(np.isfinite(table)):
        raise AccuracyError("correlation returned non-finite values on the search grid")

    # chsh over the lattice, summed in its order into one grid_points^4 buffer
    combo = (table[:, None, :, None] + table[:, None, None, :]) + table[None, :, :, None]
    combo -= table[None, :, None, :]
    flat = np.abs(combo, out=combo).ravel()
    # E often depends only on theta1 + theta2, so cells tie; take the first one
    # within 1e-12 of the maximum rather than the one rounding happens to favour
    best = int(np.flatnonzero(flat >= flat.max() - 1e-12)[0])
    i, j, k, l = np.unravel_index(best, combo.shape)
    start = np.array([thetas[i], thetas[j], thetas[k], thetas[l]])
    best_val = float(flat[best])

    def negative(x):
        return -chsh(
            correlation(x[0], x[2]),
            correlation(x[0], x[3]),
            correlation(x[1], x[2]),
            correlation(x[1], x[3]),
        )

    result = _nelder_mead(negative, start, NELDER_MEAD_XATOL, NELDER_MEAD_FATOL, max_iter)
    if -result.fun >= best_val:
        best_val = float(-result.fun)
        start = result.x

    angles = BellAnglesQuadrature(start[0], start[1], start[2], start[3])
    return ChshMaximum(angles, best_val, result)
