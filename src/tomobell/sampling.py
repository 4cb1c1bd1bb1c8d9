"""Seeded Monte Carlo homodyne outcomes and statistical CHSH estimates.

RNG contract: all streams come from numpy's PCG64 bit generator seeded
through ``SeedSequence(entropy=seed, spawn_key=(substream,))``.  Distinct
(seed, substream) pairs give independent reproducible streams, so the four
CHSH settings can be sampled concurrently without sharing state; identical
(state, angles, seed, count) always reproduce the identical batch.

Sign convention for binning: outcomes with X = 0 count as "+" (a
measure-zero tie-break, fixed here so estimates are deterministic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import states as st
from . import tomography as tg
from .bell import BellAnglesQuadrature, chsh
from .errors import DomainError, EnvelopeError
from .special import hermite_functions

#: Points per tomogram evaluation in the cell table's scan: small enough that
#: the temporaries of the level sum stay in cache.
_BLOCK = 1 << 14

#: Points per chunk of table proposals, whose evaluation peaks the sampler's
#: memory.
_CELL_BLOCK = 1 << 13

#: Proposal rounds after which the sampler gives up.
_MAX_ROUNDS = 400


@dataclass(frozen=True)
class SampleBatch:
    """Quadrature pairs drawn at fixed angles, reproducible from the seed."""

    theta1: float
    theta2: float
    pairs: np.ndarray  # shape (count, 2)
    acceptance_rate: float | None = None
    rounds: int | None = None  # proposal rounds of a rejection sampler
    envelope_constant: float | None = None  # its Z = the integral of its table T
    half_width: float | None = None  # of the table's square |X1|, |X2| <= a
    tomogram_evaluations: int | None = None  # points where w was evaluated, scan included
    sampler: str | None = None  # "gaussian-exact", "cell-table" or "product-table"
    outside_mass_bound: float | None = None  # mass of w outside the table's square, at most

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
            raise DomainError(f"batch needs shape (count >= 1, 2), got {pairs.shape}")
        if not np.all(np.isfinite(pairs)):
            raise DomainError("batch contains non-finite quadrature values")
        object.__setattr__(self, "pairs", pairs)
        pairs.setflags(write=False)

    @property
    def count(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True)
class EstimatedProbs:
    """Sign-binned estimates with binomial standard errors sqrt(p(1-p)/M)."""

    probs: tg.SignBinnedProbs
    se_pp: float
    se_pm: float
    se_mp: float
    se_mm: float
    count: int

    def errors(self):
        return (self.se_pp, self.se_pm, self.se_mp, self.se_mm)


def substream_generator(seed: int, substream: int = 0) -> np.random.Generator:
    """The package RNG: PCG64 seeded by SeedSequence(seed, spawn_key=(substream,))."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(substream),))
    return np.random.Generator(np.random.PCG64(ss))


def sample_gaussian_epr(
    s: float, theta1: float, theta2: float, count: int, seed: int, *, substream: int = 0
) -> SampleBatch:
    """Exact bivariate-normal homodyne samples of the squeezed vacuum."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    c, b, _ = st.squeezed_homodyne(s, theta1 + theta2)
    chol = np.linalg.cholesky(0.25 * np.array([[c, -b], [-b, c]]))
    rng = substream_generator(seed, substream)
    z = rng.standard_normal((count, 2))
    return SampleBatch(theta1=theta1, theta2=theta2, pairs=z @ chol.T, sampler="gaussian-exact")


def sample_rejection(
    tomogram,
    theta1: float,
    theta2: float,
    count: int,
    seed: int,
    *,
    schmidt: st.SchmidtVector,
    substream: int = 0,
) -> SampleBatch:
    """Rejection sampling of the joint quadrature density w(X1, X2) of sum_n c_n |n n>.

    ``schmidt`` holds the c_n, of either sign, and caches the square |X1|, |X2|
    <= a that misses at most 2^-53 of w (``half_width``) and a grid on it with 8
    points per lobe of w's narrowest fringe and at least 201 (``grid_points``).
    The proposals come from a table T >= w that is constant on the cells of
    that grid.  T is one of two tables:

    - the cell table (``_cell_table``): from a scan of w on the whole grid,
      the largest w at a cell's four corners raised by a bound on w's
      curvature inside the cell;
    - the product table (``_product_table``): t(X1) t(X2), with t 1.1 times
      the larger value at a cell's ends of f (``schmidt_envelopes``), since
      w <= f(X1) f(X2).  It costs no scan, but its integral is about
      (sum_n |c_n|)^2 times the cell table's.

    The cell table is taken when its scan of size^2 points costs fewer
    evaluations of w than the product table's ((sum_n |c_n|)^2 - 1) * count
    extra proposals.  A proposal is a cell drawn with probability T Z^-1
    times its area, Z the integral of T, then a uniform point in it.  It is
    accepted when u T < w, with u uniform on [0, 1), and one where w
    exceeds T aborts with an envelope error naming the point.  Each round
    draws about 1.1 Z times the samples still missing; w is evaluated 8192
    proposals at a time, and the sampler stops at the chunk that completes
    the batch.  It gives up after ``_MAX_ROUNDS`` rounds.  The batch
    records Z as ``envelope_constant`` (the expected acceptance is 1 / Z),
    a, the bound 4 P(X1 > a) (``outside_mass_bound``, cached on ``schmidt``
    with a) and ``tomogram_evaluations``: the scan's
    points plus the proposals evaluated.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    c, half_width = schmidt.coefficients, schmidt.half_width
    grid = np.linspace(-half_width, half_width, schmidt.grid_points)
    if grid.size**2 <= (float(np.sum(np.abs(c))) ** 2 - 1.0) * count:
        table, evaluations = _cell_table(tomogram, grid, c), grid.size**2
    else:
        table, evaluations = _product_table(c, grid), 0
    constant = table.integral()
    if constant <= 0.0:
        raise EnvelopeError("the envelope is 0 on the whole square")

    rng = substream_generator(seed, substream)
    pairs = np.empty((count, 2))
    n_proposed = n_accepted = rounds = 0
    while n_accepted < count:
        if rounds >= _MAX_ROUNDS:
            raise EnvelopeError(
                f"rejection sampler produced {n_accepted}/{count} samples in {rounds} rounds"
            )
        rounds += 1
        size = max(1024, math.ceil(1.1 * constant * (count - n_accepted)))
        for x1, x2, u, bound in _table_round(rng, size, table):
            target = np.asarray(tomogram(x1, x2), dtype=float)
            n_proposed += x1.size
            overshoot = target > bound * (1.0 + 1e-12)
            if np.any(overshoot):
                i = np.argmax(overshoot)
                raise EnvelopeError(
                    f"density exceeds envelope at X = ({x1[i]:.6f}, {x2[i]:.6f}): "
                    f"w = {target[i]:.6e} > T = {bound[i]:.6e}"
                )
            keep = np.flatnonzero(u < target)
            kept = pairs[n_accepted:n_accepted + keep.size]
            kept[:, 0] = x1[keep[:len(kept)]]
            kept[:, 1] = x2[keep[:len(kept)]]
            n_accepted += keep.size
            if n_accepted >= count:
                break
    return SampleBatch(
        theta1=theta1,
        theta2=theta2,
        pairs=pairs,
        acceptance_rate=n_accepted / n_proposed,
        rounds=rounds,
        envelope_constant=constant,
        half_width=half_width,
        tomogram_evaluations=evaluations + n_proposed,
        sampler=table.sampler,
        outside_mass_bound=schmidt.outside_mass_bound,
    )


def _table_round(rng, size, table):
    """Yield one round of ``size`` proposals from T in ``_CELL_BLOCK`` chunks: (X1, X2, u T, T)."""
    for row, col, cap in table.draws(rng, size):
        x1, x2, u = rng.random((3, row.size))
        for x, index in ((x1, row), (x2, col)):
            x += index
            x *= table.step
            x += table.corner
        u *= cap
        yield x1, x2, u, cap


def _cell_draws(rng, size, weights):
    """``size`` independent draws of a cell index with probability proportional to ``weights``.

    Multinomial counts over the cells, expanded to an int32 cell list and
    shuffled in place, come in random order, so a round may stop after any
    chunk of them.
    """
    counts = rng.multinomial(size, weights / weights.sum())
    cells = np.repeat(np.arange(weights.size, dtype=np.int32), counts)
    rng.shuffle(cells)
    return cells


class _CellTable(NamedTuple):
    """An upper bound T on w, constant on each cell of the grid.

    ``values[i, j]`` is T on the cell [corner + i step, corner + (i + 1) step]
    in X1 times the same interval of j in X2.
    """

    values: np.ndarray
    corner: float
    step: float
    sampler = "cell-table"

    def integral(self) -> float:
        """Z, the integral of T over the square."""
        return float(np.sum(self.values)) * self.step**2

    def draws(self, rng, size):
        """Yield (X1 cells, X2 cells, T) of ``size`` cell draws in ``_CELL_BLOCK`` chunks."""
        weights = self.values.ravel()
        cells = _cell_draws(rng, size, weights)
        for start in range(0, size, _CELL_BLOCK):
            chunk = cells[start:start + _CELL_BLOCK]
            yield *np.divmod(chunk, self.values.shape[1]), weights.take(chunk)


class _ProductTable(NamedTuple):
    """An upper bound T = t(X1) t(X2) on w, t constant on each cell of the grid.

    ``values[i]`` is t on [corner + i step, corner + (i + 1) step].
    """

    values: np.ndarray
    corner: float
    step: float
    sampler = "product-table"

    def integral(self) -> float:
        """Z, the integral of T over the square: the square of t's."""
        return (float(np.sum(self.values)) * self.step) ** 2

    def draws(self, rng, size):
        """Yield (X1 cells, X2 cells, T) of ``size`` cell draws in ``_CELL_BLOCK`` chunks."""
        rows = _cell_draws(rng, size, self.values)
        cols = _cell_draws(rng, size, self.values)
        for start in range(0, size, _CELL_BLOCK):
            row, col = rows[start:start + _CELL_BLOCK], cols[start:start + _CELL_BLOCK]
            yield row, col, self.values.take(row) * self.values.take(col)


def schmidt_envelopes(coefficients, x):
    """(f, kappa) at X = ``x``: sqrt(2) sum_n |c_n| psi_n(x')^2, times 1 or (x'^2 - 2n - 1)^2.

    Here x' = sqrt(2) X.  w = 2 |G|^2 with G = sum_n c_n e^{i n theta}
    psi_n(x1') psi_n(x2'), theta = theta1 + theta2, and Cauchy-Schwarz with
    the weights |c_n| gives w <= f(X1) f(X2), at every angle and for any
    signs of the c_n; f integrates to sum_n |c_n|.  As psi_n'' = (x'^2 -
    2n - 1) psi_n, it also gives |d^2 G / dX1^2| <= sqrt(2 kappa(X1) f(X2)).
    """
    y = math.sqrt(2.0) * np.asarray(x, dtype=float)
    f, kappa = np.zeros_like(y), np.zeros_like(y)
    for n, (weight, psi) in enumerate(zip(np.abs(coefficients), hermite_functions(y))):
        if weight:  # the recurrence runs through the levels with c_n = 0, the sums skip them
            term = weight * psi * psi
            f += term
            term *= np.square(y * y - (2 * n + 1))
            kappa += term
    return math.sqrt(2.0) * f, math.sqrt(2.0) * kappa


def _cell_bounds(values):
    """1.1 times the larger of each pair of neighbouring values: a bound on each cell between them.

    At 8 or more grid points per lobe, a fringe peak halfway along a cell
    keeps cos^2(pi / 16) = 0.962 > 1 / 1.1 of its value at an end.
    """
    return 1.1 * np.maximum(values[:-1], values[1:])


def _cell_table(tomogram, grid, coefficients) -> _CellTable:
    """T on the cells of ``grid`` x ``grid``: w's largest corner value raised by its curvature.

    Inside a cell of side s, |G| = sqrt(w / 2) is at most its largest corner
    value, which bounds G's bilinear interpolant, plus the interpolation
    error (s^2 / 8) (sup |d^2 G / dX1^2| + sup |d^2 G / dX2^2|).  With the
    cell bounds of f and kappa (``schmidt_envelopes``), that makes
    sqrt(T) = sqrt(max corner w) + (s^2 / 4) (sqrt(kappa_i f_j) + sqrt(f_i kappa_j)).
    A fixed factor over the corners would not do: where two levels nearly
    cancel, w has bumps narrower than any cell.
    """
    # table row i + 1 holds the cells from grid point i to i + 1
    table = np.zeros((grid.size + 1, grid.size - 1))
    row = 0
    # The grid is a product in X1 and X2, so that a Schmidt-sum tomogram runs
    # its level recurrences along the two axes and only its sum on the grid.
    for rows in np.array_split(grid, math.ceil(grid.size**2 / _BLOCK)):
        target = tomogram(rows[:, None], grid[None, :])
        # grid row i is a corner row of the cells in table rows i and i + 1
        corners = np.maximum(target[:, :-1], target[:, 1:])
        cells = table[row:row + rows.size + 1]
        np.maximum(cells[:-1], corners, out=cells[:-1])
        np.maximum(cells[1:], corners, out=cells[1:])
        row += rows.size
    step = 2.0 * grid[-1] / (grid.size - 1)
    f, kappa = (np.sqrt(_cell_bounds(v)) for v in schmidt_envelopes(coefficients, grid))
    margin = np.outer(kappa, f)
    margin += np.outer(f, kappa)
    margin *= 0.25 * step**2
    values = np.sqrt(table[1:-1], out=table[1:-1])
    values += margin
    np.square(values, out=values)
    return _CellTable(values, grid[0], step)


def _product_table(coefficients, grid) -> _ProductTable:
    """t on the cells of ``grid``: the cell bounds of f, so that t(X1) t(X2) >= w."""
    f, _ = schmidt_envelopes(coefficients, grid)
    return _ProductTable(_cell_bounds(f), grid[0], 2.0 * grid[-1] / (grid.size - 1))


def sample_state(
    state, theta1: float, theta2: float, count: int, seed: int, *, substream: int = 0
) -> SampleBatch:
    """Sample homodyne pairs from a benchmark state (exact or rejection)."""
    if state.gaussian:
        return sample_gaussian_epr(
            state.s, theta1, theta2, count, seed, substream=substream
        )

    def tomogram(x1, x2):
        return tg.tomogram_closed_form(state, x1, theta1, x2, theta2)

    return sample_rejection(
        tomogram, theta1, theta2, count, seed,
        schmidt=st.significant_schmidt(state), substream=substream,
    )


def estimate_probs(batch: SampleBatch) -> EstimatedProbs:
    """Quadrant frequencies of a batch with binomial standard errors."""
    plus1 = batch.pairs[:, 0] >= 0.0  # X = 0 counts as +
    plus2 = batch.pairs[:, 1] >= 0.0
    m = batch.count
    counts = np.array(
        [
            np.count_nonzero(plus1 & plus2),
            np.count_nonzero(plus1 & ~plus2),
            np.count_nonzero(~plus1 & plus2),
            np.count_nonzero(~plus1 & ~plus2),
        ],
        dtype=float,
    )
    p = counts / m
    se = np.sqrt(p * (1.0 - p) / m)
    probs = tg.SignBinnedProbs(*p, theta1=batch.theta1, theta2=batch.theta2).validate()
    return EstimatedProbs(probs, *se, count=m)


def estimate_chsh(
    state, angles: BellAnglesQuadrature, count: int, seed: int
) -> tuple[float, float]:
    """CHSH estimate from four independent batches (one substream each).

    Each setting contributes E = 2 p_agree - 1 with variance
    4 p (1 - p) / M; the four are combined in quadrature.
    """
    b_terms = []
    variance = 0.0
    for idx, (t1, t2) in enumerate(angles.pairs()):
        batch = sample_state(state, t1, t2, count, seed, substream=idx)
        est = estimate_probs(batch)
        e_val = (
            est.probs.w_pp - est.probs.w_pm - est.probs.w_mp + est.probs.w_mm
        )
        p_agree = est.probs.w_pp + est.probs.w_mm
        b_terms.append(e_val)
        variance += 4.0 * p_agree * (1.0 - p_agree) / est.count
    value = chsh(*b_terms)
    return value, math.sqrt(variance)
