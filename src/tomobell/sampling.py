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

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import states as st
from . import tomography as tg
from .bell import BellAnglesQuadrature, chsh
from .errors import DomainError, EnvelopeError
from .special import hermite_functions

#: Variance inflation of the Gaussian rejection envelope.
ENVELOPE_INFLATION = 1.5

#: Weight of the Gaussian fitted to the state's covariance in the envelope
#: mixture.  The isotropic Gaussian keeps the rest, so that w / g is at most
#: 1 / (1 - ENVELOPE_WEIGHT) times its value under the isotropic one alone
#: (a defensive mixture, Hesterberg, Technometrics 37, 185 (1995)).
ENVELOPE_WEIGHT = 0.9

#: Floor on the fitted variances along u and v: the vacuum's quadrature variance.
ENVELOPE_FLOOR = 0.25

#: Points per tomogram evaluation, in the envelope scan and in each chunk of
#: Gaussian-mixture proposals: small enough that the temporaries of the level
#: sum stay in cache.
_BLOCK = 1 << 14

#: Points per chunk of cell-table proposals, whose evaluation peaks the
#: sampler's memory.
_CELL_BLOCK = 1 << 13

#: Largest mass of w that the cell table may leave outside its square: the
#: resolution of the uniform draws.
OUTSIDE_MASS_LIMIT = 2.0**-53

#: Least half-width of the envelope scan's square.  The 6-sigma square of a
#: state near the vacuum ends at 3.67, where 4e-13 of its mass lies outside;
#: at 5 no pair-coherent state with r <= 1.6 and no Fock pair with n <= 4
#: leaves more than 3.1e-20 outside (every other such square is wider).
SCAN_MIN_HALF_WIDTH = 5.0

#: The sampler never gives up before this many proposal rounds.
_MIN_ROUNDS = 400


@dataclass(frozen=True)
class SampleBatch:
    """Quadrature pairs drawn at fixed angles, reproducible from the seed."""

    theta1: float
    theta2: float
    pairs: np.ndarray  # shape (count, 2)
    acceptance_rate: float | None = None
    rounds: int | None = None  # proposal rounds of a rejection sampler
    envelope_constant: float | None = None  # its Z = the integral of T, or its M with w <= M g
    envelope_sigmas: tuple[float, float, float] | None = None  # its g: sigma_plus, _minus, _iso
    tomogram_evaluations: int | None = None  # points where w was evaluated, scan included
    sampler: str | None = None  # "gaussian-exact", "cell-table" or "gaussian-mixture"
    outside_mass_bound: float | None = None  # cell table: mass of w outside its square, at most

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
    envelope_sigmas: tuple[float, float, float],
    bound_factor: float | None = None,
    lobe_width: float = math.inf,
    substream: int = 0,
) -> SampleBatch:
    """Rejection sampling of a joint quadrature density w(X1, X2).

    Without ``bound_factor`` the sampler first scans w on the square in X1
    and X2 that holds the 6-sigma ellipse of both parts of a Gaussian
    mixture g and reaches at least ``SCAN_MIN_HALF_WIDTH``, with two points
    per ``lobe_width`` (the narrowest fringe of w) and never fewer than 201
    per axis.  ``envelope_sigmas`` = (sigma_plus, sigma_minus, sigma_iso)
    size g on the axes u = (X1 + X2) / sqrt(2) and v = (X1 - X2) / sqrt(2):
    weight ``ENVELOPE_WEIGHT`` goes to a Gaussian with standard deviations
    sigma_plus along u and sigma_minus along v, and the rest to an
    isotropic Gaussian with sigma_iso per axis.

    Where the scan has 8 or more points per ``lobe_width`` it leaves a
    cell table T >= w on the square (see ``_envelope_scan``), and the
    proposals come from T: a cell drawn with probability T Z^-1 times its
    area, Z the integral of T, then a uniform point in it.  They never
    leave the square, whose outside mass the caller bounds
    (``sample_state``).  The batch's ``envelope_constant`` is Z, and the
    expected acceptance is 1 / Z.  Elsewhere, or with ``bound_factor`` given,
    the proposals come from g, with M = ``bound_factor`` or 1.1 times the
    scan's largest w / g, and ``envelope_constant`` is M.

    A proposal is accepted when u B < w, with u uniform on [0, 1) and B
    the bound T or M g at the point; one where w exceeds B aborts with an
    envelope error naming the point.  Rounds draw about 1.1 Z times the
    samples still missing from T, or max(1024, 2 * missing) from g.  w is
    evaluated a chunk at a time, 8192 proposals from T or 16384 from g, and
    the sampler stops at the chunk that completes the batch.  It gives up
    after ``_round_limit`` rounds at the acceptance measured so far, and
    never before round 400.  The batch records ``tomogram_evaluations``:
    the scan's points plus the proposals evaluated.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if min(envelope_sigmas) <= 0.0:
        raise DomainError(f"envelope sigmas must be positive, got {envelope_sigmas}")
    sigma_plus, sigma_minus, sigma_iso = envelope_sigmas
    fit_norm = ENVELOPE_WEIGHT / (2.0 * math.pi * sigma_plus * sigma_minus)
    iso_norm = (1.0 - ENVELOPE_WEIGHT) / (2.0 * math.pi * sigma_iso**2)

    # g on p = u / sqrt(2) and q = v / sqrt(2), so that X1 = p + q,
    # X2 = p - q, and u^2 / (2 sigma^2) = p^2 / sigma^2.  In place, as every
    # temporary of a proposal chunk costs about as much as its exp.
    def proposal_density(p, q):
        pp, qq = p * p, q * q
        fit = pp * (-1.0 / sigma_plus**2)
        fit -= qq / sigma_minus**2
        np.exp(fit, out=fit)
        fit *= fit_norm
        pp += qq
        pp *= -1.0 / sigma_iso**2
        np.exp(pp, out=pp)
        pp *= iso_norm
        fit += pp
        return fit

    table, evaluations = None, 0
    if bound_factor is None:
        ratio, table, evaluations = _envelope_scan(
            tomogram, proposal_density, envelope_sigmas, lobe_width)
        bound_factor = 1.1 * ratio

    rng = substream_generator(seed, substream)
    if table is None:
        sampler, constant, label = "gaussian-mixture", bound_factor, "M g"

        def propose(missing):
            return _mixture_round(rng, max(1024, 2 * missing), envelope_sigmas,
                                  bound_factor, proposal_density)
    else:
        sampler, constant, label = "cell-table", table.integral(), "T"
        if constant <= 0.0:
            raise EnvelopeError("density is 0 at every point of the envelope scan")

        def propose(missing):
            return _cell_round(rng, max(1024, math.ceil(1.1 * constant * missing)), table)

    pairs = np.empty((count, 2))
    n_proposed = n_accepted = rounds = 0
    while n_accepted < count:
        if rounds >= _round_limit(count, n_accepted / n_proposed if n_proposed else 0.0):
            raise EnvelopeError(
                f"rejection sampler produced {n_accepted}/{count} samples in {rounds} rounds"
            )
        rounds += 1
        for x1, x2, u, bound in propose(count - n_accepted):
            target = np.asarray(tomogram(x1, x2), dtype=float)
            n_proposed += x1.size
            overshoot = target > bound * (1.0 + 1e-12)
            if np.any(overshoot):
                i = np.argmax(overshoot)
                raise EnvelopeError(
                    f"density exceeds envelope at X = ({x1[i]:.6f}, {x2[i]:.6f}): "
                    f"w = {target[i]:.6e} > {label} = {bound[i]:.6e}"
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
        envelope_sigmas=(sigma_plus, sigma_minus, sigma_iso),
        tomogram_evaluations=evaluations + n_proposed,
        sampler=sampler,
    )


def _mixture_round(rng, size, envelope_sigmas, bound_factor, proposal_density):
    """Yield one round of ``size`` proposals from g in ``_BLOCK`` chunks: (X1, X2, u M g, M g)."""
    sigma_plus, sigma_minus, sigma_iso = envelope_sigmas
    half = math.sqrt(0.5)
    for start in range(0, size, _BLOCK):
        chunk = min(_BLOCK, size - start)
        fitted = rng.random(chunk) < ENVELOPE_WEIGHT
        p, q = rng.standard_normal((2, chunk))
        u = rng.random(chunk)
        p *= np.where(fitted, half * sigma_plus, half * sigma_iso)
        q *= np.where(fitted, half * sigma_minus, half * sigma_iso)
        cap = bound_factor * proposal_density(p, q)
        u *= cap
        yield p + q, p - q, u, cap


def _cell_round(rng, size, table):
    """Yield one round of ``size`` proposals from T in ``_CELL_BLOCK`` chunks: (X1, X2, u T, T).

    Multinomial counts over the cells, expanded to an int32 cell list and
    shuffled in place, are ``size`` independent cell draws in random order,
    so the round may stop after any chunk.
    """
    weights = table.values.ravel()
    counts = rng.multinomial(size, weights / weights.sum())
    cells = np.repeat(np.arange(weights.size, dtype=np.int32), counts)
    rng.shuffle(cells)
    for start in range(0, size, _CELL_BLOCK):
        chunk = cells[start:start + _CELL_BLOCK]
        row, col = np.divmod(chunk, table.values.shape[1])
        x1, x2, u = rng.random((3, chunk.size))
        for x, index in ((x1, row), (x2, col)):
            x += index
            x *= table.step
            x += table.corner
        cap = weights.take(chunk)
        u *= cap
        yield x1, x2, u, cap


class _CellTable(NamedTuple):
    """An upper bound T on w, constant on each cell of the envelope scan's grid.

    ``values[i, j]`` is T on the cell [corner + i step, corner + (i + 1) step]
    in X1 times the same interval of j in X2.
    """

    values: np.ndarray
    corner: float
    step: float

    def integral(self) -> float:
        """Z, the integral of T over the scanned square."""
        return float(np.sum(self.values)) * self.step**2


def _scan_half_width(envelope_sigmas) -> float:
    """Half-width of the envelope scan's square: it holds the 6-sigma ellipse of
    both parts of g, and reaches at least ``SCAN_MIN_HALF_WIDTH``."""
    sigma_plus, sigma_minus, sigma_iso = envelope_sigmas
    return max(6.0 * max(math.hypot(sigma_plus, sigma_minus) * math.sqrt(0.5), sigma_iso),
               SCAN_MIN_HALF_WIDTH)


def _envelope_scan(tomogram, proposal_density, envelope_sigmas, lobe_width):
    """(max of w / g, the cell table T or None, points evaluated) over the envelope scan's grid.

    The grid spans ``_scan_half_width`` in X1 and X2, with two points per
    ``lobe_width`` and never fewer than 201 per axis.  T is 1.1 times the
    largest w at a cell's four corners, the margin of M.  It is built only
    at 8 or more points per lobe: a fringe peak halfway along a cell
    diagonal then keeps cos^2(pi sqrt(2) / 16) = 0.925 > 1 / 1.1 of its
    value at a corner.
    """
    half_width = _scan_half_width(envelope_sigmas)
    lobes = 2.0 * half_width / lobe_width
    grid = np.linspace(-half_width, half_width, max(201, 2 * math.ceil(lobes) + 1))
    step = 2.0 * half_width / (grid.size - 1)
    tabled = step <= lobe_width / 8.0
    # table row i + 1 holds the cells from grid point i to i + 1
    table = np.zeros((grid.size + 1, grid.size - 1)) if tabled else None
    ratio = 0.0
    row = 0
    # The grid is a product in X1 and X2, so that a Schmidt-sum tomogram runs
    # its level recurrences along the two axes and only its sum on the grid.
    for rows in np.array_split(grid, math.ceil(grid.size**2 / _BLOCK)):
        x1, x2 = rows[:, None], grid[None, :]
        target = tomogram(x1, x2)
        if tabled:
            # grid row i is a corner row of the cells in table rows i and i + 1
            corners = np.maximum(target[:, :-1], target[:, 1:])
            cells = table[row:row + rows.size + 1]
            np.maximum(cells[:-1], corners, out=cells[:-1])
            np.maximum(cells[1:], corners, out=cells[1:])
        row += rows.size
        ratio = max(ratio, float(np.max(
            target / proposal_density(0.5 * (x1 + x2), 0.5 * (x1 - x2)))))
    if not tabled:
        return ratio, None, grid.size**2
    values = table[1:-1]
    values *= 1.1
    return ratio, _CellTable(values, -half_width, step), grid.size**2


def _round_limit(count: int, acceptance: float) -> int:
    """Four times the rounds that ``count`` samples take at ``acceptance``, at least 400.

    While more than 512 samples remain, a round accepts a fraction
    2 * acceptance of them, so they fall to 512 within
    ln(count / 512) / (2 * acceptance) rounds; the 1024-proposal rounds after
    that take at most 1 / (2 * acceptance) more.  With nothing accepted yet
    the limit is 400.
    """
    if acceptance <= 0.0:
        return _MIN_ROUNDS
    need = (1.0 + math.log(max(count, 512) / 512)) / (2.0 * acceptance)
    return max(_MIN_ROUNDS, math.ceil(4.0 * need))


def quadrature_moments(state, theta_sum: float) -> tuple[float, float]:
    """(var, cov): the variance of X1 and of X2, and their covariance, at theta1 + theta2.

    A Schmidt-diagonal state sum_n c_n |n n> has var = (2 <n> + 1) / 4 and
    cov = cos(theta_sum) sum_n c_n c_{n+1} (n + 1) / 2; the squeezed vacuum
    takes both from its homodyne Gaussian, cosh(2s) / 4 and
    -sinh(2s) cos(theta_sum) / 4.
    """
    if state.gaussian:
        c, b, _ = st.squeezed_homodyne(state.s, theta_sum)
        return c / 4.0, -b / 4.0
    c = st.significant_schmidt(state).coefficients
    levels = np.arange(c.size)
    var = (2.0 * float(np.sum(levels * c**2)) + 1.0) / 4.0
    cov = 0.5 * math.cos(theta_sum) * float(np.sum(c[:-1] * c[1:] * levels[1:]))
    return var, cov


def envelope_sigmas(var: float, cov: float) -> tuple[float, float, float]:
    """(sigma_plus, sigma_minus, sigma_iso) of the rejection envelope for these moments.

    Along u and v the quadratures have variances var + cov and var - cov;
    each is floored at ``ENVELOPE_FLOOR`` and, like var for the isotropic
    part, inflated by ``ENVELOPE_INFLATION``.
    """
    return tuple(math.sqrt(ENVELOPE_INFLATION * v)
                 for v in (max(var + cov, ENVELOPE_FLOOR), max(var - cov, ENVELOPE_FLOOR), var))


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

    var, cov = quadrature_moments(state, theta1 + theta2)
    sigmas = envelope_sigmas(var, cov)
    # The narrowest fringe: |psi_n(sqrt(2) X)|^2 has lobes pi / sqrt(2 (2n + 1))
    # wide at X = 0, and the per-mode variance var = (2n + 2) / 8 gives
    # 2n + 1 = 8 var - 1 (n is the top level of the Fock pair, twice the mean
    # photon number of the pair-coherent state).
    batch = sample_rejection(
        tomogram, theta1, theta2, count, seed, envelope_sigmas=sigmas,
        lobe_width=math.pi / math.sqrt(2.0 * (8.0 * var - 1.0)), substream=substream,
    )
    if batch.sampler != "cell-table":
        return batch
    # The table draws only inside the square |X1|, |X2| <= a, and w puts at
    # most P(|X1| > a) + P(|X2| > a) = 4 P(X1 > a) outside it.
    bound = 4.0 * marginal_tail(
        st.significant_schmidt(state).coefficients, _scan_half_width(sigmas))
    if bound > OUTSIDE_MASS_LIMIT:
        raise EnvelopeError(
            f"the cell table leaves up to {bound:.3e} of the density outside its square, "
            f"more than {OUTSIDE_MASS_LIMIT:.3e}"
        )
    return dataclasses.replace(batch, outside_mass_bound=bound)


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
