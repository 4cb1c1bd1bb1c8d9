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

#: Variance inflation of the Gaussian rejection envelope.
ENVELOPE_INFLATION = 1.5

#: Weight of the Gaussian fitted to the state's covariance in the envelope
#: mixture.  The isotropic Gaussian keeps the rest, so that w / g is at most
#: 1 / (1 - ENVELOPE_WEIGHT) times its value under the isotropic one alone
#: (a defensive mixture, Hesterberg, Technometrics 37, 185 (1995)).
ENVELOPE_WEIGHT = 0.9

#: Floor on the fitted variances along u and v: the vacuum's quadrature variance.
ENVELOPE_FLOOR = 0.25

#: Points per tomogram evaluation, in the envelope scan and in each proposal
#: chunk: small enough that the temporaries of the level sum stay in cache.
_BLOCK = 1 << 14

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
    envelope_constant: float | None = None  # its M, with w <= M g
    envelope_sigmas: tuple[float, float, float] | None = None  # its g: sigma_plus, _minus, _iso
    tomogram_evaluations: int | None = None  # points where w was evaluated, scan included

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
    return SampleBatch(theta1=theta1, theta2=theta2, pairs=z @ chol.T)


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

    The proposal g is a mixture on the axes u = (X1 + X2) / sqrt(2) and
    v = (X1 - X2) / sqrt(2).  With ``envelope_sigmas`` = (sigma_plus,
    sigma_minus, sigma_iso), weight ``ENVELOPE_WEIGHT`` goes to a Gaussian
    with standard deviations sigma_plus along u and sigma_minus along v, and
    the rest to an isotropic Gaussian with sigma_iso per axis.  The envelope
    constant M (with w <= M * g) is taken from ``bound_factor`` or estimated
    with a 10% safety margin by a scan of the square in X1 and X2 that holds
    the 6-sigma ellipse of both components, with two points per
    ``lobe_width`` (the narrowest fringe of w) and never fewer than 201 per
    axis.  Where that grid has 8 or more points per ``lobe_width``, the scan
    also leaves a screen: T, 1.1 times the largest w at the four corners of
    each grid cell, and +inf outside the square.  A proposal is accepted
    when u M g < w, u uniform on [0, 1); one with u M g >= T is rejected
    without evaluating w, so every decision is the same as without the
    screen wherever T >= w.  An evaluated proposal where w exceeds M g or T
    aborts with an envelope error naming the point.  The batch records
    ``tomogram_evaluations``: the scan's points plus the proposals
    evaluated.  Rounds draw max(1024, 2 * remaining) proposals each, in
    chunks of ``_BLOCK``; the sampler gives up after ``_round_limit`` rounds
    at the acceptance measured so far, and never before round 400.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if min(envelope_sigmas) <= 0.0:
        raise DomainError(f"envelope sigmas must be positive, got {envelope_sigmas}")
    sigma_plus, sigma_minus, sigma_iso = envelope_sigmas
    fit_norm = ENVELOPE_WEIGHT / (2.0 * math.pi * sigma_plus * sigma_minus)
    iso_norm = (1.0 - ENVELOPE_WEIGHT) / (2.0 * math.pi * sigma_iso**2)
    half = math.sqrt(0.5)

    # The sampler works on p = u / sqrt(2) and q = v / sqrt(2), so that
    # X1 = p + q, X2 = p - q, and u^2 / (2 sigma^2) = p^2 / sigma^2.  In place,
    # as every temporary of a proposal chunk costs about as much as its exp.
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

    screen, evaluations = _UNSCREENED, 0
    if bound_factor is None:
        ratio, screen, evaluations = _envelope_scan(
            tomogram, proposal_density, envelope_sigmas, lobe_width)
        bound_factor = 1.1 * ratio

    rng = substream_generator(seed, substream)
    accepted = []
    n_proposed = 0
    n_accepted = 0
    rounds = 0
    while n_accepted < count:
        if rounds >= _round_limit(count, n_accepted / n_proposed if n_proposed else 0.0):
            raise EnvelopeError(
                f"rejection sampler produced {n_accepted}/{count} samples in {rounds} rounds"
            )
        rounds += 1
        # modest oversampling keeps the loop count low and deterministic
        block = max(1024, 2 * (count - n_accepted))
        for start in range(0, block, _BLOCK):
            size = min(_BLOCK, block - start)
            fitted = rng.random(size) < ENVELOPE_WEIGHT
            p, q = rng.standard_normal((2, size))
            u = rng.random(size)
            p *= np.where(fitted, half * sigma_plus, half * sigma_iso)
            q *= np.where(fitted, half * sigma_minus, half * sigma_iso)
            x1, x2 = p + q, p - q
            cap = bound_factor * proposal_density(p, q)
            u *= cap
            # u M g >= T >= w rejects a proposal without its tomogram
            ceiling = screen.ceiling(x1, x2)
            live = np.flatnonzero(u < ceiling)
            x1, x2 = x1[live], x2[live]
            target = np.asarray(tomogram(x1, x2), dtype=float)
            evaluations += live.size
            for label, bound in (("M g", cap[live]), ("T", ceiling[live])):
                overshoot = target > bound * (1.0 + 1e-12)
                if np.any(overshoot):
                    i = np.argmax(overshoot)
                    raise EnvelopeError(
                        f"density exceeds envelope at X = ({x1[i]:.6f}, {x2[i]:.6f}): "
                        f"w = {target[i]:.6e} > {label} = {bound[i]:.6e}"
                    )
            keep = u[live] < target
            n_accepted += int(np.count_nonzero(keep))
            accepted.append(np.column_stack((x1[keep], x2[keep])))
        n_proposed += block
    pairs = np.concatenate(accepted, axis=0)[:count]
    return SampleBatch(
        theta1=theta1,
        theta2=theta2,
        pairs=pairs,
        acceptance_rate=n_accepted / n_proposed,
        rounds=rounds,
        envelope_constant=bound_factor,
        envelope_sigmas=(sigma_plus, sigma_minus, sigma_iso),
        tomogram_evaluations=evaluations,
    )


class _Screen(NamedTuple):
    """An upper bound T on w, constant on each cell of the envelope scan's grid.

    ``table`` holds T per cell inside a border of +inf: a point (X1, X2)
    reads the row floor((X1 - origin) * inv_step) and the column of X2 alike,
    each clipped to the border, so T = +inf outside the scanned square.
    """

    table: np.ndarray
    origin: float
    inv_step: float

    def ceiling(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """T at the points (x1, x2)."""
        def index(x):
            cell = x - self.origin
            cell *= self.inv_step
            return np.clip(cell, 0.0, self.table.shape[0] - 1, out=cell).astype(np.intp)

        return self.table.take(index(x1) * self.table.shape[1] + index(x2))


#: No table: T = +inf everywhere.
_UNSCREENED = _Screen(np.full((2, 2), math.inf), 0.0, 1.0)
_UNSCREENED.table.setflags(write=False)


def _envelope_scan(tomogram, proposal_density, envelope_sigmas, lobe_width):
    """(max of w / g, the screen T, points evaluated) over the envelope scan's grid.

    The grid is the square in X1 and X2 that holds the 6-sigma ellipse of
    both mixture components, with two points per ``lobe_width`` and never
    fewer than 201 per axis.  T is 1.1 times the largest w at a cell's four
    corners, the margin of M.  It is built only at 8 or more points per
    lobe: a fringe peak halfway along a cell diagonal then keeps
    cos^2(pi sqrt(2) / 16) = 0.925 > 1 / 1.1 of its value at a corner.  At
    coarser spacing the screen is ``_UNSCREENED``.
    """
    sigma_plus, sigma_minus, sigma_iso = envelope_sigmas
    half_width = 6.0 * max(math.hypot(sigma_plus, sigma_minus) * math.sqrt(0.5), sigma_iso)
    lobes = 2.0 * half_width / lobe_width
    grid = np.linspace(-half_width, half_width, max(201, 2 * math.ceil(lobes) + 1))
    step = 2.0 * half_width / (grid.size - 1)
    screened = step <= lobe_width / 8.0
    # table row and column i + 1 hold the cells from grid point i to i + 1
    table = np.zeros((grid.size + 1, grid.size + 1)) if screened else None
    ratio = 0.0
    row = 0
    # The grid is a product in X1 and X2, so that a Schmidt-sum tomogram runs
    # its level recurrences along the two axes and only its sum on the grid.
    for rows in np.array_split(grid, math.ceil(grid.size**2 / _BLOCK)):
        x1, x2 = rows[:, None], grid[None, :]
        target = tomogram(x1, x2)
        if screened:
            # grid row i is a corner row of the cells in table rows i and i + 1
            corners = np.maximum(target[:, :-1], target[:, 1:])
            cells = table[row:row + rows.size + 1, 1:-1]
            np.maximum(cells[:-1], corners, out=cells[:-1])
            np.maximum(cells[1:], corners, out=cells[1:])
        row += rows.size
        ratio = max(ratio, float(np.max(
            target / proposal_density(0.5 * (x1 + x2), 0.5 * (x1 - x2)))))
    if not screened:
        return ratio, _UNSCREENED, grid.size**2
    table *= 1.1
    table[[0, -1]] = math.inf
    table[:, [0, -1]] = math.inf
    return ratio, _Screen(table, -half_width - step, 1.0 / step), grid.size**2


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
    # The narrowest fringe: |psi_n(sqrt(2) X)|^2 has lobes pi / sqrt(2 (2n + 1))
    # wide at X = 0, and the per-mode variance var = (2n + 2) / 8 gives
    # 2n + 1 = 8 var - 1 (n is the top level of the Fock pair, twice the mean
    # photon number of the pair-coherent state).
    return sample_rejection(
        tomogram, theta1, theta2, count, seed, envelope_sigmas=envelope_sigmas(var, cov),
        lobe_width=math.pi / math.sqrt(2.0 * (8.0 * var - 1.0)), substream=substream,
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
