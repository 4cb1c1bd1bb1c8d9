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

import numpy as np

from . import states as st
from . import tomography as tg
from .bell import BellAnglesQuadrature, chsh
from .errors import DomainError, EnvelopeError

#: Variance inflation of the Gaussian rejection envelope.
ENVELOPE_INFLATION = 1.5

#: Points per tomogram evaluation, in the envelope scan and in each proposal
#: block: small enough that the temporaries of the level sum stay in cache.
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
    envelope_sigma: float,
    bound_factor: float | None = None,
    scan_points: int = 201,
    substream: int = 0,
) -> SampleBatch:
    """Rejection sampling of a joint quadrature density w(X1, X2).

    The proposal is an isotropic Gaussian with per-axis standard deviation
    ``envelope_sigma``.  The envelope constant M (with w <= M * proposal) is
    taken from ``bound_factor`` or estimated with a 10% safety margin by a
    scan of ``scan_points`` per axis over +/-6 ``envelope_sigma``; any
    proposal where the density exceeds the envelope aborts with an envelope
    error naming the offending point.  Rounds draw max(1024, 2 * remaining)
    proposals each; the sampler gives up after ``_round_limit`` rounds at the
    acceptance measured so far, and never before round 400.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if envelope_sigma <= 0.0:
        raise DomainError(f"envelope sigma must be positive, got {envelope_sigma}")

    def proposal_density(x1, x2):
        return np.exp(-0.5 * (x1**2 + x2**2) / envelope_sigma**2) / (
            2.0 * math.pi * envelope_sigma**2
        )

    if bound_factor is None:
        grid = np.linspace(-6.0 * envelope_sigma, 6.0 * envelope_sigma, scan_points)
        bound_factor = 1.1 * max(
            float(np.max(tomogram(rows[:, None], grid[None, :])
                         / proposal_density(rows[:, None], grid[None, :])))
            for rows in np.array_split(grid, math.ceil(grid.size**2 / _BLOCK))
        )

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
        x = rng.normal(scale=envelope_sigma, size=(block, 2))
        target = np.concatenate([
            np.asarray(tomogram(part[:, 0], part[:, 1]), dtype=float)
            for part in np.split(x, range(_BLOCK, block, _BLOCK))
        ])
        cap = bound_factor * proposal_density(x[:, 0], x[:, 1])
        overshoot = target > cap * (1.0 + 1e-12)
        if np.any(overshoot):
            bad = x[np.argmax(overshoot)]
            raise EnvelopeError(
                f"density exceeds envelope at X = ({bad[0]:.6f}, {bad[1]:.6f}): "
                f"w = {target[np.argmax(overshoot)]:.6e} > M g = {cap[np.argmax(overshoot)]:.6e}"
            )
        keep = rng.random(block) * cap < target
        n_proposed += block
        n_accepted += int(np.count_nonzero(keep))
        accepted.append(x[keep])
    pairs = np.concatenate(accepted, axis=0)[:count]
    return SampleBatch(
        theta1=theta1,
        theta2=theta2,
        pairs=pairs,
        acceptance_rate=n_accepted / n_proposed,
        rounds=rounds,
        envelope_constant=bound_factor,
    )


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


def default_envelope_sigma(state) -> float:
    """Gaussian envelope scale: sqrt(ENVELOPE_INFLATION * max per-mode quadrature variance)."""
    if state.gaussian:
        var = st.squeezed_homodyne(state.s, 0.0)[0] / 4.0
    else:
        c = st.significant_schmidt(state).coefficients
        mean_n = float(np.sum(np.arange(c.size) * c**2))
        var = (2.0 * mean_n + 1.0) / 4.0
    return math.sqrt(ENVELOPE_INFLATION * var)


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

    sigma = default_envelope_sigma(state)
    # The narrowest fringe: |psi_n(sqrt(2) X)|^2 has lobes pi / sqrt(2 (2n + 1))
    # wide at X = 0, and the per-mode variance var = (2n + 2) / 8 of the
    # envelope gives 2n + 1 = 8 var - 1 (n is the top level of the Fock pair,
    # twice the mean photon number of the pair-coherent state).  The scan
    # over +/-6 sigma takes two points per lobe, and never fewer than 201.
    var = sigma**2 / ENVELOPE_INFLATION
    lobes = 12.0 * sigma * math.sqrt(2.0 * (8.0 * var - 1.0)) / math.pi
    return sample_rejection(
        tomogram, theta1, theta2, count, seed, envelope_sigma=sigma,
        scan_points=max(201, 2 * math.ceil(lobes) + 1), substream=substream,
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
