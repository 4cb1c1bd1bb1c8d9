"""Seeded Monte Carlo batches and statistical estimators."""

import math

import numpy as np
import pytest

from tomobell.bell import BellAnglesQuadrature, chsh, correlation_tomographic
from tomobell.errors import DomainError, EnvelopeError
from tomobell.sampling import (
    SampleBatch,
    default_envelope_sigma,
    estimate_chsh,
    estimate_probs,
    sample_gaussian_epr,
    sample_rejection,
    sample_state,
    substream_generator,
)
from tomobell.states import (
    FockPairSuperposition,
    PairCoherent,
    SqueezedVacuum,
    schmidt_coefficients,
)
from tomobell.tomography import sign_binned_closed_form, tomogram_closed_form


def test_epr_covariance_structure():
    # exact samples are z L^T, L the Cholesky factor of
    # (1/4) [[cosh 2s, -sinh 2s cos(t1 + t2)], [-sinh 2s cos(t1 + t2), cosh 2s]]
    off = -math.sinh(2.0) * math.cos(0.4 - 0.1)
    cov = 0.25 * np.array([[math.cosh(2.0), off], [off, math.cosh(2.0)]])
    z = substream_generator(11).standard_normal((500, 2))
    batch = sample_gaussian_epr(1.0, 0.4, -0.1, 500, seed=11)
    assert np.array_equal(batch.pairs, z @ np.linalg.cholesky(cov).T)


def test_batch_determinism_and_substreams():
    a = sample_gaussian_epr(1.0, 0.3, -0.3, 1000, seed=12345)
    b = sample_gaussian_epr(1.0, 0.3, -0.3, 1000, seed=12345)
    assert np.array_equal(a.pairs, b.pairs)
    c = sample_gaussian_epr(1.0, 0.3, -0.3, 1000, seed=12345, substream=1)
    assert not np.array_equal(a.pairs, c.pairs)
    d = sample_gaussian_epr(1.0, 0.3, -0.3, 1000, seed=54321)
    assert not np.array_equal(a.pairs, d.pairs)


def test_substream_generator_reproducible():
    g1 = substream_generator(7, 3)
    g2 = substream_generator(7, 3)
    assert np.array_equal(g1.random(16), g2.random(16))


def test_vacuum_samples_uncorrelated():
    count = 100_000
    batch = sample_gaussian_epr(0.0, 0.7, 0.1, count, seed=2024)
    corr = float(np.corrcoef(batch.pairs.T)[0, 1])
    assert abs(corr) < 4.0 / math.sqrt(count)


def test_strong_squeezing_sign_agreement():
    s = 1.0
    count = 100_000
    batch = sample_gaussian_epr(s, 0.4, -0.4, count, seed=99)
    probs = sign_binned_closed_form(SqueezedVacuum(math.tanh(s)), 0.4, -0.4)
    agree_truth = probs.w_pp + probs.w_mm
    signs = np.sign(batch.pairs) >= 0
    agree = float(np.mean(signs[:, 0] == signs[:, 1]))
    se = math.sqrt(agree_truth * (1.0 - agree_truth) / count)
    assert abs(agree - agree_truth) < 4.0 * se


def test_batch_validation():
    with pytest.raises(DomainError):
        SampleBatch(0.0, 0.0, np.zeros((0, 2)))
    with pytest.raises(DomainError):
        SampleBatch(0.0, 0.0, np.array([[np.inf, 0.0]]))
    with pytest.raises(DomainError):
        sample_gaussian_epr(0.5, 0.0, 0.0, 0, seed=1)


def test_estimate_probs_quadrants():
    batch = SampleBatch(0.0, 0.0, np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    est = estimate_probs(batch)
    assert est.probs.as_tuple() == (0.25, 0.25, 0.25, 0.25)
    all_pp = SampleBatch(0.0, 0.0, np.ones((8, 2)))
    est2 = estimate_probs(all_pp)
    assert est2.probs.w_pp == 1.0
    assert est2.se_pp == 0.0


def test_estimate_probs_zero_counts_as_plus():
    batch = SampleBatch(0.0, 0.0, np.array([[0.0, 0.0], [0.0, -1.0]]))
    est = estimate_probs(batch)
    assert est.probs.w_pp == 0.5
    assert est.probs.w_pm == 0.5


def test_rejection_vacuum_acceptance_rate():
    state = SqueezedVacuum(0.0)
    sigma = default_envelope_sigma(state)

    def tomogram(x1, x2):
        return tomogram_closed_form(state, x1, 0.0, x2, 0.0)

    count = 50_000
    batch = sample_rejection(tomogram, 0.0, 0.0, count, seed=31415, envelope_sigma=sigma)
    # acceptance probability is exactly 1/M for a normalized target
    grid = np.linspace(-6.0 * sigma, 6.0 * sigma, 201)
    proposal = np.exp(-0.5 * (grid[:, None] ** 2 + grid[None, :] ** 2) / sigma**2) / (
        2.0 * math.pi * sigma**2
    )
    m_bound = 1.1 * float(np.max(tomogram(grid[:, None], grid[None, :]) / proposal))
    want = 1.0 / m_bound
    se = math.sqrt(want * (1.0 - want) / batch.count)
    assert abs(batch.acceptance_rate - want) < 4.0 * se


def test_envelope_sigma_uses_every_pair_coherent_level():
    # the first 64 levels miss 51% of the norm at r = 8 (sigma 4.69, not 6.94)
    c = schmidt_coefficients(PairCoherent(8.0), 512).coefficients
    mean_n = float(np.sum(np.arange(c.size) * c**2))
    want = math.sqrt(1.5 * (2.0 * mean_n + 1.0) / 4.0)
    assert default_envelope_sigma(PairCoherent(8.0)) == pytest.approx(want, rel=1e-14)


def test_rejection_envelope_violation_reported():
    def wide_density(x1, x2):  # variance 4 target under a variance ~1 envelope
        return np.exp(-(x1**2 + x2**2) / 8.0) / (8.0 * math.pi)

    with pytest.raises(EnvelopeError):
        sample_rejection(
            wide_density, 0.0, 0.0, 1000, seed=3, envelope_sigma=1.0, bound_factor=1.05
        )


def test_rejection_low_acceptance_runs_past_400_rounds():
    # a narrow Gaussian under a unit envelope with the exact bound M = 1 / s0^2
    # accepts s0^2 = 0.09% of proposals: about 930 rounds for 1000 samples
    s0 = 0.03

    def narrow_density(x1, x2):
        return np.exp(-0.5 * (x1**2 + x2**2) / s0**2) / (2.0 * math.pi * s0**2)

    m_bound = 1.0 / s0**2
    batch = sample_rejection(
        narrow_density, 0.0, 0.0, 1000, seed=5, envelope_sigma=1.0, bound_factor=m_bound
    )
    assert batch.count == 1000
    assert batch.rounds > 400
    assert batch.envelope_constant == m_bound
    proposals = batch.count / batch.acceptance_rate
    assert abs(batch.acceptance_rate - s0**2) < 4.0 * math.sqrt(s0**2 / proposals)
    assert np.std(batch.pairs, axis=0) == pytest.approx([s0, s0], rel=0.1)


def test_rejection_without_acceptance_gives_up_at_400_rounds():
    def empty_density(x1, x2):
        return np.zeros_like(x1)

    with pytest.raises(EnvelopeError, match=r"produced 0/10 samples in 400 rounds"):
        sample_rejection(empty_density, 0.0, 0.0, 10, seed=1, envelope_sigma=1.0, bound_factor=1.0)


def test_rejection_batch_records_rounds_and_envelope_constant():
    state = FockPairSuperposition(3)
    batch = sample_state(state, 0.3, 0.2, 3000, seed=8)
    assert batch.rounds >= 1
    # the scanned bound has a 10% margin over the density / proposal ratio
    sigma = default_envelope_sigma(state)
    x = batch.pairs
    proposal = np.exp(-0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2) / sigma**2) / (2.0 * math.pi * sigma**2)
    ratio = tomogram_closed_form(state, x[:, 0], 0.3, x[:, 1], 0.2) / proposal
    assert np.max(ratio) <= batch.envelope_constant
    assert sample_gaussian_epr(1.0, 0.0, 0.0, 10, seed=1).rounds is None


@pytest.mark.parametrize(
    "state,theta1,theta2",
    [
        (FockPairSuperposition(1), 0.4, 0.2),
        (PairCoherent(1.05), 0.9, 0.4),
    ],
)
def test_rejection_matches_closed_form(state, theta1, theta2):
    count = 40_000
    batch = sample_state(state, theta1, theta2, count, seed=777)
    est = estimate_probs(batch)
    truth = sign_binned_closed_form(state, theta1, theta2)
    for got, se, want in zip(est.probs.as_tuple(), est.errors(), truth.as_tuple()):
        assert abs(got - want) < 4.0 * se


@pytest.mark.parametrize("n", [86, 161])
def test_rejection_envelope_resolves_high_n_fringes(n):
    # a 201-point envelope scan missed the fringes of these tomograms and the
    # sampler stopped with "density exceeds envelope"
    state = FockPairSuperposition(n)
    batch = sample_state(state, 0.3, 0.2, 2000, seed=86)
    est = estimate_probs(batch)
    truth = sign_binned_closed_form(state, 0.3, 0.2)
    for got, se, want in zip(est.probs.as_tuple(), est.errors(), truth.as_tuple()):
        assert abs(got - want) < 4.0 * se


def test_estimate_chsh_against_deterministic():
    state = SqueezedVacuum(math.tanh(1.0))
    angles = BellAnglesQuadrature(0.0, math.pi / 2, -math.pi / 4, math.pi / 4)
    exact = chsh(
        *[
            correlation_tomographic(sign_binned_closed_form(state, a, b))
            for a, b in angles.pairs()
        ]
    )
    est, se = estimate_chsh(state, angles, 50_000, seed=4242)
    assert abs(est - exact) < 4.0 * se


def test_estimate_chsh_error_scaling():
    state = SqueezedVacuum(math.tanh(1.0))
    angles = BellAnglesQuadrature(0.0, math.pi / 2, -math.pi / 4, math.pi / 4)
    _, se_small = estimate_chsh(state, angles, 20_000, seed=99)
    _, se_large = estimate_chsh(state, angles, 80_000, seed=99)
    assert se_small / se_large == pytest.approx(2.0, abs=0.05)


def test_estimate_chsh_detects_pair_coherent_violation():
    # the deterministic scan confirms B > 2 near r = 1.1 (see the acceptance
    # suite); a million samples per setting must resolve the violation at 3
    # sigma.  Deterministic value at these angles: 2.0639.
    angles = BellAnglesQuadrature(math.pi / 2, 0.0, -math.pi / 4, -3 * math.pi / 4)
    est, se = estimate_chsh(PairCoherent(1.1), angles, 1_000_000, seed=31415)
    assert est - 2.0 > 3.0 * se


def test_coverage_two_sigma():
    state = SqueezedVacuum(math.tanh(1.0))
    truth = sign_binned_closed_form(state, 0.3, -0.3).w_pp
    hits = 0
    seeds = 50
    for seed in range(seeds):
        batch = sample_gaussian_epr(1.0, 0.3, -0.3, 20_000, seed=1000 + seed)
        est = estimate_probs(batch)
        hits += abs(est.probs.w_pp - truth) <= 2.0 * est.se_pp
    assert 0.90 <= hits / seeds <= 0.99
