"""Seeded Monte Carlo batches and statistical estimators."""

import math

import numpy as np
import pytest

from tomobell import sampling as smp
from tomobell.bell import BellAnglesQuadrature, chsh
from tomobell.errors import DomainError, EnvelopeError
from tomobell.sampling import (
    ENVELOPE_WEIGHT,
    SampleBatch,
    envelope_sigmas,
    estimate_chsh,
    estimate_probs,
    quadrature_moments,
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
    significant_schmidt,
    squeezed_homodyne,
)
from tomobell.tomography import sign_binned_closed_form, tomogram_closed_form

from oracles import (
    RandomSchmidt,
    correlation_tomographic,
    homodyne_marginal_tail,
    second_moments_numeric,
)


def mixture_density(x1, x2, sigmas):
    """The envelope g of sample_rejection, written on u and v directly."""
    sigma_plus, sigma_minus, sigma_iso = sigmas
    u, v = (x1 + x2) / math.sqrt(2.0), (x1 - x2) / math.sqrt(2.0)
    fitted = np.exp(-0.5 * (u**2 / sigma_plus**2 + v**2 / sigma_minus**2)) / (
        2.0 * math.pi * sigma_plus * sigma_minus)
    iso = np.exp(-0.5 * (u**2 + v**2) / sigma_iso**2) / (2.0 * math.pi * sigma_iso**2)
    return ENVELOPE_WEIGHT * fitted + (1.0 - ENVELOPE_WEIGHT) * iso


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
    sigmas = envelope_sigmas(*quadrature_moments(state, 0.0))
    assert sigmas == (math.sqrt(1.5 * 0.25),) * 3  # the vacuum's envelope is isotropic

    def tomogram(x1, x2):
        return tomogram_closed_form(state, x1, 0.0, x2, 0.0)

    count = 50_000
    # the 6-sigma square ends at 3.67, so the scan spans its least half-width, 5;
    # a lobe width of 0.25 keeps its 201 points (step 0.05) but is below their
    # 8 points per lobe, so no cell table: the proposals come from g
    assert 6.0 * sigmas[0] < smp.SCAN_MIN_HALF_WIDTH == 5.0
    batch = sample_rejection(tomogram, 0.0, 0.0, count, seed=31415, envelope_sigmas=sigmas,
                             lobe_width=0.25)
    assert batch.sampler == "gaussian-mixture"
    # acceptance probability is exactly 1/M for a normalized target; the
    # scan's 201 points per axis include the origin, where w / g peaks
    grid = np.linspace(-5.0, 5.0, 201)
    x1, x2 = grid[:, None], grid[None, :]
    m_bound = 1.1 * float(np.max(tomogram(x1, x2) / mixture_density(x1, x2, sigmas)))
    assert m_bound == pytest.approx(1.1 * 1.5, rel=1e-12)  # w / g = 1.5 at the origin
    assert batch.envelope_constant == pytest.approx(m_bound, rel=1e-12)
    want = 1.0 / m_bound
    se = math.sqrt(want * (1.0 - want) / batch.count)
    assert abs(batch.acceptance_rate - want) < 4.0 * se
    # w has no fringes, so the default scan leaves a cell table and the
    # proposals come from T: acceptance 1/Z, with Z = the integral of T,
    # 1.1 times the largest w at each cell's corners
    batch = sample_rejection(tomogram, 0.0, 0.0, count, seed=31415, envelope_sigmas=sigmas)
    assert batch.sampler == "cell-table"
    w = tomogram(x1, x2)
    corners = np.maximum(np.maximum(w[:-1, :-1], w[:-1, 1:]), np.maximum(w[1:, :-1], w[1:, 1:]))
    z = 1.1 * float(np.sum(corners)) * (grid[1] - grid[0]) ** 2
    assert batch.envelope_constant == pytest.approx(z, rel=1e-12)
    want = 1.0 / z
    se = math.sqrt(want * (1.0 - want) / (count / want))
    assert abs(batch.acceptance_rate - want) < 4.0 * se


def test_envelope_sigma_uses_every_pair_coherent_level():
    # the first 64 levels miss 51% of the norm at r = 8 (sigma_iso 4.69, not 6.94)
    c = schmidt_coefficients(PairCoherent(8.0), 512).coefficients
    mean_n = float(np.sum(np.arange(c.size) * c**2))
    var = (2.0 * mean_n + 1.0) / 4.0
    for theta in (0.0, 1.0, math.pi):
        cov = 0.5 * math.cos(theta) * float(np.sum(c[:-1] * c[1:] * np.arange(1, c.size)))
        assert cov == pytest.approx(0.5 * 64.0 * math.cos(theta), rel=1e-10)  # r^2 cos / 2
        want = [math.sqrt(1.5 * max(v, 0.25)) for v in (var + cov, var - cov, var)]
        got = envelope_sigmas(*quadrature_moments(PairCoherent(8.0), theta))
        assert got == pytest.approx(want, rel=1e-14)
    assert want[2] == pytest.approx(6.94, abs=0.01)


def test_rejection_envelope_violation_reported():
    def wide_density(x1, x2):  # variance 4 target under a variance ~1 envelope
        return np.exp(-(x1**2 + x2**2) / 8.0) / (8.0 * math.pi)

    with pytest.raises(EnvelopeError):
        sample_rejection(
            wide_density, 0.0, 0.0, 1000, seed=3, envelope_sigmas=(1.0, 1.0, 1.0),
            bound_factor=1.05,
        )


def test_rejection_low_acceptance_runs_past_400_rounds():
    # a narrow Gaussian under a unit envelope with the exact bound M = 1 / s0^2
    # accepts s0^2 = 0.09% of proposals: about 930 rounds for 1000 samples
    s0 = 0.03

    def narrow_density(x1, x2):
        return np.exp(-0.5 * (x1**2 + x2**2) / s0**2) / (2.0 * math.pi * s0**2)

    m_bound = 1.0 / s0**2
    batch = sample_rejection(
        narrow_density, 0.0, 0.0, 1000, seed=5, envelope_sigmas=(1.0, 1.0, 1.0),
        bound_factor=m_bound,
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
        sample_rejection(empty_density, 0.0, 0.0, 10, seed=1, envelope_sigmas=(1.0, 1.0, 1.0),
                         bound_factor=1.0)


def test_rejection_of_a_density_zero_on_the_whole_scan_is_reported():
    # the scan leaves a table of zeros, which can propose nothing
    def empty_density(x1, x2):
        return np.zeros(np.broadcast(x1, x2).shape)

    with pytest.raises(EnvelopeError, match=r"density is 0 at every point of the envelope scan"):
        sample_rejection(empty_density, 0.0, 0.0, 10, seed=1, envelope_sigmas=(1.0, 1.0, 1.0))


def test_rejection_batch_records_rounds_and_envelope_constant():
    samplers = []
    for state in (FockPairSuperposition(3), PairCoherent(1.1), FockPairSuperposition(5),
                  PairCoherent(2.0)):
        batch = sample_state(state, 0.3, 0.2, 3000, seed=8)
        samplers.append(batch.sampler)
        assert batch.rounds >= 1
        assert batch.envelope_sigmas == envelope_sigmas(*quadrature_moments(state, 0.3 + 0.2))
        if batch.sampler == "gaussian-mixture":
            # the scanned bound has a 10% margin over the density / proposal ratio
            x = batch.pairs
            proposal = mixture_density(x[:, 0], x[:, 1], batch.envelope_sigmas)
            ratio = tomogram_closed_form(state, x[:, 0], 0.3, x[:, 1], 0.2) / proposal
            assert np.max(ratio) <= batch.envelope_constant
        else:
            # Z integrates T >= w over a square that holds all of w but 2^-53
            assert batch.envelope_constant > 1.0
            want = 1.0 / batch.envelope_constant
            proposals = batch.count / batch.acceptance_rate
            se = math.sqrt(want * (1.0 - want) / proposals)
            assert abs(batch.acceptance_rate - want) < 4.0 * se
    assert samplers == ["cell-table", "cell-table", "gaussian-mixture", "gaussian-mixture"]
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


@pytest.mark.parametrize("theta_sum", [0.0, math.pi / 4], ids=["0", "pi/4"])
@pytest.mark.parametrize(
    "state",
    [PairCoherent(1.05), PairCoherent(2.0), FockPairSuperposition(1), FockPairSuperposition(3)],
    ids=["pair-coherent-1.05", "pair-coherent-2.0", "fock-pair-1", "fock-pair-3"],
)
def test_rejection_quadrants_and_marginal_match_closed_forms(state, theta_sum):
    # the fitted envelope redraws every non-Gaussian batch: its quadrants and
    # its X1 marginal sqrt(2) sum_n c_n^2 psi_n(sqrt(2) X1)^2 stay within 4 SE
    theta1 = 0.3
    theta2 = theta_sum - theta1
    count = 40_000
    batch = sample_state(state, theta1, theta2, count, seed=1905)
    est = estimate_probs(batch)
    truth = sign_binned_closed_form(state, theta1, theta2)
    for got, se, want in zip(est.probs.as_tuple(), est.errors(), truth.as_tuple()):
        assert abs(got - want) < 4.0 * se
    coefficients = significant_schmidt(state).coefficients
    for x0 in (0.5, 1.0):
        want = homodyne_marginal_tail(coefficients, x0)
        got = float(np.mean(batch.pairs[:, 0] >= x0))
        assert abs(got - want) < 4.0 * math.sqrt(want * (1.0 - want) / count)


@pytest.mark.parametrize(
    "state,theta_sums",
    [(PairCoherent(r), [k * math.pi / 4 for k in range(5)]) for r in (0.3, 0.5, 1.0, 2.0, 3.0, 4.0)]
    + [(FockPairSuperposition(n), [0.0, math.pi / 2]) for n in (1, 2, 10)],
    ids=[f"pair-coherent-{r}" for r in (0.3, 0.5, 1.0, 2.0, 3.0, 4.0)]
    + [f"fock-pair-{n}" for n in (1, 2, 10)],
)
def test_fitted_envelope_holds_across_states_and_angles(state, theta_sums):
    # any proposal above M g raises EnvelopeError; at theta1 + theta2 = 0 and
    # large r the fitted part is narrow along v and the isotropic part must
    # still cover the tails
    count = 2000
    for k, theta_sum in enumerate(theta_sums):
        batch = sample_state(state, 0.2, theta_sum - 0.2, count, seed=17, substream=k)
        assert batch.count == count
        est = estimate_probs(batch)
        truth = sign_binned_closed_form(state, 0.2, theta_sum - 0.2)
        for got, se, want in zip(est.probs.as_tuple(), est.errors(), truth.as_tuple()):
            assert abs(got - want) < 4.0 * max(se, math.sqrt(want * (1.0 - want) / count))


@pytest.mark.parametrize(
    "state",
    [PairCoherent(1.1), PairCoherent(2.0), FockPairSuperposition(1), FockPairSuperposition(3),
     SqueezedVacuum(0.54)],
    ids=["pair-coherent-1.1", "pair-coherent-2.0", "fock-pair-1", "fock-pair-3", "epr-0.54"],
)
def test_envelope_moments_are_the_tomogram_second_moments(state):
    # var and cov of the envelope against a Gauss-Legendre integral of the
    # closed-form tomogram: for the squeezed vacuum that is its precision-matrix
    # form, an independent route to squeezed_homodyne's -sinh(2s) cos / 4
    for theta1, theta2 in ((0.0, 0.0), (0.4, 0.5), (1.2, 1.9)):
        var, cov = quadrature_moments(state, theta1 + theta2)
        var1, var2, cov12 = second_moments_numeric(
            lambda x1, x2: tomogram_closed_form(state, x1, theta1, x2, theta2), 12.0, 240)
        assert var1 == pytest.approx(var, abs=1e-10)
        assert var2 == pytest.approx(var, abs=1e-10)
        assert cov12 == pytest.approx(cov, abs=1e-10)
    if state.gaussian:
        c, b, _ = squeezed_homodyne(state.s, 0.9)
        assert quadrature_moments(state, 0.9) == (c / 4.0, -b / 4.0)
    elif state == FockPairSuperposition(3):
        # no adjacent levels: cov = 0 and the mixture is one isotropic Gaussian
        sigmas = envelope_sigmas(*quadrature_moments(state, 0.9))
        assert sigmas[0] == sigmas[1] == sigmas[2]


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


def _envelope_scan_of(monkeypatch, state, theta1, theta2):
    """(tomogram, sigmas, lobe width, cell table, points) of sample_state's envelope scan."""
    scans = []
    scan = smp._envelope_scan

    def spy(tomogram, proposal_density, sigmas, lobe_width):
        ratio, table, points = scan(tomogram, proposal_density, sigmas, lobe_width)
        scans.append((tomogram, sigmas, lobe_width, table, points))
        return ratio, table, points

    monkeypatch.setattr(smp, "_envelope_scan", spy)
    sample_state(state, theta1, theta2, 1, seed=1)
    [found] = scans
    return found


@pytest.mark.parametrize(
    "state,theta1,theta2,count",
    [(PairCoherent(1.1), math.pi / 2, -math.pi / 4, 100_000),
     (FockPairSuperposition(3), 0.3, 0.2, 100_000),
     (FockPairSuperposition(50), 0.3, 0.2, 2000)],
    ids=["pair-coherent-1.1", "fock-pair-3", "fock-pair-50"],
)
def test_sampler_evaluates_every_proposal_once(monkeypatch, state, theta1, theta2, count):
    # both samplers evaluate w at each proposal they draw, and at nothing else
    # after the scan; the cell table accepts 1 / Z of them
    tomogram, sigmas, lobe_width, table, points = _envelope_scan_of(
        monkeypatch, state, theta1, theta2)
    proposals = []

    def counted(x1, x2):
        if np.ndim(x1) == 1:
            proposals.append(x1.size)
        return tomogram(x1, x2)

    scanned = sample_rejection(counted, theta1, theta2, count, seed=2501, envelope_sigmas=sigmas,
                               lobe_width=lobe_width)
    assert scanned.tomogram_evaluations == points + sum(proposals)
    accepted = scanned.acceptance_rate * sum(proposals)
    assert accepted == pytest.approx(round(accepted), abs=1e-6)
    # the chunk that completes the batch is the last one evaluated
    assert count <= accepted < count + proposals[-1]
    if state == FockPairSuperposition(50):
        # 2 scan points per lobe, fewer than the table's 8: proposals from g,
        # the same draws as with the scan's M given and no scan
        assert table is None and scanned.sampler == "gaussian-mixture"
        proposals.clear()
        plain = sample_rejection(counted, theta1, theta2, count, seed=2501,
                                 envelope_sigmas=sigmas, bound_factor=scanned.envelope_constant)
        assert plain.tomogram_evaluations == sum(proposals)
        assert scanned.tomogram_evaluations == points + plain.tomogram_evaluations
        assert np.array_equal(scanned.pairs, plain.pairs)
        assert (scanned.rounds, scanned.acceptance_rate) == (plain.rounds, plain.acceptance_rate)
    else:
        assert table.values.shape == (200, 200)
        assert scanned.sampler == "cell-table"
        assert scanned.envelope_constant == table.integral()
        assert scanned.rounds == 1
        want = 1.0 / scanned.envelope_constant
        se = math.sqrt(want * (1.0 - want) / sum(proposals))
        assert abs(scanned.acceptance_rate - want) < 4.0 * se


def test_cell_table_below_the_density_is_reported(monkeypatch):
    # a table at half the scan's T lies below w in most cells; the first
    # proposal there aborts the batch with the point and the table's value
    scan = smp._envelope_scan

    def halved(*args):
        ratio, table, points = scan(*args)
        return ratio, table._replace(values=0.5 * table.values), points

    monkeypatch.setattr(smp, "_envelope_scan", halved)
    with pytest.raises(EnvelopeError, match=r"density exceeds envelope at X = .* > T = "):
        sample_state(PairCoherent(1.1), math.pi / 2, -math.pi / 4, 2000, seed=1)


def _binned_chi_square_z(state, theta1, theta2, pairs, half_width=4.5, bins=24, order=8):
    """(chi^2 - dof) / sqrt(2 dof) of ``pairs`` against the closed-form tomogram.

    The square |X1|, |X2| <= ``half_width`` is cut into ``bins`` x ``bins``
    bins, each integrated by numpy's Gauss-Legendre rule with ``order`` nodes
    per axis; bins that expect fewer than 5 pairs are pooled with the mass
    outside the square.
    """
    edges = np.linspace(-half_width, half_width, bins + 1)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = 0.5 * (edges[1] - edges[0])
    x = ((edges[:-1] + h)[:, None] + h * nodes).ravel()
    w = np.tile(h * weights, bins)
    density = tomogram_closed_form(state, x[:, None], theta1, x[None, :], theta2)
    probs = (density * np.outer(w, w)).reshape(bins, order, bins, order).sum(axis=(1, 3))
    counts = np.histogram2d(pairs[:, 0], pairs[:, 1], bins=[edges, edges])[0]
    expected = len(pairs) * probs
    big = expected >= 5.0
    observed = np.append(counts[big], len(pairs) - counts[big].sum())
    expected = np.append(expected[big], len(pairs) - expected[big].sum())
    dof = observed.size - 1
    return (np.sum((observed - expected) ** 2 / expected) - dof) / math.sqrt(2.0 * dof)


@pytest.mark.parametrize(
    "state,theta1,theta2",
    [(PairCoherent(1.0), math.pi / 2, -math.pi / 4),
     (PairCoherent(1.2), math.pi / 2, -math.pi / 4),
     (FockPairSuperposition(3), 0.3, 0.5), (FockPairSuperposition(4), 0.3, 0.5)],
    ids=["pair-coherent-1.0", "pair-coherent-1.2", "fock-pair-3", "fock-pair-4"],
)
def test_cell_table_samples_follow_the_tomogram_bin_by_bin(state, theta1, theta2):
    batch = sample_state(state, theta1, theta2, 200_000, seed=2701)
    assert batch.sampler == "cell-table"
    assert abs(_binned_chi_square_z(state, theta1, theta2, batch.pairs)) <= 4.0


@pytest.mark.parametrize(
    "state,theta1,theta2,bound",
    [(PairCoherent(1.0), 0.3, math.pi / 2 - 0.3, 3.3e-25),
     (PairCoherent(1.2), math.pi / 2, -math.pi / 4, 1.2e-33),
     (FockPairSuperposition(3), 0.3, 0.2, 1.1e-42)],
    ids=["pair-coherent-1.0", "pair-coherent-1.2", "fock-pair-3"],
)
def test_outside_mass_bound_is_the_marginal_tail_beyond_the_scan_square(
        monkeypatch, state, theta1, theta2, bound):
    # 4 P(X1 > a) on the scanned square |X1|, |X2| <= a, against numpy-Hermite quadrature
    _, _, _, table, _ = _envelope_scan_of(monkeypatch, state, theta1, theta2)
    batch = sample_state(state, theta1, theta2, 1000, seed=3)
    want = 4.0 * homodyne_marginal_tail(significant_schmidt(state).coefficients, -table.corner)
    assert batch.outside_mass_bound == pytest.approx(want, rel=1e-9, abs=0.0)
    assert batch.outside_mass_bound == pytest.approx(bound, rel=0.04, abs=0.0)


@pytest.mark.parametrize(
    "state", [PairCoherent(1.1), FockPairSuperposition(3), RandomSchmidt(3, 16)], ids=repr)
def test_marginal_tail_matches_hermite_quadrature(state):
    coefficients = significant_schmidt(state).coefficients
    for x0 in (0.0, 0.5, 1.5, 3.0):
        assert smp.marginal_tail(coefficients, x0) == pytest.approx(
            homodyne_marginal_tail(coefficients, x0), abs=1e-14)
    for x0 in (6.0, 9.0):
        assert smp.marginal_tail(coefficients, x0) == pytest.approx(
            homodyne_marginal_tail(coefficients, x0), rel=1e-9, abs=0.0)


def test_cell_table_leaving_mass_outside_is_reported(monkeypatch):
    # the pair-coherent state at r = 0.5 leaves 9.5e-14 of its mass outside
    # its 6-sigma square; scanned there, the sampler refuses the batch
    monkeypatch.setattr(smp, "SCAN_MIN_HALF_WIDTH", 0.0)
    with pytest.raises(EnvelopeError, match=r"leaves up to \S+ of the density outside its square"):
        sample_state(PairCoherent(0.5), 0.3, math.pi / 2 - 0.3, 100, seed=1)
    monkeypatch.undo()
    batch = sample_state(PairCoherent(0.5), 0.3, math.pi / 2 - 0.3, 100, seed=1)
    assert batch.outside_mass_bound < smp.OUTSIDE_MASS_LIMIT


def test_screen_violation_reported():
    # w = w0 (1 + s(X1) s(X2) / 2) with s = sin^2(pi X / step) is w0 at every scan
    # point but up to 1.5 w0 inside the cells where X1 > 1; there w / g stays far
    # below M (w0 is narrower than g), so only T can catch it
    step = 12.0 / 200.0  # the scan's 201 points across +/- 6 sigma_iso

    def fringed_density(x1, x2):
        w0 = np.exp(-2.0 * (x1**2 + x2**2)) * (2.0 / math.pi)
        s1, s2 = np.sin(math.pi * x1 / step) ** 2, np.sin(math.pi * x2 / step) ** 2
        return w0 * (1.0 + 0.5 * s1 * s2 * (x1 > 1.0))

    with pytest.raises(EnvelopeError, match=r"w = \S+ > T = "):
        sample_rejection(fringed_density, 0.0, 0.0, 10_000, seed=3,
                         envelope_sigmas=(1.0, 1.0, 1.0))


FIG3A_SETTINGS = [(math.pi / 2, -math.pi / 4), (math.pi / 2, -3 * math.pi / 4),
                  (0.0, -math.pi / 4), (0.0, -3 * math.pi / 4)]


@pytest.mark.parametrize(
    "state,theta1,theta2",
    [(PairCoherent(r), t1, t2) for r in (1.0, 1.2) for t1, t2 in FIG3A_SETTINGS]
    + [(FockPairSuperposition(n), 0.3, 0.2) for n in (1, 3)],
    ids=[f"pair-coherent-{r}-fig3a{k}" for r in (1.0, 1.2) for k in range(4)]
    + ["fock-pair-1", "fock-pair-3"],
)
def test_screen_table_bounds_the_density_between_scan_points(monkeypatch, state, theta1, theta2):
    # the table's premise: at 8 or more scan points per lobe, 1.1 times the
    # largest corner value bounds w inside each cell, edges included, here on
    # a grid 8 times finer
    tomogram, _, _, table, points = _envelope_scan_of(monkeypatch, state, theta1, theta2)
    cells = table.values.shape[0]
    assert table.values.shape == (cells, cells) and (cells + 1) ** 2 == points
    fine = table.corner + np.arange(8 * cells + 1) * (table.step / 8.0)
    assert fine[-1] == pytest.approx(-table.corner, rel=1e-12)
    for rows in np.array_split(np.arange(cells), 40):
        w = tomogram(fine[8 * rows[0]:8 * rows[-1] + 9, None], fine[None, :])
        # the largest w on each cell's 9 x 9 fine points
        top = np.lib.stride_tricks.sliding_window_view(w, (9, 9))[::8, ::8].max(axis=(2, 3))
        assert np.all(top <= table.values[rows])


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
