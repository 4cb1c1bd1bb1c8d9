"""Seeded Monte Carlo batches and statistical estimators."""

import math

import numpy as np
import pytest

from tomobell import sampling as smp
from tomobell.bell import BellAnglesQuadrature, chsh
from tomobell.errors import DomainError, EnvelopeError
from tomobell.sampling import (
    SampleBatch,
    estimate_chsh,
    estimate_probs,
    sample_gaussian_epr,
    sample_rejection,
    sample_state,
    substream_generator,
)
from tomobell.states import (
    OUTSIDE_MASS_LIMIT,
    FockPairSuperposition,
    PairCoherent,
    SchmidtVector,
    SqueezedVacuum,
    fringe_points,
    marginal_tail,
    significant_schmidt,
    square_half_width,
    squeezed_homodyne,
)
from tomobell.tomography import radon_forward, sign_binned_closed_form, tomogram_closed_form

from oracles import (
    RandomSchmidt,
    correlation_tomographic,
    homodyne_marginal_tail,
    second_moments_numeric,
)


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


#: The vacuum's Schmidt vector, and its joint density w = (2 / pi) e^{-2 (X1^2 + X2^2)}.
VACUUM = np.array([1.0])


def vacuum_density(x1, x2):
    return tomogram_closed_form(SqueezedVacuum(0.0), x1, 0.0, x2, 0.0)


def test_rejection_vacuum_acceptance_rate():
    # sum_n |c_n| = 1: the product table never costs more proposals than the
    # scan, so the vacuum always takes it.  Its square reaches the least a with
    # 4 P(X1 > a) = 2 erfc(sqrt(2) a) <= 2^-53, to 2^-8
    count = 50_000
    batch = sample_rejection(vacuum_density, 0.0, 0.0, count, seed=31415,
                             schmidt=SchmidtVector(VACUUM))
    assert batch.sampler == "product-table"
    a = batch.half_width
    assert 2.0 * math.erfc(math.sqrt(2.0) * a) <= 2.0**-53
    assert 2.0 * math.erfc(math.sqrt(2.0) * (a - 2.0**-8)) > 2.0**-53
    assert batch.outside_mass_bound == pytest.approx(2.0 * math.erfc(math.sqrt(2.0) * a), rel=1e-9)
    # f(X) = sqrt(2 / pi) e^{-2 X^2} on 201 points (the vacuum has no fringes),
    # t 1.1 times its larger value at a cell's ends; Z = (integral of t)^2,
    # and the acceptance is 1 / Z
    grid = np.linspace(-a, a, 201)
    f = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * grid**2)
    z = (1.1 * float(np.sum(np.maximum(f[:-1], f[1:]))) * (grid[1] - grid[0])) ** 2
    assert batch.envelope_constant == pytest.approx(z, rel=1e-12)
    # no scan: every evaluation is a proposal, and the accepted ones fill the batch
    accepted = batch.acceptance_rate * batch.tomogram_evaluations
    assert accepted == pytest.approx(round(accepted), abs=1e-6) and accepted >= count
    want = 1.0 / z
    se = math.sqrt(want * (1.0 - want) / (count / want))
    assert abs(batch.acceptance_rate - want) < 4.0 * se


def test_rejection_envelope_violation_reported():
    def wide_density(x1, x2):  # variance 4 per axis under the vacuum's envelope, variance 1/4
        return np.exp(-(x1**2 + x2**2) / 8.0) / (8.0 * math.pi)

    with pytest.raises(EnvelopeError, match=r"density exceeds envelope at X = .* > T = "):
        sample_rejection(wide_density, 0.0, 0.0, 1000, seed=3, schmidt=SchmidtVector(VACUUM))


def test_rejection_without_acceptance_gives_up_at_400_rounds():
    def empty_density(x1, x2):
        return np.zeros_like(x1)

    with pytest.raises(EnvelopeError, match=r"produced 0/10 samples in 400 rounds"):
        sample_rejection(empty_density, 0.0, 0.0, 10, seed=1, schmidt=SchmidtVector(VACUUM))


def test_rejection_of_a_density_zero_on_the_whole_scan_is_reported():
    # 16 equal levels make the product table 16 times the cell table's
    # integral, so 10^4 samples take the scan; zero there leaves only the
    # curvature margin in T, and no proposal is ever accepted
    def empty_density(x1, x2):
        return np.zeros(np.broadcast(x1, x2).shape)

    with pytest.raises(EnvelopeError, match=r"produced 0/10000 samples in 400 rounds"):
        sample_rejection(empty_density, 0.0, 0.0, 10_000, seed=1,
                         schmidt=SchmidtVector(np.full(16, 0.25)))
    # with every c_n = 0 the envelope itself is 0
    with pytest.raises(EnvelopeError, match=r"the envelope is 0 on the whole square"):
        sample_rejection(empty_density, 0.0, 0.0, 10, seed=1, schmidt=SchmidtVector(np.zeros(3)))


def test_rejection_batch_records_rounds_and_envelope_constant():
    samplers = []
    for state, count in ((FockPairSuperposition(3), 3000), (FockPairSuperposition(3), 100_000),
                         (PairCoherent(1.1), 3000), (PairCoherent(1.1), 100_000),
                         (FockPairSuperposition(5), 3000), (PairCoherent(2.0), 3000)):
        batch = sample_state(state, 0.3, 0.2, count, seed=8)
        samplers.append(batch.sampler)
        assert batch.rounds >= 1
        assert batch.half_width == square_half_width(significant_schmidt(state).coefficients)
        # Z integrates T >= w over a square that holds all of w but 2^-53
        assert batch.envelope_constant > 1.0
        assert 0.0 < batch.outside_mass_bound <= OUTSIDE_MASS_LIMIT
        want = 1.0 / batch.envelope_constant
        proposals = batch.count / batch.acceptance_rate
        se = math.sqrt(want * (1.0 - want) / proposals)
        assert abs(batch.acceptance_rate - want) < 4.0 * se
    assert samplers == ["product-table", "cell-table"] * 2 + ["product-table"] * 2
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
    # the tables redraw every non-Gaussian batch: its quadrants and
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
    # any proposal above T raises EnvelopeError; at 2000 pairs every state
    # takes the product table t(X1) t(X2), whose Cauchy-Schwarz bound holds at
    # any angle, with 8 grid points per fringe of the top level
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
    # against a Gauss-Legendre integral of the closed-form tomogram: the per-mode
    # variance (2 <n> + 1) / 4 that sets the tables' lobe width (fringe_points),
    # and for the squeezed vacuum the covariance of its exact sampler,
    # (1/4) [[c, -b], [-b, c]] from squeezed_homodyne
    for theta1, theta2 in ((0.0, 0.0), (0.4, 0.5), (1.2, 1.9)):
        if state.gaussian:
            c, b, _ = squeezed_homodyne(state.s, theta1 + theta2)
            var, cov = c / 4.0, -b / 4.0
        else:
            weights = significant_schmidt(state).coefficients ** 2
            var = (2.0 * float(np.sum(np.arange(weights.size) * weights)) + 1.0) / 4.0
            cov = None
        var1, var2, cov12 = second_moments_numeric(
            lambda x1, x2: tomogram_closed_form(state, x1, theta1, x2, theta2), 12.0, 240)
        assert var1 == pytest.approx(var, abs=1e-10)
        assert var2 == pytest.approx(var, abs=1e-10)
        if cov is not None:
            assert cov12 == pytest.approx(cov, abs=1e-10)


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


def _axis_grid(c):
    """The sampler's grid: ``fringe_points`` nodes over its square."""
    a = square_half_width(c)
    return np.linspace(-a, a, fringe_points(c, a))


def _tables_of(state, theta1, theta2):
    """(tomogram, grid, cell table, product table) of the state's square at these angles."""
    c = significant_schmidt(state).coefficients
    grid = _axis_grid(c)

    def tomogram(x1, x2):
        return tomogram_closed_form(state, x1, theta1, x2, theta2)

    return tomogram, grid, smp._cell_table(tomogram, grid, c), smp._product_table(c, grid)


@pytest.mark.parametrize(
    "state,theta1,theta2,count",
    [(PairCoherent(1.1), math.pi / 2, -math.pi / 4, 100_000),
     (FockPairSuperposition(3), 0.3, 0.2, 100_000),
     (FockPairSuperposition(50), 0.3, 0.2, 2000)],
    ids=["pair-coherent-1.1", "fock-pair-3", "fock-pair-50"],
)
def test_sampler_evaluates_every_proposal_once(state, theta1, theta2, count):
    # both tables evaluate w at each proposal they draw, and at nothing else
    # but the cell table's scan of the whole grid; they accept 1 / Z of them
    tomogram, grid, _, _ = _tables_of(state, theta1, theta2)
    proposals, scanned = [], []

    def counted(x1, x2):
        (proposals if np.ndim(x1) == 1 else scanned).append(np.broadcast(x1, x2).size)
        return tomogram(x1, x2)

    batch = sample_rejection(counted, theta1, theta2, count, seed=2501,
                             schmidt=significant_schmidt(state))
    assert batch.tomogram_evaluations == sum(scanned) + sum(proposals)
    accepted = batch.acceptance_rate * sum(proposals)
    assert accepted == pytest.approx(round(accepted), abs=1e-6)
    # the chunk that completes the batch is the last one evaluated
    assert count <= accepted < count + proposals[-1]
    if state == FockPairSuperposition(50):
        # 665^2 scan points cost more than the product table's 2000 extra
        # proposals, so no scan
        assert batch.sampler == "product-table" and not scanned
        assert grid.size == 665
    else:
        assert batch.sampler == "cell-table" and sum(scanned) == grid.size**2 == 201**2
        assert batch.rounds == 1
    want = 1.0 / batch.envelope_constant
    se = math.sqrt(want * (1.0 - want) / sum(proposals))
    assert abs(batch.acceptance_rate - want) < 4.0 * se


@pytest.mark.parametrize(
    "state,theta1,theta2,count,sampler",
    [(PairCoherent(1.1), math.pi / 2, -math.pi / 4, 100_000, "cell-table"),
     (PairCoherent(1.1), math.pi / 2, -math.pi / 4, 2000, "product-table"),
     (FockPairSuperposition(400), 0.3, 0.2, 2000, "product-table")],
    ids=["fig3a-100k", "fig3a-2000", "fock-pair-400-2000"],
)
def test_sampler_takes_the_cheaper_table(state, theta1, theta2, count, sampler):
    # the cell table when its scan of size^2 points costs no more than the
    # product table's ((sum_n |c_n|)^2 - 1) * count extra proposals
    c = significant_schmidt(state).coefficients
    grid = _axis_grid(c)
    extra = (float(np.sum(np.abs(c))) ** 2 - 1.0) * count
    assert (grid.size**2 <= extra) == (sampler == "cell-table")
    assert sample_state(state, theta1, theta2, count, seed=5).sampler == sampler


def _halved(monkeypatch, name):
    """Patch the sampler's table builder ``name`` to return its table at half its values."""
    build = getattr(smp, name)

    def halved(*args):
        table = build(*args)
        return table._replace(values=0.5 * table.values)

    monkeypatch.setattr(smp, name, halved)


def test_cell_table_below_the_density_is_reported(monkeypatch):
    # a table at half its value lies below w in most cells; the first proposal
    # there aborts the batch with the point and the table's value
    _halved(monkeypatch, "_cell_table")
    with pytest.raises(EnvelopeError, match=r"density exceeds envelope at X = .* > T = "):
        sample_state(PairCoherent(1.1), math.pi / 2, -math.pi / 4, 100_000, seed=1)


def test_product_table_below_the_density_is_reported(monkeypatch):
    # half of t is a quarter of T = t(X1) t(X2)
    _halved(monkeypatch, "_product_table")
    with pytest.raises(EnvelopeError, match=r"density exceeds envelope at X = .* > T = "):
        sample_state(FockPairSuperposition(3), 0.3, 0.2, 2000, seed=1)


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
    "state,batch_count,half_width",
    [(FockPairSuperposition(50), 200_000, 8.0), (PairCoherent(3.0), 5000, 6.0),
     (RandomSchmidt(3, 16), 5000, 6.0)],
    ids=["fock-pair-50", "pair-coherent-3", "random-schmidt-3-16"],
)
def test_product_table_samples_follow_the_tomogram_bin_by_bin(state, batch_count, half_width):
    # 200k pairs in batches small enough for the product table; 32 nodes per
    # bin and axis resolve the fringes of the Fock pair at n = 50
    theta1, theta2 = 0.3, 0.5
    batches = [sample_state(state, theta1, theta2, batch_count, seed=2801, substream=k)
               for k in range(200_000 // batch_count)]
    assert {batch.sampler for batch in batches} == {"product-table"}
    pairs = np.concatenate([batch.pairs for batch in batches])
    z = _binned_chi_square_z(state, theta1, theta2, pairs, half_width=half_width, order=32)
    assert abs(z) <= 4.0


@pytest.mark.parametrize(
    "state", [RandomSchmidt(3, 16), RandomSchmidt(5, 9), FockPairSuperposition(7),
              PairCoherent(1.1), PairCoherent(3.0)], ids=repr)
def test_schmidt_envelope_bounds_the_tomogram(state):
    # Cauchy-Schwarz: w(X1, X2) <= f(X1) f(X2) at any point and angle, for
    # Schmidt coefficients of either sign, to rounding
    c = significant_schmidt(state).coefficients
    rng = np.random.default_rng(11)
    x1, x2 = rng.uniform(-5.0, 5.0, (2, 4000))
    for theta1, theta2 in rng.uniform(-math.pi, math.pi, (6, 2)):
        w = tomogram_closed_form(state, x1, theta1, x2, theta2)
        bound = smp.schmidt_envelopes(c, x1)[0] * smp.schmidt_envelopes(c, x2)[0]
        assert np.all(w <= bound * (1.0 + 1e-12))
    if isinstance(state, RandomSchmidt):
        assert np.any(c < 0.0)
    # f integrates to sum_n |c_n|
    nodes, weights = np.polynomial.legendre.leggauss(200)
    integral = 10.0 * float(weights @ smp.schmidt_envelopes(c, 10.0 * nodes)[0])
    assert integral == pytest.approx(float(np.sum(np.abs(c))), rel=1e-12)


@pytest.mark.parametrize(
    "state", [FockPairSuperposition(50), PairCoherent(3.0), RandomSchmidt(3, 16)], ids=repr)
def test_product_table_bounds_the_envelope_between_grid_points(state):
    # the product table's premise: at 8 or more grid points per lobe, 1.1
    # times the larger end value bounds f inside each cell, here on a grid
    # 8 times finer
    _, grid, _, table = _tables_of(state, 0.0, 0.0)
    cells = table.values.size
    fine = table.corner + np.arange(8 * cells + 1) * (table.step / 8.0)
    assert fine[-1] == pytest.approx(grid[-1], rel=1e-12)
    f = smp.schmidt_envelopes(significant_schmidt(state).coefficients, fine)[0]
    top = np.lib.stride_tricks.sliding_window_view(f, 9)[::8].max(axis=1)
    assert np.all(top <= table.values)


def test_the_radon_check_and_every_batch_of_a_state_share_one_bisection(monkeypatch):
    # the square is cached on the state's significant Schmidt vector, which both read
    from tomobell import states

    calls = []

    def counted(coefficients):
        calls.append(len(coefficients))
        return square_half_width(coefficients)

    monkeypatch.setattr(states, "square_half_width", counted)
    significant_schmidt.cache_clear()
    state = FockPairSuperposition(3)
    radon_forward(state, 0.5, 0.3, -0.5, 0.2)
    batches = [sample_state(state, 0.3, 0.2, 500, seed=4, substream=k) for k in range(4)]
    assert calls == [4]
    assert {batch.half_width for batch in batches} == {significant_schmidt(state).half_width}


@pytest.mark.parametrize(
    "state", [PairCoherent(0.1), PairCoherent(1.1), PairCoherent(12.0), FockPairSuperposition(3),
              FockPairSuperposition(400), RandomSchmidt(3, 16)], ids=repr)
def test_square_half_width_is_the_least_that_meets_the_tail_bound(state):
    c = significant_schmidt(state).coefficients
    a = square_half_width(c)
    assert 4.0 * marginal_tail(c, a) <= OUTSIDE_MASS_LIMIT
    assert 4.0 * marginal_tail(c, a - 2.0**-8) > OUTSIDE_MASS_LIMIT


@pytest.mark.parametrize(
    "state,theta1,theta2,count",
    [(PairCoherent(1.0), 0.3, math.pi / 2 - 0.3, 100_000),
     (PairCoherent(1.2), math.pi / 2, -math.pi / 4, 1000),
     (FockPairSuperposition(3), 0.3, 0.2, 1000)],
    ids=["pair-coherent-1.0", "pair-coherent-1.2", "fock-pair-3"],
)
def test_outside_mass_bound_is_the_marginal_tail_beyond_the_scan_square(
        state, theta1, theta2, count):
    # 4 P(X1 > a) on the square |X1|, |X2| <= a, against numpy-Hermite quadrature
    batch = sample_state(state, theta1, theta2, count, seed=3)
    want = 4.0 * homodyne_marginal_tail(significant_schmidt(state).coefficients, batch.half_width)
    assert batch.outside_mass_bound == pytest.approx(want, rel=1e-9, abs=0.0)
    assert 0.5 * OUTSIDE_MASS_LIMIT < batch.outside_mass_bound <= OUTSIDE_MASS_LIMIT


@pytest.mark.parametrize(
    "state", [PairCoherent(1.1), FockPairSuperposition(3), RandomSchmidt(3, 16)], ids=repr)
def test_marginal_tail_matches_hermite_quadrature(state):
    coefficients = significant_schmidt(state).coefficients
    for x0 in (0.0, 0.5, 1.5, 3.0):
        assert marginal_tail(coefficients, x0) == pytest.approx(
            homodyne_marginal_tail(coefficients, x0), abs=1e-14)
    for x0 in (6.0, 9.0):
        assert marginal_tail(coefficients, x0) == pytest.approx(
            homodyne_marginal_tail(coefficients, x0), rel=1e-9, abs=0.0)


def test_screen_violation_reported():
    # w = w0 (1 + s(X1) s(X2) / 2) with s = sin^2(pi X / step) is w0 at every grid
    # point but up to 1.5 w0 inside the cells where X1 > 1, above the vacuum's
    # product table, about 1.21 w0 there
    a = square_half_width(VACUUM)
    step = 2.0 * a / 200.0  # the vacuum's 201 grid points

    def fringed_density(x1, x2):
        s1, s2 = np.sin(math.pi * x1 / step) ** 2, np.sin(math.pi * x2 / step) ** 2
        return vacuum_density(x1, x2) * (1.0 + 0.5 * s1 * s2 * (x1 > 1.0))

    with pytest.raises(EnvelopeError, match=r"w = \S+ > T = "):
        sample_rejection(fringed_density, 0.0, 0.0, 10_000, seed=3, schmidt=SchmidtVector(VACUUM))


FIG3A_SETTINGS = [(math.pi / 2, -math.pi / 4), (math.pi / 2, -3 * math.pi / 4),
                  (0.0, -math.pi / 4), (0.0, -3 * math.pi / 4)]


@pytest.mark.parametrize(
    "state,theta1,theta2",
    [(PairCoherent(r), t1, t2) for r in (1.0, 1.2) for t1, t2 in FIG3A_SETTINGS]
    + [(FockPairSuperposition(n), 0.3, 0.2) for n in (1, 3)],
    ids=[f"pair-coherent-{r}-fig3a{k}" for r in (1.0, 1.2) for k in range(4)]
    + ["fock-pair-1", "fock-pair-3"],
)
def test_screen_table_bounds_the_density_between_scan_points(state, theta1, theta2):
    # the cell table bounds w inside each cell, edges included, here on a grid
    # 8 times finer
    tomogram, grid, table, _ = _tables_of(state, theta1, theta2)
    cells = table.values.shape[0]
    assert table.values.shape == (cells, cells) and cells + 1 == grid.size
    top, _ = _fine_and_corner_maxima(tomogram, grid)
    assert np.all(top <= table.values)


def _fine_and_corner_maxima(tomogram, grid):
    """Per cell of ``grid`` x ``grid``: the largest w on its 9 x 9 points of a grid 8 times
    finer, and the largest w at its four corners."""
    cells = grid.size - 1
    fine = grid[0] + np.arange(8 * cells + 1) * ((grid[-1] - grid[0]) / (8 * cells))
    assert fine[-1] == pytest.approx(grid[-1], rel=1e-12)
    top = np.empty((cells, cells))
    for rows in np.array_split(np.arange(cells), 40):
        w = tomogram(fine[8 * rows[0]:8 * rows[-1] + 9, None], fine[None, :])
        top[rows] = np.lib.stride_tricks.sliding_window_view(w, (9, 9))[::8, ::8].max(axis=(2, 3))
    w = tomogram(grid[:, None], grid[None, :])
    corner = np.maximum(np.maximum(w[:-1, :-1], w[:-1, 1:]), np.maximum(w[1:, :-1], w[1:, 1:]))
    return top, corner


def test_cell_table_covers_bumps_narrower_than_a_cell():
    # near theta1 + theta2 = pi/2 the two levels of the Fock pair at n = 10
    # nearly cancel, and w peaks inside 4 cells 11% above 1.1 times its largest
    # corner value (the rule the cell table once had: this batch stopped with
    # "density exceeds envelope").  The curvature margin covers them
    state, theta1, theta2 = FockPairSuperposition(10), 0.46255043, 1.1015303
    tomogram, grid, table, _ = _tables_of(state, theta1, theta2)
    top, corner = _fine_and_corner_maxima(tomogram, grid)
    assert np.count_nonzero(top > 1.1 * corner) == 4
    assert np.max(top / corner) == pytest.approx(1.112, abs=1e-3)
    assert np.all(top <= table.values)
    batch = sample_state(state, theta1, theta2, 100_000, seed=7, substream=0)
    assert batch.sampler == "cell-table"


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
