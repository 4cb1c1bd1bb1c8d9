"""Forward/inverse transforms, closed forms, quadrant probabilities."""

import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from tomobell.errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    NormalizationError,
    UnsupportedStateError,
)
from tomobell.special import (
    bessel_i0,
    erf_complex,
    gauss_legendre,
    hermite,
    hermite_functions,
    periodic_trapezoid,
)
from tomobell.states import (
    MAX_BLOCK,
    FockPairSuperposition,
    PairCoherent,
    SqueezedVacuum,
    TwoModeState,
    significant_schmidt,
    squeezed_homodyne,
    wigner,
)
from tomobell.tomography import (
    SignBinnedProbs,
    SymplecticSetting,
    displacement_matrix,
    epr_marginal_density,
    fock_quadrature_density,
    kernel_reconstruct_density,
    pair_coherent_integral_series,
    radon_forward,
    radon_forward_symplectic,
    sign_binned_closed_form,
    sign_correlation,
    sign_matrix,
    tomogram_closed_form,
)

from oracles import (
    RandomSchmidt,
    correlation_tomographic,
    fock_superposition_tomogram,
    inverse_fourier_wigner,
    pair_coherent_integral_direct,
    radon_wigner_grid_sum,
    schmidt_sign_correlation,
    schmidt_tomogram,
    sign_binned_numeric,
)

vacuum_density = functools.partial(fock_quadrature_density, 0)


# ---------------------------------------------------------------------------
# closed-form tomograms
# ---------------------------------------------------------------------------


def test_squeezed_homodyne_determinant_identity():
    # d = 1 + sinh^2(2s) sin^2 is cosh^2(2s) - sinh^2(2s) cos^2, so N = 1/sqrt(d) = sqrt(a^2 - b^2)
    c, t_cos, d = squeezed_homodyne(0.5, 0.3)
    assert (c, t_cos) == (math.cosh(1.0), math.sinh(1.0) * math.cos(0.3))
    assert d == pytest.approx(c * c - t_cos * t_cos, rel=1e-14)
    a, b = c / d, t_cos / d
    assert 1.0 / math.sqrt(d) == pytest.approx(math.sqrt(a * a - b * b), rel=1e-14)


def test_tomogram_vacuum_angle_independent():
    state = SqueezedVacuum(0.0)
    for t1, t2 in ((0.0, 0.0), (0.7, -0.2), (2.0, 1.3)):
        val = tomogram_closed_form(state, 0.4, t1, -0.3, t2)
        want = (2.0 / math.pi) * math.exp(-2.0 * (0.16 + 0.09))
        assert val == pytest.approx(want, rel=1e-13)


def test_tomogram_fock_pair_hermite_zero():
    # H_1(0) = 0 kills the cross term; in this convention the value is 1/pi
    # (twice the natural-unit 1/(2 pi), the Jacobian of X -> sqrt(2) X)
    val = tomogram_closed_form(FockPairSuperposition(1), 0.0, 0.8, 0.0, 0.8)
    assert val == pytest.approx(1.0 / math.pi, rel=1e-13)


def test_tomogram_depends_on_angle_sum_only():
    for state in (SqueezedVacuum(0.54), FockPairSuperposition(2), PairCoherent(0.9)):
        base = tomogram_closed_form(state, 0.6, 0.3, -0.4, 0.5)
        for delta in (0.2, -1.1, 2.5):
            shifted = tomogram_closed_form(state, 0.6, 0.3 + delta, -0.4, 0.5 - delta)
            assert shifted == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("theta_sum", [0.0, math.pi / 4, math.pi / 2])
def test_tomogram_squeezed_matches_radon(s, theta_sum):
    state = SqueezedVacuum(math.tanh(s))
    xs = np.linspace(-2.0, 2.0, 9)
    t1 = 0.2
    t2 = theta_sum - t1
    closed = tomogram_closed_form(state, xs[:, None], t1, xs[None, :], t2)
    numeric = radon_forward(state, xs[:, None], t1, xs[None, :], t2)
    assert np.max(np.abs(closed - numeric)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tomogram_fock_pair_matches_radon(n):
    # the oracle fixing the cos n(theta1 + theta2) angle argument
    state = FockPairSuperposition(n)
    for x1, t1, x2, t2 in ((0.7, 0.5, -0.4, 0.3), (0.0, 1.1, 1.2, -0.6)):
        closed = tomogram_closed_form(state, x1, t1, x2, t2)
        numeric = radon_forward(state, x1, t1, x2, t2)
        assert closed == pytest.approx(numeric, abs=1e-8)


def test_tomogram_pair_coherent_matches_radon():
    state = PairCoherent(1.05)
    closed = tomogram_closed_form(state, 0.5, 0.0, 0.5, 0.0)
    numeric = radon_forward(state, 0.5, 0.0, 0.5, 0.0, order=64, tol=1e-7)
    assert closed == pytest.approx(numeric, abs=1e-5)


@pytest.mark.parametrize(
    "state", [SqueezedVacuum(0.54), FockPairSuperposition(3), PairCoherent(1.05)]
)
def test_tomogram_normalization(state):
    rule = gauss_legendre(160, -6.0, 6.0)
    vals = tomogram_closed_form(state, rule.nodes[:, None], 0.4, rule.nodes[None, :], -0.9)
    integral = float(rule.weights @ vals @ rule.weights)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_tomogram_rejects_explicit_fock():
    with pytest.raises(UnsupportedStateError):
        tomogram_closed_form(TwoModeState(), 0.0, 0.0, 0.0, 0.0)


def test_wigner_marginal_is_tomogram_marginal():
    # integrating the squeezed-vacuum Wigner function over (p1, q2, p2)
    # must reproduce the X2-marginal of the tomogram at theta1 = 0: a
    # Gaussian of variance cosh(2s)/4
    s = 0.5
    state = SqueezedVacuum(math.tanh(s))
    rule = gauss_legendre(64, -5.0, 5.0)
    y = rule.nodes
    w = rule.weights
    p1, q2, p2 = np.meshgrid(y, y, y, indexing="ij")
    var = math.cosh(2.0 * s) / 4.0
    for q1 in (0.0, 0.4, -0.9):
        vals = wigner(state, q1, p1, q2, p2)
        marginal = float(np.einsum("i,j,k,ijk->", w, w, w, vals))
        want = math.exp(-0.5 * q1 * q1 / var) / math.sqrt(2.0 * math.pi * var)
        assert marginal == pytest.approx(want, rel=1e-8)


def test_radon_homogeneity():
    # w(lambda X, lambda mu, lambda nu) = w(X, mu, nu) / |lambda| per mode
    state = SqueezedVacuum(math.tanh(0.5))
    base = radon_forward_symplectic(
        state, 0.7, SymplecticSetting(0.9, 0.3), 0.4, SymplecticSetting(0.2, -0.8)
    )
    for lam in (0.5, 1.7):
        scaled = radon_forward_symplectic(
            state,
            lam * 0.7,
            SymplecticSetting(lam * 0.9, lam * 0.3),
            0.4,
            SymplecticSetting(0.2, -0.8),
        )
        assert scaled == pytest.approx(base / abs(lam), rel=1e-7)


def test_symplectic_setting_validation():
    with pytest.raises(DomainError):
        SymplecticSetting(0.0, 0.0)
    s = SymplecticSetting.from_angle(math.pi / 3)
    assert s.scale == pytest.approx(1.0)


RADON_GRID = np.linspace(-2.0, 2.0, 9)
RADON_ANGLES = ((0.0, 0.0), (0.3, -0.5), (1.1, 0.7))


@pytest.mark.parametrize("r", [0.5, 1.05, 1.5, 3.0])
def test_radon_pair_coherent_matches_closed_form_on_grid(r):
    state = PairCoherent(r)
    xs = RADON_GRID
    for t1, t2 in RADON_ANGLES:
        closed = tomogram_closed_form(state, xs[:, None], t1, xs[None, :], t2)
        numeric = radon_forward(state, xs[:, None], t1, xs[None, :], t2)
        assert np.max(np.abs(closed - numeric)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 40, 70, 100, 120, 140])
def test_radon_fock_pair_matches_closed_form_on_grid(n):
    # rounding level: with leggauss's endpoint weights n = 140 (1536 nodes) was 8e-14 off
    state = FockPairSuperposition(n)
    xs = RADON_GRID
    for t1, t2 in RADON_ANGLES:
        closed = tomogram_closed_form(state, xs[:, None], t1, xs[None, :], t2)
        numeric = radon_forward(state, xs[:, None], t1, xs[None, :], t2)
        assert np.max(np.abs(closed - numeric)) <= 1e-14


@pytest.mark.parametrize("state", [RandomSchmidt(1, 6), RandomSchmidt(2, 9), RandomSchmidt(3, 16)],
                         ids=repr)
def test_radon_random_schmidt_vectors_match_closed_form_on_grid(state):
    # c_n of both signs through the Fock-basis sum of the Wigner function, the
    # default factor form of every state that gives only its Schmidt vector
    xs = RADON_GRID
    for t1, t2 in RADON_ANGLES:
        record = {}
        closed = tomogram_closed_form(state, xs[:, None], t1, xs[None, :], t2)
        numeric = radon_forward(state, xs[:, None], t1, xs[None, :], t2, record=record)
        assert np.max(np.abs(closed - numeric)) <= 1e-12
        assert record["orders"] == [96, 192] and record["angular_order"] is None


def test_radon_of_the_pair_coherent_state_never_takes_the_fock_basis_sum(monkeypatch):
    # its angular form is the Radon check's one route that does not read c_n
    def refuse(*args):
        raise AssertionError("the pair-coherent Radon check took the Fock-basis sum")

    monkeypatch.setattr(TwoModeState, "wigner_factors", refuse)
    state = PairCoherent(1.0)
    numeric = radon_forward(state, RADON_GRID[:, None], 0.3, RADON_GRID[None, :], 0.2)
    closed = tomogram_closed_form(state, RADON_GRID[:, None], 0.3, RADON_GRID[None, :], 0.2)
    assert np.max(np.abs(closed - numeric)) < 1e-12


@pytest.mark.parametrize("state,last_order", [
    (FockPairSuperposition(1), 192), (FockPairSuperposition(50), 384),
    (FockPairSuperposition(171), 1536), (FockPairSuperposition(300), 1536),
    (PairCoherent(0.5), 192), (PairCoherent(4.0), 192), (PairCoherent(8.0), 768),
], ids=repr)
def test_radon_on_the_sampler_square_matches_closed_form(state, last_order):
    # lines over the sampler's square; every order list starts at 96 and doubles
    xs = np.linspace(-2.0, 2.0, 3)
    record = {}
    numeric = radon_forward(state, xs[:, None], 0.3, xs[None, :], 0.2, record=record)
    closed = tomogram_closed_form(state, xs[:, None], 0.3, xs[None, :], 0.2)
    assert np.max(np.abs(closed - numeric)) <= 1e-14
    assert record["orders"][0] == 96 and record["orders"][-1] == last_order
    assert record["half_width"] == significant_schmidt(state).half_width


def test_radon_of_the_squeezed_vacuum_never_reads_its_schmidt_vector(monkeypatch):
    # near lambda = 1 the significant Schmidt vector would need ~1e7 levels
    def refuse(*args):
        raise AssertionError("the squeezed vacuum's Radon check read its Schmidt vector")

    monkeypatch.setattr("tomobell.states.significant_schmidt", refuse)  # nor its cached grid
    monkeypatch.setattr(SqueezedVacuum, "schmidt", refuse)
    state = SqueezedVacuum(0.5)
    record = {}
    numeric = radon_forward(state, RADON_GRID[:, None], 0.3, RADON_GRID[None, :], 0.2,
                            record=record)
    closed = tomogram_closed_form(state, RADON_GRID[:, None], 0.3, RADON_GRID[None, :], 0.2)
    assert np.max(np.abs(closed - numeric)) < 1e-12
    assert record["orders"] == [48, 96] and record["half_width"] == 6.0


def test_radon_doubling_budget_follows_the_fringe_count():
    # from 96 up to the sampler grid's node count (states.fringe_points), never
    # fewer than 3 doublings: a tol no change can meet runs the whole budget
    def orders(state):
        record = {}
        with pytest.raises(ConvergenceError):
            radon_forward(state, 0.5, 0.0, 0.5, 0.0, tol=-1.0, record=record)
        return record["orders"][-1], significant_schmidt(state).grid_points

    assert [orders(FockPairSuperposition(n)) for n in (3, 120, 140, 300)] == [
        (768, 201), (1536, 1433), (3072, 1649), (6144, 3337)]
    assert orders(PairCoherent(1.1)) == (768, 201)
    assert orders(PairCoherent(8.0)) == (1536, 1289)
    # an explicit budget still wins: three doublings leave n = 171 unresolved
    with pytest.raises(ConvergenceError, match=r"orders \[96, 192, 384, 768\]"):
        radon_forward(FockPairSuperposition(171), RADON_GRID[:, None], 0.0, RADON_GRID[None, :], 0.0,
                      max_doublings=3)


@pytest.mark.parametrize("state", [FockPairSuperposition(3), PairCoherent(1.05)])
def test_radon_factored_projection_matches_dense_wigner_sum(state):
    # one fixed 48-node rule, so only the per-mode contraction differs from
    # the Gauss-Legendre sum of states.wigner over the full (t1, t2) grid;
    # the grid and paired X layouts both exercise the distinct-X indexing
    from tomobell.tomography import _project_factored

    half = significant_schmidt(state).half_width
    rule = gauss_legendre(48, -half, half)
    s1, s2 = SymplecticSetting(0.9, 0.3), SymplecticSetting(-0.4, 1.3)
    factors = state.wigner_factors(32)
    for x1, x2 in (
        (np.array([[-1.2], [0.0], [0.4], [1.5]]), np.array([[-0.7, 0.1, 0.9]])),
        (np.array([0.3, -0.8, 0.3, 1.1]), np.array([0.5, 0.5, -1.0, 0.2])),
    ):
        x1, x2 = np.broadcast_arrays(x1, x2)
        dense = radon_wigner_grid_sum(state, x1, s1, x2, s2, rule, 32)
        factored = _project_factored(factors, x1, s1, x2, s2, rule)
        assert factored.shape == dense.shape == x1.shape
        assert np.max(np.abs(factored - dense)) < 1e-13


def test_radon_squeezed_first_rule_integrates_its_gaussian_to_rounding():
    # in principal-axis coordinates the integrand is exp(-xi^2 - eta^2) on
    # +/- GAUSSIAN_HALF_WIDTH for every lambda; 32 nodes miss by 5e-11
    from tomobell.tomography import GAUSSIAN_HALF_WIDTH, GAUSSIAN_ORDER

    half = GAUSSIAN_HALF_WIDTH
    rule = gauss_legendre(GAUSSIAN_ORDER, -half, half)
    exact = math.sqrt(math.pi) * math.erf(half)
    assert GAUSSIAN_ORDER == 48
    assert abs(rule.weights @ np.exp(-rule.nodes**2) - exact) <= 1e-15


def test_radon_squeezed_wigner_calls_stay_within_max_block(monkeypatch):
    # one states.wigner call per X pair and order: the stencil, then 48^2 and 96^2 points
    from tomobell import states

    sizes = []

    def counted(state, *args, **kwargs):
        sizes.append(np.broadcast(*args).size)
        return wigner(state, *args, **kwargs)

    monkeypatch.setattr(states, "wigner", counted)
    xs = np.linspace(-1.5, 1.5, 3)
    radon_forward(SqueezedVacuum(0.96), xs[:, None], 0.7, xs[None, :], 0.4)
    assert len(sizes) == 1 + 2 * 9
    assert max(sizes) == 96**2 <= MAX_BLOCK


def _traced(func):
    """``func()`` and tracemalloc's peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        value = func()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_radon_squeezed_check_memory_stays_bounded_as_lambda_grows():
    # the whole (81, m, m) grid at once peaked at 274.5 MiB (lambda = 0.9)
    # and 1095.5 MiB (lambda = 0.96)
    xs = RADON_GRID

    def check(lam):
        record = {}
        numeric = radon_forward(SqueezedVacuum(lam), xs[:, None], 0.0, xs[None, :], 0.0,
                                record=record)
        closed = tomogram_closed_form(SqueezedVacuum(lam), xs[:, None], 0.0, xs[None, :], 0.0)
        return float(np.max(np.abs(closed - numeric))), record["orders"][-1]

    (diff, nodes), peak = _traced(lambda: check(0.9))
    assert peak <= 32 * 2**20
    assert diff < 1e-9 and nodes == 96

    # the principal-axis grid does not grow with the squeezing: an axis-aligned
    # grid needed 1536 nodes at lambda = 0.96 and could not resolve 0.99 at 3072
    for lam in (0.96, 0.99):
        (diff, nodes), peak = _traced(lambda: check(lam))
        assert peak <= 64 * 2**20
        assert diff < 1e-8 and nodes == 96


def test_radon_pair_coherent_check_memory_stays_bounded_at_large_r():
    # r = 12 takes 280 angular and 1536 line nodes; the factor arrays of all
    # three X values at once peaked at 103 MiB, a block of them at 40 MiB
    state = PairCoherent(12.0)
    xs = np.linspace(-2.0, 2.0, 3)
    numeric, peak = _traced(lambda: radon_forward(state, xs[:, None], 0.0, xs[None, :], 0.0))
    closed = tomogram_closed_form(state, xs[:, None], 0.0, xs[None, :], 0.0)
    assert peak <= 48 * 2**20
    assert np.max(np.abs(closed - numeric)) < 1e-12


@pytest.mark.parametrize("lam", [0.99, 0.995, 0.9999])
def test_radon_squeezed_matches_closed_form_at_strong_squeezing(lam):
    state = SqueezedVacuum(lam)
    xs = RADON_GRID
    for t1, t2 in RADON_ANGLES:
        record = {}
        numeric = radon_forward(state, xs[:, None], t1, xs[None, :], t2, record=record)
        closed = tomogram_closed_form(state, xs[:, None], t1, xs[None, :], t2)
        assert np.max(np.abs(closed - numeric)) < 1e-9
        assert record["orders"] == [48, 96]
    # w(X, mu, nu) = w(X / r, theta) / r per mode, with (mu, nu) = r (cos theta, sin theta)
    s1, s2 = SymplecticSetting(0.9, 0.3), SymplecticSetting(-0.4, 1.3)
    record = {}
    numeric = radon_forward_symplectic(state, xs[:, None], s1, xs[None, :], s2, record=record)
    closed = tomogram_closed_form(
        state, xs[:, None] / s1.scale, math.atan2(s1.nu, s1.mu),
        xs[None, :] / s2.scale, math.atan2(s2.nu, s2.mu),
    ) / (s1.scale * s2.scale)
    assert np.max(np.abs(closed - numeric)) < 1e-9
    assert record["orders"] == [48, 96]


def test_radon_squeezed_past_the_stencil_raises_convergence_error():
    # at lambda = 0.999999 W underflows on the finite-difference stencil at the
    # origin; the check says so instead of returning nan
    record = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="underflows on the Radon finite-difference"):
            radon_forward(SqueezedVacuum(0.999999), RADON_GRID, 0.0, RADON_GRID, 0.0,
                          record=record)
    assert record == {"orders": [], "changes": []}


def test_radon_convergence_error_names_orders_and_residuals():
    # a 4-node rule cannot resolve the pair-coherent lines; the error names
    # every order tried and the change at each doubling, and so does the record
    from tomobell.tomography import _project_factored

    state = PairCoherent(1.0)
    record = {}
    with pytest.raises(ConvergenceError) as info:
        radon_forward(state, 0.5, 0.0, 0.5, 0.0, order=4, max_doublings=2, record=record)
    message = str(info.value)
    assert "orders [4, 8, 16]" in message
    assert record["orders"] == [4, 8, 16]
    half = significant_schmidt(state).half_width
    x = np.array([0.5])
    setting = SymplecticSetting.from_angle(0.0)
    values = [
        _project_factored(state.wigner_factors(), x, setting, x, setting,
                          gauss_legendre(m, -half, half))[0]
        for m in (4, 8, 16)
    ]
    for before, after in zip(values[:-1], values[1:]):
        assert f"{abs(after - before):.3e}" in message
    assert record["changes"] == [abs(after - before) for before, after in zip(values, values[1:])]


# ---------------------------------------------------------------------------
# pair-coherent angular integral
# ---------------------------------------------------------------------------


def test_pair_coherent_integral_r_to_zero():
    val = pair_coherent_integral_direct(0.3, 0.2, -0.8, 0.6, 1e-8)
    assert val == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert pair_coherent_integral_series(0.3, -0.8, 0.4, 1e-10) == pytest.approx(
        2.0 * math.pi, abs=1e-6
    )


def test_pair_coherent_series_first_term_algebra():
    # the n = 1 contribution is 2 pi * 2 X1 X2 alpha^2
    x1, x2, phi0, r = 0.9, -1.3, 0.35, 0.8
    alpha2 = (r * np.exp(-1j * phi0)) ** 2
    zeroth = pair_coherent_integral_series(x1, x2, phi0, r, terms=0)
    first = pair_coherent_integral_series(x1, x2, phi0, r, terms=1)
    assert zeroth == pytest.approx(2.0 * math.pi)
    assert first - zeroth == pytest.approx(2.0 * math.pi * 2.0 * x1 * x2 * alpha2, rel=1e-12)


def test_pair_coherent_series_vs_direct():
    for x1, x2, theta1, theta2, r in (
        (3.0, 3.0, 1.0, 0.4, 1.5),
        (-2.0, 1.0, 2.4, -0.9, 1.0),
        (0.0, 0.0, math.pi, 0.0, 0.7),  # alpha^2 = -r^2, alternating series
    ):
        direct = pair_coherent_integral_direct(x1, theta1, x2, theta2, r, order=512)
        series = pair_coherent_integral_series(x1, x2, 0.5 * (theta1 + theta2), r)
        assert abs(direct - series) < 1e-8


@pytest.mark.parametrize("r", [0.5, 1.05, 3.0, 6.0, 8.0])
def test_tomogram_pair_coherent_matches_direct_integral(r):
    # the Hermite series overflows before it converges from r = 6 on; the
    # Schmidt sum of the closed form does not
    for x1, x2, theta_sum in ((0.3, -0.8, 0.4), (1.7, 2.1, 2.3), (-1.2, 0.6, -1.1)):
        integral = pair_coherent_integral_direct(
            math.sqrt(2.0) * x1, theta_sum, math.sqrt(2.0) * x2, 0.0, r, order=1024
        )
        want = (
            abs(integral) ** 2
            * math.exp(-2.0 * (x1**2 + x2**2))
            / (2.0 * math.pi**3 * bessel_i0(2.0 * r * r))
        )
        got = tomogram_closed_form(PairCoherent(r), x1, theta_sum, x2, 0.0)
        assert got == pytest.approx(want, rel=1e-12)


def test_pair_coherent_integral_order_guard():
    with pytest.raises(DomainError):
        pair_coherent_integral_direct(0.0, 0.0, 0.0, 0.0, 1.0, order=32)


def fock_pair_tomogram_oracle(n, x1, t1, x2, t2):
    """The Hermite-polynomial form (1/pi) [1 + H_n H_n cos n(t1 + t2) / (2^{n-1} n!)
    + H_n^2 H_n^2 / (2^{2n} (n!)^2)] exp(-2 X1^2 - 2 X2^2), u = sqrt(2) X."""
    h1 = hermite(n, math.sqrt(2.0) * x1)
    h2 = hermite(n, math.sqrt(2.0) * x2)
    cross = h1 * h2 * math.cos(n * (t1 + t2)) / (2.0 ** (n - 1) * math.factorial(n))
    square = (h1 * h2) ** 2 / (2.0 ** (2 * n) * math.factorial(n) ** 2)
    return (1.0 + cross + square) * np.exp(-2.0 * (x1**2 + x2**2)) / math.pi


@pytest.mark.parametrize("n", [1, 3, 5])
def test_tomogram_fock_pair_matches_hermite_polynomial_form(n):
    xs = np.linspace(-2.5, 2.5, 11)
    got = tomogram_closed_form(FockPairSuperposition(n), xs[:, None], 0.4, xs[None, :], -1.3)
    want = fock_pair_tomogram_oracle(n, xs[:, None], 0.4, xs[None, :], -1.3)
    assert np.max(np.abs(got - want)) < 1e-13


def test_tomogram_fock_pair_large_n_is_normalized():
    # n! and 2^n overflow a double from n = 86 on (n = 171 for n! alone);
    # the Hermite-function recurrence never forms them
    rule = gauss_legendre(400, -14.0, 14.0)
    vals = tomogram_closed_form(
        FockPairSuperposition(100), rule.nodes[:, None], 0.3, rule.nodes[None, :], 0.2
    )
    assert np.all(np.isfinite(vals))
    assert float(rule.weights @ vals @ rule.weights) == pytest.approx(1.0, abs=1e-6)


def test_tomogram_fock_pair_past_the_sign_level_cap_is_normalized():
    # 1500 levels exceed the cap on the sign-correlation G matrix, which must
    # not reach the tomogram; psi_1500(sqrt(2) X) extends to |X| = 38.7, where
    # exp(-X^2) alone underflows.  The trapezoid rule on a uniform grid is
    # spectrally accurate for these smooth, decaying integrands.
    state = FockPairSuperposition(1500)
    xs = np.linspace(-42.0, 42.0, 4201)
    total = 0.0
    for rows in np.array_split(xs, 8):
        vals = tomogram_closed_form(state, rows[:, None], 0.3, xs[None, :], 0.2)
        assert np.all(np.isfinite(vals))
        total += float(vals.sum())
    assert total * (xs[1] - xs[0]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_hermite_functions_normalized_past_the_gaussian_underflow():
    # psi_1500 reaches |x| = 54.8, but e^{-x^2/2} alone underflows from x = 38.6 on
    x = np.linspace(-60.0, 60.0, 4001)
    psi = [p for _, p in zip(range(1501), hermite_functions(x))][-1]
    assert float(np.sum(psi**2)) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-10)


def test_schmidt_sum_tomogram_matches_the_plain_recurrence_bit_for_bit():
    # hermite_functions and tomogram_closed_form update arrays in place; the
    # plain expressions below are the same float operations in the same order
    rng = np.random.default_rng(19)
    x1, x2 = rng.normal(scale=3.0, size=(2, 4000))

    def plain_hermite(x):
        prev, cur, k = 0.0 * x, math.pi**-0.25 * np.exp(-0.5 * x * x), 0
        while True:
            yield cur
            prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
            k += 1

    kept = []
    for k, (got, want) in enumerate(zip(hermite_functions(x1), plain_hermite(x1))):
        assert got.tobytes() == want.tobytes()
        kept.append((got, got.copy()))
        if k == 120:
            break
    assert all(got.tobytes() == copy.tobytes() for got, copy in kept)  # yielded arrays stay
    for state, theta in ((PairCoherent(1.1), 0.7), (FockPairSuperposition(3), -2.1)):
        re = im = 0.0
        for n, (c, f1, f2) in enumerate(zip(significant_schmidt(state).coefficients,
                                            plain_hermite(math.sqrt(2.0) * x1),
                                            plain_hermite(math.sqrt(2.0) * x2))):
            if c != 0.0:
                re = re + f1 * f2 * (c * math.cos(n * theta))
                im = im + f1 * f2 * (c * math.sin(n * theta))
        want = 2.0 * (re * re + im * im)
        assert tomogram_closed_form(state, x1, theta, x2, 0.0).tobytes() == want.tobytes()


def test_hermite_functions_are_orthonormal():
    rule = gauss_legendre(200, -12.0, 12.0)
    psi = np.array([p for _, p in zip(range(30), hermite_functions(rule.nodes))])
    gram = (psi * rule.weights) @ psi.T
    assert np.max(np.abs(gram - np.eye(30))) < 1e-13


# ---------------------------------------------------------------------------
# sign-binned probabilities
# ---------------------------------------------------------------------------


def pair_coherent_sign_oracle(r, theta1, theta2, order=128):
    """The paper's pair-coherent quadruple: a double angular integral with two
    complex error-function factors on an order x order periodic trapezoid grid."""
    phi0 = 0.5 * (theta1 + theta2)
    rule = periodic_trapezoid(order)
    p1 = rule.nodes[:, None]
    p2 = rule.nodes[None, :]
    z1 = (r / math.sqrt(2.0)) * (np.exp(1j * (p1 - phi0)) + np.exp(1j * (p2 + phi0)))
    z2 = (r / math.sqrt(2.0)) * (np.exp(-1j * (p1 + phi0)) + np.exp(-1j * (p2 - phi0)))
    e1, e2 = erf_complex(z1), erf_complex(z2)
    kern = np.exp(2.0 * r * r * np.cos(p1 + p2))
    # N^2 e^{-2 r^2} / 4 with N = e^{r^2} / (2 pi sqrt(I0(2 r^2))), times the grid weight;
    # w_pp pairs with (1 - erf)(1 - erf)
    norm = (2.0 * math.pi / order) ** 2 / (16.0 * math.pi**2 * bessel_i0(2.0 * r * r))
    quads = [np.sum(kern * (1.0 + s1 * e1) * (1.0 + s2 * e2)) * norm
             for s1, s2 in ((-1, -1), (-1, 1), (1, -1), (1, 1))]
    assert max(abs(q.imag) for q in quads) < 1e-12
    return tuple(q.real for q in quads)


SIGN_ANGLES = ((math.pi / 2, -math.pi / 4), (0.0, -3 * math.pi / 4), (0.9, 0.4), (2.0, 2.5))


@pytest.mark.parametrize("r", [0.3, 0.9, 1.05, 1.4, 3.0])
def test_sign_binned_schmidt_sum_matches_erf_integral(r):
    for t1, t2 in SIGN_ANGLES:
        got = sign_binned_closed_form(PairCoherent(r), t1, t2).as_tuple()
        want = pair_coherent_sign_oracle(r, t1, t2)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sign_binned_schmidt_sum_matches_fock_pair_formula(n):
    # 1/4 +/- H_{n-1}(0)^2 cos n(theta1 + theta2) / (pi 2^n n!)
    amp = hermite(n - 1, 0.0) ** 2 / (math.pi * 2.0**n * math.factorial(n))
    for t1, t2 in SIGN_ANGLES:
        osc = amp * math.cos(n * (t1 + t2))
        got = sign_binned_closed_form(FockPairSuperposition(n), t1, t2).as_tuple()
        want = (0.25 + osc, 0.25 - osc, 0.25 - osc, 0.25 + osc)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15


def test_sign_matrix_matches_half_line_quadrature():
    # G_mn = <m| sgn X |n> = 2 int_0^inf psi_m psi_n for m + n odd, 0 otherwise
    rule = gauss_legendre(200, 0.0, 12.0)
    psi = np.array([p for _, p in zip(range(21), hermite_functions(rule.nodes))])
    half = 2.0 * (psi * rule.weights) @ psi.T
    odd = np.add.outer(np.arange(21), np.arange(21)) % 2 == 1
    want = np.where(odd, half, 0.0)
    assert np.max(np.abs(sign_matrix(21) - want)) < 1e-13


def test_sign_binned_fock_pair_beyond_factorial_overflow():
    # H_{n-1}(0)^2 and 2^n n! overflow a double from n = 153 on; the Schmidt sum forms neither
    probs = sign_binned_closed_form(FockPairSuperposition(161), 0.3, 0.0)
    g = sign_matrix(162)[0, 161]
    assert probs.w_pp == pytest.approx(0.25 * (1.0 + g * g * math.cos(161 * 0.3)), abs=1e-15)


def test_sign_binned_schmidt_sum_never_truncates_silently():
    with pytest.raises(ConvergenceError):
        sign_binned_closed_form(FockPairSuperposition(5000), 0.0, 0.0)


def test_sign_binned_schmidt_sum_built_once_per_state():
    from tomobell.tomography import _sign_harmonics

    state = PairCoherent(1.234)
    sign_binned_closed_form(state, 0.1, 0.2)
    before = _sign_harmonics.cache_info()
    for t1 in np.linspace(0.0, 3.0, 7):
        sign_binned_closed_form(state, t1, 0.2)
    after = _sign_harmonics.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 7


# the states of the tomographic benchmark ops, and the four fig3a settings
SIGN_STATES = [PairCoherent(1.14), FockPairSuperposition(1), SqueezedVacuum(0.8894)]
FIG3A_PAIRS = [(math.pi / 2, -math.pi / 4), (math.pi / 2, -3 * math.pi / 4),
               (0.0, -math.pi / 4), (0.0, -3 * math.pi / 4)]


@pytest.mark.parametrize("state", SIGN_STATES, ids=repr)
def test_sign_correlation_is_the_oracle_bit_for_bit(state):
    # maximize_chsh's 24 x 24 grid (numpy floats), fig3a and 200 seeded pairs (Python floats)
    grid = np.arange(24) * (2.0 * math.pi / 24)
    pairs = [(t1, t2) for t1 in grid for t2 in grid] + FIG3A_PAIRS
    pairs += np.random.default_rng(17).uniform(-7.0, 7.0, size=(200, 2)).tolist()
    corr = sign_correlation(state)
    for t1, t2 in pairs:
        assert corr(t1, t2) == correlation_tomographic(sign_binned_closed_form(state, t1, t2))


def test_sign_correlation_raises_where_validate_does(monkeypatch):
    # doubled harmonics push |E| past 1 on part of the circle: both paths must
    # raise the same NormalizationError at the same angles, and agree elsewhere
    import tomobell.tomography as tg

    harmonics = tg._sign_harmonics
    monkeypatch.setattr(tg, "_sign_harmonics", lambda state: 2.0 * harmonics(state))
    state = PairCoherent(1.14)
    corr = sign_correlation(state)
    raised = 0
    for theta in np.linspace(0.0, 2.0 * math.pi, 90):
        try:
            want = correlation_tomographic(sign_binned_closed_form(state, theta, 0.3))
        except NormalizationError as exc:
            raised += 1
            with pytest.raises(NormalizationError, match=f"^{re.escape(str(exc))}$"):
                corr(theta, 0.3)
        else:
            assert corr(theta, 0.3) == want
    assert 0 < raised < 90


@pytest.mark.parametrize("state", SIGN_STATES, ids=repr)
def test_sign_correlation_rejects_a_nan_angle(state):
    with pytest.raises(NormalizationError):
        sign_binned_closed_form(state, math.nan, 0.0)
    with pytest.raises(NormalizationError):
        sign_correlation(state)(math.nan, 0.0)


def test_sign_binned_numeric_product_density():
    def density(x1, x2):
        return (2.0 / math.pi) * np.exp(-2.0 * x1**2 - 2.0 * x2**2)

    probs = sign_binned_numeric(density, 0.0, 0.0)
    for v in probs.as_tuple():
        assert v == pytest.approx(0.25, abs=1e-10)


def test_sign_binned_closed_vs_numeric_squeezed():
    state = SqueezedVacuum(math.tanh(0.5))
    t1, t2 = 0.3, -0.3  # theta1 + theta2 = 0
    closed = sign_binned_closed_form(state, t1, t2)
    numeric = sign_binned_numeric(
        lambda x1, x2: tomogram_closed_form(state, x1, t1, x2, t2), t1, t2
    )
    for a, b in zip(closed.as_tuple(), numeric.as_tuple()):
        assert a == pytest.approx(b, abs=1e-8)


def test_sign_binned_closed_vs_numeric_fock_pair():
    state = FockPairSuperposition(1)
    t1, t2 = 0.4, 0.35
    closed = sign_binned_closed_form(state, t1, t2)
    numeric = sign_binned_numeric(
        lambda x1, x2: tomogram_closed_form(state, x1, t1, x2, t2), t1, t2
    )
    for a, b in zip(closed.as_tuple(), numeric.as_tuple()):
        assert a == pytest.approx(b, abs=1e-8)
    # the oscillation argument is theta1 + theta2, not theta1 - theta2
    diff_arg = 0.25 + math.cos(t1 - t2) / (2.0 * math.pi)
    assert abs(closed.w_pp - diff_arg) > 1e-3


def test_sign_binned_closed_vs_numeric_pair_coherent():
    state = PairCoherent(1.05)
    t1, t2 = 0.9, 0.4
    closed = sign_binned_closed_form(state, t1, t2)
    numeric = sign_binned_numeric(
        lambda x1, x2: tomogram_closed_form(state, x1, t1, x2, t2), t1, t2, scale=1.2
    )
    for a, b in zip(closed.as_tuple(), numeric.as_tuple()):
        assert a == pytest.approx(b, abs=1e-6)


def test_sign_binned_squeezed_special_points():
    # theta1 + theta2 = pi/2 makes b = 0, so all four quadrants are 1/4
    state = SqueezedVacuum(0.54)
    probs = sign_binned_closed_form(state, math.pi / 4, math.pi / 4)
    for v in probs.as_tuple():
        assert v == pytest.approx(0.25, abs=1e-14)
    # strong squeezing at theta1 + theta2 = 0: perfect sign anti-correlation
    strong = sign_binned_closed_form(SqueezedVacuum(math.tanh(6.0)), 0.0, 0.0)
    assert strong.w_pp == pytest.approx(0.0, abs=1e-4)
    assert strong.w_pm == pytest.approx(0.5, abs=1e-4)
    # limit value arctan(sinh 2s) -> pi/2
    s = 6.0
    assert strong.w_pp == pytest.approx(
        0.25 - math.atan(math.sinh(2.0 * s)) / (2.0 * math.pi), abs=1e-12
    )


def test_sign_binned_pair_coherent_r_to_zero():
    probs = sign_binned_closed_form(PairCoherent(1e-4), 0.7, 0.2)
    for v in probs.as_tuple():
        assert v == pytest.approx(0.25, abs=1e-6)


def test_sign_binned_sum_and_symmetry():
    for state in (SqueezedVacuum(0.96), FockPairSuperposition(3), PairCoherent(1.3)):
        for theta_sum in (0.0, 1.0, 2.7, 5.5):
            probs = sign_binned_closed_form(state, theta_sum, 0.0)
            assert sum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-9)
            assert probs.w_pp == pytest.approx(probs.w_mm, abs=1e-12)
            assert probs.w_pm == pytest.approx(probs.w_mp, abs=1e-12)


def test_sign_binned_never_exceeds_half_for_a_and_b():
    grid = np.linspace(0.0, 2.0 * math.pi, 90, endpoint=False)
    for state in (SqueezedVacuum(0.96), FockPairSuperposition(5)):
        worst = max(
            max(sign_binned_closed_form(state, s, 0.0).as_tuple()) for s in grid
        )
        assert worst <= 0.5 + 1e-9


def test_sign_binned_probs_validation():
    with pytest.raises(NormalizationError):
        SignBinnedProbs(0.3, 0.3, 0.3, 0.3, 0.0, 0.0).validate()
    with pytest.raises(NormalizationError):
        SignBinnedProbs(1.2, -0.2, 0.0, 0.0, 0.0, 0.0).validate()


def test_sign_binned_numeric_normalization_error():
    def off_density(x1, x2):  # integrates to 2, an error signal
        return (4.0 / math.pi) * np.exp(-2.0 * x1**2 - 2.0 * x2**2)

    with pytest.raises(NormalizationError):
        sign_binned_numeric(off_density, 0.0, 0.0)


# ---------------------------------------------------------------------------
# inverse transforms
# ---------------------------------------------------------------------------


def _tomogram_grid(density, nx=241, ntheta=48):
    x = np.linspace(-6.0, 6.0, nx)
    theta = np.linspace(0.0, math.pi, ntheta, endpoint=False)
    values = np.repeat(np.asarray(density(x))[:, None], ntheta, axis=1)
    return values, x, theta


def test_inverse_fourier_vacuum():
    values, x, theta = _tomogram_grid(vacuum_density)
    q = np.linspace(-2.5, 2.5, 51)
    wig, raw = inverse_fourier_wigner(values, x, theta, q, q)
    assert abs(raw - 1.0) < 0.05
    assert wig[25, 25] == pytest.approx(2.0 / math.pi, rel=0.01)


def test_inverse_fourier_squeezed_marginal():
    lam = math.tanh(0.3)
    values, x, theta = _tomogram_grid(lambda xs: epr_marginal_density(lam, xs))
    q = np.linspace(-2.5, 2.5, 51)
    wig, _ = inverse_fourier_wigner(values, x, theta, q, q)
    # partial-trace oracle: W(0, 0) = (2/pi) sum_n (-1)^n c_n^2
    from tomobell.states import schmidt_coefficients

    c = schmidt_coefficients(SqueezedVacuum(lam), 80).coefficients
    oracle = (2.0 / math.pi) * float(np.sum((-1.0) ** np.arange(80) * c**2))
    assert oracle == pytest.approx(2.0 / (math.pi * math.cosh(0.6)), rel=1e-12)
    assert wig[25, 25] == pytest.approx(oracle, rel=0.01)


def test_inverse_fourier_real_surface():
    values, x, theta = _tomogram_grid(lambda xs: fock_quadrature_density(1, xs))
    q = np.linspace(-2.0, 2.0, 41)
    wig, _ = inverse_fourier_wigner(values, x, theta, q, q)
    assert wig.dtype.kind == "f"
    assert wig[20, 20] < 0.0  # single photon is negative at the origin


def test_inverse_fourier_normalization_error():
    values, x, theta = _tomogram_grid(lambda xs: 2.0 * vacuum_density(xs))
    q = np.linspace(-2.5, 2.5, 51)
    with pytest.raises(AccuracyError):
        inverse_fourier_wigner(values, x, theta, q, q)


@pytest.mark.parametrize("state", [
    RandomSchmidt(1, 6), RandomSchmidt(2, 9), RandomSchmidt(3, 16),
    pytest.param(SqueezedVacuum(0.5), marks=pytest.mark.xfail(strict=True, reason=(
        "the tomographic side is sum (-lam)^n |n n>, the Schmidt vector (+lam)^n: E flips sign"))),
    FockPairSuperposition(3), PairCoherent(1.05),
], ids=repr)
def test_sign_correlation_matches_the_raw_schmidt_vector(state):
    # G from numpy's Hermite polynomials by quadrature and c_n as the state gives
    # them, so a sign lost anywhere on the way to the harmonics shows
    c = state.schmidt(64)
    if isinstance(state, RandomSchmidt):
        assert np.any(c < 0.0) and np.any(c > 0.0)
    corr = sign_correlation(state)
    for theta1, theta2 in ((0.0, 0.0), (0.3, 1.1), (math.pi / 2, -math.pi / 4), (2.0, 2.9)):
        want = schmidt_sign_correlation(c, theta1 + theta2)
        assert corr(theta1, theta2) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("state", [
    RandomSchmidt(1, 6), RandomSchmidt(2, 9), RandomSchmidt(3, 16),
    pytest.param(SqueezedVacuum(0.5), marks=pytest.mark.xfail(strict=True, reason=(
        "the tomographic side is sum (-lam)^n |n n>, the Schmidt vector (+lam)^n: "
        "the X1 X2 cross term flips sign"))),
    FockPairSuperposition(3), PairCoherent(1.05),
], ids=repr)
def test_tomogram_closed_form_matches_the_raw_schmidt_vector(state):
    # the joint density the samplers draw from, against numpy's Hermite
    # polynomials summed over c_n as the state gives them
    c = state.schmidt(64)
    x = np.linspace(-3.5, 3.5, 29)
    for theta1, theta2 in ((0.0, 0.0), (0.3, 1.1), (math.pi / 2, -math.pi / 4), (2.0, 2.9)):
        got = tomogram_closed_form(state, x[:, None], theta1, x[None, :], theta2)
        want = schmidt_tomogram(c, x[:, None], x[None, :], theta1 + theta2)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_displacement_matrix_vs_expm_oracle():
    # brute-force oracle: exponentiate beta a^dag - conj(beta) a, beta = -i k/2, on a
    # 300-level truncation and read off the top-left 64 x 64 block
    from scipy.linalg import expm

    dim, cutoff = 300, 64
    k = np.array([0.8, 2.5, 4.0, 8.0, 12.0, 20.0])
    got = displacement_matrix(cutoff, k)
    assert got.shape == (cutoff, cutoff, k.size)
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)  # annihilation operator
    for i, beta in enumerate(-0.5j * k):
        disp = expm(beta * lower.conj().T - np.conj(beta) * lower)
        assert np.max(np.abs(got[:, :, i] - disp[:cutoff, :cutoff])) <= 1e-12, k[i]


def test_displacement_matrix_columns_are_unit_vectors():
    # D is unitary: a low column loses only the tail of D|n> beyond the cutoff
    k = np.linspace(0.0, 4.0, 41)
    columns = displacement_matrix(64, k)[:, :9]
    assert np.max(np.abs(1.0 - np.sum(np.abs(columns) ** 2, axis=0))) <= 1e-12


def test_displacement_matrix_makes_one_laguerre_run_per_diagonal(monkeypatch):
    # the one kernel behind displacement_matrix and the Fock-basis Wigner factors
    from tomobell import special

    runs, yields = [], []
    laguerre_functions = special.laguerre_functions

    def counted(x, alpha=0):
        runs.append(alpha)
        for value in laguerre_functions(x, alpha):
            yields.append(alpha)
            yield value

    monkeypatch.setattr(special, "laguerre_functions", counted)
    for cutoff in (1, 6, 10):
        runs.clear()
        yields.clear()
        kernel_reconstruct_density(vacuum_density, cutoff)
        assert runs == list(range(cutoff))
        # diagonal d has cutoff - d elements, and its run yields no more
        assert yields == [d for d in range(cutoff) for _ in range(cutoff - d)]
    # the Fock pair at n = 9: pairs (0, 0), (0, 9) and (9, 9), one run up to l_9 on
    # the main diagonal and one l_0 on diagonal 9, per mode
    runs.clear()
    yields.clear()
    left, _ = FockPairSuperposition(9).wigner_factors().mode(0, np.array([0.3]), np.array([0.2]))
    assert left.shape == (1, 3)
    assert runs == [0, 9] and yields == [0] * 10 + [9]


def test_kernel_reconstruct_vacuum():
    rho, diag = kernel_reconstruct_density(
        vacuum_density, 6)
    assert rho[0, 0].real == pytest.approx(1.0, abs=0.02)
    off = rho - np.diag(rho.diagonal())
    assert np.max(np.abs(off)) < 2e-2
    assert diag["k_tail"] < 1e-15


def _thermal(lam):
    return lambda n: (1.0 - lam**2) * lam ** (2 * n)


@pytest.mark.parametrize(
    "tomogram, populations",
    [
        (vacuum_density, lambda n: n == 0),
        (functools.partial(fock_quadrature_density, 1), lambda n: n == 1),
        (functools.partial(fock_quadrature_density, 3), lambda n: n == 3),
        (functools.partial(fock_quadrature_density, 9), lambda n: n == 9),
        (functools.partial(epr_marginal_density, 0.3), _thermal(0.3)),
        (functools.partial(epr_marginal_density, 0.5), _thermal(0.5)),
    ],
    ids=["vacuum", "fock-1", "fock-3", "fock-9", "epr-0.3", "epr-0.5"],
)
def test_kernel_reconstruct_is_exact(tomogram, populations):
    # the direct k-sum has no regularizer to extrapolate away: each entry
    # of rho is the exact one up to rounding, at every allowed cutoff
    for cutoff in range(1, 11):
        rho, diag = kernel_reconstruct_density(tomogram, cutoff)
        exact = np.diag(populations(np.arange(cutoff)).astype(float))
        assert np.max(np.abs(rho - exact)) < 1e-9, cutoff
        assert diag["trace"] == pytest.approx(np.trace(exact), abs=1e-9)


@pytest.mark.parametrize("phi", [0.7, 2.3])
def test_kernel_reconstruct_recovers_the_phase_of_a_coherence(phi):
    # (|0> + e^{i phi} |1>) / sqrt(2) has rho_01 = e^{-i phi} / 2: a tomogram
    # that depends on theta, so the phases of <m|D|n> off the diagonal count
    amplitudes = np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0)
    rho, _ = kernel_reconstruct_density(
        lambda x, theta=0.0: fock_superposition_tomogram(amplitudes, x, theta), 4)
    assert abs(rho[0, 1] - 0.5 * np.exp(-1j * phi)) <= 1e-10
    exact = np.zeros((4, 4), dtype=complex)
    exact[:2, :2] = np.outer(amplitudes, amplitudes.conj())
    assert np.max(np.abs(rho - exact)) <= 1e-10


def test_kernel_reconstruct_single_photon():
    rho, _ = kernel_reconstruct_density(
        lambda x, t=0.0: fock_quadrature_density(1, x, t), 6
    )
    assert rho[1, 1].real == pytest.approx(1.0, abs=0.05)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_kernel_reconstruct_guards():
    with pytest.raises(DomainError):
        kernel_reconstruct_density(vacuum_density, 11)
    with pytest.raises(NormalizationError):
        kernel_reconstruct_density(
            lambda x, t=0.0: 0.5 * vacuum_density(x, t), 4
        )
