"""Pseudospin operators, CHSH functionals, Bell-angle optimization."""

import json
import math

import numpy as np
import pytest

from tomobell.bell import (
    BellAnglesQuadrature,
    _nelder_mead,
    calb_curve,
    chsh,
    closed_form_correlation,
    correlation_pseudospin,
    correlation_xz,
    density_xz_entries,
    direction,
    maximize_chsh,
    pair_coherent_bessel_coefficient,
    pair_coherent_sx_report,
    pseudospin_matrices,
)
from tomobell.errors import AccuracyError, DimensionError, DomainError, NormalizationError
from tomobell.special import bessel_i0, bessel_j0
from tomobell.states import (
    DensityMatrix,
    FockPairSuperposition,
    PairCoherent,
    SqueezedVacuum,
    density_matrix,
    schmidt_coefficients,
)
from tomobell.tomography import SignBinnedProbs, sign_binned_closed_form

from oracles import RandomSchmidt, correlation_tomographic, schmidt_xz_dense

X_AXIS = np.array([1.0, 0.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def xz(theta):
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


# ---------------------------------------------------------------------------
# pseudospin operators
# ---------------------------------------------------------------------------


def test_pseudospin_cutoff_two_is_pauli():
    ops = pseudospin_matrices(2)
    assert np.array_equal(ops.sx, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(ops.sy, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(ops.sz, np.diag([1.0 + 0j, -1.0]))


@pytest.mark.parametrize("cutoff", [2, 4, 64])
def test_pseudospin_spin_half_algebra(cutoff):
    ops = pseudospin_matrices(cutoff)
    ident = np.eye(cutoff)
    assert np.max(np.abs(ops.sx @ ops.sy - ops.sy @ ops.sx - 2j * ops.sz)) <= 1e-12
    assert np.max(np.abs(ops.sy @ ops.sz - ops.sz @ ops.sy - 2j * ops.sx)) <= 1e-12
    assert np.max(np.abs(ops.sz @ ops.sx - ops.sx @ ops.sz - 2j * ops.sy)) <= 1e-12
    for m in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(m @ m - ident)) <= 1e-12
        assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_pseudospin_cross_mode_commutators_vanish():
    ops = pseudospin_matrices(4)
    ident = np.eye(4)
    a = np.kron(ops.sx, ident)
    b = np.kron(ident, ops.sy)
    assert np.max(np.abs(a @ b - b @ a)) == 0.0


def test_pseudospin_sz_parity_diagonal():
    ops = pseudospin_matrices(6)
    assert np.array_equal(ops.sz.diagonal().real, np.array([1, -1, 1, -1, 1, -1]))


def test_pseudospin_odd_cutoff_rejected():
    with pytest.raises(DomainError):
        pseudospin_matrices(5)
    with pytest.raises(DomainError):
        pseudospin_matrices(0)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_correlation_vacuum_zz():
    dm = density_matrix(SqueezedVacuum(0.0), 4)
    assert correlation_pseudospin(dm, Z_AXIS, Z_AXIS) == pytest.approx(1.0, abs=1e-14)
    # directions must be unit 3-vectors
    with pytest.raises(DomainError):
        correlation_pseudospin(dm, [1.0, 1.0, 0.0], Z_AXIS)
    with pytest.raises(DimensionError):
        correlation_pseudospin(dm, Z_AXIS, [0.0, 1.0])


def test_correlation_matches_a_dense_oracle():
    # a mixed state with every entry nonzero, against Tr[rho (A x B)] of the
    # dense (16, 16) array
    rng = np.random.default_rng(11)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    rows, cols = np.indices(rho.shape).reshape(2, -1)
    dm = DensityMatrix(4, cols, rows, rho.T.ravel(), 0.0)  # entries in column-major order
    ops = pseudospin_matrices(4)
    for u, v in ((X_AXIS, Z_AXIS), ([0.0, 1.0, 0.0], xz(0.7)), (xz(2.1), [0.6, 0.8, 0.0])):
        want = np.trace(rho @ np.kron(ops.dotted(u), ops.dotted(v))).real
        assert correlation_pseudospin(dm, u, v) == pytest.approx(want, abs=1e-15)


def test_correlation_matches_closed_form_squeezed():
    state = SqueezedVacuum(0.54)
    dm = density_matrix(state, 64)
    for tu, tv in ((0.3, 1.1), (1.2, -0.4), (math.pi, math.pi / 4)):
        fock = correlation_pseudospin(dm, xz(tu), xz(tv))
        assert fock == pytest.approx(closed_form_correlation(state, tu, tv), abs=1e-6)


def test_correlation_matches_closed_form_fock_pair():
    for n in (1, 2):
        state = FockPairSuperposition(n)
        dm = density_matrix(state, 16)
        for tu, tv in ((0.3, 1.0), (2.2, -0.5)):
            fock = correlation_pseudospin(dm, xz(tu), xz(tv))
            assert fock == pytest.approx(closed_form_correlation(state, tu, tv), abs=1e-12)


def test_closed_form_correlation_values():
    assert closed_form_correlation(SqueezedVacuum(0.0), math.pi / 2, math.pi / 2) == pytest.approx(0.0)
    assert closed_form_correlation(FockPairSuperposition(1), 0.7, 0.7) == pytest.approx(1.0)
    assert closed_form_correlation(FockPairSuperposition(3), 0.7, 0.2) == pytest.approx(
        math.cos(0.7) * math.cos(0.2)
    )
    # the pair-coherent block is its Schmidt vector's, not the Bessel ratio, which exceeds 1
    r = 1.05
    got = closed_form_correlation(PairCoherent(r), math.pi / 2, math.pi / 2)
    assert got == pytest.approx(schmidt_coefficients(PairCoherent(r), 64).xz_block()[1], rel=1e-12)
    assert pair_coherent_bessel_coefficient(r) == pytest.approx(
        r * r * (1.0 - bessel_j0(2 * r * r) / bessel_i0(2 * r * r)), rel=1e-13
    )
    assert pair_coherent_bessel_coefficient(r) > 1.0 > got


def test_pseudospin_xz_blocks():
    lam, r = 0.54, 1.05
    sv = (1.0, 2.0 * lam / (1.0 + lam * lam), 0.0, 0.0)
    assert SqueezedVacuum(lam).pseudospin_xz(8) == (sv, None)
    assert FockPairSuperposition(1).pseudospin_xz(8) == ((1.0, 1.0, 0.0, 0.0), None)
    assert FockPairSuperposition(3).pseudospin_xz(8) == ((1.0, 0.0, 0.0, 0.0), None)
    schmidt = schmidt_coefficients(PairCoherent(r), 32)
    assert PairCoherent(r).pseudospin_xz(32) == (schmidt.xz_block(), schmidt.deficit)


@pytest.mark.parametrize("state, cutoff", [
    (SqueezedVacuum(0.2), 2048), (SqueezedVacuum(0.54), 2048), (SqueezedVacuum(0.96), 2048),
    (FockPairSuperposition(1), 8), (FockPairSuperposition(3), 8),
])
def test_closed_form_blocks_match_the_schmidt_vector(state, cutoff):
    block, deficit = state.pseudospin_xz(cutoff)
    assert deficit is None
    assert block == pytest.approx(schmidt_coefficients(state, cutoff).xz_block(), abs=1e-12, rel=0)


@pytest.mark.parametrize("r", [0.5, 1.05, 1.5])
def test_pair_coherent_block_matches_bessel_functions(r):
    # T_xx = 2 sum c_2k c_2k+1 = (I1 + J1)(2 r^2) / I0(2 r^2), term by term
    special = pytest.importorskip("scipy.special")
    x = 2.0 * r * r
    block, deficit = PairCoherent(r).pseudospin_xz(64)
    want = (1.0, (special.i1(x) + special.j1(x)) / special.i0(x), 0.0, 0.0)
    assert block == pytest.approx(want, abs=1e-12, rel=0)
    assert deficit <= 1e-15


@pytest.mark.parametrize("state", [
    RandomSchmidt(1, 6), RandomSchmidt(2, 9), RandomSchmidt(3, 16),
    SqueezedVacuum(0.5), FockPairSuperposition(1), FockPairSuperposition(3), PairCoherent(1.05),
], ids=repr)
def test_xz_block_matches_a_dense_density_matrix_of_the_raw_vector(state):
    # T from np.kron of c_n as the state gives them, not through SchmidtVector
    cutoff = 24
    want = schmidt_xz_dense(state.schmidt(cutoff), cutoff)
    block, _ = state.pseudospin_xz(cutoff)
    assert block == pytest.approx(want, abs=1e-12, rel=0)
    got = density_xz_entries(density_matrix(state, cutoff))
    assert got == pytest.approx(want, abs=1e-12, rel=0)


def test_density_xz_entries_match_the_schmidt_block():
    state = PairCoherent(1.0)
    want = schmidt_coefficients(state, 8).xz_block()
    got = density_xz_entries(density_matrix(state, 8))
    assert got == pytest.approx(want, abs=1e-14)


def test_direction_tabulates_with_the_scalar_trig_calls():
    thetas = np.linspace(-7.0, 7.0, 1001)
    cos, sin = direction(thetas)
    assert cos.tolist() == [math.cos(t) for t in thetas.tolist()]
    assert sin.tolist() == [math.sin(t) for t in thetas.tolist()]
    assert direction(0.3) == (math.cos(0.3), math.sin(0.3))


def _scalar_calb(corr, thetas, tv, tup, tvp):
    """The per-angle loop of four scalar correlations that ``calb_curve`` replaces."""
    return [chsh(corr(tu, tv), corr(tu, tvp), corr(tup, tv), corr(tup, tvp)) for tu in thetas]


def _block_corr(t_zz, t_xx, t_xz, t_zx):
    """The scalar E = u . T . v of an x-z block, as the CLI evaluated it per angle."""

    def corr(tu, tv):
        cu, su, cv, sv = math.cos(tu), math.sin(tu), math.cos(tv), math.sin(tv)
        return t_zz * cu * cv + t_xx * su * sv + t_xz * su * cv + t_zx * cu * sv

    return corr


def _epr_closed_form(lam):
    k = 2.0 * lam / (1.0 + lam**2)
    return lambda tu, tv: math.cos(tu) * math.cos(tv) + k * math.sin(tu) * math.sin(tv)


def _pair_coherent_bessel_form(r):
    c = pair_coherent_bessel_coefficient(r)
    return lambda tu, tv: math.cos(tu) * math.cos(tv) + c * math.sin(tu) * math.sin(tv)


def _with_block_corr(t):
    return t, _block_corr(*t)


def _dm_file_block(tmp_path):
    path = tmp_path / "dm.json"
    path.write_text(json.dumps(density_matrix(SqueezedVacuum(0.5), 6).to_json_dict()))
    return density_xz_entries(DensityMatrix.load(str(path)))


_CALB_SOURCES = {
    # name -> (the block, the scalar correlation each curve point used to call)
    "epr": lambda tmp: (SqueezedVacuum(0.54).pseudospin_xz(64)[0], _epr_closed_form(0.54)),
    "fock-pair-3": lambda tmp: (FockPairSuperposition(3).pseudospin_xz(64)[0],
                                lambda tu, tv: math.cos(tu) * math.cos(tv)),
    # the paper's Bessel-ratio block, which no state gives: T_xx > 1
    "pair-coherent-closed": lambda tmp: ((1.0, pair_coherent_bessel_coefficient(1.05), 0.0, 0.0),
                                         _pair_coherent_bessel_form(1.05)),
    "pair-coherent-fock-32": lambda tmp: _with_block_corr(PairCoherent(1.05).pseudospin_xz(32)[0]),
    "pair-coherent-fock-64": lambda tmp: _with_block_corr(PairCoherent(1.05).pseudospin_xz(64)[0]),
    "dm-file": lambda tmp: _with_block_corr(_dm_file_block(tmp)),
}


@pytest.mark.parametrize("steps", [19, 361])
@pytest.mark.parametrize("source", sorted(_CALB_SOURCES))
@pytest.mark.parametrize("angles", [(0.0, math.pi, math.pi / 2),
                                    (math.pi / 4, -math.pi / 2, -math.pi / 4)])
def test_calb_curve_matches_the_scalar_loop_bit_for_bit(tmp_path, source, steps, angles):
    t, corr = _CALB_SOURCES[source](tmp_path)
    thetas = np.linspace(0.0, 2.0 * math.pi, steps)
    curve = calb_curve(t, direction(thetas), *angles)
    assert curve.tolist() == _scalar_calb(corr, thetas, *angles)


def test_calb_curve_of_the_fock_pair_n1_is_its_closed_form():
    # the block (1, 1, 0, 0) gives cu cv + su sv where the closed form was cos(tu - tv)
    thetas = np.linspace(0.0, 2.0 * math.pi, 361)
    angles = (0.0, math.pi, math.pi / 2)
    curve = calb_curve(FockPairSuperposition(1).pseudospin_xz(8)[0], direction(thetas), *angles)
    want = _scalar_calb(lambda tu, tv: math.cos(tu - tv), thetas, *angles)
    assert np.max(np.abs(curve - want)) <= 1e-15


def test_correlation_xz_broadcasts_floats_against_arrays():
    t = (0.9, 0.4, -0.2, 0.1)
    thetas = np.linspace(-3.0, 3.0, 7)
    got = correlation_xz(t, direction(thetas), direction(0.5))
    assert got.tolist() == [correlation_xz(t, direction(tu), direction(0.5)) for tu in thetas]


def test_pair_coherent_sx_discrepancy_report():
    report = pair_coherent_sx_report(1.05, 64)
    # the Bessel-ratio coefficient exceeds 1, impossible for unit-norm dichotomic
    # observables; the Fock expectation stays physical
    assert report.bessel > 1.0
    assert abs(report.fock) <= 1.0
    assert abs(report.difference) > 1e-6
    # independent Schmidt-sum oracle for Tr[rho Sx Sx] = 2 sum c_{2j} c_{2j+1}
    c = schmidt_coefficients(PairCoherent(1.05), 64).coefficients
    oracle = 2.0 * float(np.sum(c[0:-1:2] * c[1::2]))
    assert report.fock == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("cutoff", [8, 16, 32])
def test_schmidt_xz_entries_match_density_matrix(cutoff):
    # T_zz, T_xx, T_xz, T_zx from c_n against correlation_pseudospin on the Fock rho
    for state in (SqueezedVacuum(0.9), FockPairSuperposition(3), PairCoherent(1.05)):
        got = schmidt_coefficients(state, cutoff).xz_block()
        dm = density_matrix(state, cutoff)
        pairs = ((Z_AXIS, Z_AXIS), (X_AXIS, X_AXIS), (X_AXIS, Z_AXIS), (Z_AXIS, X_AXIS))
        want = [correlation_pseudospin(dm, u, v) for u, v in pairs]
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14


def test_schmidt_xz_entries_truncation_bound():
    # an even cutoff keeps the (2k, 2k+1) pairs whole: |E_true - E| <= deficit
    state = SqueezedVacuum(0.96)
    exact = 2.0 * 0.96 / (1.0 + 0.96**2)
    for cutoff in (8, 16, 32, 64):
        schmidt = schmidt_coefficients(state, cutoff)
        t_zz, t_xx, _, _ = schmidt.xz_block()
        assert abs(t_xx - exact) <= schmidt.deficit + 1e-15
        assert abs(t_zz - 1.0) <= schmidt.deficit + 1e-15
    with pytest.raises(DomainError):
        schmidt_coefficients(state, 15).xz_block()
    with pytest.raises(DomainError):
        pair_coherent_sx_report(1.05, 63)


def test_correlation_bounds():
    # |E| <= 1 for unit-norm observables and unit-trace PSD states,
    # up to the truncation deficit
    rng = np.random.default_rng(7)
    states = [SqueezedVacuum(0.9), FockPairSuperposition(2), PairCoherent(1.3)]
    for state in states:
        dm = density_matrix(state, 32)
        for _ in range(4):
            tu, tv = rng.uniform(0.0, 2.0 * math.pi, size=2)
            e_ps = correlation_pseudospin(dm, xz(tu), xz(tv))
            assert abs(e_ps) <= 1.0 + dm.trace_deficit + 1e-12
            probs = sign_binned_closed_form(state, tu, tv)
            assert abs(correlation_tomographic(probs)) <= 1.0 + 1e-12


def test_correlation_tomographic():
    flat = SignBinnedProbs(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    assert correlation_tomographic(flat) == 0.0
    perfect = SignBinnedProbs(0.5, 0.0, 0.0, 0.5, 0.0, 0.0)
    assert correlation_tomographic(perfect) == 1.0
    with pytest.raises(NormalizationError):
        correlation_tomographic(SignBinnedProbs(0.5, 0.5, 0.5, 0.5, 0.0, 0.0))


def test_correlation_tomographic_squeezed_closed_form():
    # E = -(2/pi) arctan(b/N), a function of theta1 + theta2 alone
    state = SqueezedVacuum(math.tanh(1.0))
    probs = sign_binned_closed_form(state, 0.2, -0.2)
    want = -(2.0 / math.pi) * math.atan(math.sinh(2.0))
    assert correlation_tomographic(probs) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# CHSH combination and optimization
# ---------------------------------------------------------------------------


def test_chsh_combination():
    assert chsh(1.0, 1.0, 1.0, 1.0) == 2.0
    assert chsh(0.5, -0.5, 0.25, 0.75) == abs(0.5 - 0.5 + 0.25 - 0.75)


def test_chsh_squeezed_algebraic_reduction():
    # at theta_v = pi/4, theta_u' = -pi/2, theta_v' = -pi/4 the pseudospin
    # combination collapses to sqrt(2) |cos(theta_u) - K|, maximal at
    # theta_u = pi with value sqrt(2) (1 + K), K = 2 lam / (1 + lam^2)
    for lam in (0.2, 0.54, 0.96):
        state = SqueezedVacuum(lam)
        k = 2.0 * lam / (1.0 + lam * lam)
        val = chsh(
            closed_form_correlation(state, math.pi, math.pi / 4),
            closed_form_correlation(state, math.pi, -math.pi / 4),
            closed_form_correlation(state, -math.pi / 2, math.pi / 4),
            closed_form_correlation(state, -math.pi / 2, -math.pi / 4),
        )
        assert val == pytest.approx(math.sqrt(2.0) * (1.0 + k), abs=1e-12)


def test_chsh_squeezed_monotone_in_lambda():
    lams = np.linspace(0.0, 0.999, 25)
    values = []
    for lam in lams:
        state = SqueezedVacuum(float(lam))
        values.append(
            chsh(
                closed_form_correlation(state, math.pi, math.pi / 4),
                closed_form_correlation(state, math.pi, -math.pi / 4),
                closed_form_correlation(state, -math.pi / 2, math.pi / 4),
                closed_form_correlation(state, -math.pi / 2, -math.pi / 4),
            )
        )
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)


def test_maximize_chsh_tsirelson():
    _, val = maximize_chsh(lambda t1, t2: math.cos(t1 - t2))
    assert val == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


def test_maximize_chsh_product_form():
    _, val = maximize_chsh(lambda t1, t2: math.cos(t1) * math.cos(t2))
    assert val == pytest.approx(2.0, abs=1e-6)


def test_maximize_chsh_grid_ties_go_to_the_first_cell():
    # E(theta1 + theta2) makes many grid cells tie; last-digit noise must not pick the start
    rng = np.random.default_rng(7)
    clean, _ = maximize_chsh(lambda t1, t2: math.cos(t1 + t2), max_iter=0)
    noisy, _ = maximize_chsh(
        lambda t1, t2: math.cos(t1 + t2) * (1.0 + 1e-15 * rng.standard_normal()), max_iter=0
    )
    assert noisy == clean and clean.theta1 == 0.0


def test_maximize_chsh_grid_value_is_the_scalar_chsh_maximum():
    # the lattice sums E(a,b) + E(a,b') + E(a',b) - E(a',b') in chsh's order, so the
    # grid maximum is the largest scalar chsh value bit for bit, on random tables
    # (cosines: uniform draws on a 2^-52 grid would add exactly in any order)
    rng = np.random.default_rng(11)
    g = 6
    step = 2.0 * math.pi / g
    for _ in range(20):
        table = np.cos(rng.uniform(0.0, 2.0 * math.pi, size=(g, g)))
        want = max(chsh(table[i, k], table[i, m], table[j, k], table[j, m])
                   for i in range(g) for j in range(g) for k in range(g) for m in range(g))
        found = maximize_chsh(lambda t1, t2: table[round(t1 / step), round(t2 / step)],
                              grid_points=g, max_iter=0)
        assert found.value == want


def test_maximize_chsh_random_product_forms_stay_local():
    # E(t1, t2) = f(t1) g(t2) with |f|, |g| <= 1 admits a local model
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        cf = rng.uniform(-1.0, 1.0, size=3)
        cg = rng.uniform(-1.0, 1.0, size=3)
        cf /= np.sum(np.abs(cf))
        cg /= np.sum(np.abs(cg))

        def f(t, c=cf):
            return c[0] + c[1] * math.cos(t) + c[2] * math.sin(2.0 * t)

        def g(t, c=cg):
            return c[0] + c[1] * math.cos(t) + c[2] * math.sin(2.0 * t)

        _, val = maximize_chsh(lambda t1, t2: f(t1) * g(t2), grid_points=16)
        assert val <= 2.0 + 1e-6


def test_maximize_chsh_rejects_non_finite():
    with pytest.raises(AccuracyError):
        maximize_chsh(lambda t1, t2: math.nan, grid_points=4)


def _pair_coherent_chsh_objective(x):
    state = PairCoherent(1.1)

    def corr(t1, t2):
        return correlation_tomographic(sign_binned_closed_form(state, t1, t2))

    return -chsh(corr(x[0], x[2]), corr(x[0], x[3]), corr(x[1], x[2]), corr(x[1], x[3]))


def _scipy_nelder_mead(func, x0, max_iter, callback=None):
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize(
        func, x0, method="Nelder-Mead", callback=callback,
        options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": max_iter, "maxfev": max_iter},
    )


def _assert_same_run(func, x0, max_iter):
    want = _scipy_nelder_mead(func, x0, max_iter)
    got = _nelder_mead(func, x0, 1e-9, 1e-13, max_iter)
    assert np.array_equal(got.x, want.x) and got.fun == want.fun
    assert (got.evaluations, got.iterations) == (want.nfev, want.nit)
    assert got.converged == (want.status == 0)
    return got


# the 24-point grid cell that maximize_chsh starts from for PairCoherent(1.1)
CHSH_START = list(np.array([0, 6, 9, 15]) * (2.0 * math.pi / 24))


@pytest.mark.parametrize("func, x0", [
    ("rosen", [1.3, 0.7, 0.8, 1.9]),
    ("rosen", [0.0, 0.7, 0.0, 1.9]),  # zero coordinates take the 0.00025 step
    ("chsh", CHSH_START),
])
def test_nelder_mead_matches_scipy_bit_for_bit(func, x0):
    if func == "rosen":
        func = pytest.importorskip("scipy.optimize").rosen
    else:
        func = _pair_coherent_chsh_objective
    got = _assert_same_run(func, np.array(x0), 4000)
    assert got.converged


def test_nelder_mead_budget_ends_partway_through_a_shrink():
    # evaluation counts at each iteration's end locate the first shrink (2 + 4 calls)
    calls, marks = [0], []

    def counted(x):
        calls[0] += 1
        return _pair_coherent_chsh_objective(x)

    _scipy_nelder_mead(counted, np.array(CHSH_START), 4000,
                       callback=lambda intermediate_result: marks.append(calls[0]))
    k = next(k for k in range(1, len(marks)) if marks[k] - marks[k - 1] > 2)
    assert marks[k] - marks[k - 1] == 6
    # one reflection, one contraction and one shrunk vertex; the next vertex is refused
    got = _assert_same_run(_pair_coherent_chsh_objective, np.array(CHSH_START), marks[k - 1] + 3)
    assert not got.converged and got.evaluations == marks[k - 1] + 3


def test_maximize_chsh_reports_its_refinement():
    found = maximize_chsh(lambda t1, t2: math.cos(t1 - t2), max_iter=20)
    angles, value = found
    assert (angles, value) == (found.angles, found.value)
    assert found.refine.evaluations == 20 and not found.refine.converged
    assert maximize_chsh(lambda t1, t2: math.cos(t1 - t2)).refine.converged
    assert maximize_chsh(lambda t1, t2: math.cos(t1 - t2), max_iter=0).refine.evaluations == 0


def test_bell_angles_reduced():
    angles = BellAnglesQuadrature(-math.pi, 5.0 * math.pi, 0.5, -0.5)
    red = angles.reduced()
    for v in (red.theta1, red.theta1p, red.theta2, red.theta2p):
        assert 0.0 <= v < 2.0 * math.pi
    with pytest.raises(DomainError):
        BellAnglesQuadrature(math.inf, 0.0, 0.0, 0.0)


def test_bell_angles_pairs_order():
    angles = BellAnglesQuadrature(1.0, 2.0, 3.0, 4.0)
    assert angles.pairs() == ((1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0))
