"""Benchmark states: Schmidt vectors, density matrices, Wigner functions."""

import ast
import importlib.util
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import tomobell
from tomobell.bell import closed_form_correlation, density_xz_entries
from tomobell.cli import main
from tomobell.errors import ConfigError, DimensionError, DomainError, UnsupportedStateError
from tomobell.special import bessel_i0, gauss_legendre, laguerre
from tomobell.states import (
    DensityMatrix,
    FockPairSuperposition,
    PairCoherent,
    SqueezedVacuum,
    TwoModeState,
    density_matrix,
    schmidt_coefficients,
    significant_schmidt,
    wigner,
)
from tomobell.tomography import radon_forward, tomogram_closed_form

from oracles import RandomSchmidt, schmidt_wigner

BENCHMARKS = [
    SqueezedVacuum(math.tanh(0.5)),
    FockPairSuperposition(1),
    FockPairSuperposition(3),
    PairCoherent(1.05),
]


# ---------------------------------------------------------------------------
# state parameter validation
# ---------------------------------------------------------------------------


def test_parameter_ranges():
    with pytest.raises(DomainError):
        SqueezedVacuum(1.0)
    with pytest.raises(DomainError):
        SqueezedVacuum(-0.1)
    with pytest.raises(DomainError):
        FockPairSuperposition(0)
    with pytest.raises(DomainError):
        PairCoherent(0.0)
    SqueezedVacuum(0.0)  # vacuum is allowed


# ---------------------------------------------------------------------------
# Schmidt coefficients
# ---------------------------------------------------------------------------


def test_schmidt_vacuum():
    coeffs = schmidt_coefficients(SqueezedVacuum(0.0), 8).coefficients
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)


def test_schmidt_fock_pair():
    coeffs = schmidt_coefficients(FockPairSuperposition(1), 6).coefficients
    assert coeffs[0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert coeffs[1] == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.all(coeffs[2:] == 0.0)


def test_schmidt_pair_coherent_normalization():
    # sum_n r^{4n} / (n!)^2 = I0(2 r^2) makes the weights sum to 1
    r = 1.05
    totals = [
        float(np.sum(schmidt_coefficients(PairCoherent(r), cut).coefficients ** 2))
        for cut in (4, 8, 16, 32)
    ]
    assert totals == sorted(totals)
    assert totals[-1] == pytest.approx(1.0, abs=1e-12)
    raw = np.array([r ** (2 * n) / math.factorial(n) for n in range(32)])
    assert np.sum(raw**2) == pytest.approx(bessel_i0(2.0 * r * r), rel=1e-12)


def test_schmidt_rejects_explicit_fock():
    with pytest.raises(UnsupportedStateError):
        schmidt_coefficients(TwoModeState(), 4)


def test_squeezed_vacuum_truncation_tail():
    # geometric tail: deficit at cutoff N is lambda^{2N}
    lam = 0.96
    vec = schmidt_coefficients(SqueezedVacuum(lam), 200)
    assert vec.deficit < 1e-6
    assert vec.deficit == pytest.approx(lam**400, rel=1e-9)


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------


def dense(dm):
    """The (cutoff^2, cutoff^2) array of a small density matrix."""
    dim = dm.cutoff**2
    out = np.zeros((dim, dim), dtype=complex)
    out[dm.rows, dm.cols] = dm.values
    return out


def test_density_matrix_vacuum_projector():
    dm = density_matrix(SqueezedVacuum(0.0), 4)
    want = np.zeros((16, 16))
    want[0, 0] = 1.0
    assert np.allclose(dense(dm), want)
    assert dm.trace_deficit == 0.0


def test_density_matrix_fock_pair_projector():
    dm = density_matrix(FockPairSuperposition(1), 3)
    assert np.count_nonzero(np.abs(dm.values) > 1e-15) == 4
    idx = [0 * 3 + 0, 1 * 3 + 1]
    for i in idx:
        for j in idx:
            assert dense(dm)[i, j] == pytest.approx(0.5)


@pytest.mark.parametrize("state", BENCHMARKS)
@pytest.mark.parametrize("cutoff", [4, 8, 16])
def test_density_matrix_invariants(state, cutoff):
    dm = density_matrix(state, cutoff)
    rho = dense(dm)
    herm = np.max(np.abs(rho - rho.conj().T))
    assert herm <= 1e-12
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() >= -1e-10
    assert dm.trace() + dm.trace_deficit == pytest.approx(1.0, abs=1e-9)


def test_density_matrix_deficit_matches_schmidt():
    state = SqueezedVacuum(0.96)
    dm = density_matrix(state, 16)
    assert dm.trace_deficit == pytest.approx(
        schmidt_coefficients(state, 16).deficit, abs=1e-12
    )


def test_density_matrix_validation_errors(tmp_path):
    cases = [
        (2, [[0, 0, 1.0, 0.0], [0, 1, 1.0, 0.0]], DomainError),  # not hermitian
        (2, [[0, 0, 0.5, 0.0]], DomainError),  # trace + deficit != 1
        (2, [[-1, -1, 1.0, 0.0]], DimensionError),  # index below 0
        (2, [[7, 7, 1.0, 0.0]], DimensionError),  # index past cutoff^2 = 4
        (2, [[0, 0, 0.5, 0.0], [0, 0, 1.0, 0.0]], DomainError),  # (0, 0) listed twice
        (2, [[1.5, 1.5, 1.0, 0.0]], DomainError),  # fractional index, once truncated to (1, 1)
        (2.7, [[0, 0, 1.0, 0.0]], DomainError),  # fractional cutoff, once truncated to 2
    ]
    path, out = tmp_path / "rho.json", str(tmp_path / "ps.csv")
    for cutoff, entries, error in cases:
        rows, cols, re, im = np.array(entries).T
        with pytest.raises(error):
            DensityMatrix(cutoff, rows, cols, re + 1j * im, 0.0)
        path.write_text(json.dumps({"cutoff": cutoff, "entries": entries, "trace_deficit": 0.0}))
        result = CliRunner().invoke(main, ["pseudospin", "--dm", str(path), "-o", out])
        assert result.exit_code == 2, entries
        assert "configuration error:" in result.stderr
    with pytest.raises(DimensionError):
        DensityMatrix(2, [0, 0], [0], [0.5], 0.5)  # rows, cols and values differ in length


def test_density_matrix_json_roundtrip(tmp_path):
    dm = density_matrix(PairCoherent(0.8), 6)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(dm.to_json_dict()))
    back = DensityMatrix.load(str(path))
    assert back.cutoff == dm.cutoff
    assert back.trace_deficit == pytest.approx(dm.trace_deficit)
    assert np.array_equal(back.rows, dm.rows) and np.array_equal(back.cols, dm.cols)
    assert np.allclose(back.values, dm.values)


def test_density_matrix_workspace_is_bounded():
    # the matrix holds only its nonzero entries; the dense (4096, 4096) complex
    # array it replaced peaked at 384 MiB here
    tracemalloc.start()
    try:
        density_xz_entries(density_matrix(PairCoherent(1.05), 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_partial_trace_thermal_weights():
    lam = 0.54
    dm = density_matrix(SqueezedVacuum(lam), 12)
    rho = np.zeros((144, 144), dtype=complex)
    rho[dm.rows, dm.cols] = dm.values
    rho4 = rho.reshape(12, 12, 12, 12)
    want = np.diag((1.0 - lam**2) * lam ** (2.0 * np.arange(12)))
    assert np.allclose(np.einsum("abcb->ac", rho4), want, atol=1e-14)
    assert np.allclose(np.einsum("abad->bd", rho4), want, atol=1e-14)


# ---------------------------------------------------------------------------
# Wigner functions
# ---------------------------------------------------------------------------


def test_wigner_vacuum_origin():
    # per-mode convention W = (2/pi) exp(-2 q^2 - 2 p^2) for the vacuum
    val = wigner(SqueezedVacuum(0.0), 0.0, 0.0, 0.0, 0.0)
    assert val == pytest.approx(4.0 / math.pi**2, rel=1e-14)
    val_off = wigner(SqueezedVacuum(0.0), 0.5, -0.2, 0.1, 0.3)
    want = (4.0 / math.pi**2) * math.exp(-2.0 * (0.25 + 0.04 + 0.01 + 0.09))
    assert val_off == pytest.approx(want, rel=1e-13)


def test_wigner_fock_pair_is_real_and_finite():
    state = FockPairSuperposition(2)
    grid = np.linspace(-2.0, 2.0, 5)
    vals = wigner(state, grid[:, None], 0.3, grid[None, :], -0.7)
    assert np.all(np.isfinite(vals))
    assert vals.dtype.kind == "f"


def fock_pair_wigner_oracle(n, q1, p1, q2, p2):
    """(2/pi^2) [1 + L_n(4|a1|^2) L_n(4|a2|^2) + 2 (4^n / n!) Re (a1 a2)^n] g1 g2, a = q - i p."""
    cross = 2.0 * (4.0**n / math.factorial(n)) * (((q1 - 1j * p1) * (q2 - 1j * p2)) ** n).real
    lag = laguerre(n, 4.0 * (q1**2 + p1**2)) * laguerre(n, 4.0 * (q2**2 + p2**2))
    gauss = np.exp(-2.0 * (q1**2 + p1**2 + q2**2 + p2**2))
    return (2.0 / math.pi**2) * (1.0 + cross + lag) * gauss


def pair_coherent_wigner_oracle(r, q1, p1, q2, p2, order):
    """The pair-coherent double angular integral, each two-mode exponent formed in one exp."""
    phi = np.arange(order) * (2.0 * math.pi / order)
    a1 = (q1 - 1j * p1)[..., None, None]
    a2 = (q2 - 1j * p2)[..., None, None]
    eip, eik = np.exp(1j * phi)[:, None], np.exp(1j * phi)[None, :]
    exponent = (
        2.0 * r * (a1 * eip + a2 / eip + a1.conj() / eik + a2.conj() * eik)
        - 2.0 * r * r * np.cos(phi[:, None] - phi[None, :])
    )
    angular = np.exp(exponent).sum(axis=(-2, -1)).real * (2.0 * math.pi / order) ** 2
    gauss = np.exp(-2.0 * (q1**2 + p1**2 + q2**2 + p2**2))
    return angular * gauss / (math.pi**4 * bessel_i0(2.0 * r * r))


def test_wigner_factor_form_matches_direct_sums():
    rng = np.random.default_rng(5)
    q1, p1, q2, p2 = rng.normal(scale=1.0, size=(4, 40))
    for n in (1, 3, 8, 20):
        got = wigner(FockPairSuperposition(n), q1, p1, q2, p2)
        assert np.max(np.abs(got - fock_pair_wigner_oracle(n, q1, p1, q2, p2))) < 1e-14
    for r in (0.5, 1.05, 2.0):
        got = wigner(PairCoherent(r), q1, p1, q2, p2, angular_order=32)
        want = pair_coherent_wigner_oracle(r, q1, p1, q2, p2, 32)
        assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize(
    "state",
    [FockPairSuperposition(1), FockPairSuperposition(3), FockPairSuperposition(8),
     PairCoherent(0.5), PairCoherent(1.05), PairCoherent(2.0),
     RandomSchmidt(1, 6), RandomSchmidt(2, 9), RandomSchmidt(3, 16)],
    ids=repr,
)
def test_wigner_is_the_fock_basis_sum_over_the_schmidt_vector(state):
    # for the pair-coherent state this checks its Schmidt coefficients against
    # its angular-integral Wigner function; at r = 2, c_48 is below 1e-32.  The
    # other states take the package's own Fock-basis sum, here against scipy's
    # Laguerre polynomials, with c_n of both signs for the random vectors
    rng = np.random.default_rng(29)
    q1, p1, q2, p2 = rng.normal(scale=1.0, size=(4, 40))
    want = schmidt_wigner(state.schmidt(48), q1, p1, q2, p2)
    assert np.max(np.abs(wigner(state, q1, p1, q2, p2) - want)) < 1e-13


def test_wigner_pair_coherent_default_rule_holds_at_r_8():
    # |W| <= (2/pi)^2, the value at the origin; 400 points over the central
    # half of the Radon box, where a fixed order 128 was off by ~1e-14 of that
    # peak at r = 8 and by ~1e-10 at r = 10
    state = PairCoherent(8.0)
    half = 0.5 * significant_schmidt(state).half_width
    points = np.random.default_rng(31).uniform(-half, half, size=(4, 400))
    fine = wigner(state, *points, angular_order=512)
    assert np.max(np.abs(wigner(state, *points) - fine)) <= 1e-12 * 4.0 / math.pi**2


def test_pair_coherent_angular_order_grows_with_r():
    orders = [PairCoherent(r).angular_order for r in (0.1, 0.5, 1.0, 2.0, 6.5, 8.0, 12.0, 13.0)]
    assert orders == [16, 24, 32, 48, 128, 160, 280, 312]
    assert PairCoherent(1.0).wigner_factors().angular_order == 32
    assert PairCoherent(1.0).wigner_factors(64).angular_order == 64


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 12.0, 13.0])
def test_wigner_pair_coherent_default_rule_matches_1024_nodes_on_the_radon_lines(r):
    # points on the Radon check's lines: |X| <= 2, |t| <= their half-width, random
    # angles per mode.  A fixed 128-node rule missed by 4.7e-8 of the peak at
    # r = 12; a 1e-17 aliasing bound in place of 1e-20 (40 nodes) by 1.5e-14 at r = 2
    state = PairCoherent(r)
    rng = np.random.default_rng(37)
    x = rng.uniform(-2.0, 2.0, (2, 500))
    half = significant_schmidt(state).half_width
    t = rng.uniform(-half, half, (2, 500))
    theta = rng.uniform(0.0, 2.0 * math.pi, (2, 500))
    c, s = np.cos(theta), np.sin(theta)
    q, p = x * c - t * s, x * s + t * c
    default = wigner(state, q[0], p[0], q[1], p[1])
    fine = wigner(state, q[0], p[0], q[1], p[1], angular_order=1024)
    assert np.max(np.abs(default - fine)) <= 1e-15 * 4.0 / math.pi**2


def test_wigner_pair_coherent_refuses_r_past_the_rounding_limit():
    # at r = 14 orders 512, 1024 and 2048 disagreed by up to 3e-4 of the peak
    wigner(PairCoherent(13.0), 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="r <= 13"):
        wigner(PairCoherent(13.01), 0.0, 0.0, 0.0, 0.0)


def test_wigner_workspace_is_bounded():
    # the factor arrays are built a block of MAX_BLOCK complex entries at a
    # time; with blocks of 2^22 entries this call peaked at 225 MiB
    state = PairCoherent(1.05)
    points = np.random.default_rng(5).uniform(-2.0, 2.0, (4, 40_000))
    tracemalloc.start()
    try:
        vals = wigner(state, *points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    spot = [wigner(state, *point) for point in points[:, ::9999].T]
    assert np.max(np.abs(vals[::9999] - spot)) < 1e-15


def test_wigner_factors_shapes():
    q = np.zeros((2, 3))
    for state, shape in ((FockPairSuperposition(2), (3, 1)), (PairCoherent(1.0), (20, 20))):
        factors = state.wigner_factors(20)
        assert factors.coupling.shape == shape
        for mode in (0, 1):
            left, right = factors.mode(mode, q, q)
            assert left.shape == (2, 3, shape[0]) and right.shape == (2, 3, shape[1])
    with pytest.raises(UnsupportedStateError):
        SqueezedVacuum(0.5).wigner_factors()


@pytest.mark.parametrize("n", [171, 200])
def test_wigner_fock_pair_beyond_factorial_overflow(n):
    # 4^n / n! overflows from n = 171 on; |W| <= (2/pi)^2 for every pure state
    state = FockPairSuperposition(n)
    vals = np.array([wigner(state, 0.1, 0.2, 0.3, 0.1), wigner(state, 6.0, 3.0, -5.0, 4.0)])
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 4.0 / math.pi**2
    far = wigner(state, 150.0, 0.0, 150.0, 0.0)
    assert far == 0.0


def test_wigner_pair_coherent_origin_parity():
    # W(0) = (2/pi)^2 <Pi_1 Pi_2> = 4/pi^2 for any Schmidt-diagonal state
    val = wigner(PairCoherent(1.05), 0.0, 0.0, 0.0, 0.0)
    assert val == pytest.approx(4.0 / math.pi**2, rel=1e-10)


@pytest.mark.parametrize(
    "state,half,order",
    [
        (SqueezedVacuum(math.tanh(0.5)), 4.5, 32),
        # s = 1 squeezes one quadrature to sigma ~ 0.18; needs the finer rule
        (SqueezedVacuum(math.tanh(1.0)), 6.0, 64),
        (FockPairSuperposition(1), 4.0, 32),
        (FockPairSuperposition(5), 4.5, 32),
        (PairCoherent(1.05), 4.0, 24),
        (PairCoherent(1.5), 4.5, 24),
    ],
)
def test_wigner_normalization(state, half, order):
    rule = gauss_legendre(order, -half, half)
    x = rule.nodes
    q1, p1, q2, p2 = np.meshgrid(x, x, x, x, indexing="ij")
    vals = wigner(state, q1, p1, q2, p2, angular_order=64)
    w = rule.weights
    integral = float(np.einsum("i,j,k,l,ijkl->", w, w, w, w, vals))
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_wigner_rejects_explicit_fock_and_low_order():
    with pytest.raises(UnsupportedStateError):
        wigner(TwoModeState(), 0, 0, 0, 0)
    with pytest.raises(ConfigError):
        wigner(PairCoherent(1.0), 0, 0, 0, 0, angular_order=8)


@pytest.mark.parametrize(
    "state", [FockPairSuperposition(3), SqueezedVacuum(0.5), PairCoherent(1.0)]
)
def test_every_state_rejects_an_angular_order_below_16(state):
    # the Fock pair and the squeezed vacuum have no angular rule to use the order on,
    # yet are held to the pair-coherent state's bound
    with pytest.raises(ConfigError, match="got -5"):
        wigner(state, 0.1, 0.2, 0.3, 0.4, angular_order=-5)
    if not state.gaussian:
        with pytest.raises(ConfigError, match="got 15"):
            state.wigner_factors(15)
    assert wigner(state, 0.1, 0.2, 0.3, 0.4, angular_order=16) == pytest.approx(
        wigner(state, 0.1, 0.2, 0.3, 0.4), rel=1e-6)


@pytest.mark.parametrize(
    "call",
    [
        lambda state: schmidt_coefficients(state, 4),
        lambda state: wigner(state, 0.0, 0.0, 0.0, 0.0),
        lambda state: radon_forward(state, 0.0, 0.0, 0.0, 0.0),
        lambda state: tomogram_closed_form(state, 0.0, 0.0, 0.0, 0.0),
        lambda state: closed_form_correlation(state, 0.0, 0.0),
    ],
    ids=["schmidt_coefficients", "wigner", "radon_forward", "tomogram_closed_form",
         "closed_form_correlation"],
)
def test_explicit_fock_lacks_the_benchmark_facts(call):
    # the bare base class stands for any state that is not a benchmark state
    with pytest.raises(UnsupportedStateError):
        call(TwoModeState())


def test_only_states_py_tells_the_state_classes_apart():
    # the state kinds' facts live on the classes, so no module tests a state's type
    state_classes = {cls.__name__ for cls in TwoModeState.__subclasses__()} | {"TwoModeState"}
    sites = []
    for path in sorted(pathlib.Path(tomobell.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                        and len(node.args) == 2):
                    named = {getattr(n, "id", getattr(n, "attr", None))
                             for n in ast.walk(node.args[1])}
                    if named & state_classes:
                        sites.append((path.name, getattr(top, "name", None)))
    assert sites == []


def test_every_module_level_name_runs_in_the_package():
    # test-only code lives in tests/oracles.py: each module-level function and
    # class of src/tomobell is named by another part of the package, is a click
    # command, or is a name that bench/tracer.py wraps
    root = pathlib.Path(tomobell.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("bench_tracer", root / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    kept = {(module, name) for module, names in tracer.TARGETS.items() for name in names}
    kept.add(("sampling", "estimate_chsh"))  # the public entry point that no module calls
    defined, named = [], set()
    for path in sorted(pathlib.Path(tomobell.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            named |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(top)} - {own}
            command = any(getattr(getattr(d, "func", d), "attr", None) == "command"
                          for d in getattr(top, "decorator_list", []))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not command:
                defined.append((path.stem, top.name))
    unused = [f"{module}.{name}" for module, name in defined
              if name not in named and (module, name) not in kept]
    assert unused == []
