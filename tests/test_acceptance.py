"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Reference values marked "first validated run" were produced by the
bisection/optimization routines of this package at quadrature order 128 and
are frozen here as regression anchors.
"""

import math
import time

import numpy as np
import pytest

from tomobell import bell
from tomobell import sampling as smp
from tomobell import states as st
from tomobell import tomography as tg
from tomobell.special import gauss_legendre

from oracles import inverse_fourier_wigner, pair_coherent_integral_direct

FIG3A = bell.BellAnglesQuadrature(math.pi / 2, 0.0, -math.pi / 4, -3 * math.pi / 4)

# first validated run (bisection of B(r) - 2 at quadrature order 128,
# stable to < 1e-6 against order 192)
VIOLATION_R_LOW = 0.959217269
VIOLATION_R_HIGH = 1.413264136
VIOLATION_B_AT_105 = 2.054910985


def _report(num, description):
    class _Reporter:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {num:02d}] {verdict} ({elapsed:.2f} s) {description}")
            return False

    return _Reporter()


def _tomographic_b(state, angles):
    corr = tg.sign_correlation(state)
    return bell.chsh(*[corr(a, b) for a, b in angles.pairs()])


def test_criterion_01_pseudospin_algebra():
    with _report(1, "pseudospin spin-1/2 algebra exact at cutoffs {2, 4, 64}"):
        start = time.perf_counter()
        for cutoff in (2, 4, 64):
            ops = bell.pseudospin_matrices(cutoff)
            defect = np.max(np.abs(ops.sx @ ops.sy - ops.sy @ ops.sx - 2j * ops.sz))
            assert defect <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_squeezed_forward_consistency():
    with _report(2, "closed-form squeezed tomogram = Radon projection to 1e-6"):
        start = time.perf_counter()
        xs = np.linspace(-2.0, 2.0, 9)
        worst = 0.0
        for s in (0.25, 0.5, 1.0):
            state = st.SqueezedVacuum(math.tanh(s))
            for theta_sum in (0.0, math.pi / 4, math.pi / 2):
                t1 = 0.2
                t2 = theta_sum - t1
                closed = tg.tomogram_closed_form(state, xs[:, None], t1, xs[None, :], t2)
                radon = tg.radon_forward(state, xs[:, None], t1, xs[None, :], t2)
                worst = max(worst, float(np.max(np.abs(closed - radon))))
        assert worst <= 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_03_probabilities_never_exceed_half():
    with _report(3, "w_pp/w_pm/w_mp/w_mm <= 1/2 for examples A and B on a 360-point grid"):
        grid = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        states = [st.SqueezedVacuum(lam) for lam in (0.20, 0.54, 0.96)]
        states += [st.FockPairSuperposition(n) for n in (1, 3, 5)]
        for state in states:
            worst = max(
                max(tg.sign_binned_closed_form(state, s, 0.0).as_tuple()) for s in grid
            )
            assert worst <= 0.5 + 1e-9


def test_criterion_04_tomographic_chsh_never_violated():
    with _report(4, "max tomographic CHSH <= 2 + 1e-6 for examples A and B"):
        for state in (
            st.SqueezedVacuum(0.54),
            st.SqueezedVacuum(0.96),
            st.FockPairSuperposition(1),
            st.FockPairSuperposition(3),
        ):
            _, value = bell.maximize_chsh(tg.sign_correlation(state))
            assert value <= 2.0 + 1e-6


def test_criterion_05_squeezed_pseudospin_maximum():
    with _report(5, "max_u calB = sqrt(2)(1 + 2 lam/(1 + lam^2)) at the Fig-1b angles"):
        tu_grid = np.linspace(0.0, 2.0 * math.pi, 721)  # includes theta_u = pi
        for lam, extra in ((0.96, None), (0.999, 2.0 * math.sqrt(2.0))):
            state = st.SqueezedVacuum(lam)
            values = [
                bell.chsh(
                    bell.closed_form_correlation(state, tu, math.pi / 4),
                    bell.closed_form_correlation(state, tu, -math.pi / 4),
                    bell.closed_form_correlation(state, -math.pi / 2, math.pi / 4),
                    bell.closed_form_correlation(state, -math.pi / 2, -math.pi / 4),
                )
                for tu in tu_grid
            ]
            best = max(values)
            formula = math.sqrt(2.0) * (1.0 + 2.0 * lam / (1.0 + lam * lam))
            assert best == pytest.approx(formula, abs=1e-8)
            if extra is not None:
                assert best == pytest.approx(extra, abs=1e-3)


def test_criterion_06_fock_pair_optimizer():
    with _report(6, "optimizer: n = 1 reaches 2 sqrt(2); n >= 2 closed form peaks at 2"):
        state1 = st.FockPairSuperposition(1)
        _, val1 = bell.maximize_chsh(
            lambda tu, tv: bell.closed_form_correlation(state1, tu, tv)
        )
        assert val1 == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-4)
        for n in (2, 3):
            state = st.FockPairSuperposition(n)
            _, val = bell.maximize_chsh(
                lambda tu, tv: bell.closed_form_correlation(state, tu, tv)
            )
            assert val == pytest.approx(2.0, abs=1e-6)


def test_criterion_07_angular_integral_series_identity():
    with _report(7, "direct angular integral = Hermite series to 1e-8"):
        start = time.perf_counter()
        worst = 0.0
        for r in (0.5, 1.0, 1.5):
            for x1 in (-3.0, 0.0, 3.0):
                for x2 in (-3.0, 0.0, 3.0):
                    for k in range(8):
                        phi0 = k * math.pi / 4.0
                        direct = pair_coherent_integral_direct(
                            x1, 2.0 * phi0, x2, 0.0, r, order=512
                        )
                        series = tg.pair_coherent_integral_series(x1, x2, phi0, r)
                        worst = max(worst, abs(direct - series))
        assert worst <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_08_pair_coherent_tomographic_violation():
    with _report(8, "B(r) > 2 inside the recorded interval at the Fig-3a angles"):
        def b_of_r(rv):
            return _tomographic_b(st.PairCoherent(rv), FIG3A)

        sweep = [0.3 + 0.05 * i for i in range(25)]
        values = [b_of_r(rv) for rv in sweep]
        violating = [rv for rv, bv in zip(sweep, values) if bv > 2.0]
        assert violating, "no violation found in (0.3, 1.5)"
        assert values[0] < 2.0 and values[-1] < 2.0  # bounded range

        def bisect(lo, hi):
            flo = b_of_r(lo) - 2.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if ((b_of_r(mid) - 2.0) > 0) == (flo > 0):
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-6:
                    break
            return 0.5 * (lo + hi)

        low = bisect(0.90, 1.00)
        high = bisect(1.40, 1.45)
        assert low == pytest.approx(VIOLATION_R_LOW, abs=1e-3)
        assert high == pytest.approx(VIOLATION_R_HIGH, abs=1e-3)
        assert b_of_r(1.05) == pytest.approx(VIOLATION_B_AT_105, abs=1e-6)


def test_criterion_09_pair_coherent_pseudospin_crosscheck():
    with _report(9, "Bessel-ratio c(r) vs Fock oracle reported; Fig-3b calB > 2 with the oracle"):
        report = bell.pair_coherent_sx_report(1.05, 64)
        if abs(report.difference) <= 1e-6:
            coeff = report.bessel
        else:
            # discrepancy path: the report carries both values and the
            # Fock expectation feeds the Fig-3b dataset
            assert report.bessel > 1.0
            assert abs(report.fock) <= 1.0
            coeff = report.fock
        dm = st.density_matrix(st.PairCoherent(1.05), 64)
        zval = bell.correlation_pseudospin(dm, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])

        def corr(tu, tv):
            return zval * math.cos(tu) * math.cos(tv) + coeff * math.sin(tu) * math.sin(tv)

        tu_grid = np.linspace(0.0, 2.0 * math.pi, 721)
        best = max(
            bell.chsh(corr(tu, 0.0), corr(tu, math.pi / 2),
                      corr(math.pi, 0.0), corr(math.pi, math.pi / 2))
            for tu in tu_grid
        )
        assert best > 2.0


def test_criterion_10_monte_carlo_soundness():
    with _report(10, "10^5-sample batches within 4 sigma; 2-sigma coverage in [0.90, 0.99]"):
        start = time.perf_counter()
        cases = [
            (st.SqueezedVacuum(math.tanh(1.0)), 0.3, -0.3),
            (st.FockPairSuperposition(1), 0.4, 0.2),
            (st.PairCoherent(1.05), 0.9, 0.4),
        ]
        for state, t1, t2 in cases:
            batch = smp.sample_state(state, t1, t2, 100_000, seed=20240817)
            est = smp.estimate_probs(batch)
            truth = tg.sign_binned_closed_form(state, t1, t2)
            for got, se, want in zip(est.probs.as_tuple(), est.errors(), truth.as_tuple()):
                assert abs(got - want) < 4.0 * se

        truth_pp = tg.sign_binned_closed_form(st.SqueezedVacuum(math.tanh(1.0)), 0.3, -0.3).w_pp
        hits = 0
        for seed in range(50):
            b = smp.sample_gaussian_epr(1.0, 0.3, -0.3, 20_000, seed=1000 + seed)
            e = smp.estimate_probs(b)
            hits += abs(e.probs.w_pp - truth_pp) <= 2.0 * e.se_pp
        assert 0.90 <= hits / 50 <= 0.99
        assert time.perf_counter() - start < 60.0


def test_criterion_11_reconstruction_sanity():
    with _report(11, "inverse Fourier vacuum within 1%; kernel rho00 and rho11 to 1e-9"):
        x = np.linspace(-6.0, 6.0, 241)
        theta = np.linspace(0.0, math.pi, 48, endpoint=False)
        vac = np.repeat(tg.fock_quadrature_density(0, x)[:, None], theta.size, axis=1)
        q = np.linspace(-2.5, 2.5, 51)
        wig, _ = inverse_fourier_wigner(vac, x, theta, q, q)
        assert wig[25, 25] == pytest.approx(2.0 / math.pi, rel=0.01)

        rho_vac, _ = tg.kernel_reconstruct_density(
            lambda xv, t=0.0: tg.fock_quadrature_density(0, xv, t), 6
        )
        assert rho_vac[0, 0].real == pytest.approx(1.0, abs=1e-9)
        rho_ph, _ = tg.kernel_reconstruct_density(
            lambda xv, t=0.0: tg.fock_quadrature_density(1, xv, t), 6
        )
        assert rho_ph[1, 1].real == pytest.approx(1.0, abs=1e-9)


def test_criterion_12_normalization_suite():
    with _report(12, "tomograms integrate to 1 (1e-6); probabilities and traces to 1e-9"):
        # integration boxes sized to each state's quadrature spread: at
        # lambda = 0.96 the wide principal axis has sigma ~ 2.5 and the
        # narrow one ~ 0.07, hence the large box and dense rule
        cases = [
            (st.SqueezedVacuum(0.54), 6.0, 160),
            (st.SqueezedVacuum(0.96), 14.0, 640),
            (st.FockPairSuperposition(1), 6.0, 160),
            (st.FockPairSuperposition(5), 6.0, 160),
            (st.PairCoherent(1.05), 6.0, 160),
        ]
        for state, half, order in cases:
            rule = gauss_legendre(order, -half, half)
            xg, wg = rule.nodes, rule.weights
            vals = tg.tomogram_closed_form(state, xg[:, None], 0.7, xg[None, :], -0.2)
            assert float(wg @ vals @ wg) == pytest.approx(1.0, abs=1e-6)
        states = [case[0] for case in cases]

        # numeric Radon tomogram of example A integrates to 1 as well
        a_state = st.SqueezedVacuum(math.tanh(0.5))
        small = gauss_legendre(48, -4.0, 4.0)
        radon_vals = tg.radon_forward(
            a_state, small.nodes[:, None], 0.4, small.nodes[None, :], -0.1
        )
        assert float(small.weights @ radon_vals @ small.weights) == pytest.approx(
            1.0, abs=1e-6
        )

        for state in states:
            for theta_sum in (0.0, 0.9, 2.1, 4.4):
                probs = tg.sign_binned_closed_form(state, theta_sum, 0.0)
                assert sum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-9)

        for state in states:
            for cutoff in (8, 16, 32):
                dm = st.density_matrix(state, cutoff)
                assert dm.trace() + dm.trace_deficit == pytest.approx(1.0, abs=1e-9)
