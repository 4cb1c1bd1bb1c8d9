"""Special functions against slow, independent series/quadrature oracles."""

import math
from decimal import Decimal, localcontext
from functools import partial
from itertools import islice

import numpy as np
import pytest

from tomobell import special
from tomobell.errors import ConvergenceError, DomainError
from tomobell.special import (
    bessel_i0,
    bessel_j0,
    erf_complex,
    gauss_legendre,
    hermite,
    laguerre,
    laguerre_functions,
    laguerre_pairs,
    periodic_trapezoid,
)
from tomobell.tomography import (
    KERNEL_K_ORDER,
    KERNEL_X_ORDER,
    fock_quadrature_density,
    kernel_reconstruct_density,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def hermite_coefficient_oracle(n, x):
    """H_n(x) summed from its explicit coefficients (slow, exact for small n)."""
    total = 0.0
    for m in range(n // 2 + 1):
        total += (
            (-1) ** m
            * math.factorial(n)
            / (math.factorial(m) * math.factorial(n - 2 * m))
            * (2.0 * x) ** (n - 2 * m)
        )
    return total


def laguerre_coefficient_oracle(n, x, alpha=0.0):
    """L_n^(alpha)(x) from the explicit binomial sum."""
    total = 0.0
    for k in range(n + 1):
        binom = 1.0
        for j in range(n - k):  # C(n + alpha, n - k) via product form
            binom *= (alpha + k + 1 + j) / (j + 1)
        total += (-1) ** k * binom * x**k / math.factorial(k)
    return total


def laguerre_function_decimal_oracle(n, x):
    """e^{-x/2} L_n(x) from the same recurrence in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(float(x))
        prev, cur = Decimal(0), (-x / 2).exp()
        for k in range(n):
            prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        return float(cur)


def i0_series_oracle(x, terms=60):
    total, term, q = 1.0, 1.0, 0.25 * x * x
    for k in range(1, terms):
        term *= q / (k * k)
        total += term
    return total


def j0_series_oracle(x, terms=80):
    return sum(
        (-1) ** k * (x / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms)
    )


def j0_hankel_oracle(x):
    """Large-argument asymptotic expansion (independent of the implementation)."""
    p, q = 1.0, -1.0 / (8.0 * x)
    # next correction terms of the P/Q series
    p += -9.0 / (128.0 * x**2)
    q += 75.0 / (1024.0 * x**3)
    p += 3675.0 / (32768.0 * x**4)
    q += -59535.0 / (262144.0 * x**5)
    chi = x - math.pi / 4.0
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def erf_contour_oracle(z, order=400):
    """(2/sqrt(pi)) * integral of exp(-t^2) along the straight contour 0 -> z."""
    rule = gauss_legendre(order, 0.0, 1.0)
    t = rule.nodes * z
    return (2.0 / math.sqrt(math.pi)) * complex(np.sum(rule.weights * np.exp(-t * t) * z))


# ---------------------------------------------------------------------------
# Hermite / Laguerre
# ---------------------------------------------------------------------------


def test_hermite_trivial_values():
    assert hermite(0, 3.7) == 1.0
    assert hermite(2, 0.0) == -2.0


def test_hermite_coefficient_oracle():
    assert hermite(5, 1.0) == pytest.approx(hermite_coefficient_oracle(5, 1.0), rel=1e-13)
    assert hermite_coefficient_oracle(5, 1.0) == pytest.approx(-8.0)
    for n in (3, 7, 12):
        for x in (-2.5, 0.3, 4.0):
            assert hermite(n, x) == pytest.approx(
                hermite_coefficient_oracle(n, x), rel=1e-11
            )


def test_hermite_recurrence_invariant():
    xs = np.linspace(-5.0, 5.0, 41)
    for n in range(1, 51):
        lhs = hermite(n + 1, xs)
        rhs = 2.0 * xs * hermite(n, xs) - 2.0 * n * hermite(n - 1, xs)
        scale = np.maximum(1.0, np.abs(lhs))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-9


def test_hermite_odd_orders_vanish_at_zero():
    for n in range(2, 40, 2):
        assert hermite(n - 1, 0.0) == 0.0


def test_hermite_order_guard():
    with pytest.raises(DomainError):
        hermite(201, 0.5)
    with pytest.raises(DomainError):
        hermite(-1, 0.5)


def test_laguerre_trivial_values():
    assert laguerre(0, 5.0) == 1.0
    xs = np.linspace(-3, 3, 7)
    assert np.allclose(laguerre(1, xs), 1.0 - xs)


def test_laguerre_coefficient_oracle():
    assert laguerre(4, 2.0) == pytest.approx(laguerre_coefficient_oracle(4, 2.0), rel=1e-13)
    assert laguerre_coefficient_oracle(4, 2.0) == pytest.approx(1.0 / 3.0)
    for n in (2, 5, 9):
        for alpha in (0.0, 1.0, 3.0):
            for x in (0.4, 2.2, 7.5):
                assert laguerre(n, x, alpha) == pytest.approx(
                    laguerre_coefficient_oracle(n, x, alpha), rel=1e-10
                )


def test_laguerre_order_guard():
    with pytest.raises(DomainError):
        laguerre(250, 1.0)


def laguerre_order(n, x, alpha=0):
    """The order-n yield of one ``laguerre_functions`` run."""
    return next(islice(laguerre_functions(x, alpha), n, None))


def test_laguerre_function_matches_weighted_polynomial():
    for n in (0, 1, 2, 5, 9):
        for x in (0.0, 0.4, 2.2, 7.5, 30.0):
            want = math.exp(-0.5 * x) * laguerre_coefficient_oracle(n, x)
            assert float(laguerre_order(n, x)) == pytest.approx(want, rel=1e-10, abs=1e-14)
    xs = np.array([1.0, 50.0, 300.0, 590.0])
    for n in (60, 150):
        want = np.exp(-0.5 * xs) * laguerre(n, xs)
        assert np.allclose(laguerre_order(n, xs), want, rtol=1e-10, atol=1e-300)


def test_laguerre_function_is_bounded_beyond_the_polynomial_guard():
    # |e^{-x/2} L_n(x)| <= 1 for x >= 0; L_250 itself overflows at large x
    xs = np.linspace(0.0, 5000.0, 2001)
    vals = laguerre_order(250, xs)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 1.0
    assert vals[0] == 1.0


@pytest.mark.parametrize("n", [100, 300, 400, 500])
def test_laguerre_function_matches_a_60_digit_recurrence(n):
    # past x ~ 1417 the start value e^{-x/2} is subnormal; n = 400 and 500 oscillate
    # out to x = 4n + 2, where the function used to underflow to 0
    xs = np.concatenate([np.linspace(0.0, 4.0 * n + 40.0, 161), [1416.0, 1417.0, 1584.0]])
    want = np.array([laguerre_function_decimal_oracle(n, x) for x in xs])
    assert np.max(np.abs(laguerre_order(n, xs) - want)) <= 1e-13


@pytest.mark.parametrize("n", [1, 50, 300])
def test_laguerre_function_is_unchanged_where_the_start_is_normal(n):
    # the log-scale shift only acts where e^{-x/2} would be subnormal: every order
    # of the run is the plain recurrence's, byte for byte
    xs = np.linspace(0.0, 4.0 * n + 40.0, 997)
    run = laguerre_functions(xs)
    prev, cur = 0.0 * xs, np.exp(-0.5 * xs)
    assert next(run).tobytes() == cur.tobytes()
    for k in range(n):
        prev, cur = cur, ((2.0 * k + 1.0 - xs) * cur - k * prev) / (k + 1.0)
        assert next(run).tobytes() == cur.tobytes(), k + 1


@pytest.mark.parametrize("alpha", [1, 5, 20, 60])
def test_associated_laguerre_function_matches_scipy(alpha):
    # sqrt(n!/(n+alpha)!) x^{alpha/2} e^{-x/2} L_n^(alpha)(x), normalized in log space;
    # every order of one run, on the union of the grids [0, 4n + 40] of orders 0-30
    from scipy.special import eval_genlaguerre, gammaln

    xs = np.concatenate([np.linspace(0.0, 4.0 * n + 40.0, 161) for n in range(31)])
    for n, got in zip(range(31), laguerre_functions(xs, alpha)):
        poly = eval_genlaguerre(n, alpha, xs)
        with np.errstate(divide="ignore"):
            log_size = 0.5 * (gammaln(n + 1.0) - gammaln(n + alpha + 1.0)
                              + alpha * np.log(xs) - xs) + np.log(np.abs(poly))
        want = np.sign(poly) * np.exp(log_size)
        assert np.max(np.abs(got - want)) <= 1e-13, n


def test_laguerre_pairs_match_scipy_on_a_pair_list_with_gaps():
    # l_min(m, n)^(|m - n|) in the pairs' own order, either way round, with orders
    # skipped on the main diagonal (1-8) and asked of diagonal 2 only at order 3
    from scipy.special import eval_genlaguerre, gammaln

    pairs = [(0, 0), (0, 9), (9, 9), (3, 5), (5, 3)]
    xs = np.linspace(0.0, 80.0, 161)
    got = laguerre_pairs(xs, pairs)
    assert len(got) == len(pairs)
    for (m, n), values in zip(pairs, got):
        k, alpha = min(m, n), abs(m - n)
        poly = eval_genlaguerre(k, alpha, xs)
        with np.errstate(divide="ignore"):
            power = alpha * np.log(xs) if alpha else 0.0
            log_size = 0.5 * (gammaln(k + 1.0) - gammaln(k + alpha + 1.0)
                              + power - xs) + np.log(np.abs(poly))
        assert np.max(np.abs(values - np.sign(poly) * np.exp(log_size))) <= 1e-13, (m, n)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_i0_trivial_and_series():
    assert bessel_i0(0.0) == 1.0
    assert bessel_i0(2.205) == pytest.approx(i0_series_oracle(2.205), rel=1e-12)


def test_bessel_i0_monotone():
    xs = np.linspace(0.0, 60.0, 121)
    vals = [bessel_i0(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bessel_i0_large_argument_branch():
    # all-positive series has no cancellation, so it stays a valid oracle
    assert bessel_i0(35.0) == pytest.approx(i0_series_oracle(35.0, terms=200), rel=1e-12)
    assert bessel_i0(60.0) == pytest.approx(i0_series_oracle(60.0, terms=300), rel=1e-12)


def test_bessel_i0_rejects_non_finite():
    with pytest.raises(DomainError):
        bessel_i0(math.inf)


def test_bessel_j0_trivial_series_and_symmetry():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(2.205) == pytest.approx(j0_series_oracle(2.205), abs=1e-13)
    for x in (0.7, 3.3, 9.1):
        assert bessel_j0(-x) == bessel_j0(x)
    for x in np.linspace(0.1, 10.0, 23):
        assert bessel_j0(x) == pytest.approx(j0_series_oracle(x), abs=1e-12)


def test_bessel_j0_large_argument_vs_hankel():
    # tolerance tracks the oracle's own truncation error, ~0.2 / x^6
    for x in (20.0, 35.0, 50.0):
        assert bessel_j0(x) == pytest.approx(j0_hankel_oracle(x), abs=0.2 / x**6 + 1e-12)


# ---------------------------------------------------------------------------
# complex error function
# ---------------------------------------------------------------------------


def test_erf_complex_trivial():
    assert abs(erf_complex(0.0)) < 1e-14


def test_erf_complex_real_axis():
    for x in np.linspace(-5.0, 5.0, 31):
        assert erf_complex(complex(x, 0.0)) == pytest.approx(math.erf(x), abs=1e-12)


def test_erf_complex_contour_oracle_point():
    z = 1.0 + 1.0j
    assert abs(erf_complex(z) - erf_contour_oracle(z)) < 1e-10


def test_erf_complex_contour_oracle_grid():
    for zr in np.linspace(-3.0, 3.0, 9):
        for zi in np.linspace(-3.0, 3.0, 9):
            z = complex(zr, zi)
            got = erf_complex(z)
            want = erf_contour_oracle(z)
            # absolute where the value is O(1); relative once exp(|Im z|^2)
            # magnitudes dominate
            tol = max(1e-10, 1e-12 * abs(want))
            assert abs(got - want) < tol, z


def test_erf_complex_conjugate_symmetry():
    for z in (0.3 + 2.1j, -1.7 + 0.4j, 2.5 - 2.5j):
        assert erf_complex(np.conj(z)) == pytest.approx(np.conj(erf_complex(z)), rel=1e-12)


def test_erf_complex_domain_guard():
    with pytest.raises(DomainError):
        erf_complex(13.0 + 0.0j)
    with pytest.raises(DomainError):
        erf_complex(0.0 + 12.5j)


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


def test_gauss_legendre_exactness_degree():
    rule = gauss_legendre(5, -1.0, 1.0)
    # degree 2 * 5 - 1 = 9 is integrated exactly, x^10 is not
    assert rule.weights @ rule.nodes**9 == pytest.approx(0.0, abs=1e-15)
    assert rule.weights @ rule.nodes**8 == pytest.approx(2.0 / 9.0, abs=1e-14)
    assert abs(rule.weights @ rule.nodes**10 - 2.0 / 11.0) > 1e-6


def test_gauss_legendre_interval_scaling():
    rule = gauss_legendre(12, 1.0, 4.0)
    assert rule.weights @ rule.nodes**2 == pytest.approx(21.0, rel=1e-13)
    assert np.all(rule.nodes > 1.0) and np.all(rule.nodes < 4.0)


def test_periodic_trapezoid_orthogonality():
    rule = periodic_trapezoid(64)
    assert rule.weights @ np.cos(3.0 * rule.nodes) == pytest.approx(0.0, abs=1e-13)


def test_periodic_trapezoid_delta_identity():
    # int_0^{2 pi} e^{i (n - m) phi} d phi = 2 pi delta_{nm}
    order = 64
    rule = periodic_trapezoid(order)
    for n in range(-order // 4, order // 4 + 1):
        for m in range(-order // 4, order // 4 + 1):
            val = complex(np.sum(rule.weights * np.exp(1j * (n - m) * rule.nodes)))
            want = 2.0 * math.pi if n == m else 0.0
            assert abs(val - want) < 1e-12


def test_weights_sum_to_interval_length():
    assert np.sum(gauss_legendre(9, -2.0, 5.0).weights) == pytest.approx(7.0, rel=1e-14)
    assert np.sum(periodic_trapezoid(17).weights) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_quadrature_validation():
    with pytest.raises(DomainError):
        gauss_legendre(1, 0.0, 1.0)
    with pytest.raises(DomainError):
        gauss_legendre(8, 2.0, 2.0)
    with pytest.raises(DomainError):
        gauss_legendre(8, 0.0, math.inf)
    with pytest.raises(DomainError):
        periodic_trapezoid(1)


def test_quadrature_rules_are_immutable():
    rule = gauss_legendre(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        rule.nodes[0] = 99.0


def test_gauss_legendre_builds_each_rule_once():
    special._legendre_rule.cache_clear()
    first, _ = kernel_reconstruct_density(partial(fock_quadrature_density, 0), 6)
    second, _ = kernel_reconstruct_density(partial(fock_quadrature_density, 0), 6)
    built = special._legendre_rule.cache_info()
    assert (built.misses, built.hits) == (len({KERNEL_K_ORDER, KERNEL_X_ORDER}), 2)
    assert first.tobytes() == second.tobytes()


RULE_ORDERS = (2, 3, 7, 48, 96, 160, 192, 768)


@pytest.mark.parametrize("order", RULE_ORDERS)
def test_legendre_rule_nodes_match_numpy(order):
    # numpy's eigenvalue-based leggauss is the node oracle; its weights are not
    nodes, _ = special._legendre_rule(order)
    assert np.max(np.abs(nodes - np.polynomial.legendre.leggauss(order)[0])) <= 1e-15


@pytest.mark.parametrize("order", RULE_ORDERS)
def test_legendre_rule_is_symmetric_and_sums_to_two(order):
    nodes, weights = special._legendre_rule(order)
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    if order % 2:
        centre = nodes[order // 2]
        assert centre == 0.0 and not np.signbit(centre)
    assert abs(np.sum(weights) - 2.0) <= 1e-15


@pytest.mark.parametrize("order", RULE_ORDERS)
def test_legendre_rule_even_moments(order):
    # sum w x^2k = 2/(2k + 1) for 2k <= 2n - 2; the high moments rest on the
    # endpoint weights, where leggauss misses by 3.7e-12 at 192 and 3.5e-11 at 768
    nodes, weights = special._legendre_rule(order)
    two_k = 2 * np.arange(order)
    moments = (nodes[None, :] ** two_k[:, None]) @ weights
    tol = 5e-13 if order > 192 else 3e-13
    assert np.max(np.abs(moments * (two_k + 1) / 2.0 - 1.0)) <= tol


def mpmath_legendre_root(mpmath, n, guess):
    """The root of P_n next to ``guess`` and its Gauss weight, by Newton at working precision."""
    x = mpmath.mpf(float(guess))
    for step in range(3):
        p_prev, p = mpmath.mpf(1), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        dp = n * (p_prev - x * p) / (1 - x * x)
        if step < 2:
            x -= p / dp
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("order", [96, 192, 768])
def test_legendre_rule_against_mpmath(order):
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = special._legendre_rule(order)
    # the eight outermost roots, where leggauss's weights are off by 1.5e-12
    # (96) to 8.6e-10 (768), and a spread of interior ones
    picks = sorted({*range(order - 8, order), *range(order // 2, order, order // 16)})
    with mpmath.workdps(32):
        for i in picks:
            root, weight = mpmath_legendre_root(mpmath, order, nodes[i])
            assert abs(float(nodes[i] - root)) <= 1.5e-16
            assert abs(float(weights[i] / weight - 1)) <= 3e-14


def test_legendre_rule_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(special, "_NEWTON_PASSES", 1)
    special._legendre_rule.cache_clear()
    with pytest.raises(ConvergenceError, match="order 96: Newton did not converge in 1 passes"):
        special._legendre_rule(96)
    assert special._legendre_rule.cache_info().currsize == 0
