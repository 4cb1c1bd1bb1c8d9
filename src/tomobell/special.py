"""Self-contained special functions and quadrature rules.

All closed-form expressions in the library reduce to the functions collected
here: Hermite polynomials and functions, (associated) Laguerre polynomials
and functions, the Bessel functions I0 and J0, the error function of a
complex argument, and two quadrature rules.  The function
implementations are independent of any external special-function library;
each one is checked in the test suite against a slow series or quadrature
oracle.

Validated ranges are explicit constants rather than silent truncation:
polynomial recurrences are guarded at ``MAX_POLY_ORDER`` and the complex
error function at ``ERF_COMPLEX_BOX`` per axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import ConvergenceError, DomainError

#: Overflow guard for the Hermite/Laguerre three-term recurrences.
MAX_POLY_ORDER = 200

#: erf_complex is validated for |Re z| <= box and |Im z| <= box.
#: Within the box the relative accuracy is ~1e-13; the absolute error is
#: below 1e-10 wherever exp(-z^2) does not amplify rounding (|z| <= 3.5).
ERF_COMPLEX_BOX = 12.0


def _check_poly_order(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"polynomial order must be a nonnegative integer, got {n!r}")
    if n > MAX_POLY_ORDER:
        raise DomainError(
            f"polynomial order {n} exceeds the overflow guard {MAX_POLY_ORDER}"
        )


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via the stable recurrence.

    H_{k+1}(x) = 2 x H_k(x) - 2 k H_{k-1}(x).  Accepts scalars or arrays;
    n is guarded at MAX_POLY_ORDER.
    """
    _check_poly_order(n)
    x, scalar = _as_float_array(x)
    h_prev = np.ones_like(x)
    if n == 0:
        return float(h_prev) if scalar else h_prev
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return float(h) if scalar else h


def hermite_functions(x):
    """Yield psi_k(x) = H_k(x) e^{-x^2/2} / sqrt(2^k k! sqrt(pi)) for k = 0, 1, ...

    The three-term recurrence never forms k! or 2^k.  Past |x| = 34.6, where
    e^{-x^2/2} < e^{-600} but psi_k (k > x^2/2) is of order one, it runs on
    psi_k e^s, s = x^2/2 - 600, scaled by 2^-512 whenever it passes 2^512.
    """
    x = np.asarray(x, dtype=float)
    shift = np.maximum(0.5 * x * x - 600.0, 0.0)
    prev, cur, k = 0.0 * x, math.pi**-0.25 * np.exp(shift - 0.5 * x * x), 0
    wide = bool(shift.any())
    unshift = np.exp(-shift)
    while True:
        yield cur * unshift if wide else cur
        # (a x) cur - b prev in the float order of the plain expression, with two
        # temporaries; yielded arrays are never written to, as callers keep them
        nxt = x * math.sqrt(2.0 / (k + 1))
        nxt *= cur
        nxt -= math.sqrt(k / (k + 1)) * prev
        prev, cur = cur, nxt
        k += 1
        if wide and np.max(np.abs(cur)) > 2.0**512:
            cur, prev, shift = _rescale(cur, prev, shift)
            unshift = np.exp(-shift)


def _rescale(cur, prev, shift):
    """Scale the entries of ``cur`` past 2^512, and the same entries of ``prev``, by 2^-512.

    The recurrences of ``hermite_functions`` and ``laguerre_functions`` carry
    a value times e^{shift}; ``shift`` drops by 512 log 2 where they scale.
    """
    big = np.abs(cur) > 2.0**512
    cur, prev = (np.where(big, v * 2.0**-512, v) for v in (cur, prev))
    return cur, prev, shift - big * (512 * math.log(2.0))


def laguerre(n: int, x, alpha: float = 0.0):
    """(Associated) Laguerre polynomial L_n^(alpha)(x) via recurrence.

    The package itself evaluates only the normalized ``laguerre_pairs``;
    the polynomial is the tests' unnormalized reference for them.
    """
    _check_poly_order(n)
    x, scalar = _as_float_array(x)
    l_prev = np.ones_like(x)
    if n == 0:
        return float(l_prev) if scalar else l_prev
    l = 1.0 + alpha - x
    for k in range(2, n + 1):
        l, l_prev = ((2.0 * k - 1.0 + alpha - x) * l - (k - 1.0 + alpha) * l_prev) / k, l
    return float(l) if scalar else l


#: log of the smallest normal double: e^{-x/2} is subnormal past x ~ 1416.8.
_LOG_TINY = math.log(sys.float_info.min)


def laguerre_functions(x, alpha: int = 0):
    """Yield l_k = sqrt(k!/(k+alpha)!) x^{alpha/2} e^{-x/2} L_k^(alpha)(x) for k = 0, 1, ...

    l_k is |<k+alpha| D(beta) |k>| at x = |beta|^2, so |l_k| <= 1 for x >= 0.  The
    recurrence ((2k+1+alpha-x) l_k - sqrt(k(k+alpha)) l_{k-1}) / sqrt((k+1)(k+1+alpha)) is
    linear, so started from l_0 it carries the Gaussian along and forms no factorial,
    L_k^(alpha)(x) or order guard.  Where l_0 would be subnormal it runs on e^{s} l_k,
    s = -600 - log l_0, scaled by 2^-512 whenever it passes 2^512, as ``hermite_functions``
    does; everywhere else the shift is 0.
    """
    x = np.asarray(x, dtype=float)
    if alpha:
        with np.errstate(divide="ignore"):  # x = 0: log 0 = -inf, and l_k(0) = 0 at every k
            exponent = 0.5 * (alpha * np.log(x) - x - math.lgamma(alpha + 1.0))
    else:
        exponent = -0.5 * x
    prev, cur = 0.0 * x, np.exp(exponent)
    yield cur
    wide = x.size > 0 and np.min(exponent) < _LOG_TINY
    if wide:
        shift = np.where((exponent < _LOG_TINY) & (x > 0.0), -600.0 - exponent, 0.0)
        cur, unshift = np.exp(exponent + shift), np.exp(-shift)
    for k in count():
        step = (2.0 * k + 1.0 + alpha - x) * cur - math.sqrt(k * (k + alpha)) * prev
        prev, cur = cur, step / math.sqrt((k + 1.0) * (k + 1.0 + alpha))
        if wide and np.max(np.abs(cur)) > 2.0**512:
            cur, prev, shift = _rescale(cur, prev, shift)
            unshift = np.exp(-shift)
        yield cur * unshift if wide else cur


def laguerre_pairs(x, pairs) -> list:
    """l_min(m, n) of alpha = |m - n| at x for each (m, n), from one run per diagonal |m - n|."""
    wanted = {(min(m, n), abs(m - n)) for m, n in pairs}
    values = {}
    for d, top in sorted(dict((d, k) for k, d in sorted(wanted)).items()):  # the largest k per d
        run = zip(range(top + 1), laguerre_functions(x, d))
        values.update(((k, d), l) for k, l in run if (k, d) in wanted)
    return [values[min(m, n), abs(m - n)] for m, n in pairs]


def bessel_i0(x: float) -> float:
    """Modified Bessel function I_0(x), relative accuracy ~1e-14.

    Power series (all-positive, no cancellation) for |x| < 30, asymptotic
    expansion in log space above that so the result is finite right up to
    the double-precision overflow of I_0 itself.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bessel_i0 requires finite x, got {x!r}")
    ax = abs(x)
    if ax < 30.0:
        q = 0.25 * ax * ax
        term = 1.0
        total = 1.0
        for k in range(1, 500):
            term *= q / (k * k)
            total += term
            if term < total * 1e-17:
                break
        return total
    # asymptotic series: I0(x) ~ e^x / sqrt(2 pi x) * sum_k t_k,
    # t_k = t_{k-1} * (2k-1)^2 / (8 k x)
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        nxt = term * (2.0 * k - 1.0) ** 2 / (8.0 * k * ax)
        if nxt >= term:
            break
        term = nxt
        total += term
        if term < total * 1e-17:
            break
    log_val = ax - 0.5 * math.log(2.0 * math.pi * ax) + math.log(total)
    return math.exp(log_val) if log_val < 709.0 else math.inf


def bessel_j0(x: float) -> float:
    """Bessel function J_0(x) via its integral representation.

    J_0(x) = (1/2 pi) \\int_0^{2 pi} cos(x sin t) dt, evaluated with the
    periodic trapezoid rule, which converges superexponentially once the
    node count exceeds ~1.3 |x|.  Accurate to ~1e-14 for |x| <= 50 (and far
    beyond; the node count scales with |x|).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bessel_j0 requires finite x, got {x!r}")
    ax = abs(x)
    t = periodic_trapezoid(int(max(160, 3.0 * ax + 60.0))).nodes
    return float(np.mean(np.cos(x * np.sin(t))))


# ---------------------------------------------------------------------------
# Complex error function via the Weideman rational approximation of the
# Faddeeva function w(z) = exp(-z^2) erfc(-i z), valid for Im(z) >= 0.
# ---------------------------------------------------------------------------

_FADDEEVA_TERMS = 48


def _weideman_coefficients(n_terms: int):
    m = 2 * n_terms
    L = math.sqrt(n_terms / math.sqrt(2.0))
    idx = np.arange(-m + 1, m)
    t = L * np.tan(0.5 * (math.pi / m) * idx)
    f = np.zeros(idx.size + 1)
    f[1:] = np.exp(-t * t) * (L * L + t * t)
    a = np.fft.fft(np.fft.fftshift(f)).real / (2.0 * m)
    return L, np.flipud(a[1 : n_terms + 1])


_FADDEEVA_L, _FADDEEVA_COEF = _weideman_coefficients(_FADDEEVA_TERMS)


def faddeeva(z):
    """Faddeeva function w(z) for Im(z) >= 0 (Weideman's rational form)."""
    z = np.asarray(z, dtype=complex)
    iz = 1j * z
    ratio = (_FADDEEVA_L + iz) / (_FADDEEVA_L - iz)
    poly = np.polyval(_FADDEEVA_COEF, ratio)
    w = 2.0 * poly / (_FADDEEVA_L - iz) ** 2 + (1.0 / math.sqrt(math.pi)) / (
        _FADDEEVA_L - iz
    )
    return w


def erf_complex(z):
    """Error function of a complex argument.

    Uses erf(z) = 1 - exp(-z^2) w(iz) after reflecting into Re(z) >= 0,
    which keeps the Faddeeva argument in its valid half plane.  Arguments
    outside the validated box |Re z|, |Im z| <= ERF_COMPLEX_BOX raise a
    domain error rather than returning unvalidated digits.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    if np.any(np.abs(z.real) > ERF_COMPLEX_BOX) or np.any(np.abs(z.imag) > ERF_COMPLEX_BOX):
        raise DomainError(
            f"erf_complex argument outside validated box |Re|,|Im| <= {ERF_COMPLEX_BOX}"
        )
    flip = z.real < 0.0
    zz = np.where(flip, -z, z)
    val = 1.0 - np.exp(-zz * zz) * faddeeva(1j * zz)
    val = np.where(flip, -val, val)
    return complex(val) if scalar else val


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable nodes/weights pair.

    Gauss-Legendre rules integrate polynomials up to degree 2*order - 1
    exactly on [a, b]; the periodic trapezoid rule on [0, 2 pi) integrates
    trigonometric polynomials up to degree order - 1 exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def gauss_legendre(order: int, a: float, b: float) -> QuadratureRule:
    """The ``order``-point Gauss-Legendre rule on [a, b], a < b finite."""
    if order < 2:
        raise DomainError(f"quadrature order must be >= 2, got {order}")
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise DomainError(f"invalid gauss-legendre interval ({a}, {b})")
    x, w = _legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return QuadratureRule(mid + half * x, half * w)


#: Newton passes allowed per Gauss-Legendre rule; orders 3 to 3072 converge in two.
_NEWTON_PASSES = 8

#: The first zeros of J0, which place the outermost Legendre roots.
_BESSEL_J0_ZEROS = np.array([2.404825557695773, 5.520078110286311, 8.653727912911013])


@lru_cache(maxsize=64)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    Newton's method on P_n runs on the ceil(n/2) non-negative roots at once;
    symmetry gives the rest, and an odd order's centre node is 0.0.  The
    guesses are Tricomi's (1 - (n-1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2)), and
    at the three outermost roots, where those are poorest, Olver's
    cos(psi + (psi cot psi - 1)/(8 psi rho^2)), psi = j_{0,k}/rho, rho = n + 1/2.
    A pass stops once the Newton step h would leave a quadratic error
    h^2 (x + n(n+1) h/2)/(1 - x^2) below 2^-56; the root is then x + h.
    Its weight 2/((1 - x^2) P_n'^2) comes from g = (1 - x^2) P_n'^2
    + n(n+1) P_n^2 at x, whose logarithmic derivative is 2x/(1 - x^2) up to
    O(h^2), so no further pass is needed.  Against mpmath the weights are
    good to 1.4e-14 relative at order 768, where numpy's eigenvalue-based
    ``leggauss`` is off by 8.6e-10 at the ends.
    """
    n = order
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    edge = min(3, n // 2)
    rho = n + 0.5
    psi = _BESSEL_J0_ZEROS[:edge] / rho
    x[:edge] = np.cos(psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho * rho))
    for _ in range(_NEWTON_PASSES):
        p, p_prev = _legendre_pair(n, x)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        h = -p / dp
        if np.max(np.abs(h * h * (x + 0.5 * n * (n + 1) * h) / one_minus_x2)) <= 2.0**-56:
            break
        x += h
    else:
        raise ConvergenceError(
            f"Gauss-Legendre order {n}: Newton did not converge in {_NEWTON_PASSES} passes "
            f"(last step {np.max(np.abs(h)):.1e})"
        )
    g = one_minus_x2 * dp * dp + n * (n + 1) * p * p
    w = 2.0 / (g * (1.0 + 2.0 * x * h / one_minus_x2))
    x += h
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) for 0 <= x < 1, n >= 2, by the three-term recurrence.

    The recurrence runs in Reinsch's difference form: with y = 1 - x and
    e_k = k (P_k - P_{k-1}), e_{k+1} = e_k - (2k + 1) y P_k and
    P_{k+1} = P_k + e_{k+1}/(k + 1), whose integer factors are exact.  Near
    x = 1, where P_k changes slowly with k, the plain form loses digits to
    cancellation and this one does not.
    """
    y = 1.0 - x
    e = -y
    p = 1.0 + e
    t = np.empty_like(x)
    for k in range(1, n):
        np.multiply(y, p, out=t)
        t *= 2 * k + 1
        e -= t
        np.divide(e, k + 1, out=t)
        p += t
    return p, p - t


def periodic_trapezoid(order: int) -> QuadratureRule:
    """The uniform ``order``-point rule on [0, 2 pi)."""
    if order < 2:
        raise DomainError(f"quadrature order must be >= 2, got {order}")
    two_pi = 2.0 * math.pi
    return QuadratureRule(np.arange(order) * (two_pi / order), np.full(order, two_pi / order))
