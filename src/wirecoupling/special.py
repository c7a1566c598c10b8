"""Exponential integral on the imaginary axis, and adaptive quadrature.

  * exp_integral_e1: E1(c) for c = j*x, x > 0, the only arguments the
    closed-form couplings use, for an array of any shape; any other
    argument raises DomainError. numpy alone computes it: E1's power
    series below x = 4, polynomial fits above, their coefficients
    derived at import from E1's continued fraction.
  * adaptive_quad: Gauss-Legendre rules of doubling order, from numpy,
    for complex integrands smooth on a real interval; only the
    quadrature oracle and the tests call it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

# On the axis c = j*x: the power series for x < SERIES_MAX, a fit of
# E1(jx) itself up to FIT_MAX, and from there fits of the auxiliary
# functions f and g with E1(jx) = (g(x) - j*f(x)) * exp(-j*x).
SERIES_MAX = 4.0
FIT_MAX = 8.0
_MAX_NODES = 512            # adaptive_quad's largest Gauss-Legendre rule


def _continued_fraction(x: np.ndarray) -> np.ndarray:
    """E1(jx) * exp(jx) = g(x) - j*f(x) for x >= 4 by the even contraction
    of E1's continued fraction,

        E1(c) = exp(-c) / (c + 1 - 1/(c + 3 - 4/(c + 5 - 9/(c + 7 - ...)))),

    cut at depth 60: against mpmath it is within 3.5e-16 from x = 3 on."""
    c, tail = 1j * x, 0.0
    for n in range(60, 0, -1):
        tail = n * n / (c + (2 * n + 1) - tail)
    return 1.0 / (c + 1.0 - tail)


def _fit(func: Callable, degree: int) -> list:
    """Complex coefficients, highest power first, of the polynomial in
    t in [-1, 1] that interpolates func(t) at the degree + 1 Chebyshev
    points; for _horner."""
    n = degree + 1
    j = np.arange(n)
    values = func(np.cos(np.pi * (j + 0.5) / n))
    # cos(k * theta_j) from an integer angle reduced below 2 pi: the
    # product k * theta_j itself would carry rounding up to 1e-14
    angles = np.pi / (2 * n) * (np.outer(2 * j + 1, j) % (4 * n))
    coef = 2.0 / n * (values @ np.cos(angles))
    coef[0] /= 2.0
    return _cheb2poly(coef)[::-1].tolist()


def _cheb2poly(c: np.ndarray) -> np.ndarray:
    """Power-series coefficients, lowest first, of the Chebyshev series c
    (at least 2 terms): numpy's cheb2poly recurrence, step for step, on
    arrays of len(c), where np.roll(p, 1) is x * p."""
    c0, c1 = np.zeros(len(c), complex), np.zeros(len(c), complex)
    c0[0], c1[0] = c[-2], c[-1]
    for i in range(len(c) - 1, 1, -1):
        c0, c1 = -c1, c0 + 2 * np.roll(c1, 1)  # c[i-2] - c1, c0 + 2x c1
        c0[0] += c[i - 2]
    return c0 + np.roll(c1, 1)


def _e1_fit(t):
    """E1(jx) for x = 6 + 2t, x in [SERIES_MAX, FIT_MAX]."""
    x = 6.0 + 2.0 * t
    return _continued_fraction(x) * np.exp(-1j * x)


def _auxiliary_fit(t):
    """x f(x) + j x^2 g(x) for x = 16 / (t + 1), x >= FIT_MAX; both parts
    tend to 1 as x grows."""
    x = 16.0 / (t + 1.0)
    value = _continued_fraction(x)
    return -x * value.imag + 1j * (x * x * value.real)


# E1's power series as P + jQ in u = x^2: -Ci(x) - gamma - ln(x) = -u P(u)
# and Si(x) = x Q(u), with P = sum over k >= 1 of (-1)^k u^(k-1) / (2k (2k)!)
# and Q = sum over k >= 0 of (-1)^k u^k / ((2k+1) (2k+1)!), both cut after
# 17 terms, the last below 1e-18 at x = 4.
_SERIES = [complex((-1) ** k / (2 * k * math.factorial(2 * k)),
                   (-1) ** (k - 1) / ((2 * k - 1) * math.factorial(2 * k - 1)))
           for k in range(17, 0, -1)]
_E1_FIT = _fit(_e1_fit, 19)
_AUXILIARY_FIT = _fit(_auxiliary_fit, 22)


def _horner(coef: list, t: np.ndarray) -> np.ndarray:
    """The polynomial with the complex coefficients coef, highest power
    first, at the real t: the two real polynomials in its real and
    imaginary parts at once, two numpy calls per power. A complex t is
    exact and spares a cast at every power."""
    t = t.astype(complex)
    z = t * coef[0]
    z += coef[1]
    for c in coef[2:]:
        z *= t
        z += c
    return z


def exp_integral_e1(c):
    """E1(c) = integral of exp(-u)/u for u from c to infinity, for c = j*x
    with finite x > 0: the positive imaginary axis, where the closed-form
    couplings evaluate it.

    c is an array and the result a complex array of its shape. numpy
    alone evaluates it: E1's power series for x < SERIES_MAX, a
    polynomial fit of E1(jx) up to FIT_MAX and, from there, polynomial
    fits in 1/x of the auxiliary functions f and g with
    E1(jx) = (g - j*f) * exp(-j*x), which leave no Si - pi/2 to cancel.
    The fits interpolate E1's continued fraction at Chebyshev points,
    computed at import. Against mpmath, the worst relative error for x
    in [1e-8, 1e9] is 4.5e-15, near x = 4 where the series' terms reach
    17 |E1|.

    Raises DomainError, for the whole array, if any argument has a real
    part or an imaginary part that is not finite and positive.
    """
    c = np.asarray(c, dtype=complex)
    x = c.imag.ravel()
    # a NaN fails both comparisons
    if x.size and not (x.min() > 0.0 and x.max() < math.inf
                       and not np.any(c.real)):
        raise DomainError(
            "exp_integral_e1: arguments must be j*x with finite x > 0")
    out = np.empty(x.shape, dtype=complex)
    low, high = x < SERIES_MAX, x >= FIT_MAX
    mid = ~(low | high)

    s = x[low]
    if s.size:
        u = s * s
        z = _horner(_SERIES, u)
        re, im = z.real, z.imag
        re *= u
        re += np.log(s)
        re += np.euler_gamma
        np.negative(re, out=re)
        im *= s
        im -= 0.5 * math.pi
        out[low] = z

    s = x[mid]
    if s.size:
        out[mid] = _horner(_E1_FIT, 0.5 * s - 3.0)

    s = x[high]
    if s.size:
        z = _horner(_AUXILIARY_FIT, 16.0 / s - 1.0)
        w = 1.0 / s
        f, g = z.real * w, z.imag * w
        g *= w
        cos, sin = np.cos(s), np.sin(s)
        out.real[high] = g * cos - f * sin
        out.imag[high] = -(f * cos + g * sin)
    return out.reshape(c.shape)


# Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]; looked
# up on the first call, so only the oracle loads numpy.polynomial.
_legendre = functools.lru_cache(maxsize=None)(
    lambda n: np.polynomial.legendre.leggauss(n))


def adaptive_quad(f: Callable, a: float, b: float,
                  rel_tol: float = 1e-9) -> complex:
    """Integrate a complex-valued f, smooth on [a, b], to a relative tolerance.

    f maps an array of abscissae to an equally shaped real or complex
    array. Gauss-Legendre rules of 16, 32, ... _MAX_NODES nodes run until
    one agrees with the one before to rel_tol times its magnitude, or to
    roundoff (50 eps times the rule's integral of |f|), and that one is
    returned. The rules converge fast only where f is analytic around
    [a, b], so callers split at kinks and map near-singular peaks away.

    Raises ConvergenceError, with the disagreement of the last two rules,
    when the _MAX_NODES rule still misses the tolerance; DomainError for
    a malformed interval, tolerance, or integrand output.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise DomainError("adaptive_quad: interval must satisfy a < b, finite")
    if not rel_tol > 0:
        raise DomainError("adaptive_quad: rel_tol must be positive")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    n, value = 8, math.inf  # no rule agrees with the first
    while n < _MAX_NODES:
        n, previous = 2 * n, value
        nodes, weights = _legendre(n)
        vals = np.asarray(f(mid + half * nodes), dtype=complex)
        if vals.shape != nodes.shape or not np.all(np.isfinite(vals)):
            raise DomainError(
                f"adaptive_quad: integrand must map abscissae in [{a:.6g}, "
                f"{b:.6g}] to an equally shaped array of finite values"
            )
        value = half * complex(weights @ vals)
        gap = abs(value - previous)
        floor = 50.0 * np.finfo(float).eps * half * (weights @ np.abs(vals))
        if gap <= max(rel_tol * abs(value), floor):
            return value
    raise ConvergenceError(
        f"adaptive_quad: the {n // 2}- and {n}-node Gauss-Legendre rules "
        f"disagree by {gap:.3e}, above the requested {rel_tol:.1e} * |I| "
        f"= {rel_tol * abs(value):.3e}"
    )
