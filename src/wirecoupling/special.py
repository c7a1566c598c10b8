"""Complex exponential integral and adaptive quadrature.

  * exp_integral_e1: E1(c) on the principal branch, scalar or array, a
    guarded wrapper over scipy.special.sici and scipy.special.exp1; the
    closed-form couplings sit on it.
  * adaptive_quad: Gauss-Legendre rules of doubling order, from numpy,
    for complex integrands smooth on a real interval; only the
    quadrature oracle and the tests call it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.special import exp1, sici

from .errors import ConvergenceError, DomainError

_CUT_MARGIN = 1e-9          # arguments with |arg c| >= pi - margin are rejected
_MIN_REAL = -600.0          # exp(-c) overflows well past this, E1 ~ 1e260
# On the axis, E1(jx) = -Ci(x) + j*(Si(x) - pi/2). Si(x) - pi/2 cancels
# to a relative error of about eps*x, so exp1 takes over above x = 40;
# sici costs about a tenth of the complex exp1 per argument.
SICI_CROSSOVER = 40.0
_MAX_NODES = 512            # adaptive_quad's largest Gauss-Legendre rule


def exp_integral_e1(c):
    """E1(c) = integral of exp(-u)/u for u from c to infinity.

    Principal branch, |arg(c)| < pi; c is an array and the result a
    complex array of its shape. c = j*x with 0 < x < SICI_CROSSOVER,
    the bulk of what the closed-form couplings use, is evaluated as
    -Ci(x) + j*(Si(x) - pi/2) by scipy.special.sici, every other
    argument by scipy.special.exp1. Against mpmath, the worst relative
    error on the imaginary axis for x in [1e-8, 1e4] is 8e-15. Off the
    axis it stays near 2e-13, except just inside |c| = 5 in the right
    half-plane, where scipy's power series cancels and the error
    reaches 2e-12.

    Raises DomainError if any argument is 0, is non-finite, lies on or
    within 1e-9 radians of the branch cut, or has Re(c) < -600 where the
    result overflows double precision; the guards run in that order over
    the whole array.
    """
    c = np.asarray(c, dtype=complex)
    if np.any(c == 0):
        raise DomainError("exp_integral_e1: argument must be nonzero")
    if not np.all(np.isfinite(c)):
        raise DomainError("exp_integral_e1: argument must be finite")
    left = c[c.real < 0.0]
    if np.any(np.abs(np.angle(left)) >= math.pi - _CUT_MARGIN):
        raise DomainError(
            "exp_integral_e1: argument too close to the branch cut "
            "along the negative real axis"
        )
    low = left.real[left.real < _MIN_REAL]
    if low.size:
        raise DomainError(
            "exp_integral_e1: result exceeds double-precision range "
            f"for Re(c) = {low[0]:.3g}"
        )
    x = c.imag
    axis = (c.real == 0.0) & (x > 0.0) & (x < SICI_CROSSOVER)
    out = np.empty(c.shape, dtype=complex)
    si, ci = sici(x[axis])
    out.real[axis] = -ci
    out.imag[axis] = si - 0.5 * math.pi
    rest = ~axis
    out[rest] = exp1(c[rest])
    return out


# Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].
_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


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
