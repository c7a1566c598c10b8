"""Complex exponential integral and adaptive quadrature.

Implements the two numerical primitives everything else sits on:

  * exp_integral_e1: E1(c) on the principal branch, scalar or array, a
    guarded wrapper over scipy.special.sici and scipy.special.exp1.
  * adaptive_quad: globally adaptive Gauss-Kronrod (G7-K15) integration of
    complex-valued integrands over a real interval.
"""

from __future__ import annotations

import heapq
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
_MAX_INTERVALS = 10_000     # adaptive_quad's subinterval budget


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


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1]. The 7-point Gauss rule
# is embedded at the odd node positions; the difference between the two
# estimates drives the subdivision.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + [x for x in _XGK[6::-1]])
_W15 = np.array(list(_WGK[:7]) + [_WGK[7]] + list(_WGK[6::-1]))
_W7 = np.zeros(15)
_W7[[1, 13]] = _WG[0]
_W7[[3, 11]] = _WG[1]
_W7[[5, 9]] = _WG[2]
_W7[7] = _WG[3]


def _rule(f: Callable, a: float, b: float) -> tuple[complex, float]:
    """One G7-K15 application on [a, b]: (K15 estimate, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _NODES), dtype=complex)
    if vals.shape != (15,):
        raise DomainError(
            "adaptive_quad: integrand must map an array of abscissae to "
            "an equally shaped array of values"
        )
    if not np.all(np.isfinite(vals)):
        raise DomainError(
            f"adaptive_quad: integrand returned a non-finite value in "
            f"[{a:.6g}, {b:.6g}]"
        )
    i15 = half * complex(np.sum(_W15 * vals))
    i7 = half * complex(np.sum(_W7 * vals))
    return i15, abs(i15 - i7)


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-9,
) -> complex:
    """Integrate a complex-valued f over [a, b] to a relative tolerance.

    The integrand receives a numpy array of abscissae and must return an
    array of the same shape (real or complex). Real and imaginary parts
    share one error budget: subdivision stops when the summed Kronrod
    error estimate drops below rel_tol times the magnitude of the running
    integral, or when further refinement cannot beat roundoff.

    Raises ConvergenceError when _MAX_INTERVALS subintervals are in play
    and the tolerance still is not met; DomainError for a malformed
    interval, tolerance, or integrand output.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise DomainError("adaptive_quad: interval must satisfy a < b, finite")
    if not rel_tol > 0:
        raise DomainError("adaptive_quad: rel_tol must be positive")

    i0, e0 = _rule(f, a, b)
    # Heap entries: (-error, tie_breaker, a, b, estimate).
    heap = [(-e0, 0, a, b, i0)]
    seq = 1
    total = i0
    err_total = e0
    abs_total = abs(i0)

    while True:
        if err_total <= rel_tol * abs(total):
            break
        # Roundoff floor: no subdivision can improve on this.
        if err_total <= 50.0 * np.finfo(float).eps * abs_total:
            break
        if len(heap) >= _MAX_INTERVALS:
            raise ConvergenceError(
                f"adaptive_quad: error {err_total:.3e} above requested "
                f"{rel_tol:.1e} * |I| = {rel_tol * abs(total):.3e} after "
                f"{_MAX_INTERVALS} subintervals"
            )
        neg_err, _, lo, hi, est = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        i_left, e_left = _rule(f, lo, mid)
        i_right, e_right = _rule(f, mid, hi)
        total += i_left + i_right - est
        err_total += e_left + e_right + neg_err  # neg_err = -old error
        abs_total += abs(i_left) + abs(i_right) - abs(est)
        heapq.heappush(heap, (-e_left, seq, lo, mid, i_left))
        heapq.heappush(heap, (-e_right, seq + 1, mid, hi, i_right))
        seq += 2

    # Recompute the sum from the surviving intervals; the incremental
    # total above accumulates update roundoff over many subdivisions.
    return complex(sum(entry[4] for entry in heap))
