"""Exponential integral and adaptive quadrature against defining integrals."""

import math
import re

import mpmath
import numpy as np
import pytest

import wirecoupling.impedance
import wirecoupling.special
from wirecoupling import (ConvergenceError, Dipole, DomainError, Scene,
                          assemble_impedances, exp_integral_e1)
from wirecoupling.special import FIT_MAX, SERIES_MAX, adaptive_quad


def sine_integral(x: float) -> complex:
    # Si(x) from its defining integral; integrand is bounded at 0.
    return adaptive_quad(lambda t: np.sin(t) / t, 0.0, x, 1e-12)


def cosine_integral(x: float) -> complex:
    # Ci(x) = gamma + ln(x) + integral of (cos(t) - 1)/t from 0 to x.
    tail = adaptive_quad(lambda t: (np.cos(t) - 1.0) / t, 0.0, x, 1e-12)
    return np.euler_gamma + math.log(x) + tail


def mpmath_e1(c: complex) -> complex:
    with mpmath.workdps(40):
        return complex(mpmath.e1(mpmath.mpc(c.real, c.imag)))


def worst_axis_error(xs) -> float:
    # largest relative error of exp_integral_e1(j x) against mpmath
    values = exp_integral_e1(1j * np.asarray(xs))
    return max(abs(value - mpmath_e1(1j * x)) / abs(mpmath_e1(1j * x))
               for x, value in zip(xs, values))


def jittered_assembly_arguments() -> np.ndarray:
    # x of every E1 argument j x of one assembly of an 8 x 8 lambda/8
    # grid of 0.23 lambda wires, each moved by up to lambda/32 per axis,
    # between a transmitter and a receiver 3 lambda off the centre
    lam = 1.0
    rng = np.random.default_rng(1)
    surface = tuple(
        Dipole(((c - 3.5) * lam / 8 + dx, (r - 3.5) * lam / 8 + dy, dz),
               0.23 * lam, 0.002 * lam)
        for r in range(8) for c in range(8)
        for dx, dy, dz in [rng.uniform(-lam / 32, lam / 32, 3)])
    scene = Scene(Dipole((0.0, -3.0, 0.0), 0.23, 0.002),
                  Dipole((0.0, 3.0, 0.0), 0.23, 0.002), surface,
                  299_792_458.0 / lam)
    seen, e1 = [], wirecoupling.impedance.exp_integral_e1

    def recording(c):
        seen.append(np.array(c).ravel())
        return e1(c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wirecoupling.impedance, "exp_integral_e1", recording)
        assemble_impedances(scene)
    c = np.concatenate(seen)
    assert np.all(c.real == 0.0) and np.all(c.imag > 0.0)
    return c.imag


class TestExpIntegral:
    def test_imaginary_axis_matches_sine_cosine_integrals(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(0.1, 30.0)
            expected = -cosine_integral(x) + 1j * (sine_integral(x) - math.pi / 2)
            value = exp_integral_e1(np.array([1j * x]))[0]
            assert abs(value - expected) <= 1e-9 * abs(expected)

    def test_imaginary_axis_matches_mpmath(self):
        # The closed-form couplings only evaluate E1 at j*k*L with L > 0,
        # as one array: a log grid from 1e-8 to 1e9, both sides of each
        # switch between the series and the fits, and a dense stretch
        # where the fits meet the series.
        edges = np.array([SERIES_MAX, FIT_MAX])[:, None] * (
            1.0 + np.array([-1e-3, -1e-15, 0.0, 1e-15, 1e-3]))
        xs = np.concatenate([np.geomspace(1e-8, 1e9, 1500), edges.ravel(),
                             np.linspace(0.9 * SERIES_MAX, 1.1 * FIT_MAX, 200)])
        assert worst_axis_error(xs) <= 1e-14
        values = exp_integral_e1(1j * xs)
        assert values.shape == xs.shape
        for shaped in (np.empty(0), np.array(2.5), xs[:12].reshape(3, 4)):
            assert exp_integral_e1(1j * shaped).shape == shaped.shape
        for x, value in zip(xs[::25], values[::25]):
            assert exp_integral_e1(np.array([1j * x]))[0] == value

    def test_jittered_assembly_arguments_match_mpmath(self):
        # The arguments of one jittered 8 x 8 assembly, as the kernel
        # passes them: every eighth of the 22k distinct ones in sorted
        # order, which spans them all at mpmath's pace (the sici check
        # below takes every one).
        xs = np.unique(jittered_assembly_arguments())
        assert xs.size > 20_000
        assert worst_axis_error(xs[::8]) <= 1e-14

    def test_imaginary_axis_matches_scipy_sici(self):
        # A second reference below x = 40: E1(jx) = -Ci(x) + j (Si(x) -
        # pi/2) from scipy.special.sici, whose Si - pi/2 cancels to about
        # eps x relative. Above that, it is mpmath's alone.
        from scipy.special import sici

        xs = np.concatenate([np.geomspace(1e-8, 40.0, 4000),
                             jittered_assembly_arguments()])
        xs = xs[xs <= 40.0]
        si, ci = sici(xs)
        expected = -ci + 1j * (si - 0.5 * math.pi)
        error = np.abs(exp_integral_e1(1j * xs) - expected) / np.abs(expected)
        assert error.max() <= 2e-14

    def test_continued_fraction_converges_at_its_depth(self):
        # The fits interpolate the continued fraction from x = 4 on; cut
        # at its fixed depth it is already within 3.5e-16 of mpmath there.
        xs = np.concatenate([np.linspace(SERIES_MAX, 2.0 * FIT_MAX, 400),
                             np.geomspace(2.0 * FIT_MAX, 1e12, 200)])
        values = wirecoupling.special._continued_fraction(xs)
        for x, value in zip(xs, values):
            with mpmath.workdps(40):
                expected = complex(mpmath.e1(mpmath.mpc(0.0, x))
                                   * mpmath.expj(x))
            assert abs(value - expected) <= 3.5e-16 * abs(expected), x

    def test_fits_equal_numpy_cheb2poly_bit_for_bit(self, monkeypatch):
        # _cheb2poly writes out numpy's recurrence so that importing the
        # package does not load numpy.polynomial; the fits it gives are
        # the ones numpy's cheb2poly gives, to the last bit
        from numpy.polynomial import chebyshev

        special = wirecoupling.special
        fits = [special._E1_FIT, special._AUXILIARY_FIT]
        monkeypatch.setattr(special, "_cheb2poly", lambda c: np.pad(
            chebyshev.cheb2poly(c), (0, len(c)))[:len(c)])
        expected = [special._fit(special._e1_fit, 19),
                    special._fit(special._auxiliary_fit, 22)]
        assert [len(fit) for fit in fits] == [20, 23]
        assert [list(map(repr, fit)) for fit in fits] == [
            list(map(repr, fit)) for fit in expected]

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([0.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([complex(math.nan, 1.0)]))
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([complex(math.inf, 0.0)]))
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([complex(0.0, math.inf)]))

    def test_rejects_branch_cut(self):
        # the negative real axis and points hugging it are off the
        # imaginary axis
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([-1.0 + 0.0j]))
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([complex(-2.0, 1e-12)]))

    def test_rejects_overflowing_arguments(self):
        # E1 grows like exp(-Re c) deep in the left half-plane; such
        # arguments are off the imaginary axis and raise before any work
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([complex(-700.0, 5.0)]))

    @pytest.mark.parametrize("bad", [1.0, 1.0 + 1j, -1j, -1.0 + 0j, 0.0,
                                     complex(0.0, math.inf),
                                     complex(math.inf, 0.0),
                                     complex(math.nan, 1.0), -700.0 + 5j])
    def test_one_bad_argument_fails_the_array_call(self, bad):
        # one guard for the whole array: the real axis, the rest of the
        # plane, the origin and non-finite values raise, alone or between
        # two good arguments
        for c in ([bad], [1j, bad, 2j]):
            with pytest.raises(DomainError):
                exp_integral_e1(np.array(c))


class TestAdaptiveQuad:
    def test_constant_integrand(self):
        assert adaptive_quad(lambda u: np.ones_like(u), 0.0, 2.0, 1e-12) == pytest.approx(
            2.0 + 0.0j
        )

    def test_current_shape_antiderivative(self):
        # sin(k*(h - |z|)) over [-h, h] integrates to 2*(1 - cos(k*h))/k.
        lam = 1.0
        k = 2.0 * math.pi / lam
        h = lam / 4.0  # k*h = pi/2
        value = adaptive_quad(lambda z: np.sin(k * (h - np.abs(z))), -h, h, 1e-12)
        assert abs(value - 2.0 / k) <= 1e-12 * (2.0 / k)

    def test_linearity(self):
        f = lambda u: np.exp(1j * 7.0 * u) / (1.0 + u * u)
        g = lambda u: np.cos(3.0 * u) * np.exp(-u)
        alpha = 2.0 - 1.5j
        beta = -0.25 + 3.0j
        combined = adaptive_quad(
            lambda u: alpha * f(u) + beta * g(u), 0.0, 4.0, 1e-11
        )
        separate = alpha * adaptive_quad(f, 0.0, 4.0, 1e-11) + beta * adaptive_quad(
            g, 0.0, 4.0, 1e-11
        )
        assert abs(combined - separate) <= 1e-9 * abs(separate)

    def test_oscillatory_integrand(self):
        # exp(1j*w*u) has the closed antiderivative (exp(1j*w*b) - 1)/(1j*w).
        w = 120.0
        value = adaptive_quad(lambda u: np.exp(1j * w * u), 0.0, 1.0, 1e-11)
        exact = (np.exp(1j * w) - 1.0) / (1j * w)
        assert abs(value - exact) <= 1e-9 * abs(exact)

    def test_budget_exhaustion_raises(self):
        # sin(1/u)/u oscillates without bound toward 0; no rule up to the
        # largest meets a tight tolerance, and the error names the last
        # two rules and their real disagreement
        f = lambda u: np.sin(1.0 / u) / u
        a, b, top = 1e-8, 1.0, wirecoupling.special._MAX_NODES
        with pytest.raises(ConvergenceError,
                           match=f"{top // 2}- and {top}-node") as err:
            adaptive_quad(f, a, b, 1e-13)
        rules = []
        for n in (top // 2, top):
            nodes, weights = np.polynomial.legendre.leggauss(n)
            rules.append(0.5 * (b - a) * (weights @ f(0.5 * (a + b)
                                                      + 0.5 * (b - a) * nodes)))
        gap = float(re.search(r"disagree by (\S+),", str(err.value)).group(1))
        assert gap == pytest.approx(abs(rules[1] - rules[0]), rel=1e-3)

    def test_cancelling_integral_stops_at_roundoff(self):
        # an odd integrand over a symmetric interval integrates to 0, which
        # no relative tolerance reaches; the roundoff floor ends the rules
        value = adaptive_quad(lambda u: np.sin(u) + 1j * u ** 3, -1.0, 1.0, 1e-12)
        assert abs(value) <= 1e-15

    def test_rejects_bad_interval_and_tolerance(self):
        with pytest.raises(DomainError):
            adaptive_quad(lambda u: u, 1.0, 1.0, 1e-9)
        with pytest.raises(DomainError):
            adaptive_quad(lambda u: u, 2.0, 1.0, 1e-9)
        with pytest.raises(DomainError):
            adaptive_quad(lambda u: u, 0.0, 1.0, 0.0)

    def test_rejects_scalar_integrand(self):
        with pytest.raises(DomainError, match="equally shaped"):
            adaptive_quad(lambda u: 1.0, 0.0, 1.0, 1e-9)

    def test_rejects_non_finite_integrand(self):
        with pytest.raises(DomainError):
            adaptive_quad(
                lambda u: np.where(u > 0.5, np.inf, 1.0), 0.0, 1.0, 1e-9
            )
