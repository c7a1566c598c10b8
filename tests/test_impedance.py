"""Closed-form coupling impedances against quadrature oracles."""

import json
import math
from collections import namedtuple
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecoupling import (
    DegenerateGeometry,
    Dipole,
    DomainError,
    ImpedanceSet,
    ResonantLength,
    Scene,
    assemble_impedances,
    build_grid,
    mutual_impedance,
    pair_geometry,
    wavelength,
    wavenumber,
)
from wirecoupling import impedance
from wirecoupling.impedance import mutual_impedance_oracle
from wirecoupling.special import adaptive_quad

# (h, rho) in wavelengths of the equal short pairs whose closed form misses
# the 1e-6 validate gate today (ROADMAP item 14's table).
SHORT_PAIR_MISSES = {(1e-3, 0.5), (1e-3, 3.0),
                     (1e-4, 0.125), (1e-4, 0.5), (1e-4, 3.0),
                     (3e-5, 0.125), (3e-5, 0.5), (3e-5, 3.0)}

# Per-pair scalar closed-form values of three scenes, taken before the
# kernel became array-native; the file names the commit.
SCALAR_REFERENCE = Path(__file__).parent / "data" / "scalar_reference.json"
# Re Z_self of short wires by the far-field integral in mpmath; see
# data/README.md.
SHORT_WIRES = json.loads((Path(__file__).parent / "data"
                          / "short_wire_reference.json").read_text())

FREQ = 3.0e8  # [Hz]
LAM = wavelength(FREQ)
K = wavenumber(FREQ)

# One pair as pair_geometry reduces it, in scalars.
Pair = namedtuple("Pair", "rho dz h_p h_q")


def field_kernel(z, geom, k) -> complex:
    # the field the oracle integrates against the observer current: its
    # three source waves, times k/sin(k*h_p)
    waves = 0j
    for xi, coef in impedance._source_waves(geom.h_p, k):
        r = math.hypot(geom.rho, geom.dz + z - xi)
        waves += coef * np.exp(-1j * k * r) / r
    return k / math.sin(k * geom.h_p) * waves


def current_weighted_potential(z, geom, k, tol=1e-12) -> complex:
    # inner integral of the field oracle: source current against the
    # free-space Green function, observed at height z; split at the
    # current's kink at the feed
    sin_p = math.sin(k * geom.h_p)

    def f(xi):
        r = np.hypot(geom.rho, geom.dz + z - xi)
        current = np.sin(k * (geom.h_p - np.abs(xi))) / sin_p
        return current * np.exp(-1j * k * r) / r

    return (adaptive_quad(f, -geom.h_p, 0.0, tol)
            + adaptive_quad(f, 0.0, geom.h_p, tol))


def field_kernel_oracle(z, geom, k) -> complex:
    """(d^2/dz^2 + k^2) of the current-weighted potential, by central
    differences. Independent of the closed three-wave form."""
    step = 1e-4 * (2.0 * math.pi / k)
    samples = [
        current_weighted_potential(z + m * step, geom, k) for m in (-2, -1, 0, 1, 2)
    ]
    second = (
        -samples[0] + 16.0 * samples[1] - 30.0 * samples[2]
        + 16.0 * samples[3] - samples[4]
    ) / (12.0 * step * step)
    return second + k * k * samples[2]


def mpmath_mutual_impedance(geom, k, dps=30) -> complex:
    """mutual_impedance_oracle's integral at dps digits, near-singular
    source points included.

    Each of the three source waves is integrated on its own, with
    z = c + rho*sinh(v) around its source point c on the observer axis:
    exp(-j*k*R)/R dz becomes the smooth exp(-j*k*rho*cosh(v)) dv. The
    current kink at z = 0 is a breakpoint.
    """
    with mpmath.workdps(dps):
        k = mpmath.mpf(k)
        rho, dz = mpmath.mpf(geom.rho), mpmath.mpf(geom.dz)
        h_p, h_q = mpmath.mpf(geom.h_p), mpmath.mpf(geom.h_q)
        total = mpmath.mpc(0)
        for xi, coef in ((h_p, 1), (-h_p, 1), (0, -2 * mpmath.cos(k * h_p))):
            c = xi - dz

            def f(v, c=c):
                z = c + rho * mpmath.sinh(v)
                return (mpmath.exp(-1j * k * rho * mpmath.cosh(v))
                        * mpmath.sin(k * (h_q - abs(z))))

            nodes = [mpmath.asinh((z - c) / rho) for z in (-h_q, 0, h_q)]
            total += coef * mpmath.quad(f, nodes)
        scale = 1j * impedance.FREE_SPACE_IMPEDANCE / (4 * mpmath.pi)
        return complex(scale * total / (mpmath.sin(k * h_p) * mpmath.sin(k * h_q)))


class TestWireKernel:
    def test_random_draws_against_defining_integral(self):
        # pairs of the closed form's whole range against the quadrature
        # oracle; mirroring the pair in z mirrors every observer-wire
        # integral and leaves the coupling as it is
        rng = np.random.default_rng(29)
        for _ in range(50):
            rho = float(rng.uniform(LAM / 20, 3 * LAM))
            dz = float(rng.uniform(-2 * LAM, 2 * LAM))
            h_p, h_q = (float(h) for h in rng.uniform(0.1 * LAM, 0.45 * LAM, 2))
            p = Dipole((0.0, 0.0, 0.0), h_p, LAM / 2000)
            q = Dipole((rho, 0.0, dz), h_q, LAM / 2000)
            value = mutual_impedance(p, q, K)
            reference = mutual_impedance_oracle(p, q, K, rel_tol=1e-12)
            assert abs(value - reference) <= 1e-10 * abs(reference)
            mirrored = mutual_impedance(p, Dipole((rho, 0.0, -dz), h_q,
                                                  LAM / 2000), K)
            assert abs(mirrored - value) <= 1e-12 * abs(value)

    def test_vanishing_observer_gives_vanishing_integral(self):
        p = half_wave()

        def observer(h_q):
            return Dipole((0.5 * LAM, 0.0, 0.2 * LAM), h_q, h_q / 100)

        small = mutual_impedance(p, observer(1e-6), K)
        smaller = mutual_impedance(p, observer(5e-7), K)
        assert abs(small) <= 1e-3
        # the current integrates to h_q: halve the wire, halve the coupling
        assert abs(smaller) == pytest.approx(0.5 * abs(small), rel=1e-3)


class TestFieldKernel:
    def test_matches_operator_oracle(self):
        # the closed form must equal (d^2/dz^2 + k^2) applied to the
        # current-weighted potential
        rng = np.random.default_rng(31)
        for _ in range(5):
            geom = Pair(
                rho=float(rng.uniform(LAM / 10, 2 * LAM)),
                dz=float(rng.uniform(-LAM, LAM)),
                h_p=float(rng.uniform(0.15 * LAM, 0.35 * LAM)),
                h_q=0.25 * LAM,
            )
            z = float(rng.uniform(-0.5 * LAM, 0.5 * LAM))
            value = field_kernel(z, geom, K)
            reference = field_kernel_oracle(z, geom, K)
            assert abs(value - reference) <= 1e-4 * abs(reference)

    def test_half_wave_reduces_to_two_waves(self):
        # cos(k*h_p) = 0 kills the feed term
        h = math.pi / (2.0 * K)
        geom = Pair(rho=0.8 * LAM, dz=0.1 * LAM, h_p=h, h_q=h)
        z = 0.07 * LAM
        sin_p = math.sin(K * h)
        expected = 0.0 + 0.0j
        for xi in (h, -h):
            r = math.hypot(geom.rho, geom.dz + z - xi)
            expected += np.exp(-1j * K * r) / r
        expected *= K / sin_p
        value = field_kernel(z, geom, K)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_spherical_spreading(self):
        h = 0.2 * LAM
        near = Pair(rho=10 * LAM, dz=0.0, h_p=h, h_q=h)
        far = Pair(rho=100 * LAM, dz=0.0, h_p=h, h_q=h)
        ratio = abs(field_kernel(0.0, near, K)) / abs(field_kernel(0.0, far, K))
        assert abs(ratio - 10.0) <= 1.5


def half_wave(x=0.0, y=0.0, z=0.0) -> Dipole:
    return Dipole(center=(x, y, z), half_length=LAM / 4, radius=LAM / 2000)


class TestMutualImpedance:
    def test_half_wave_self_impedance(self):
        d = half_wave()
        z_self = mutual_impedance(d, d, K, same=True)
        # classical corridor for the sinusoidal-current model
        assert 60.0 <= z_self.real <= 90.0
        assert 20.0 <= z_self.imag <= 60.0
        reference = mutual_impedance_oracle(d, d, K, same=True)
        assert abs(z_self - reference) <= 1e-6 * abs(reference)

    def test_parallel_pair_at_half_wavelength(self):
        p = half_wave()
        q = half_wave(x=LAM / 2)
        z_pq = mutual_impedance(p, q, K)
        reference = mutual_impedance_oracle(p, q, K)
        assert abs(z_pq - reference) <= 1e-6 * abs(reference)
        # textbook neighborhood for side-by-side half-wave dipoles
        assert -15.0 <= z_pq.real <= -10.0
        assert -33.0 <= z_pq.imag <= -27.0

    def test_reciprocity(self):
        rng = np.random.default_rng(37)
        pairs = []
        for _ in range(50):
            p = Dipole(
                center=(0.0, 0.0, 0.0),
                half_length=float(rng.uniform(0.1, 0.45) * LAM),
                radius=LAM / 1000,
            )
            q = Dipole(
                center=(
                    float(rng.uniform(LAM / 10, 3 * LAM)),
                    float(rng.uniform(-LAM, LAM)),
                    float(rng.uniform(-2 * LAM, 2 * LAM)),
                ),
                half_length=float(rng.uniform(0.1, 0.45) * LAM),
                radius=LAM / 1000,
            )
            pairs.append((p, q))
        # collinear and near-collinear pairs, disjoint spans
        for rho in (0.0, 1e-15, 1e-9, 1e-6):
            p = Dipole((0.0, 0.0, 0.0), 0.21 * LAM, LAM / 1000)
            q = Dipole((rho * LAM, 0.0, -0.77 * LAM), 0.37 * LAM, LAM / 1000)
            pairs.append((p, q))
        for p, q in pairs:
            fwd = mutual_impedance(p, q, K)
            rev = mutual_impedance(q, p, K)
            assert abs(fwd - rev) <= 1e-8 * max(abs(fwd), 1.0)

    def test_translation_invariance(self):
        p = half_wave()
        q = half_wave(x=0.31 * LAM, y=-0.22 * LAM, z=0.4 * LAM)
        shift = (0.7, -0.3, 0.41)
        p2 = half_wave(*shift)
        q2 = half_wave(
            0.31 * LAM + shift[0], -0.22 * LAM + shift[1], 0.4 * LAM + shift[2]
        )
        a = mutual_impedance(p, q, K)
        b = mutual_impedance(p2, q2, K)
        assert abs(a - b) <= 1e-10 * abs(a)

    @pytest.mark.parametrize("rho", [0.0, 1e-310, 1e-300, 1e-15, 1e-9, 1e-6,
                                     1e-5])
    def test_collinear_pair_closed_form(self, rho):
        # coaxial and nearly coaxial wires with disjoint spans: for each
        # phase sign the observer lies behind the source points (on-axis
        # limit below rho = 1e-8 of the distance) or ahead of them (E1).
        # Identical wires take the five-offset table, a longer observer
        # the nine-offset one.
        p = half_wave()
        for h_q in (LAM / 4, 0.3 * LAM):
            q = Dipole((rho * LAM, 0.0, 0.8 * LAM), h_q, LAM / 2000)
            value = mutual_impedance(p, q, K)
            reference = mutual_impedance_oracle(p, q, K, rel_tol=1e-12)
            assert abs(value - reference) <= 1e-11 * abs(reference)

    def test_interleaved_near_collinear_pair_matches_mpmath(self):
        # axes 1e-12 m apart, z spans overlapping by 0.2 lambda: the wave
        # from the source's upper end peaks 1e-12 m off the observer wire,
        # which the oracle's asinh variable flattens
        p = Dipole((0.0, 0.0, 0.0), LAM / 4, 2.5e-13)
        q = Dipole((1e-12, 0.0, 0.3 * LAM), LAM / 4, 2.5e-13)
        Scene(p, q, (half_wave(x=LAM),), FREQ)  # an admissible pair
        value = mutual_impedance(p, q, K)
        oracle = mutual_impedance_oracle(p, q, K, rel_tol=1e-12)
        geom = Pair(*(float(v[0]) for v in pair_geometry([p, q], [0], [1])))
        reference = mpmath_mutual_impedance(geom, K)
        assert abs(value - reference) <= 1e-12 * abs(reference)
        assert abs(oracle - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize("radius", [LAM / 2000, 1e-9],
                             ids=["lambda_over_2000", "1e-9m"])
    def test_oracle_self_term_matches_mpmath(self, radius):
        # the half-wave self term: the source ends sit one radius off the
        # observer's ends. The closed form takes it through the
        # five-offset table of identical wires.
        d = Dipole((0.0, 0.0, 0.0), LAM / 4, radius)
        oracle = mutual_impedance_oracle(d, d, K, same=True, rel_tol=1e-12)
        geom = Pair(d.radius, 0.0, d.half_length, d.half_length)
        reference = mpmath_mutual_impedance(geom, K)
        assert abs(oracle - reference) <= 1e-12 * abs(reference)
        value = mutual_impedance(d, d, K, same=True)
        assert abs(value - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize("rho, m", [(LAM / 2, 1), (1e-3 * LAM, 1),
                                        (0.3 * LAM, 2)],
                             ids=["dz=h", "dz=h-close", "dz=2h"])
    def test_identical_echelon_pair_matches_mpmath(self, rho, m):
        # side by side, shifted by m half-lengths: the axial offset
        # dz - m*h of the five-offset table is exactly 0, R = rho there
        h = 0.23 * LAM
        p = Dipole((0.0, 0.0, 0.0), h, LAM / 2000)
        q = Dipole((rho, 0.0, m * h), h, LAM / 2000)
        geom = Pair(*(float(v[0]) for v in pair_geometry([p, q], [0], [1])))
        assert geom.h_p == geom.h_q and geom.dz - m * geom.h_q == 0.0
        value = mutual_impedance(p, q, K)
        reference = mpmath_mutual_impedance(geom, K)
        assert abs(value - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize("wire", [
        pytest.param(w, id=f"h={w['half_length_m']:g}lambda", marks=(
            () if w["half_length_m"] >= 3e-3 else pytest.mark.xfail(
                strict=True, reason="the E1 sum loses digits below 3e-3 "
                "lambda, and its sign is wrong from 5.5e-5 lambda down; "
                "ROADMAP item 4 takes this real part from the far field")))
        for w in SHORT_WIRES["wires"]])
    def test_short_wire_self_resistance(self, wire):
        # one wire observed on its own surface, a/h = 1e-5, against the
        # far-field integral at rho = a: only the closed form's
        # cancellation is measured, not the radius convention
        dipole = Dipole((0.0, 0.0, 0.0), wire["half_length_m"], wire["radius_m"])
        k = 2.0 * math.pi / SHORT_WIRES["wavelength_m"]
        resistance = mutual_impedance(dipole, dipole, k, same=True).real
        reference = wire["re_ohm_at_radius"]
        assert abs(resistance - reference) <= 1e-8 * reference

    @pytest.mark.parametrize("h, rho", [
        pytest.param(h, rho, id=f"h={h:g}lambda-rho={rho:g}lambda", marks=(
            pytest.mark.xfail(strict=True, reason="the E1 sum of two short "
                              "wires cancels as about eps/(kh)^4; ROADMAP "
                              "item 14") if (h, rho) in SHORT_PAIR_MISSES
            else ()))
        for h in (0.23, 1e-2, 1e-3, 1e-4, 3e-5) for rho in (0.125, 0.5, 3.0)])
    def test_short_mutual_pair(self, h, rho):
        # two equal parallel wires side by side, a = 1e-3 h, against the
        # oracle at rel_tol 1e-12; the oracle's own three-wave sum cancels
        # only as eps/(kh)^2, about 6e-9 at 3e-5 lambda, far inside the gate
        p = Dipole((0.0, 0.0, 0.0), h * LAM, 1e-3 * h * LAM)
        q = Dipole((rho * LAM, 0.0, 0.0), h * LAM, 1e-3 * h * LAM)
        reference = mutual_impedance_oracle(p, q, K, rel_tol=1e-12)
        value = mutual_impedance(p, q, K)
        assert abs(value - reference) <= 1e-6 * abs(reference)

    def test_resonant_length_raises(self):
        p = Dipole(center=(0, 0, 0), half_length=LAM / 2, radius=LAM / 2000)
        q = half_wave(x=LAM)
        with pytest.raises(ResonantLength, match=r"^observer half-length"):
            mutual_impedance(q, p, K)
        with pytest.raises(ResonantLength, match=r"^source half-length"):
            mutual_impedance(p, q, K)
        with pytest.raises(ResonantLength, match=r"^source half-length"):
            mutual_impedance(p, p, K, same=True)
        with pytest.raises(ResonantLength, match=r"^observer half-length"):
            mutual_impedance_oracle(q, p, K)
        # every current normalization vanishes at k = 0
        with pytest.raises(ResonantLength):
            mutual_impedance(q, half_wave(x=2 * LAM), 0.0)

    @pytest.mark.parametrize("z, half_length", [
        (0.3 * LAM, LAM / 4), (LAM / 2, LAM / 4), (0.0, 0.2 * LAM),
    ], ids=["overlap", "touch", "shared-centre"])
    def test_collinear_wires_that_meet_raise(self, z, half_length):
        # the observer passes through a source end or feed on its axis
        p = half_wave()
        q = Dipole((0.0, 0.0, z), half_length, LAM / 2000)
        for a, b in ((p, q), (q, p)):
            for coupling in (mutual_impedance, mutual_impedance_oracle):
                with pytest.raises(DegenerateGeometry, match="source point"):
                    coupling(a, b, K)

    def test_bad_wavenumber_raises(self):
        # k < 0 or NaN is a DomainError for the closed form and its
        # oracle alike; k = 0 fails the current normalization first.
        p, q = half_wave(), half_wave(x=LAM)
        for coupling in (mutual_impedance, mutual_impedance_oracle):
            for k in (-K, math.nan):
                with pytest.raises(DomainError):
                    coupling(p, q, k)
            with pytest.raises(ResonantLength):
                coupling(p, q, 0.0)

    def test_oracle_tolerance_is_honored(self):
        p = half_wave()
        q = half_wave(x=0.7 * LAM, z=0.3 * LAM)
        exact = mutual_impedance(p, q, K)
        loose = mutual_impedance_oracle(p, q, K, rel_tol=1e-3)
        tight = mutual_impedance_oracle(p, q, K, rel_tol=1e-9)
        assert abs(loose - exact) <= 1e-2 * abs(exact)
        assert abs(tight - exact) <= 1e-6 * abs(exact)


class TestAssembly:
    def test_single_element_matches_direct_calls(self):
        tx = half_wave(x=-3.0)
        rx = half_wave(x=3.0)
        element = half_wave()
        scene = Scene(tx, rx, (element,), FREQ)
        imps = assemble_impedances(scene)[0]
        assert imps.n_elements == 1
        assert imps.z_rt == mutual_impedance(tx, rx, K)
        assert imps.z_st[0] == mutual_impedance(tx, element, K)
        assert imps.z_rs[0] == mutual_impedance(element, rx, K)
        assert imps.z_ss[0, 0] == mutual_impedance(element, element, K, same=True)

    def test_one_direct_link_call_per_distinct_link(self, monkeypatch):
        # a spacing sweep keeps transmitter, receiver and frequency, so
        # its scenes share one z_rt call; another receiver is another link
        tx, rx = half_wave(x=-3.0), half_wave(x=3.0)
        scenes = [Scene(tx, rx, build_grid(2, 2, spacing=s, half_length=LAM / 4,
                                           radius=LAM / 2000), FREQ)
                  for s in (LAM / 8, LAM / 4, LAM / 8)]
        scenes.append(Scene(tx, half_wave(x=3.5), scenes[0].surface, FREQ))
        links, direct = [], impedance.mutual_impedance

        def counting(*args):
            links.append(args)
            return direct(*args)

        monkeypatch.setattr(impedance, "mutual_impedance", counting)
        sets = assemble_impedances(*scenes)
        assert links == [(tx, rx, K), (tx, half_wave(x=3.5), K)]
        for scene, imps in zip(scenes, sets):
            assert imps.z_rt == direct(scene.transmitter, scene.receiver, K)

    def test_square_grid_structure(self):
        surface = build_grid(2, 2, spacing=LAM / 8, half_length=LAM / 4,
                             radius=LAM / 2000)
        scene = Scene(half_wave(x=-4.0), half_wave(x=4.0), surface, FREQ)
        imps = assemble_impedances(scene)[0]
        z = imps.z_ss
        # identical elements: one self-impedance everywhere on the diagonal
        for i in range(1, 4):
            assert z[i, i] == pytest.approx(z[0, 0], rel=1e-12)
        # mirrored fill makes the matrix exactly symmetric
        assert np.array_equal(z, z.T)
        # equal center-to-center distances give equal couplings
        assert z[0, 1] == pytest.approx(z[2, 3], rel=1e-10)
        assert z[0, 2] == pytest.approx(z[1, 3], rel=1e-10)
        assert z[0, 3] == pytest.approx(z[1, 2], rel=1e-10)

    def test_axis_symmetry_of_feeds(self):
        # transmitter on the array axis sees both elements identically
        surface = build_grid(1, 2, spacing=LAM / 2, half_length=LAM / 4,
                             radius=LAM / 2000)
        scene = Scene(half_wave(y=-5.0), half_wave(y=5.0), surface, FREQ)
        imps = assemble_impedances(scene)[0]
        assert imps.z_st[0] == pytest.approx(imps.z_st[1], rel=1e-10)
        assert imps.z_rs[0] == pytest.approx(imps.z_rs[1], rel=1e-10)

    def test_xz_grid_runs_no_quadrature(self, monkeypatch):
        # same-column pairs of a vertical grid are collinear
        surface = build_grid(3, 3, spacing=LAM / 2, half_length=0.23 * LAM,
                             radius=0.002 * LAM, plane="xz")
        scene = Scene(half_wave(x=-4.0), half_wave(x=4.0), surface, FREQ)

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature ran on a production path")

        monkeypatch.setattr(impedance, "mutual_impedance_oracle", refuse)
        monkeypatch.setattr(impedance, "adaptive_quad", refuse)
        imps = assemble_impedances(scene)[0]
        assert np.all(np.isfinite(imps.z_ss))

    @pytest.mark.parametrize("side, spacing, plane",
                             [(8, LAM / 8, "xy"), (3, LAM / 2, "xz")],
                             ids=["xy-8x8", "xz-3x3"])
    def test_passivity(self, side, spacing, plane):
        # Re(Z_ss) is the radiated-power matrix, hence PSD, up to the model
        # error of the self terms: observing each one a radius a off axis
        # shifts R_pp by (k*a)^2/6 * R_pp at leading order. The bound is
        # twice that.
        radius = 0.002 * LAM
        surface = build_grid(side, side, spacing=spacing,
                             half_length=0.23 * LAM, radius=radius, plane=plane)
        scene = Scene(half_wave(x=-4.0), half_wave(x=4.0), surface, FREQ)
        resistance = assemble_impedances(scene)[0].z_ss.real
        bound = (K * radius) ** 2 / 3.0 * resistance.diagonal().max()
        assert np.linalg.eigvalsh(resistance)[0] >= -bound

    def test_close_spacing_keeps_diagonal_dominant_in_magnitude(self):
        surface = build_grid(1, 2, spacing=LAM / 10, half_length=LAM / 4,
                             radius=LAM / 2000)
        scene = Scene(half_wave(x=-4.0), half_wave(x=4.0), surface, FREQ)
        imps = assemble_impedances(scene)[0]
        assert abs(imps.z_ss[0, 0]) > abs(imps.z_ss[0, 1])


    def test_real_parts_match_far_field_overlap(self):
        # Re Z_pq of parallel z-directed wires is the overlap of their far
        # fields on the sphere, one smooth theta integral once the azimuth
        # gives J0: an oracle with no E1 and no near-field quadrature.
        # Mixed lengths and axial offsets, every self term at rho = radius.
        from scipy.special import j0

        def far_field_resistance(p, q, rho):
            def pattern(h, c):
                # cos(k h c) - cos(k h), as a product that does not cancel
                return -2.0 * np.sin(K * h * (c + 1) / 2) * np.sin(K * h * (c - 1) / 2)

            def overlap(theta):
                c, s = np.cos(theta), np.sin(theta)
                return (pattern(p.half_length, c) * pattern(q.half_length, c)
                        * j0(K * rho * s) * np.cos(K * dz * c) / s)

            dz = q.center[2] - p.center[2]
            value = adaptive_quad(overlap, 0.0, math.pi, 1e-13).real
            return impedance.FREE_SPACE_IMPEDANCE * value / (
                2 * math.pi * math.sin(K * p.half_length) * math.sin(K * q.half_length))

        surface = tuple(
            Dipole(((i % 3 - 1) * LAM / 8, (i // 3) * LAM / 8, dz * LAM),
                   h * LAM, LAM / 500)
            for i, (h, dz) in enumerate([(0.23, 0.0), (0.2, 0.1), (0.27, -0.15),
                                         (0.23, 0.05), (0.3, 0.0), (0.2, 0.0)]))
        tx = Dipole((0.2 * LAM, -2.0 * LAM, 0.3 * LAM), LAM / 4, LAM / 500)
        rx = Dipole((-0.4 * LAM, 1.5 * LAM, -0.2 * LAM), 0.3 * LAM, LAM / 500)
        imps = assemble_impedances(Scene(tx, rx, surface, FREQ))[0]

        def rho(p, q):
            if p is q:
                return p.radius
            return math.dist(p.center[:2], q.center[:2])

        checks = [(imps.z_st[i], tx, w) for i, w in enumerate(surface)]
        checks += [(imps.z_rs[i], w, rx) for i, w in enumerate(surface)]
        checks += [(imps.z_ss[i, j], surface[i], surface[j])
                   for i in range(len(surface)) for j in range(i, len(surface))]
        for z, p, q in checks:
            assert abs(z.real - far_field_resistance(p, q, rho(p, q))) <= 1e-13 * abs(z)


class TestImpedanceSet:
    def test_shape_validation(self):
        good = np.array([[70.0 + 40.0j]])
        with pytest.raises(DomainError, match="shapes"):
            ImpedanceSet(z_rt=1.0, z_rs=np.zeros((1, 1)), z_st=np.zeros(1), z_ss=good)
        with pytest.raises(DomainError, match="shapes"):
            ImpedanceSet(z_rt=1.0, z_rs=np.zeros(2), z_st=np.zeros(1), z_ss=good)

    def test_reciprocity_validation(self):
        z_ss = np.array([[70.0 + 40j, 5.0], [5.1, 70.0 + 40j]])
        with pytest.raises(DomainError, match="reciprocity"):
            ImpedanceSet(z_rt=1.0, z_rs=np.zeros(2), z_st=np.zeros(2), z_ss=z_ss)

    def test_positive_resistance_validation(self):
        z_ss = np.array([[-1.0 + 40j]])
        with pytest.raises(DomainError, match="positive real"):
            ImpedanceSet(z_rt=1.0, z_rs=np.zeros(1), z_st=np.zeros(1), z_ss=z_ss)

    def test_finite_validation(self):
        z_ss = np.array([[np.inf + 0j]])
        with pytest.raises(DomainError, match="non-finite"):
            ImpedanceSet(z_rt=1.0, z_rs=np.zeros(1), z_st=np.zeros(1), z_ss=z_ss)


def _reference_scene(data):
    def wire(w):
        return Dipole(tuple(w["center"]), w["half_length"], w["radius"])

    surface = tuple(wire(w) for w in data["surface"])
    scene = Scene(wire(data["transmitter"]), wire(data["receiver"]), surface,
                  data["frequency_hz"])
    return scene, surface


def _reference_pairs(data, scene, surface):
    """(source, observer, same, reference value) of every coupling."""
    tx, rx = scene.transmitter, scene.receiver
    pairs = [(tx, rx, False, data["z_rt"])]
    pairs += [(tx, e, False, v) for e, v in zip(surface, data["z_st"])]
    pairs += [(e, rx, False, v) for e, v in zip(surface, data["z_rs"])]
    n = len(surface)
    pairs += [(surface[p], surface[q], p == q, data["z_ss"][q][p])
              for q in range(n) for p in range(q, n)]
    return [(a, b, same, complex(*v)) for a, b, same, v in pairs]


@st.composite
def jittered_scenes(draw):
    # xy grids, or xz grids whose same-column pairs are collinear or
    # nearly so; offsets never close the gaps the grid leaves
    plane = draw(st.sampled_from(["xy", "xz"]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    spacing = LAM / 8 if plane == "xy" else LAM / 2
    jitter = draw(st.sampled_from([0.0, 1e-12, LAM / 64]))
    grid = build_grid(rows, cols, spacing=spacing, half_length=0.23 * LAM,
                      radius=0.002 * LAM, plane=plane)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.uniform(-jitter, jitter, size=(len(grid), 3))
    if plane == "xz":
        offsets[:, 2] *= 0.5
    surface = tuple(Dipole(tuple(np.add(d.center, o)), d.half_length, d.radius)
                    for d, o in zip(grid, offsets))
    return Scene(half_wave(y=-3.0), half_wave(y=3.0, z=0.1), surface, FREQ)


class TestArrayKernel:
    @pytest.mark.parametrize("name", ["jittered_4x4", "xz_3x3",
                                      "interleaved_1e-12m"])
    def test_matches_scalar_reference(self, name):
        data = json.loads(SCALAR_REFERENCE.read_text())["scenes"][name]
        scene, surface = _reference_scene(data)
        imps = assemble_impedances(scene)[0]
        got = [imps.z_rt, *imps.z_st, *imps.z_rs]
        got += [imps.z_ss[q, p] for q in range(len(surface))
                for p in range(q, len(surface))]
        k = scene.wavenumber
        for value, (a, b, same, ref) in zip(
                got, _reference_pairs(data, scene, surface), strict=True):
            assert abs(value - ref) <= 1e-13 * abs(ref)
            # the oracle does not converge on the interleaved pair, which
            # test_interleaved_near_collinear_pair_matches_mpmath covers
            if a.radius > 1e-12:
                oracle = mutual_impedance_oracle(a, b, k, same, rel_tol=1e-12)
                assert abs(oracle - ref) <= 1e-11 * abs(ref)

    @settings(max_examples=25, deadline=None)
    @given(jittered_scenes())
    def test_batched_and_one_pair_values_are_bit_identical(self, scene):
        imps = assemble_impedances(scene)[0]
        k, tx, rx = scene.wavenumber, scene.transmitter, scene.receiver
        assert imps.z_rt == mutual_impedance(tx, rx, k)
        for i, e in enumerate(scene.surface):
            assert imps.z_st[i] == mutual_impedance(tx, e, k)
            assert imps.z_rs[i] == mutual_impedance(e, rx, k)
            for j, f in enumerate(scene.surface[i:], start=i):
                assert imps.z_ss[i, j] == mutual_impedance(f, e, k, i == j)
                assert imps.z_ss[j, i] == imps.z_ss[i, j]

    def test_chunked_assembly_matches_one_chunk(self, monkeypatch):
        surface = build_grid(3, 3, spacing=LAM / 8, half_length=0.23 * LAM,
                             radius=0.002 * LAM)
        scene = Scene(half_wave(y=-3.0), half_wave(y=3.0), surface, FREQ)
        whole = assemble_impedances(scene)[0]
        monkeypatch.setattr(impedance, "PAIR_CHUNK", 4)
        chunked = assemble_impedances(scene)[0]
        assert np.array_equal(chunked.z_ss, whole.z_ss)
        assert np.array_equal(chunked.z_st, whole.z_st)
        assert np.array_equal(chunked.z_rs, whole.z_rs)

    @pytest.mark.parametrize("plane", ["xy", "xz"])
    def test_ten_or_eighteen_e1_arguments_per_row(self, monkeypatch, plane):
        # E1 at the distinct axial offsets of a row for each phase sign,
        # once for z_rt and once per distinct pair geometry: 5 offsets
        # for identical wires (the surface pairs and the half-wave z_rt
        # link), 9 where the half-lengths differ (transmitter and
        # receiver against the surface); xz grids add collinear pairs
        surface = build_grid(3, 3, spacing=LAM / 2, half_length=0.23 * LAM,
                             radius=0.002 * LAM, plane=plane)
        scene = Scene(half_wave(x=-4.0), half_wave(x=4.0), surface, FREQ)
        seen, e1 = [], impedance.exp_integral_e1

        def counting(c):
            seen.append(np.size(c))
            return e1(c)

        monkeypatch.setattr(impedance, "exp_integral_e1", counting)
        assemble_impedances(scene)
        n = len(surface)
        rows = _distinct_pair_rows(scene)
        identical = sum(h_p == h_q for _, _, h_p, h_q in rows)
        assert 0 < identical < len(rows)
        assert sum(seen) == 10 * (1 + identical) + 18 * (len(rows) - identical)
        assert sum(seen) < 10 + 18 * 2 * n + 10 * n * (n + 1) // 2

    @pytest.mark.parametrize("jitter", [0.0, LAM / 32],
                             ids=["grid", "jittered"])
    def test_only_distinct_pair_geometries_reach_the_kernel(self, monkeypatch,
                                                            jitter):
        # a jittered grid repeats too few rho values for the key step to
        # pay, so there every pair reaches the kernel. Assembled twice in
        # one call, next to the same surface at a second frequency, whose
        # electrical lengths it does not share, each distinct row of the
        # call reaches the kernel once.
        grid = build_grid(8, 8, spacing=LAM / 8, half_length=0.23 * LAM,
                          radius=0.002 * LAM)
        offsets = np.random.default_rng(5).uniform(-jitter, jitter, (64, 3))
        surface = tuple(Dipole(tuple(np.add(d.center, o)), d.half_length,
                               d.radius) for d, o in zip(grid, offsets))
        scene = Scene(half_wave(y=-3.0), half_wave(y=3.0), surface, FREQ)
        other = Scene(scene.transmitter, scene.receiver, surface, 1.5 * FREQ)
        rows, kernel = [], impedance._closed_form

        def counting(rho, dz, h_p, h_q):
            rows.append(np.size(rho))
            return kernel(rho, dz, h_p, h_q)

        monkeypatch.setattr(impedance, "_closed_form", counting)
        assemble_impedances(scene)
        distinct, apart = _distinct_pair_rows(scene), _distinct_pair_rows(other)
        assert len(distinct) < 2208 and not distinct & apart
        assert sum(rows) == 1 + (len(distinct) if jitter == 0 else 2208)
        rows.clear()
        # scene twice repeats every rho, so its keys always pay, and its
        # two z_rt links are one call
        assemble_impedances(scene, other, scene)
        assert sum(rows) == 2 + len(distinct) + len(apart)

    @pytest.mark.parametrize("chunk", [1024, 100])
    def test_one_keyed_pass_serves_every_frequency(self, monkeypatch, chunk):
        # a frequency sweep of one surface: the rows of all its points, in
        # electrical lengths, go through one keyed pass, so the kernel
        # runs the chunks of their distinct rows together, plus one z_rt
        # call per link
        surface = build_grid(8, 8, spacing=LAM / 8, half_length=0.23 * LAM,
                             radius=0.002 * LAM)
        scenes = [Scene(half_wave(y=-3.0), half_wave(y=3.0), surface, f * FREQ)
                  for f in (0.8, 0.9, 1.0, 1.1, 1.2)]
        calls, kernel = [], impedance._closed_form

        def counting(*args):
            calls.append(np.size(args[0]))
            return kernel(*args)

        monkeypatch.setattr(impedance, "_closed_form", counting)
        monkeypatch.setattr(impedance, "PAIR_CHUNK", chunk)
        sets = assemble_impedances(*scenes)
        per_point = [_distinct_pair_rows(scene) for scene in scenes]
        distinct = set().union(*per_point)
        assert len(distinct) == sum(map(len, per_point))  # none shared
        assert len(calls) == 5 + math.ceil(len(distinct) / chunk)
        assert sum(calls) == 5 + len(distinct)
        for scene, imps in zip(scenes, sets, strict=True):
            assert _same_bits(imps, assemble_impedances(scene)[0])

    def test_doubled_lengths_at_half_the_frequency_give_the_same_set(
            self, monkeypatch):
        # a coupling depends only on electrical lengths: every length of
        # a scene doubled at half its frequency gives the same bits, and
        # the two scenes assembled together share every kernel row
        grid = build_grid(3, 3, spacing=LAM / 8, half_length=0.23 * LAM,
                          radius=0.002 * LAM)
        offsets = np.random.default_rng(7).uniform(-LAM / 32, LAM / 32, (9, 3))
        surface = tuple(Dipole(tuple(np.add(d.center, o)), d.half_length,
                               d.radius) for d, o in zip(grid, offsets))
        scene = Scene(half_wave(y=-3.0), half_wave(y=3.0, z=0.1), surface, FREQ)

        def doubled(d):
            return Dipole(tuple(2.0 * c for c in d.center), 2.0 * d.half_length,
                          2.0 * d.radius)

        big = Scene(doubled(scene.transmitter), doubled(scene.receiver),
                    tuple(map(doubled, surface)), FREQ / 2)
        assert _same_bits(assemble_impedances(big)[0],
                          assemble_impedances(scene)[0])
        rows, kernel = [], impedance._closed_form

        def counting(*args):
            rows.append(np.size(args[0]))
            return kernel(*args)

        monkeypatch.setattr(impedance, "_closed_form", counting)
        together = assemble_impedances(scene, big)
        assert _same_bits(*together)
        distinct = _distinct_pair_rows(scene)
        assert distinct == _distinct_pair_rows(big)
        assert sum(rows) == 2 + len(distinct)  # two z_rt links, shared rows

    @settings(max_examples=10, deadline=None)
    @given(jittered_scenes(), jittered_scenes())
    def test_scenes_assembled_together_match_one_at_a_time(self, a, b):
        # b again at another frequency shares its geometry, not its k
        c = Scene(b.transmitter, b.receiver, b.surface, 1.5 * FREQ)
        grid = Scene(half_wave(y=-3.0), half_wave(y=3.0),
                     build_grid(2, 3, spacing=LAM / 8, half_length=0.23 * LAM,
                                radius=0.002 * LAM), FREQ)
        scenes = (a, grid, b, c)
        together = assemble_impedances(*scenes)
        for scene, imps in zip(scenes, together, strict=True):
            assert _same_bits(imps, assemble_impedances(scene)[0])
        assert assemble_impedances() == []

    @pytest.mark.parametrize("chunk", [1024, 5])
    @pytest.mark.parametrize("receiver, message", [
        (LAM / 4, "surface[0] half-length 0.499654 m"),
        (LAM, "receiver half-length 0.999308 m"),
    ], ids=["surface", "receiver"])
    def test_resonant_wire_is_named_by_scene_role(
            self, monkeypatch, chunk, receiver, message):
        # surface[0] and surface[4] are resonant; the wires are checked
        # in scene order, transmitter and receiver first, so the message
        # does not depend on how the kernel chunks the pairs
        half = [0.5, 0.23, 0.23, 0.23, 0.5]
        surface = tuple(Dipole(((i - 2) * LAM / 4, 0.0, 0.0), h * LAM,
                               0.002 * LAM) for i, h in enumerate(half))
        rx = Dipole((0.0, 3.0, 0.0), receiver, LAM / 2000)
        scene = Scene(half_wave(y=-3.0), rx, surface, FREQ)
        monkeypatch.setattr(impedance, "PAIR_CHUNK", chunk)
        with pytest.raises(ResonantLength) as exc:
            assemble_impedances(scene)
        sin = "2.45e-16" if receiver == LAM else "1.22e-16"
        assert str(exc.value) == (
            f"{message} sits within the guard band of a current-"
            f"normalization zero (|sin(k*h)| = {sin}); change the length "
            "or the frequency")

    def test_resonant_scene_raises_before_any_kernel_call(self, monkeypatch):
        # the good scene comes first, yet neither its z_rt nor its pairs
        # reach the kernel: every scene's wires are checked beforehand
        grid = build_grid(2, 2, spacing=LAM / 8, half_length=0.23 * LAM,
                          radius=0.002 * LAM)
        good = Scene(half_wave(y=-3.0), half_wave(y=3.0), grid, FREQ)
        # at twice the frequency the half-wave transmitter is a full wave
        resonant = Scene(good.transmitter, good.receiver, grid, 2 * FREQ)
        calls, kernel = [], impedance._closed_form

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(impedance, "_closed_form", counting)
        with pytest.raises(ResonantLength, match=r"^transmitter half-length"):
            assemble_impedances(good, resonant)
        assert calls == []
        assemble_impedances(good)
        assert len(calls) == 2  # z_rt, then one chunk of distinct pairs


def _distinct_pair_rows(scene) -> set:
    """Distinct rows (rho, dz, h_p, h_q) of a scene's 2N + N(N+1)/2
    batched pairs in electrical lengths, pair_geometry times the
    wavenumber, as a set of tuples."""
    n = scene.n_elements
    wires = (scene.transmitter, scene.receiver) + scene.surface
    element = range(2, n + 2)
    pairs = ([(0, e) for e in element] + [(e, 1) for e in element]
             + [(p, q) for q in element for p in element if p >= q])
    src, obs = zip(*pairs)
    k = scene.wavenumber
    return set(zip(*(k * v for v in pair_geometry(wires, src, obs))))


def _same_bits(a, b) -> bool:
    return all(np.asarray(getattr(a, f)).tobytes()
               == np.asarray(getattr(b, f)).tobytes()
               for f in ("z_rt", "z_rs", "z_st", "z_ss"))
