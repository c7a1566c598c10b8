"""Dipole, scene, and grid construction invariants."""

import math
import time

import numpy as np
import pytest

from wirecoupling import (
    Dipole,
    GeometryError,
    Scene,
    build_grid,
    pair_geometry,
    wavelength,
    wavenumber,
)
from wirecoupling import geometry

FREQ = 3.0e8  # [Hz], lambda very close to 1 m


def first_overlap_loop(wires):
    # pairwise reference for the array check in _first_overlap
    for i, p in enumerate(wires):
        for j in range(i + 1, len(wires)):
            q = wires[j]
            d = math.hypot(q.center[0] - p.center[0], q.center[1] - p.center[1])
            if (d <= p.radius + q.radius
                    and abs(q.center[2] - p.center[2])
                    <= p.half_length + q.half_length):
                return i, j
    return None


def make_dipole(x=0.0, y=0.0, z=0.0, h=0.25, a=0.001) -> Dipole:
    return Dipole(center=(x, y, z), half_length=h, radius=a)


class TestDipole:
    def test_center_is_normalized_to_float_tuple(self):
        d = Dipole(center=[1, 2, 3], half_length=0.25, radius=0.001)
        assert d.center == (1.0, 2.0, 3.0)
        assert isinstance(d.center, tuple)

    def test_rejects_fat_wire(self):
        # 0.026 m radius on 0.25 m half-length breaks the a < h/10 limit
        with pytest.raises(GeometryError, match="thin-wire"):
            make_dipole(a=0.026)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(GeometryError):
            make_dipole(h=0.0)
        with pytest.raises(GeometryError):
            make_dipole(h=-0.1)
        with pytest.raises(GeometryError):
            make_dipole(a=0.0)

    def test_rejects_bad_center(self):
        with pytest.raises(GeometryError):
            Dipole(center=(0.0, 0.0), half_length=0.25, radius=0.001)
        with pytest.raises(GeometryError):
            Dipole(center=(0.0, math.nan, 0.0), half_length=0.25, radius=0.001)
        with pytest.raises(GeometryError):
            Dipole(center="origin", half_length=0.25, radius=0.001)


class TestWavelength:
    def test_wavelength_and_wavenumber(self):
        lam = wavelength(FREQ)
        assert lam == pytest.approx(299_792_458.0 / FREQ, rel=1e-15)
        assert wavenumber(FREQ) == pytest.approx(2.0 * math.pi / lam, rel=1e-15)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(GeometryError):
            wavelength(0.0)
        with pytest.raises(GeometryError):
            wavenumber(-1.0)


class TestPairGeometry:
    def test_self_term_uses_radius(self):
        d = make_dipole(a=0.001)
        rho, dz, h_p, h_q = pair_geometry([d], [0], [0])
        assert rho.tolist() == [0.001]
        assert dz.tolist() == [0.0]
        assert h_p.tolist() == h_q.tolist() == [0.25]

    def test_self_terms_mix_with_distinct_pairs(self):
        p = make_dipole(a=0.001)
        q = make_dipole(x=0.3, y=0.4, z=0.2, h=0.2, a=0.002)
        rho, dz, h_p, h_q = pair_geometry([p, q], [0, 0, 1], [0, 1, 1])
        assert rho.tolist() == [0.001, math.hypot(0.3, 0.4), 0.002]
        assert dz.tolist() == [0.0, 0.2, 0.0]
        assert h_p.tolist() == [0.25, 0.25, 0.2]
        assert h_q.tolist() == [0.25, 0.2, 0.2]

    def test_three_four_five_offsets(self):
        p = make_dipole()
        q = make_dipole(x=0.3, y=0.4, z=0.2)
        # forward, then with swapped roles: the z offset flips, the
        # separation does not
        rho, dz, _, _ = pair_geometry([p, q], [0, 1], [1, 0])
        assert rho == pytest.approx([0.5, 0.5], rel=1e-15)
        assert dz == pytest.approx([0.2, -0.2], rel=1e-15)

    def test_coaxial_pair(self):
        p = make_dipole()
        q = make_dipole(z=1.0)
        rho, dz, _, _ = pair_geometry([p, q], [0], [1])
        assert rho.tolist() == [0.0]
        assert dz.tolist() == [1.0]

    def test_symmetry_over_random_placements(self):
        rng = np.random.default_rng(3)
        wires = []
        for _ in range(50):
            x, y, z = rng.uniform(-2, 2, size=3)
            wires.append(make_dipole(h=float(rng.uniform(0.1, 0.4))))
            wires.append(make_dipole(x, y, z, h=float(rng.uniform(0.1, 0.4))))
        src, obs = np.arange(0, 100, 2), np.arange(1, 100, 2)
        fwd = pair_geometry(wires, src, obs)
        rev = pair_geometry(wires, obs, src)
        assert np.array_equal(fwd[0], rev[0])
        assert np.array_equal(fwd[1], -rev[1])
        assert np.array_equal(fwd[2], rev[3])
        assert np.array_equal(fwd[3], rev[2])


class TestBuildGrid:
    def test_two_element_row(self):
        lam = wavelength(FREQ)
        grid = build_grid(1, 2, spacing=lam / 2, half_length=0.25, radius=0.001)
        assert len(grid) == 2
        rho, dz, _, _ = pair_geometry(grid, [0], [1])
        assert rho[0] == pytest.approx(lam / 2, rel=1e-15)
        assert dz[0] == 0.0

    def test_square_grid_pair_distances(self):
        lam = wavelength(FREQ)
        s = lam / 8
        grid = build_grid(2, 2, spacing=s, half_length=0.25, radius=0.001)
        assert len(grid) == 4
        dists = np.sort(pair_geometry(grid, *np.triu_indices(4, 1))[0])
        # 4 edges at the lattice pitch, 2 diagonals at pitch*sqrt(2)
        assert len(dists) == 6
        for d in dists[:4]:
            assert d == pytest.approx(s, rel=1e-12)
        for d in dists[4:]:
            assert d == pytest.approx(s * math.sqrt(2), rel=1e-12)

    def test_single_element_sits_at_center(self):
        grid = build_grid(1, 1, spacing=0.1, half_length=0.25, radius=0.001,
                          center=(1.0, 2.0, 3.0))
        assert len(grid) == 1
        assert grid[0].center == (1.0, 2.0, 3.0)

    def test_row_major_order_and_centering(self):
        grid = build_grid(2, 3, spacing=1.0, half_length=0.25, radius=0.001)
        xs = [d.center[0] for d in grid]
        ys = [d.center[1] for d in grid]
        assert xs == [-1.0, 0.0, 1.0, -1.0, 0.0, 1.0]
        assert ys == [-0.5, -0.5, -0.5, 0.5, 0.5, 0.5]
        assert all(d.center[2] == 0.0 for d in grid)

    def test_xz_plane_stacks_along_z(self):
        grid = build_grid(2, 1, spacing=0.6, half_length=0.25, radius=0.001,
                          plane="xz")
        zs = [d.center[2] for d in grid]
        assert zs == [-0.3, 0.3]
        assert all(d.center[1] == 0.0 for d in grid)

    def test_deterministic(self):
        a = build_grid(3, 3, spacing=0.2, half_length=0.1, radius=0.0005)
        b = build_grid(3, 3, spacing=0.2, half_length=0.1, radius=0.0005)
        assert a == b

    def test_vertical_stack_needs_clearance(self):
        # z-stacked wires of half-length 0.25 m collide at spacing <= 0.5 m
        with pytest.raises(GeometryError, match="overlap"):
            build_grid(2, 1, spacing=0.5, half_length=0.25, radius=0.001,
                       plane="xz")

    def test_transverse_overlap_rejected(self):
        with pytest.raises(GeometryError, match="overlap"):
            build_grid(1, 2, spacing=0.0015, half_length=0.25, radius=0.001)

    @pytest.mark.parametrize("rows, cols, plane", [
        (1, 2, "xy"), (3, 1, "xy"), (2, 3, "xy"),
        (1, 3, "xz"), (2, 1, "xz"), (3, 4, "xz"),
    ])
    @pytest.mark.parametrize("spacing", [0.0015, 0.0025, 0.3, 0.45, 0.55])
    def test_pitch_check_matches_pairwise_loop(self, rows, cols, plane,
                                               spacing):
        # radius 0.001 m and half-length 0.25 m: limits at 0.002 and 0.5 m
        wires = []
        for r in range(rows):
            for c in range(cols):
                u = (c - 0.5 * (cols - 1)) * spacing
                v = (r - 0.5 * (rows - 1)) * spacing
                wires.append(make_dipole(u, v, 0.0) if plane == "xy"
                             else make_dipole(u, 0.0, v))
        pair = first_overlap_loop(wires)
        if pair is None:
            grid = build_grid(rows, cols, spacing, 0.25, 0.001, plane=plane)
            assert grid == tuple(wires)
        else:
            with pytest.raises(GeometryError, match=f"grid elements {pair[0]} "
                               f"and {pair[1]} overlap"):
                build_grid(rows, cols, spacing, 0.25, 0.001, plane=plane)

    def test_crowded_pitch_fails_before_building(self, monkeypatch):
        # 3.75e6 wires a side: the 0.375 m aperture of a 4 x 4 lambda/8
        # grid at a 1e-7 m pitch
        def refuse(*args, **kwargs):
            raise AssertionError("a wire was built")

        monkeypatch.setattr(geometry, "Dipole", refuse)
        start = time.perf_counter()
        with pytest.raises(GeometryError, match="grid elements 0 and 1"):
            build_grid(3_750_001, 3_750_001, spacing=1e-7, half_length=0.23,
                       radius=0.002)
        assert time.perf_counter() - start < 0.5

    def test_input_validation(self):
        with pytest.raises(GeometryError):
            build_grid(0, 2, spacing=0.1, half_length=0.25, radius=0.001)
        with pytest.raises(GeometryError):
            build_grid(2.0, 2, spacing=0.1, half_length=0.25, radius=0.001)
        with pytest.raises(GeometryError):
            build_grid(True, 2, spacing=0.1, half_length=0.25, radius=0.001)
        with pytest.raises(GeometryError):
            build_grid(1, 1, spacing=-0.1, half_length=0.25, radius=0.001)
        with pytest.raises(GeometryError):
            build_grid(1, 1, spacing=0.1, half_length=0.25, radius=0.001,
                       plane="yz")


class TestScene:
    def test_basic_scene(self):
        tx = make_dipole(x=-3.0)
        rx = make_dipole(x=3.0)
        surface = build_grid(2, 2, spacing=0.125, half_length=0.25,
                             radius=0.001)
        scene = Scene(tx, rx, surface, FREQ)
        assert scene.n_elements == 4
        assert scene.wavelength == pytest.approx(wavelength(FREQ))
        assert scene.wavenumber == pytest.approx(wavenumber(FREQ))

    def test_requires_surface(self):
        with pytest.raises(GeometryError, match="at least one"):
            Scene(make_dipole(x=-3.0), make_dipole(x=3.0), (), FREQ)

    def test_rejects_overlapping_wires(self):
        tx = make_dipole(x=-3.0)
        rx = make_dipole(x=-3.0 + 0.0015)  # within summed radii of tx
        surface = (make_dipole(),)
        with pytest.raises(GeometryError, match="overlap"):
            Scene(tx, rx, surface, FREQ)

    def test_rejects_bad_frequency(self):
        surface = (make_dipole(),)
        with pytest.raises(GeometryError):
            Scene(make_dipole(x=-3.0), make_dipole(x=3.0), surface, 0.0)

    def test_collinear_wires_allowed_when_spans_disjoint(self):
        # same axis, z spans separated: legal, coupling handled downstream
        lo = make_dipole(z=0.0)
        hi = make_dipole(z=0.6)
        scene = Scene(make_dipole(x=-3.0), make_dipole(x=3.0), (lo, hi), FREQ)
        assert scene.n_elements == 2


@pytest.mark.parametrize("seed", range(16))
def test_first_overlap_matches_pairwise_loop(seed):
    # seeds 0-7: crowded random wires, n < 60, most seeds with several
    # collisions; 8-11: the same up to n = 150; 12-15: wires stacked along
    # z on nearby axes, each gap at, just inside or just beyond the
    # touching distance h_i + h_j, checked from every starting wire
    rng = np.random.default_rng(seed)
    starts = [0]
    if seed < 12:
        n = int(rng.integers(2, 60 if seed < 8 else 150))
        spread = rng.uniform(0.005, 0.1)
        wires = [make_dipole(*rng.uniform(-spread, spread, 2),
                             rng.uniform(-1, 1), h=rng.uniform(0.05, 0.3),
                             a=rng.uniform(0.001, 0.004))
                 for _ in range(n)]
    else:
        wires = [make_dipole()]
        for _ in range(int(rng.integers(20, 150))):
            h = rng.uniform(0.05, 0.3)
            # the axis offset along x keeps rho exact in both checks
            x = rng.choice([0.0, 0.002, 0.003, 0.01])
            z = wires[-1].center[2] + (wires[-1].half_length + h) * rng.choice(
                [1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-3])
            wires.append(make_dipole(x, 0.0, z, h=h))
        starts = range(len(wires))
    for s in starts:
        assert geometry._first_overlap(wires[s:]) == first_overlap_loop(wires[s:])
    assert geometry._first_overlap(wires[:1]) is None
