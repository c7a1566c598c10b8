"""Channel solve and reactance-tuning optimizer behavior."""

import math

import numpy as np
import pytest

import wirecoupling.channel
from wirecoupling import (
    Dipole,
    DomainError,
    ImpedanceSet,
    Scene,
    SingularSystem,
    TuningState,
    assemble_impedances,
    build_grid,
    end_to_end,
    optimize_tuning,
    wavelength,
    wavenumber,
)

FREQ = 3.0e8  # [Hz]
LAM = wavelength(FREQ)
K = wavenumber(FREQ)


def half_wave(x=0.0, y=0.0, z=0.0) -> Dipole:
    return Dipole(center=(x, y, z), half_length=LAM / 4, radius=LAM / 2000)


def single_element_imps() -> ImpedanceSet:
    scene = Scene(half_wave(x=-2.0), half_wave(x=2.0), (half_wave(),), FREQ)
    return assemble_impedances(scene)


def two_element_imps() -> ImpedanceSet:
    surface = build_grid(1, 2, spacing=LAM / 8, half_length=LAM / 4,
                         radius=LAM / 2000)
    scene = Scene(half_wave(y=-2.5), half_wave(y=2.5), surface, FREQ)
    return assemble_impedances(scene)


class TestTuningState:
    def test_from_reactances(self):
        t = TuningState.from_reactances([10.0, -20.0])
        assert np.array_equal(t.entries, np.array([10j, -20j]))
        assert t.reactance_only
        assert t.n_elements == 2

    def test_rejects_resistive_part_in_reactive_mode(self):
        with pytest.raises(DomainError, match="resistive"):
            TuningState(np.array([5.0 + 10j]))

    def test_rejects_out_of_bounds_reactance(self):
        with pytest.raises(DomainError, match="within"):
            TuningState.from_reactances([3000.0])
        with pytest.raises(DomainError, match="within"):
            TuningState.from_reactances([-50.0], reactance_bounds=(0.0, 100.0))

    def test_free_mode_admits_complex_entries(self):
        t = TuningState(np.array([5.0 + 1e6j]), reactance_only=False)
        assert t.entries[0] == 5.0 + 1e6j

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(DomainError):
            TuningState(np.zeros((2, 2), dtype=complex))
        with pytest.raises(DomainError):
            TuningState(np.array([], dtype=complex))
        with pytest.raises(DomainError):
            TuningState(np.array([np.nan + 0j]))
        with pytest.raises(DomainError):
            TuningState(np.array([0j]), reactance_bounds=(5.0, 5.0))


class TestEndToEnd:
    def test_single_element_matches_scalar_formula(self):
        imps = ImpedanceSet(
            z_rt=50.0 + 10.0j,
            z_rs=np.array([3.0 - 2.0j]),
            z_st=np.array([4.0 + 1.0j]),
            z_ss=np.array([[73.0 + 42.0j]]),
        )
        x = 17.0
        result = end_to_end(imps, TuningState.from_reactances([x]))
        expected = imps.z_rt - imps.z_rs[0] * imps.z_st[0] / (
            imps.z_ss[0, 0] + 1j * x
        )
        assert abs(result.h_e2e - expected) <= 1e-12 * abs(expected)
        assert result.gain_db == pytest.approx(
            20.0 * math.log10(abs(expected / imps.z_rt)), abs=1e-12
        )

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(41)
        n = 6
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z_ss = (raw + raw.T) / 2.0
        z_ss[np.diag_indices(n)] = 60.0 + rng.uniform(0, 20, n) + 40.0j
        z_rs = rng.normal(size=n) + 1j * rng.normal(size=n)
        z_st = rng.normal(size=n) + 1j * rng.normal(size=n)
        imps = ImpedanceSet(z_rt=40.0 - 8.0j, z_rs=z_rs, z_st=z_st, z_ss=z_ss)
        tuning = TuningState.from_reactances(rng.uniform(-500, 500, n))
        result = end_to_end(imps, tuning)
        system = z_ss + np.diag(tuning.entries)
        expected = imps.z_rt - np.dot(z_rs, np.linalg.solve(system, z_st))
        assert abs(result.h_e2e - expected) <= 1e-10 * abs(expected)
        assert result.condition_estimate >= 1.0

    def test_open_circuit_recovers_direct_link(self):
        imps = two_element_imps()
        n = imps.n_elements
        blocked = TuningState(np.full(n, 1e9j), reactance_only=False)
        result = end_to_end(imps, blocked)
        assert abs(result.h_e2e - imps.z_rt) <= 1e-6 * abs(imps.z_rt)
        assert abs(result.gain_db) <= 1e-5

    def test_gain_shrinks_as_loading_opens(self):
        imps = two_element_imps()
        n = imps.n_elements
        gains = []
        for magnitude in (1e6, 1e9, 1e12):
            state = TuningState(np.full(n, 1j * magnitude), reactance_only=False)
            gains.append(abs(end_to_end(imps, state).gain_db))
        assert gains[0] > gains[1] > gains[2]

    def test_exactly_singular_system_raises(self):
        imps = ImpedanceSet(
            z_rt=1.0,
            z_rs=np.array([1.0, 1.0]),
            z_st=np.array([1.0, 1.0]),
            z_ss=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )
        with pytest.raises(SingularSystem):
            end_to_end(imps, TuningState.from_reactances([0.0, 0.0]))

    def test_condition_cap_rejects_near_singular_system(self):
        eps = 1e-13
        imps = ImpedanceSet(
            z_rt=3.0,
            z_rs=np.array([1.0, 1.0]),
            z_st=np.array([1.0, 1.0]),
            z_ss=np.array([[1.0, 1.0], [1.0, 1.0 + eps]]),
        )
        tuning = TuningState.from_reactances([0.0, 0.0])
        with pytest.raises(SingularSystem, match="condition"):
            end_to_end(imps, tuning)
        # the same system passes once the caller raises the cap
        result = end_to_end(imps, tuning, cond_cap=1e16)
        assert result.condition_estimate > 1e12

    def test_condition_estimate_for_diagonal_system(self):
        imps = ImpedanceSet(
            z_rt=1.0,
            z_rs=np.array([1.0, 1.0]),
            z_st=np.array([1.0, 1.0]),
            z_ss=np.array([[2.0 + 0j, 0.0], [0.0, 1.0 + 0j]]),
        )
        result = end_to_end(imps, TuningState.from_reactances([0.0, 0.0]))
        assert result.condition_estimate == pytest.approx(2.0, rel=0.3)

    def test_element_order_is_immaterial(self):
        imps = two_element_imps()
        tuning = TuningState.from_reactances([37.0, -120.0])
        direct = end_to_end(imps, tuning)
        perm = np.array([1, 0])
        swapped = ImpedanceSet(
            z_rt=imps.z_rt,
            z_rs=imps.z_rs[perm],
            z_st=imps.z_st[perm],
            z_ss=imps.z_ss[np.ix_(perm, perm)],
        )
        swapped_tuning = TuningState.from_reactances([-120.0, 37.0])
        other = end_to_end(swapped, swapped_tuning)
        assert abs(direct.h_e2e - other.h_e2e) <= 1e-12 * abs(direct.h_e2e)

    def test_length_mismatch_raises(self):
        imps = single_element_imps()
        with pytest.raises(DomainError, match="entries"):
            end_to_end(imps, TuningState.from_reactances([0.0, 0.0]))

    def test_vanishing_direct_link_raises(self):
        imps = ImpedanceSet(
            z_rt=0.0,
            z_rs=np.array([1.0 + 0j]),
            z_st=np.array([1.0 + 0j]),
            z_ss=np.array([[50.0 + 0j]]),
        )
        with pytest.raises(DomainError, match="gain"):
            end_to_end(imps, TuningState.from_reactances([0.0]))


def scalar_gain_profile(imps, reactances):
    # closed form |h(x)| for a 1-element surface, vectorized over x
    h = imps.z_rt - imps.z_rs[0] * imps.z_st[0] / (imps.z_ss[0, 0] + 1j * reactances)
    return np.abs(h)


def random_single_element_imps(seed: int) -> ImpedanceSet:
    rng = np.random.default_rng(seed)
    element = Dipole(
        (rng.uniform(-0.5, 0.5) * LAM, rng.uniform(-0.5, 0.5) * LAM,
         rng.uniform(-0.2, 0.2) * LAM),
        rng.uniform(0.1, 0.3) * LAM, LAM / 2000,
    )
    tx = half_wave(x=-2.0 * LAM, y=rng.uniform(-1.0, 1.0) * LAM)
    rx = half_wave(x=2.0 * LAM, y=rng.uniform(-1.0, 1.0) * LAM)
    return assemble_impedances(Scene(tx, rx, (element,), FREQ))


def grid_4x4_imps() -> ImpedanceSet:
    # 4 x 4 lambda/8 grid of 0.23 lambda wires between a transmitter and
    # a receiver 6 lambda apart, at a frequency where lambda is 1 m.
    def wire(center):
        return Dipole(center, half_length=0.23, radius=0.002)

    surface = build_grid(4, 4, spacing=0.125, half_length=0.23, radius=0.002)
    scene = Scene(wire((0.0, -3.0, 0.0)), wire((0.0, 3.0, 0.0)), surface,
                  299_792_458.0)
    return assemble_impedances(scene)


class TestOptimizer:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_step_matches_dense_scan(self, seed):
        # One coordinate step on a one-element surface is the whole
        # problem, so a single sweep must reach the scalar optimum.
        imps = random_single_element_imps(seed)
        wide = np.linspace(-2000.0, 2000.0, 200_001)
        peak = wide[np.argmax(scalar_gain_profile(imps, wide))]
        # bounds around the unconstrained peak, then above and below it
        for lo, hi in ((-2000.0, 2000.0), (peak + 50.0, peak + 800.0),
                       (peak - 800.0, peak - 50.0)):
            init = TuningState.from_reactances([min(max(0.0, lo), hi)],
                                               reactance_bounds=(lo, hi))
            result = optimize_tuning(imps, init, budget=1)
            xs = np.linspace(lo, hi, 200_001)
            scan_best = float(np.max(scalar_gain_profile(imps, xs)))
            assert abs(result.channel.h_e2e) >= (1.0 - 1e-9) * scan_best
            x = result.tuning.entries.imag
            assert lo <= x[0] <= hi

    def test_single_element_matches_fine_grid(self):
        imps = single_element_imps()
        init = TuningState.from_reactances([0.0])
        result = optimize_tuning(imps, init)
        lo, hi = init.reactance_bounds
        # 1 milliohm grid resolution over the full bounds
        xs = np.arange(lo, hi + 1e-3, 1e-3)
        grid_best = float(np.max(scalar_gain_profile(imps, xs)))
        found = abs(result.channel.h_e2e)
        assert abs(found - grid_best) <= 1e-6 * grid_best

    def test_two_elements_beat_coarse_grid(self):
        imps = two_element_imps()
        init = TuningState.from_reactances([0.0, 0.0])
        result = optimize_tuning(imps, init)

        lo, hi = init.reactance_bounds
        x1, x2 = np.meshgrid(
            np.linspace(lo, hi, 201), np.linspace(lo, hi, 201), indexing="ij"
        )
        a = imps.z_ss[0, 0] + 1j * x1
        d = imps.z_ss[1, 1] + 1j * x2
        b = imps.z_ss[0, 1]
        det = a * d - b * b
        s1 = (imps.z_st[0] * d - imps.z_st[1] * b) / det
        s2 = (imps.z_st[1] * a - imps.z_st[0] * b) / det
        h = imps.z_rt - (imps.z_rs[0] * s1 + imps.z_rs[1] * s2)
        grid_best = float(np.max(np.abs(h)))

        found = abs(result.channel.h_e2e)
        assert found >= grid_best * (1.0 - 1e-3)

    def test_trace_is_monotone_and_reports_gain(self):
        imps = two_element_imps()
        init = TuningState.from_reactances([500.0, -500.0])
        result = optimize_tuning(imps, init)
        trace = np.array(result.trace)
        assert trace.shape[0] >= 2
        assert np.all(np.diff(trace) >= 0.0)
        assert trace[-1] == pytest.approx(abs(result.channel.h_e2e), rel=1e-12)
        init_h = abs(end_to_end(imps, init).h_e2e)
        assert trace[0] == pytest.approx(init_h, rel=1e-12)

    def test_single_sweep_never_hurts(self):
        imps = two_element_imps()
        init = TuningState.from_reactances([100.0, 100.0])
        result = optimize_tuning(imps, init, budget=1)
        init_h = abs(end_to_end(imps, init).h_e2e)
        assert abs(result.channel.h_e2e) >= init_h

    def test_bounds_are_respected(self):
        imps = two_element_imps()
        init = TuningState.from_reactances([0.0, 0.0],
                                           reactance_bounds=(-75.0, 75.0))
        result = optimize_tuning(imps, init)
        x = result.tuning.entries.imag
        assert np.all(x >= -75.0) and np.all(x <= 75.0)
        assert np.all(result.tuning.entries.real == 0.0)

    def test_deterministic_across_runs(self):
        imps = two_element_imps()
        init = TuningState.from_reactances([0.0, 0.0])
        a = optimize_tuning(imps, init)
        b = optimize_tuning(imps, init)
        assert np.array_equal(a.tuning.entries, b.tuning.entries)
        assert a.trace == b.trace
        assert a.channel.h_e2e == b.channel.h_e2e

    def test_input_validation(self):
        imps = single_element_imps()
        init = TuningState.from_reactances([0.0])
        with pytest.raises(DomainError):
            optimize_tuning(imps, init, budget=0)
        with pytest.raises(DomainError):
            optimize_tuning(imps, init, budget=2.0)

    def test_one_factorization_per_proposed_move(self, monkeypatch):
        # Each step reuses the factorization of the accepted state, so a
        # run factors once per proposal plus a fixed few at start and end.
        calls = []
        factor = wirecoupling.channel.lu_factor

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(wirecoupling.channel, "lu_factor", counting_factor)
        imps = grid_4x4_imps()
        result = optimize_tuning(imps, TuningState.from_reactances(np.zeros(16)))
        assert len(calls) <= 16 * (len(result.trace) - 1) + 3

    def test_budget_20_on_4x4_grid(self):
        imps = grid_4x4_imps()
        result = optimize_tuning(imps, TuningState.from_reactances(np.zeros(16)),
                                 budget=20)
        assert len(result.trace) == 21
        assert result.channel.gain_db == pytest.approx(4.3283307037, abs=1e-9)

    def test_condition_cap_rejects_probes_mid_run(self):
        # A cap of three times the starting estimate lets the run start
        # but refuses some of the proposed moves along the way.
        imps = grid_4x4_imps()
        init = TuningState.from_reactances(np.zeros(16))
        cap = 3.0 * end_to_end(imps, init).condition_estimate
        result = optimize_tuning(imps, init, cond_cap=cap)
        assert result.channel.condition_estimate <= cap
        assert np.all(np.diff(result.trace) >= 0.0)
        assert result.channel.gain_db == pytest.approx(3.4802222587, abs=1e-9)

    def test_unsolvable_everywhere_raises(self):
        imps = single_element_imps()
        init = TuningState.from_reactances([0.0])
        # a condition cap below 1 rejects every linear solve
        with pytest.raises(SingularSystem, match="every probed"):
            optimize_tuning(imps, init, cond_cap=0.5)
