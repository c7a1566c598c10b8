"""Channel solve and reactance-tuning optimizer behavior."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wirecoupling.channel import DEFAULT_REACTANCE_BOUNDS

FREQ = 3.0e8  # [Hz]
LAM = wavelength(FREQ)
K = wavenumber(FREQ)


def half_wave(x=0.0, y=0.0, z=0.0) -> Dipole:
    return Dipole(center=(x, y, z), half_length=LAM / 4, radius=LAM / 2000)


def single_element_imps() -> ImpedanceSet:
    scene = Scene(half_wave(x=-2.0), half_wave(x=2.0), (half_wave(),), FREQ)
    return assemble_impedances(scene)[0]


def two_element_imps() -> ImpedanceSet:
    surface = build_grid(1, 2, spacing=LAM / 8, half_length=LAM / 4,
                         radius=LAM / 2000)
    scene = Scene(half_wave(y=-2.5), half_wave(y=2.5), surface, FREQ)
    return assemble_impedances(scene)[0]


class TestTuningState:
    def test_from_reactances(self):
        t = TuningState.from_reactances([10.0, -20.0])
        assert np.array_equal(t.entries, np.array([10j, -20j]))
        assert t.entries.shape[0] == 2

    def test_admits_complex_entries(self):
        # Any finite load: the state makes no bound or loss claim.
        t = TuningState(np.array([5.0 + 1e6j, -3.0 - 1e6j]))
        assert np.array_equal(t.entries, np.array([5.0 + 1e6j, -3.0 - 1e6j]))

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(DomainError):
            TuningState(np.zeros((2, 2), dtype=complex))
        with pytest.raises(DomainError):
            TuningState(np.array([], dtype=complex))
        with pytest.raises(DomainError):
            TuningState(np.array([np.nan + 0j]))
        with pytest.raises(DomainError):
            TuningState(np.array([1j * np.inf]))


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
        blocked = TuningState(np.full(n, 1e9j))
        result = end_to_end(imps, blocked)
        assert abs(result.h_e2e - imps.z_rt) <= 1e-6 * abs(imps.z_rt)
        assert abs(result.gain_db) <= 1e-5

    def test_gain_shrinks_as_loading_opens(self):
        imps = two_element_imps()
        n = imps.n_elements
        gains = []
        for magnitude in (1e6, 1e9, 1e12):
            state = TuningState(np.full(n, 1j * magnitude))
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

    def test_condition_cap_rejects_near_singular_system(self, monkeypatch):
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
        # the same system passes under a cap of 1e16
        monkeypatch.setattr(wirecoupling.channel, "CONDITION_CAP", 1e16)
        result = end_to_end(imps, tuning)
        assert result.condition_estimate > 1e12

    @staticmethod
    def shift_solutions(monkeypatch, corrections):
        # the x column of every lu_factor solve comes out off by 1e-6 in
        # every entry, far above the residual gate, and so do the first
        # corrections products with that solve's A^-1 block (the
        # refinement's correction); returns the log of those products
        channel = wirecoupling.channel
        solve, matvec, solved, calls = (channel.lu_factor, channel._matvec,
                                        [], [])

        def shifted_solve(a, b):
            solved.append(solve(a, b))
            solved[-1][:, a.shape[0]] += 1e-6
            return solved[-1]

        def shifted(a, x):
            out = matvec(a, x)
            if any(np.shares_memory(a, w) for w in solved):
                calls.append(1)
                if len(calls) <= corrections:
                    out = out + 1e-6
            return out

        monkeypatch.setattr(channel, "lu_factor", shifted_solve)
        monkeypatch.setattr(channel, "_matvec", shifted)
        return calls

    def test_refinement_recovers_a_perturbed_solve(self, monkeypatch):
        imps = grid_imps()
        tuning = TuningState.from_reactances(np.full(16, -100.0))
        expected = end_to_end(imps, tuning)
        calls = self.shift_solutions(monkeypatch, 0)
        result = end_to_end(imps, tuning)
        # one refinement round
        assert len(calls) == 1
        assert result.h_e2e == pytest.approx(expected.h_e2e, rel=1e-12, abs=0)

    def test_refinement_that_cannot_recover_raises(self, monkeypatch):
        imps = grid_imps()
        tuning = TuningState.from_reactances(np.full(16, -100.0))
        self.shift_solutions(monkeypatch, math.inf)
        with pytest.raises(SingularSystem, match="solve residual"):
            end_to_end(imps, tuning)

    def test_solve_is_one_lu_and_one_product(self, monkeypatch):
        # A^-1, x and y come from one lu_factor call against
        # [I | z_st | z_rs]; a solve that needs no refinement makes one
        # matrix-vector product, its residual's.
        channel = wirecoupling.channel
        solve, matvec, calls = channel.lu_factor, channel._matvec, []

        def logged(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(channel, "lu_factor", logged("lu", solve))
        monkeypatch.setattr(channel, "_matvec", logged("matvec", matvec))
        end_to_end(grid_imps(),
                   TuningState.from_reactances(np.full(16, -100.0)))
        assert calls == ["lu", "matvec"]

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

    def test_vanishing_transfer_impedance_raises(self):
        # x = z_st / z_ss = 1 under a zero load, so h = 1 - 1 = 0 exactly
        imps = ImpedanceSet(
            z_rt=1.0,
            z_rs=np.array([1.0 + 0j]),
            z_st=np.array([1.0 + 0j]),
            z_ss=np.array([[1.0 + 0j]]),
        )
        with pytest.raises(DomainError, match="transfer impedance vanished"):
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
    return assemble_impedances(Scene(tx, rx, (element,), FREQ))[0]


def grid_imps(n: int = 4) -> ImpedanceSet:
    # n x n lambda/8 grid of 0.23 lambda wires between a transmitter and
    # a receiver 6 lambda apart, at a frequency where lambda is 1 m.
    def wire(center):
        return Dipole(center, half_length=0.23, radius=0.002)

    surface = build_grid(n, n, spacing=0.125, half_length=0.23, radius=0.002)
    scene = Scene(wire((0.0, -3.0, 0.0)), wire((0.0, 3.0, 0.0)), surface,
                  299_792_458.0)
    return assemble_impedances(scene)[0]


def run_norms(imps: ImpedanceSet, entries: np.ndarray):
    # what optimize_tuning hands _rank1 for a run from entries
    return wirecoupling.channel._norms(imps, entries, *DEFAULT_REACTANCE_BOUNDS)


def parts(state):
    # (A^-1, x, y, h, |A^-1|_1) of an optimizer state (w, h, |A^-1|_1),
    # w = [A^-1 | x | y]; the arrays are views of w
    w, h, inv_norm = state
    n = w.shape[0]
    return w[:, :n], w[:, n], w[:, n + 1], h, inv_norm


def state_of(inv, x, y, h, inv_norm):
    # the optimizer state of its parts, in a new w
    return np.column_stack([inv, x, y]), h, inv_norm


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
            init = TuningState.from_reactances([min(max(0.0, lo), hi)])
            result = optimize_tuning(imps, init, budget=1,
                                     reactance_bounds=(lo, hi))
            xs = np.linspace(lo, hi, 200_001)
            scan_best = float(np.max(scalar_gain_profile(imps, xs)))
            assert abs(result.channel.h_e2e) >= (1.0 - 1e-9) * scan_best
            x = result.tuning.entries.imag
            assert lo <= x[0] <= hi

    def test_single_element_matches_fine_grid(self):
        imps = single_element_imps()
        init = TuningState.from_reactances([0.0])
        result = optimize_tuning(imps, init)
        lo, hi = DEFAULT_REACTANCE_BOUNDS
        # 1 milliohm grid resolution over the full bounds
        xs = np.arange(lo, hi + 1e-3, 1e-3)
        grid_best = float(np.max(scalar_gain_profile(imps, xs)))
        found = abs(result.channel.h_e2e)
        assert abs(found - grid_best) <= 1e-6 * grid_best

    def test_two_elements_beat_coarse_grid(self):
        imps = two_element_imps()
        init = TuningState.from_reactances([0.0, 0.0])
        result = optimize_tuning(imps, init)

        lo, hi = DEFAULT_REACTANCE_BOUNDS
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
        init = TuningState.from_reactances([0.0, 0.0])
        result = optimize_tuning(imps, init, reactance_bounds=(-75.0, 75.0))
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
        with pytest.raises(DomainError):
            optimize_tuning(imps, init, budget=True)
        with pytest.raises(DomainError, match="within"):
            optimize_tuning(imps, TuningState.from_reactances([3000.0]))
        with pytest.raises(DomainError, match="within"):
            optimize_tuning(imps, TuningState.from_reactances([-50.0]),
                            reactance_bounds=(0.0, 100.0))
        # the bounds hold for a lossy start too, whatever its real part
        with pytest.raises(DomainError, match="within"):
            optimize_tuning(imps, TuningState(np.array([1.0 - 200.0j])),
                            reactance_bounds=(-75.0, 75.0))
        for bounds in ((5.0, 5.0), (100.0, -100.0), (-np.inf, 0.0),
                       (0.0, np.nan)):
            with pytest.raises(DomainError, match="lo < hi"):
                optimize_tuning(imps, init, reactance_bounds=bounds)

    def test_lossy_start_keeps_resistance_and_bounds(self):
        # Real parts are held fixed bit for bit; reactances stay inside
        # bounds that cut off the unconstrained optimum.
        imps = grid_imps(2)
        unbounded = optimize_tuning(imps, TuningState(np.full(4, 5.0 + 0j)))
        lo = float(np.max(unbounded.tuning.entries.imag)) + 1.0
        init = TuningState(np.array([5.0, 2.5, 0.5, 1e-3]) + 100j)
        result = optimize_tuning(imps, init, budget=5,
                                 reactance_bounds=(lo, 500.0))
        assert np.array_equal(result.tuning.entries.real, init.entries.real)
        x = result.tuning.entries.imag
        assert np.all(x >= lo) and np.all(x <= 500.0) and np.any(x != 100.0)
        assert abs(result.channel.h_e2e) >= abs(end_to_end(imps, init).h_e2e)

    def test_one_factorization_per_sweep(self, monkeypatch):
        # Steps update the maintained inverse, so a run factors the start,
        # once at the end of each sweep that moved, and the final state.
        calls = []
        factor = wirecoupling.channel.lu_factor

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(wirecoupling.channel, "lu_factor", counting_factor)
        imps = grid_imps()
        result = optimize_tuning(imps, TuningState.from_reactances(np.zeros(16)))
        assert len(calls) <= (len(result.trace) - 1) + 2

    def test_budget_20_on_4x4_grid(self):
        imps = grid_imps()
        result = optimize_tuning(imps, TuningState.from_reactances(np.zeros(16)),
                                 budget=20)
        assert len(result.trace) == 21
        assert result.channel.gain_db == pytest.approx(4.3283307037, abs=1e-9)
        assert result.stop_reason == "budget"
        assert result.trace[-1] > result.trace[-2]

    def test_budget_5_on_8x8_grid(self):
        result = optimize_tuning(grid_imps(8),
                                 TuningState.from_reactances(np.zeros(64)),
                                 budget=5)
        assert result.channel.gain_db == pytest.approx(5.7865209174, abs=1e-9)

    def test_converged_run_says_so(self):
        result = optimize_tuning(single_element_imps(),
                                 TuningState.from_reactances([0.0]))
        assert result.stop_reason == "converged"
        assert len(result.trace) == 3
        assert result.trace[-1] == result.trace[-2]

    def test_failed_refresh_redoes_the_sweep_step_by_step(self, monkeypatch):
        # The first end-of-sweep solve fails once, so sweep 1 is redone
        # with a checked solve of every proposal; the trace still follows
        # the step-by-step path (one checked solve per proposed move).
        solve = wirecoupling.channel._solve
        calls = []

        def failing_once(*args):
            calls.append(1)
            if len(calls) == 2:  # after the start, the first refresh
                raise SingularSystem("refresh refused")
            return solve(*args)

        monkeypatch.setattr(wirecoupling.channel, "_solve", failing_once)
        result = optimize_tuning(grid_imps(),
                                 TuningState.from_reactances(np.zeros(16)),
                                 budget=3)
        # start, failed refresh, 16 checked proposals, the refreshes of
        # sweeps 2 and 3, and the final state's end_to_end
        assert len(calls) == 21
        # |h| after the start and sweeps 1-3 of the step-by-step optimizer
        # (a checked solve per proposed move), which this must reproduce
        per_step = (1.4935963566210833, 2.9848045794506692,
                    3.6508340312402643, 3.7501275317144205)
        assert result.trace == pytest.approx(per_step, rel=1e-12)

    @pytest.mark.parametrize("run", ["4x4", "converged", "redo"])
    def test_run_ends_on_a_checked_solve(self, monkeypatch, run):
        # A sweep that moved ends on a checked solve of its system (the
        # refresh, or the redo's last accepted solve), and one that did
        # not keeps the state of the one before, so the result's channel
        # is end_to_end's of its tuning bit for bit, and the trace ends on
        # that |h| exactly. The redo run fails its first refresh.
        channel = wirecoupling.channel
        solve, calls = channel._solve, []

        def failing_once(*args):
            calls.append(1)
            if len(calls) == 2:  # after the start, the first refresh
                raise SingularSystem("refresh refused")
            return solve(*args)

        if run == "converged":
            imps, budget = single_element_imps(), 20
        else:
            imps, budget = grid_imps(), 20 if run == "4x4" else 3
        if run == "redo":
            monkeypatch.setattr(channel, "_solve", failing_once)
        init = TuningState.from_reactances(np.zeros(imps.n_elements))
        result = optimize_tuning(imps, init, budget=budget)
        assert result.stop_reason == ("converged" if run == "converged"
                                      else "budget")
        assert len(calls) == (21 if run == "redo" else 0)  # the redo ran
        assert result.channel == end_to_end(imps, result.tuning)
        assert result.trace[-1] == abs(result.channel.h_e2e)

    def test_rank1_update_matches_checked_solve(self, monkeypatch):
        # One reactance move as a rank-1 update of the maintained inverse
        # agrees with a fresh checked solve; a cap below the exact 1-norm
        # condition number of the moved system refuses it as _solve does.
        channel = wirecoupling.channel
        imps = grid_imps()
        entries = np.zeros(16, dtype=complex)
        state = channel._solve(
            imps, channel._system(imps, entries))[0]
        entries[5] = 150j
        norms = run_norms(imps, entries)
        moved = parts(channel._rank1(imps, norms,
                                     imps.z_ss + np.diag(entries),
                                     state, 5, 150.0))
        fresh = parts(channel._solve(
            imps, channel._system(imps, entries))[0])
        for got, want in zip(moved[:4], fresh[:4]):  # (A^-1, x, y, h)
            assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        # the last entry is the O(N) bound on |A^-1|_1, exact after _solve
        assert fresh[4] == np.linalg.norm(fresh[0], 1)
        assert moved[4] >= np.linalg.norm(moved[0], 1)
        system = imps.z_ss + np.diag(entries)
        exact = np.linalg.norm(system, 1) * np.linalg.norm(fresh[0], 1)
        monkeypatch.setattr(channel, "CONDITION_CAP", 0.999 * exact)
        with pytest.raises(SingularSystem, match="condition"):
            channel._rank1(imps, norms, system, state, 5, 150.0)
        with pytest.raises(SingularSystem, match="condition"):
            channel._solve(imps, system)
        monkeypatch.setattr(channel, "CONDITION_CAP", 1.001 * exact)
        assert channel._rank1(imps, norms, system, state, 5,
                              150.0) is not None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.lists(st.tuples(st.integers(0, 7),
                              st.floats(-3000.0, 3000.0, allow_nan=False)),
                    min_size=1, max_size=4))
    def test_rank1_norm_bound_covers_the_exact_norm(self, seed, n, moves):
        # The O(N) bound that a run carries as |A^-1|_1 stays at or above
        # the exact norm of the updated inverse, move after move; a cap
        # between the two sends the step to the exact norm, which passes.
        channel = wirecoupling.channel
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z_ss = (raw + raw.T) / 2.0
        z_ss[np.diag_indices(n)] = 60.0 + rng.uniform(0, 20, n) + 40.0j
        imps = ImpedanceSet(z_rt=40.0 - 8.0j, z_st=rng.normal(size=n) + 0j,
                            z_rs=rng.normal(size=n) + 1j, z_ss=z_ss)
        entries = 1j * rng.uniform(-500.0, 500.0, n)
        state = channel._solve(
            imps, channel._system(imps, entries))[0]
        # every reactance the moves reach lies within +-(500 + 4 * 3000)
        norms = channel._norms(imps, entries, -12_500.0, 12_500.0)
        with pytest.MonkeyPatch.context() as patch:
            for idx, t in moves:
                idx %= n
                entries[idx] += 1j * t
                system = z_ss + np.diag(entries)
                patch.setattr(channel, "CONDITION_CAP", math.inf)
                moved = channel._rank1(imps, norms, system, state, idx, t)
                if moved is None:  # onto a pole or past the residual gate
                    break
                inv, *_, bound = parts(moved)
                exact = np.linalg.norm(inv, 1)
                assert bound >= exact
                if bound > exact:
                    a_norm = np.linalg.norm(system, 1)
                    patch.setattr(channel, "CONDITION_CAP",
                                  a_norm * (exact + bound) / 2.0)
                    capped = channel._rank1(imps, norms, system, state, idx,
                                            t)
                    assert capped is not None
                    inv, *_, bound = parts(capped)
                    assert bound == np.linalg.norm(inv, 1)
                state = moved

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.floats(-3000.0, 3000.0), st.floats(1e-3, 6000.0))
    def test_run_bound_covers_the_system_norm(self, seed, n, lo, width):
        # The |A|_1 bound that _norms fixes for a run is at least the
        # exact |Z_ss + diag(entries)|_1 for every state the run can
        # reach: the start's real parts, reactances within [lo, hi].
        channel = wirecoupling.channel
        rng = np.random.default_rng(seed)
        hi = lo + width
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z_ss = (raw + raw.T) * rng.uniform(1.0, 100.0)
        z_ss[np.diag_indices(n)] = (rng.uniform(0.1, 80.0, n)
                                    + 1j * rng.uniform(-300.0, 300.0, n))
        imps = ImpedanceSet(z_rt=40.0, z_st=rng.normal(size=n) + 0j,
                            z_rs=rng.normal(size=n) + 0j, z_ss=z_ss)
        real = rng.uniform(-50.0, 50.0, n)
        a_bound, _ = channel._norms(imps, real + 1j * lo, lo, hi)
        for _ in range(20):
            x = np.where(rng.random(n) < 0.3, rng.choice([lo, hi], n),
                         rng.uniform(lo, hi, n))
            assert a_bound >= np.linalg.norm(z_ss + np.diag(real + 1j * x), 1)

    def test_run_bound_holds_where_it_is_tight(self):
        # A lossless run on a surface whose diagonal is imaginary up to
        # 1e-300, with every reactance at hi >= |lo|: each column sum of
        # |A| is the bound's sum, so only rounding separates the two. The
        # rounding margin must keep the bound on top.
        channel = wirecoupling.channel
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            z_ss = (raw + raw.T) * rng.uniform(1.0, 100.0)
            z_ss[np.diag_indices(n)] = 1e-300 + 1j * rng.uniform(1.0, 300.0, n)
            imps = ImpedanceSet(z_rt=40.0, z_st=np.ones(n) + 0j,
                                z_rs=np.ones(n) + 0j, z_ss=z_ss)
            hi = rng.uniform(0.0, 3000.0)
            lo = -rng.uniform(0.0, hi)
            a_bound, _ = channel._norms(imps, np.full(n, 1j * lo), lo, hi)
            assert a_bound >= np.linalg.norm(z_ss + 1j * hi * np.eye(n), 1)

    def test_rank1_norm_bound_holds_where_it_is_tight(self, monkeypatch):
        # With B_00 = j s and t = r / (s (1 + r)), the update -coef c c^T
        # has B's phase in column 0, so |B|_1 + |coef| |c|_1 |c|_inf is
        # |B'|_1 exactly up to rounding. Decoupling element 0 (c = j s e_0)
        # and shrinking B's other columns below s makes the bound _rank1
        # carries, with |c|_1^2 for |c|_1 |c|_inf, as tight.
        # The rounding margin must keep it on top.
        channel = wirecoupling.channel
        monkeypatch.setattr(channel, "CONDITION_CAP", math.inf)
        rng = np.random.default_rng(3)
        for decoupled in [False] * 300 + [True] * 300:
            n = int(rng.integers(2, 4))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            inv = (raw + raw.T) / 2.0
            s, r = rng.uniform(0.5, 2.0), rng.uniform(0.1, 10.0)
            inv[0, 0] = 1j * s
            if decoupled:
                inv[0, 1:] = inv[1:, 0] = 0.0
                inv[1:, 1:] *= s / (2.0 * np.linalg.norm(inv[1:, 1:], 1))
            t = r / (s * (1.0 + r))
            system = np.linalg.inv(inv)
            shift = np.abs(system.real).max() + 1.0
            z_st = rng.normal(size=n) + 0j
            imps = ImpedanceSet(z_rt=40.0, z_st=z_st, z_rs=z_st,
                                z_ss=(system + system.T) / 2.0
                                + shift * np.eye(n))
            entries = np.full(n, -shift + 0j)
            entries[0] += 1j * t
            x = inv @ z_st
            state = state_of(inv, x, x, 1.0 + 0j, np.linalg.norm(inv, 1))
            moved = channel._rank1(imps, run_norms(imps, entries),
                                   imps.z_ss + np.diag(entries), state, 0, t)
            assert moved is not None
            moved = parts(moved)
            assert moved[4] >= np.linalg.norm(moved[0], 1)
            if decoupled:  # the bound is within its rounding margin
                assert moved[4] <= np.linalg.norm(moved[0], 1) * (1 + 1e-8)

    def test_updates_never_write_into_the_state_they_start_from(
            self, monkeypatch):
        # A refused proposal keeps the present state, and a redone sweep
        # starts again from the state before it, so every state handed to
        # _rank1 must still hold its bits after the run: the updates
        # write new arrays only. The capped run refuses many proposals;
        # the failed refresh makes sweep 1 redo from its start.
        channel = wirecoupling.channel
        rank1, solve = channel._rank1, channel._solve
        seen, refused, calls = [], [], []

        def recording(imps, norms, system, state, *args):
            seen.append((state, state[0].tobytes()))
            refused.append(True)
            out = rank1(imps, norms, system, state, *args)
            refused[-1] = out is None
            return out

        def failing_once(*args):
            calls.append(1)
            if len(calls) == 2:  # after the start, the first refresh
                raise SingularSystem("refresh refused")
            return solve(*args)

        monkeypatch.setattr(channel, "_rank1", recording)
        imps = grid_imps()
        init = TuningState.from_reactances(np.zeros(16))
        default = channel.CONDITION_CAP
        monkeypatch.setattr(channel, "CONDITION_CAP",
                            3.0 * end_to_end(imps, init).condition_estimate)
        optimize_tuning(imps, init, budget=3)
        assert any(refused)
        monkeypatch.setattr(channel, "CONDITION_CAP", default)
        monkeypatch.setattr(channel, "_solve", failing_once)
        optimize_tuning(imps, init, budget=3)
        assert len(calls) == 21  # the redo ran
        for state, w in seen:
            assert state[0].tobytes() == w

    def test_gated_move_that_does_not_raise_h_gets_no_checked_solve(
            self, monkeypatch):
        # A proposal that passes the rank-1 gates but does not raise |h|
        # is refused as it stands, as a sweep's first move or a later
        # one: no checked solve stands in for it. A single element moves
        # to its worst reactance on a grid; of two, element 0 moves to its
        # best and element 1 to its worst.
        channel = wirecoupling.channel
        step, rank1, solve = (channel._coordinate_step, channel._rank1,
                              channel._solve)
        lowers, proposals, solves = [], [], []

        def worst_after_the_first(state, idx, current, lo, hi):
            if idx == 0 and state[0].shape[0] > 1:
                return step(state, idx, current, lo, hi)
            inv, x, y, h, _ = parts(state)
            g = inv[idx, idx]
            q = h * g + x[idx] * y[idx]
            grid = np.linspace(lo, hi, 401)
            gain = (np.abs(h + 1j * (grid - current) * q)
                    / np.abs(1.0 + 1j * (grid - current) * g))
            lowers.append(gain.min() < abs(h))
            return float(grid[np.argmin(gain)])

        def recording(imps, norms, system, state, *args):
            out = rank1(imps, norms, system, state, *args)
            assert out is not None  # the move passes the gates
            proposals.append(abs(out[1]) > abs(state[1]))
            return out

        def counting_solve(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(channel, "_coordinate_step", worst_after_the_first)
        monkeypatch.setattr(channel, "_rank1", recording)
        monkeypatch.setattr(channel, "_solve", counting_solve)
        # one element: the start and the final state are the only solves
        one = optimize_tuning(single_element_imps(),
                              TuningState.from_reactances([0.0]), budget=1)
        assert (proposals, len(solves)) == ([False], 2)
        assert one.trace[1] == one.trace[0] and one.stop_reason == "converged"
        assert one.tuning.entries[0] == 0.0
        # two elements: element 0 moves, element 1 is refused; the solves
        # are the start, the sweep's refresh and the final state
        del proposals[:], solves[:]
        two = optimize_tuning(two_element_imps(),
                              TuningState.from_reactances([0.0, 0.0]),
                              budget=1)
        assert (proposals, len(solves)) == ([True, False], 3)
        assert two.tuning.entries[0] != 0.0 and two.tuning.entries[1] == 0.0
        assert all(lowers)

    def test_rank1_is_handed_the_system_of_its_state(self, monkeypatch):
        # optimize_tuning keeps the system, moves its diagonal entry idx by
        # j t for each proposal and restores it on refusal. So the system
        # a _rank1 call gets, less that move, is the one its state solves.
        # The capped run refuses proposals in mid-sweep.
        channel = wirecoupling.channel
        rank1, solved = channel._rank1, []

        def checking(imps, norms, system, state, idx, t, *args):
            base = system.copy()
            base[idx, idx] -= 1j * t
            residual = np.linalg.norm(base @ parts(state)[1] - imps.z_st)
            solved.append(residual <= 1e-8 * np.linalg.norm(imps.z_st))
            return rank1(imps, norms, system, state, idx, t, *args)

        monkeypatch.setattr(channel, "_rank1", checking)
        imps = grid_imps()
        init = TuningState.from_reactances(np.zeros(16))
        monkeypatch.setattr(channel, "CONDITION_CAP",
                            3.0 * end_to_end(imps, init).condition_estimate)
        optimize_tuning(imps, init)
        assert len(solved) > 100 and all(solved)

    def test_pole_step_is_refused_without_a_warning(self):
        # 1 + j t B_ii = 0: the move sits on a pole of h(t), where no
        # update exists. The step says None and warns about nothing.
        channel = wirecoupling.channel
        imps = grid_imps()
        entries = np.zeros(16, dtype=complex)
        inv, *rest = parts(channel._solve(
            imps, channel._system(imps, entries))[0])
        t = 128.0  # 1j / t and j t (j / t) = -1 are exact
        inv = inv.copy()
        inv[5, 5] = 1j / t
        entries[5] = 1j * t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert channel._rank1(imps, run_norms(imps, entries),
                                  imps.z_ss + np.diag(entries),
                                  state_of(inv, *rest), 5, t) is None

    def test_overflowing_step_is_refused_without_a_warning(self):
        # x near the largest double: the update x - s c overflows, which
        # numpy warns about. The step says None and warns about nothing.
        channel = wirecoupling.channel
        imps = grid_imps()
        entries = np.zeros(16, dtype=complex)
        inv, x, *rest = parts(channel._solve(
            imps, channel._system(imps, entries))[0])
        x = np.finfo(float).max * (1.0 + 1j) * (-1.0) ** np.arange(16)
        x[5] = 1e300
        t = 150.0
        entries[5] = 1j * t
        coef = 1j * t / (1.0 + 1j * t * inv[5, 5])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            x - (coef * x[5]) * inv[:, 5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert channel._rank1(imps, run_norms(imps, entries),
                                  imps.z_ss + np.diag(entries),
                                  state_of(inv, x, *rest), 5, t) is None

    def test_overflowing_inverse_update_is_refused_without_a_warning(self):
        # Row 5 of B near the largest double with x_5 = y_5 = 0: x and y
        # stay put and solve the moved system, but the update of B,
        # coef c c^T, overflows, which numpy warns about. The moved
        # inverse is not finite, so the condition cap refuses the step,
        # and nothing warns.
        channel = wirecoupling.channel
        imps = grid_imps()
        entries = np.zeros(16, dtype=complex)
        inv, x, y, h, inv_norm = parts(channel._solve(
            imps, channel._system(imps, entries))[0])
        inv, x, y = inv.copy(), x.copy(), y.copy()
        others = np.arange(16) != 5
        inv[5, others] = inv[others, 5] = 1e306 * (1.0 + 1j)
        x[5] = y[5] = 0.0
        t = 150.0
        entries[5] = 1j * t
        system = imps.z_ss + np.diag(entries)
        imps = ImpedanceSet(z_rt=imps.z_rt, z_rs=imps.z_rs, z_st=system @ x,
                            z_ss=imps.z_ss)
        coef = 1j * t / (1.0 + 1j * t * inv[5, 5])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            inv - np.multiply.outer(inv[5], coef * inv[5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="condition"):
                channel._rank1(imps, run_norms(imps, entries), system,
                               state_of(inv, x, y, h, inv_norm), 5, t)

    @pytest.mark.parametrize("corruption", [1e-6, math.nan],
                             ids=["residual", "non-finite"])
    def test_rank1_refuses_a_corrupted_state(self, corruption):
        # An x that no longer solves the system fails the residual gate,
        # a nan in it the finiteness check: either way the step says None
        # and writes into none of the state's arrays.
        channel = wirecoupling.channel
        imps = grid_imps()
        entries = np.zeros(16, dtype=complex)
        inv, x, *rest = parts(channel._solve(
            imps, channel._system(imps, entries))[0])
        x = x.copy()
        x[5] += corruption
        state = state_of(inv, x, *rest)
        w = state[0].tobytes()
        entries[5] = 150.0j
        assert channel._rank1(imps, run_norms(imps, entries),
                              imps.z_ss + np.diag(entries), state,
                              5, 150.0) is None
        assert state[0].tobytes() == w

    @pytest.mark.parametrize("side, budget, factorizations, gain_db", [
        (4, 20, 22, 4.328330703679251),
        (8, 5, 7, 5.786520917363422),
        (16, 2, 4, 9.475318571724946),
    ], ids=["4x4", "8x8", "16x16"])
    def test_decision_trace_counts(self, monkeypatch, side, budget,
                                   factorizations, gain_db):
        # Every move of these runs passes the rank-1 gates: the start, one
        # refresh per sweep and the final state are the only inversions,
        # and the gain is the one the exact gates reached. The tolerance
        # is 1e-12 of the gain: at N = 256 the LU's rounding moves the
        # gain by 1.1e-12 dB between one and two BLAS threads.
        calls = []
        factor = wirecoupling.channel.lu_factor

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        imps = grid_imps(side)
        monkeypatch.setattr(wirecoupling.channel, "lu_factor", counting_factor)
        result = optimize_tuning(
            imps, TuningState.from_reactances(np.zeros(side * side)),
            budget=budget)
        assert len(calls) == factorizations
        assert result.channel.gain_db == pytest.approx(gain_db, rel=1e-12)

    def test_condition_cap_rejects_probes_mid_run(self, monkeypatch):
        # A cap of three times the starting condition number lets the run
        # start but refuses some of the proposed moves along the way. A
        # move the rank-1 update refuses on the cap gets no checked solve,
        # which would gate the same number: the run inverts only the
        # start, once per sweep and the final state.
        imps = grid_imps()
        init = TuningState.from_reactances(np.zeros(16))
        cap = 3.0 * end_to_end(imps, init).condition_estimate
        monkeypatch.setattr(wirecoupling.channel, "CONDITION_CAP", cap)
        calls, factor = [], wirecoupling.channel.lu_factor

        def counting_factor(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setattr(wirecoupling.channel, "lu_factor", counting_factor)
        result = optimize_tuning(imps, init)
        assert len(calls) == 22
        assert result.channel.condition_estimate <= cap
        assert np.all(np.diff(result.trace) >= 0.0)
        assert result.channel.gain_db == pytest.approx(3.2386486421, abs=1e-9)

    def test_unsolvable_everywhere_raises(self, monkeypatch):
        imps = single_element_imps()
        init = TuningState.from_reactances([0.0])
        # a condition cap below 1 rejects every linear solve
        monkeypatch.setattr(wirecoupling.channel, "CONDITION_CAP", 0.5)
        with pytest.raises(SingularSystem, match="every probed"):
            optimize_tuning(imps, init)


class TestRealRoots:
    @staticmethod
    def numpy_real_roots(a, b, c):
        roots = np.roots([a, b, c])
        return np.sort(roots[roots.imag == 0.0].real)

    def test_matches_numpy_on_random_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a, b, c = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3, size=3)
            got = np.sort(wirecoupling.channel._real_roots(a, b, c))
            expected = self.numpy_real_roots(a, b, c)
            assert got.shape == expected.shape
            assert np.allclose(got, expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("coeffs", [
        (0.0, 2.0, -3.0),   # a = 0: one linear root
        (0.0, 0.0, 5.0),    # a = b = 0: no root
        (4.0, 0.0, 0.0),    # b = c = 0: double root at 0
        (1.0, 1.0, 1.0),    # negative discriminant: no real root
        (2.0, -3.0, 0.0),   # c = 0: roots 0 and -b/a
    ])
    def test_special_cases_match_numpy(self, coeffs):
        got = np.sort(wirecoupling.channel._real_roots(*coeffs))
        assert np.array_equal(got, self.numpy_real_roots(*coeffs))
