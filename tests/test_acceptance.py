"""Acceptance gate: the eight properties that qualify a build.

Each test prints one PASS line with the measured margin; pytest -v adds
its own PASSED/FAILED verdict per criterion. Everything runs at desk
scale with fixed seeds.
"""

import json
import math
import time
from collections import namedtuple

import numpy as np
import pytest

from wirecoupling import (
    Dipole,
    DomainError,
    Scene,
    TuningState,
    assemble_impedances,
    build_grid,
    end_to_end,
    exp_integral_e1,
    mutual_impedance,
    optimize_tuning,
    wavelength,
    wavenumber,
)
from wirecoupling.channel import DEFAULT_REACTANCE_BOUNDS
from wirecoupling.cli import main
from wirecoupling import impedance
from wirecoupling.impedance import mutual_impedance_oracle
from wirecoupling.special import adaptive_quad

FREQ = 3.0e8  # [Hz]
LAM = wavelength(FREQ)
K = wavenumber(FREQ)

# One wire pair reduced as geometry.pair_geometry reduces it, in scalars.
Pair = namedtuple("Pair", "rho dz h_p h_q")


def test_criterion_1_closed_form_vs_oracle():
    # 200 random pairs across three decades of frequency
    rng = np.random.default_rng(101)
    frequencies = (0.3e9, 3.0e9, 30.0e9)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        f = frequencies[i % 3]
        lam = wavelength(f)
        k = wavenumber(f)
        h_p, h_q = rng.uniform(0.1, 0.45, 2) * lam
        a_p, a_q = rng.uniform(1.0 / 5000.0, 1.0 / 200.0, 2) * lam
        d = rng.uniform(1.0 / 20.0, 5.0) * lam
        dz = rng.uniform(-2.0, 2.0) * lam
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        p = Dipole((0.0, 0.0, 0.0), float(h_p), float(a_p))
        q = Dipole(
            (d * math.cos(azimuth), d * math.sin(azimuth), dz),
            float(h_q), float(a_q),
        )
        closed = mutual_impedance(p, q, k)
        oracle = mutual_impedance_oracle(p, q, k, rel_tol=1e-9)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 1 {'PASS' if worst <= 1e-6 else 'FAIL'}: "
          f"closed form vs oracle, 200 pairs, max rel err {worst:.3e} "
          f"(gate 1e-6), {elapsed:.1f} s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def field_kernel_oracle(z, geom, k) -> complex:
    # (d^2/dz^2 + k^2) of the current-weighted potential integral,
    # 5-point central differences at 1e-4 wavelength step
    lam = 2.0 * math.pi / k
    step = 1e-4 * lam
    sin_p = math.sin(k * geom.h_p)

    def potential(zz):
        def f(xi):
            r = np.hypot(geom.rho, geom.dz + zz - xi)
            return np.sin(k * (geom.h_p - np.abs(xi))) / sin_p \
                * np.exp(-1j * k * r) / r

        # split at the current's kink at the feed
        return (adaptive_quad(f, -geom.h_p, 0.0, 1e-12)
                + adaptive_quad(f, 0.0, geom.h_p, 1e-12))

    s = [potential(z + m * step) for m in (-2, -1, 0, 1, 2)]
    second = (-s[0] + 16.0 * s[1] - 30.0 * s[2] + 16.0 * s[3] - s[4]) \
        / (12.0 * step * step)
    return second + k * k * s[2]


def test_criterion_2_field_closed_form():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        geom = Pair(
            rho=float(rng.uniform(0.1, 2.0) * LAM),
            dz=float(rng.uniform(-0.5, 0.5) * LAM),
            h_p=float(rng.uniform(0.15, 0.35) * LAM),
            h_q=0.25 * LAM,
        )
        z = float(rng.uniform(-0.5, 0.5) * LAM)
        waves = 0j  # the three source waves the oracle integrates
        for xi, coef in impedance._source_waves(geom.h_p, K):
            r = math.hypot(geom.rho, geom.dz + z - xi)
            waves += coef * np.exp(-1j * K * r) / r
        value = K / math.sin(K * geom.h_p) * waves
        reference = field_kernel_oracle(z, geom, K)
        worst = max(worst, abs(value - reference) / abs(reference))
    print(f"ACCEPTANCE 2 {'PASS' if worst <= 1e-4 else 'FAIL'}: "
          f"field kernel vs operator oracle, 20 points, max rel err "
          f"{worst:.3e} (gate 1e-4)")
    assert worst <= 1e-4


def test_criterion_3_reciprocity_on_grid():
    elements = build_grid(4, 4, spacing=LAM / 8, half_length=LAM / 4,
                          radius=LAM / 2000)
    worst = 0.0
    pairs = 0
    for p in range(16):
        for q in range(p + 1, 16):
            fwd = mutual_impedance(elements[p], elements[q], K)
            rev = mutual_impedance(elements[q], elements[p], K)
            worst = max(worst, abs(fwd - rev) / max(abs(fwd), abs(rev)))
            pairs += 1
    assert pairs == 120
    print(f"ACCEPTANCE 3 {'PASS' if worst <= 1e-8 else 'FAIL'}: "
          f"reciprocity on 4x4 grid at lambda/8, 120 pairs, max rel "
          f"asymmetry {worst:.3e} (gate 1e-8)")
    assert worst <= 1e-8


def test_criterion_4_half_wave_self_impedance():
    d = Dipole((0.0, 0.0, 0.0), LAM / 4, LAM / 2000)
    closed = mutual_impedance(d, d, K, same=True)
    oracle = mutual_impedance_oracle(d, d, K, same=True, rel_tol=1e-9)
    rel = abs(closed - oracle) / abs(oracle)
    in_corridor = 60.0 <= closed.real <= 90.0 and 20.0 <= closed.imag <= 60.0
    ok = in_corridor and rel <= 1e-6
    print(f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'}: half-wave self "
          f"impedance {closed.real:.2f}{closed.imag:+.2f}j ohm in "
          f"[60,90]+j[20,60], oracle rel err {rel:.3e} (gate 1e-6)")
    assert in_corridor
    assert rel <= 1e-6


def test_criterion_5_exp_integral_correctness():
    # imaginary axis against Si/Ci defining integrals:
    # E1(jx) = -Ci(x) + j*(Si(x) - pi/2)
    worst_axis = 0.0
    for x in np.linspace(0.1, 30.0, 20):
        si = adaptive_quad(lambda t: np.sin(t) / t, 0.0, float(x), 1e-12)
        ci = np.euler_gamma + math.log(x) + adaptive_quad(
            lambda t: (np.cos(t) - 1.0) / t, 0.0, float(x), 1e-12
        )
        expected = -ci + 1j * (si.real - math.pi / 2.0)
        got = exp_integral_e1(np.array([1j * float(x)]))[0]
        worst_axis = max(worst_axis, abs(got - expected) / abs(expected))

    # the closed forms take E1 on that axis only; elsewhere it refuses
    with pytest.raises(DomainError):
        exp_integral_e1(np.array([1.0 + 1j]))

    ok = worst_axis <= 1e-9
    print(f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: exp integral; "
          f"imaginary axis {worst_axis:.3e} (gate 1e-9)")
    assert worst_axis <= 1e-9


def quarter_wave(x=0.0, y=0.0, z=0.0) -> Dipole:
    return Dipole((x, y, z), LAM / 4, LAM / 2000)


def test_criterion_6_channel_limits():
    # matrix path against the scalar elimination formula
    scene = Scene(quarter_wave(x=-2.0), quarter_wave(x=2.0),
                  (quarter_wave(),), FREQ)
    imps = assemble_impedances(scene)[0]
    tuning = TuningState.from_reactances([-42.0])
    result = end_to_end(imps, tuning)
    expected = imps.z_rt - imps.z_rs[0] * imps.z_st[0] / (
        imps.z_ss[0, 0] - 42.0j
    )
    scalar_rel = abs(result.h_e2e - expected) / abs(expected)

    # open-circuit loading on a 16-element surface
    surface = build_grid(4, 4, spacing=LAM / 8, half_length=LAM / 4,
                         radius=LAM / 2000)
    big = Scene(quarter_wave(y=-4.0), quarter_wave(y=4.0), surface, FREQ)
    big_imps = assemble_impedances(big)[0]
    blocked = TuningState(np.full(16, 1e9j))
    open_result = end_to_end(big_imps, blocked)
    open_rel = abs(open_result.h_e2e - big_imps.z_rt) / abs(big_imps.z_rt)

    ok = scalar_rel <= 1e-12 and open_rel <= 1e-6
    print(f"ACCEPTANCE 6 {'PASS' if ok else 'FAIL'}: single-element "
          f"matrix vs scalar {scalar_rel:.3e} (gate 1e-12), open-circuit "
          f"16-element deviation {open_rel:.3e} (gate 1e-6)")
    assert scalar_rel <= 1e-12
    assert open_rel <= 1e-6


def test_criterion_7_optimizer_vs_grid():
    start = time.perf_counter()

    # N = 1
    scene1 = Scene(quarter_wave(x=-2.0), quarter_wave(x=2.0),
                   (quarter_wave(),), FREQ)
    imps1 = assemble_impedances(scene1)[0]
    init1 = TuningState.from_reactances([0.0])
    found1 = abs(optimize_tuning(imps1, init1).channel.h_e2e)
    lo, hi = DEFAULT_REACTANCE_BOUNDS
    xs = np.linspace(lo, hi, 201)
    h1 = imps1.z_rt - imps1.z_rs[0] * imps1.z_st[0] / (imps1.z_ss[0, 0] + 1j * xs)
    grid1 = float(np.max(np.abs(h1)))

    # N = 2
    surface = build_grid(1, 2, spacing=LAM / 8, half_length=LAM / 4,
                         radius=LAM / 2000)
    scene2 = Scene(quarter_wave(y=-2.5), quarter_wave(y=2.5), surface, FREQ)
    imps2 = assemble_impedances(scene2)[0]
    init2 = TuningState.from_reactances([0.0, 0.0])
    found2 = abs(optimize_tuning(imps2, init2).channel.h_e2e)
    x1, x2 = np.meshgrid(np.linspace(lo, hi, 201), np.linspace(lo, hi, 201),
                         indexing="ij")
    a = imps2.z_ss[0, 0] + 1j * x1
    d = imps2.z_ss[1, 1] + 1j * x2
    b = imps2.z_ss[0, 1]
    det = a * d - b * b
    s1 = (imps2.z_st[0] * d - imps2.z_st[1] * b) / det
    s2 = (imps2.z_st[1] * a - imps2.z_st[0] * b) / det
    h2 = imps2.z_rt - (imps2.z_rs[0] * s1 + imps2.z_rs[1] * s2)
    grid2 = float(np.max(np.abs(h2)))

    elapsed = time.perf_counter() - start
    ok = found1 >= grid1 * (1.0 - 1e-3) and found2 >= grid2 * (1.0 - 1e-3)
    print(f"ACCEPTANCE 7 {'PASS' if ok else 'FAIL'}: optimizer vs "
          f"201-point grids; N=1 found {found1:.6f} vs grid {grid1:.6f}, "
          f"N=2 found {found2:.6f} vs grid {grid2:.6f} (within 1e-3), "
          f"{elapsed:.1f} s")
    assert found1 >= grid1 * (1.0 - 1e-3)
    assert found2 >= grid2 * (1.0 - 1e-3)
    assert elapsed < 60.0


def test_criterion_8_spacing_sweep(tmp_path):
    config = {
        "frequency_hz": FREQ,
        "lambda_units": True,
        "transmitter": {"center": [0.0, -3.0, 0.0], "half_length": 0.23,
                        "radius": 0.002},
        "receiver": {"center": [0.0, 3.0, 0.0], "half_length": 0.23,
                     "radius": 0.002},
        "surface": {"grid": {"rows": 4, "cols": 4, "spacing": 0.125,
                             "half_length": 0.23, "radius": 0.002}},
        "tuning": {"entries": [{"re": 0.0, "im": -100.0}]},
    }
    cfg_path = tmp_path / "sweep_scene.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "sweep_out"
    code = main(["sweep", str(cfg_path), "--param", "spacing",
                 "--from", repr(0.125 * LAM), "--to", repr(0.5 * LAM),
                 "--points", "4", "--out", str(out)])
    assert code == 0

    lines = (out / "sweep.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    statuses = [r[8] for r in rows]
    counts = [int(r[3]) for r in rows]
    all_ok = statuses == ["ok"] * 4
    non_increasing = counts == sorted(counts, reverse=True)

    # cross-check every row with an independent single-scene channel run
    # through an explicit-elements configuration
    from wirecoupling import load_scene_config, resolve_sweep_scene

    cfg = load_scene_config(cfg_path)
    worst = 0.0
    for i, row in enumerate(rows):
        scene = resolve_sweep_scene(cfg, "spacing", float(row[2]))
        single = {
            "frequency_hz": FREQ,
            "transmitter": {
                "center": list(cfg.scene.transmitter.center),
                "half_length": cfg.scene.transmitter.half_length,
                "radius": cfg.scene.transmitter.radius,
            },
            "receiver": {
                "center": list(cfg.scene.receiver.center),
                "half_length": cfg.scene.receiver.half_length,
                "radius": cfg.scene.receiver.radius,
            },
            "surface": {"elements": [
                {"center": list(e.center), "half_length": e.half_length,
                 "radius": e.radius}
                for e in scene.surface
            ]},
            "tuning": {"entries": [{"re": 0.0, "im": -100.0}]},
        }
        single_path = tmp_path / f"single_{i}.json"
        single_path.write_text(json.dumps(single))
        single_out = tmp_path / f"single_out_{i}"
        assert main(["channel", str(single_path), "--out", str(single_out)]) == 0
        payload = json.loads((single_out / "channel.json").read_text())
        swept = complex(float(row[4]), float(row[5]))
        direct = complex(payload["h_e2e_re_ohm"], payload["h_e2e_im_ohm"])
        worst = max(worst, abs(swept - direct) / abs(direct))

    ok = all_ok and non_increasing and worst <= 1e-12
    print(f"ACCEPTANCE 8 {'PASS' if ok else 'FAIL'}: spacing sweep "
          f"lambda/8 to lambda/2, statuses {statuses}, counts {counts}, "
          f"cross-check max rel diff {worst:.3e} (gate 1e-12)")
    assert all_ok
    assert non_increasing
    assert worst <= 1e-12
