"""Benchmark workloads: scene configs, CLI arguments and output checks.

Every workload is a closed-form scene at a frequency where the wavelength
is exactly 1 m, so lambda-unit lengths and meters coincide. A workload
yields the config documents the CLI reads, the CLI arguments, and a
checker that judges one request's output directory.

The checks are independent of the closed-form assembly under test: they
rebuild the scene geometry here, take every coupling from the quadrature
oracle `mutual_impedance_oracle`, and solve with `np.linalg.solve`. The
oracle reference is computed once per run, before any request is timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FREQUENCY_HZ = 299_792_458.0  # wavelength exactly 1 m
HALF_LENGTH = 0.23            # [lambda]
RADIUS = 0.002                # [lambda]
PITCH = 0.125                 # [lambda], lambda/8 grid pitch
JITTER = 1.0 / 32.0           # [lambda], max per-axis element offset
JITTER_DRAWS = 10             # jittered scenes per jitter-channel run
LOAD_OHM = -100.0             # fixed load reactance
OPT_BUDGET = 20
H_REL_TOL = 1e-6              # the CLI validate gate
WORKLOADS = ("grid-sweep", "jitter-channel", "optimize")


@dataclass(frozen=True)
class Workload:
    """One request shape: config documents, CLI args and output checker.

    Request i of a run reads `configs[i % len(configs)]`.
    `args(config_path, out_dir)` gives the argv for `cli.main`.
    `reference(j)` computes the oracle reference of config j, untimed.
    `check(out_dir, ref)` returns the list of problems (empty when
    correct) and the mean `gain_db` of the output rows.
    """

    name: str
    configs: tuple
    args: Callable[[str, str], list]
    reference: Callable[[int], object]
    check: Callable[[Path, object], tuple]


def _wire(center) -> dict:
    return {"center": [float(v) for v in center],
            "half_length": HALF_LENGTH, "radius": RADIUS}


def _base_config(surface: dict, tuning: dict) -> dict:
    return {
        "frequency_hz": FREQUENCY_HZ,
        "lambda_units": True,
        "transmitter": _wire((0.0, -3.0, 0.0)),
        "receiver": _wire((0.0, 3.0, 0.0)),
        "surface": surface,
        "tuning": tuning,
    }


def grid_centers(rows: int, cols: int, spacing: float) -> np.ndarray:
    """Row-major centers of a lattice in the xy plane, centered on 0."""
    centers = [((c - 0.5 * (cols - 1)) * spacing,
                (r - 0.5 * (rows - 1)) * spacing, 0.0)
               for r in range(rows) for c in range(cols)]
    return np.array(centers, dtype=float)


def oracle_couplings(centers: np.ndarray):
    """(z_rt, z_rs, z_st, z_ss) of a scene by quadrature, in ohms."""
    from wirecoupling.geometry import Dipole
    from wirecoupling.impedance import mutual_impedance_oracle

    k = 2.0 * math.pi  # wavelength 1 m
    tx = Dipole((0.0, -3.0, 0.0), HALF_LENGTH, RADIUS)
    rx = Dipole((0.0, 3.0, 0.0), HALF_LENGTH, RADIUS)
    els = [Dipole(tuple(c), HALF_LENGTH, RADIUS) for c in centers]
    n = len(els)
    z_rt = mutual_impedance_oracle(tx, rx, k)
    z_st = np.array([mutual_impedance_oracle(tx, e, k) for e in els])
    z_rs = np.array([mutual_impedance_oracle(e, rx, k) for e in els])
    z_ss = np.empty((n, n), dtype=complex)
    for q in range(n):
        for p in range(q, n):
            z_ss[q, p] = z_ss[p, q] = mutual_impedance_oracle(
                els[p], els[q], k, same=(p == q))
    return z_rt, z_rs, z_st, z_ss


def solve_h(couplings, loads: np.ndarray) -> complex:
    """h = z_rt - z_rs^T (Z_ss + diag(loads))^-1 z_st."""
    z_rt, z_rs, z_st, z_ss = couplings
    x = np.linalg.solve(z_ss + np.diag(loads), z_st)
    return complex(z_rt - z_rs @ x)


def _check_h(label: str, h: complex, gain_db: float, h_ref: complex,
             z_rt: complex) -> list:
    problems = []
    rel = abs(h - h_ref) / abs(h_ref)
    if not rel <= H_REL_TOL:
        problems.append(f"{label}: h off the oracle by {rel:.3e} relative")
    gain_ref = 20.0 * math.log10(abs(h) / abs(z_rt))
    if not abs(gain_db - gain_ref) <= 1e-5:
        problems.append(f"{label}: gain_db {gain_db!r} is not "
                        f"20 log10 |h / z_rt| = {gain_ref!r}")
    return problems


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: unreadable ({exc})"


def grid_sweep(n: int = 8, points: int = 4) -> Workload:
    """`sweep --param spacing` over an n x n lambda/8 grid, lambda/8..lambda/2.

    The aperture stays fixed, so the element count falls as the spacing
    grows (N = 64, 16, 9, 4 at n = 8).
    """
    config = _base_config(
        {"grid": {"rows": n, "cols": n, "spacing": PITCH,
                  "half_length": HALF_LENGTH, "radius": RADIUS}},
        {"entries": [{"re": 0.0, "im": LOAD_OHM}]},
    )
    spacings = [float(v) for v in np.linspace(PITCH, 0.5, points)]
    aperture = (n - 1) * PITCH

    def reference(_) -> list:
        """(n_elements, z_rt, h) of every sweep point."""
        refs = []
        for s in spacings:
            side = int(math.floor(aperture / s + 1e-9)) + 1
            couplings = oracle_couplings(grid_centers(side, side, s))
            h_ref = solve_h(couplings, np.full(side * side, 1j * LOAD_OHM))
            refs.append((side * side, couplings[0], h_ref))
        return refs

    def args(config_path: str, out_dir: str) -> list:
        return ["sweep", config_path, "--out", out_dir, "--param", "spacing",
                "--from", repr(PITCH), "--to", repr(0.5),
                "--points", str(points)]

    def check(out_dir: Path, refs: list) -> tuple:
        try:
            lines = (out_dir / "sweep.csv").read_text(encoding="utf-8")
        except OSError as exc:
            return [f"sweep.csv: unreadable ({exc})"], None
        rows = lines.splitlines()[1:]
        if len(rows) != len(refs):
            return [f"sweep.csv: {len(rows)} rows, expected {len(refs)}"], None
        problems, gains = [], []
        for i, (row, (n_ref, z_rt, h_ref)) in enumerate(zip(rows, refs)):
            cells = row.split(",")
            try:
                n_el = int(cells[3])
                h = complex(float(cells[4]), float(cells[5]))
                gain = float(cells[7])
                status = cells[8]
            except (IndexError, ValueError):
                problems.append(f"sweep.csv row {i}: malformed {row!r}")
                continue
            if status != "ok" or n_el != n_ref:
                problems.append(f"sweep.csv row {i}: status {status!r}, "
                                f"n_elements {n_el}, expected ok and {n_ref}")
                continue
            problems += _check_h(f"sweep.csv row {i}", h, gain, h_ref, z_rt)
            gains.append(gain)
        mean_gain = sum(gains) / len(gains) if gains else None
        return problems, mean_gain

    return Workload("grid-sweep", (config,), args, reference, check)


def jitter_centers(seed: int, n: int = 8, draws: int = 1) -> list:
    """`draws` copies of the n x n lambda/8 grid, every center moved by up
    to +-lambda/32 per axis, uniformly, from the given seed."""
    rng = np.random.default_rng(seed)
    base = grid_centers(n, n, PITCH)
    return [base + rng.uniform(-JITTER, JITTER, size=base.shape)
            for _ in range(draws)]


def _channel_workload(name: str, scenes: list, tuning: dict,
                      check_loads) -> Workload:
    """`scenes` holds (element centers, surface section) pairs."""
    configs = tuple(_base_config(surface, tuning) for _, surface in scenes)
    n = len(scenes[0][0])

    def args(config_path: str, out_dir: str) -> list:
        return ["channel", config_path, "--out", out_dir]

    def check(out_dir: Path, couplings) -> tuple:
        payload, problem = _read_json(out_dir / "channel.json")
        if problem:
            return [problem], None
        try:
            h = complex(payload["h_e2e_re_ohm"], payload["h_e2e_im_ohm"])
            gain = float(payload["gain_db"])
            loads, problems = check_loads(payload, n)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"channel.json: malformed ({exc!r})"], None
        if not problems:
            h_ref = solve_h(couplings, loads)
            problems = _check_h("channel.json", h, gain, h_ref, couplings[0])
        return problems, gain

    return Workload(name, configs, args,
                    lambda j: oracle_couplings(scenes[j][0]), check)


def _fixed_loads(payload: dict, n: int):
    return np.full(n, 1j * LOAD_OHM), []


def _optimized_loads(payload: dict, n: int):
    """Reported reactances, which must be lossless and inside the default
    bounds of the optimizer."""
    from wirecoupling.channel import DEFAULT_REACTANCE_BOUNDS

    re = np.array(payload["tuning_re_ohm"], dtype=float)
    im = np.array(payload["tuning_im_ohm"], dtype=float)
    lo, hi = DEFAULT_REACTANCE_BOUNDS
    if re.shape != (n,) or im.shape != (n,):
        return None, [f"channel.json: {re.size} tunings for {n} elements"]
    if np.any(re != 0.0) or np.any(im < lo) or np.any(im > hi):
        return None, [f"channel.json: tuning outside the lossless "
                      f"reactance bounds [{lo:g}, {hi:g}] ohm"]
    return 1j * im, []


def jitter_channel(seed: int, n: int = 8,
                   draws: int = JITTER_DRAWS) -> Workload:
    """`channel` on an explicit element list: the jittered n x n grid.

    The gain of one draw depends strongly on its offsets (2.2 to 3.8 dB
    over ten seeds), so a run cycles through several draws and the
    median gain of a run stays steady from seed to seed.
    """
    scenes = [(c, {"elements": [_wire(x) for x in c]})
              for c in jitter_centers(seed, n, draws)]
    tuning = {"entries": [{"re": 0.0, "im": LOAD_OHM}]}
    return _channel_workload("jitter-channel", scenes, tuning, _fixed_loads)


def optimize(n: int = 4, budget: int = OPT_BUDGET) -> Workload:
    """`channel` with an optimize directive on an n x n lambda/8 grid."""
    surface = {"grid": {"rows": n, "cols": n, "spacing": PITCH,
                        "half_length": HALF_LENGTH, "radius": RADIUS}}
    tuning = {"optimize": {"budget": budget}}
    return _channel_workload("optimize", [(grid_centers(n, n, PITCH), surface)],
                             tuning, _optimized_loads)


def make(name: str, seed: int) -> Workload:
    """The full-size workload by name; only jitter-channel uses the seed."""
    if name == "jitter-channel":
        return jitter_channel(seed)
    return {"grid-sweep": grid_sweep, "optimize": optimize}[name]()
