"""Command-line front end.

Four subcommands:

    impedance <config>   write the coupling matrices of a scene
    channel <config>     evaluate (or optimize) the end-to-end channel
    sweep <config>       re-evaluate the channel across a parameter range
    validate <config>    compare closed-form couplings against quadrature

Matrices land in CSV files with the header row,col,re_ohm,im_ohm; scalar
results land in JSON. Exit codes: 0 success, 1 configuration problem,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from .channel import TuningState, end_to_end, optimize_tuning
from .config import (
    SWEEP_PARAMETERS,
    SceneConfig,
    load_scene_config,
    resolve_sweep_scene,
    tuning_for_scene,
)
from .errors import ConfigError, GeometryError, WireCouplingError
from .geometry import Dipole, pair_geometry
from .impedance import assemble_impedances, mutual_impedance, mutual_impedance_oracle

VALIDATE_GATE = 1e-6  # closed form vs oracle acceptance threshold


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_complex_csv(path: Path, values: np.ndarray):
    matrix = np.atleast_2d(np.asarray(values, dtype=complex))
    if values.ndim == 1:
        matrix = matrix.T  # vectors emit as a single column
    lines = ["row,col,re_ohm,im_ohm"]
    for r in range(matrix.shape[0]):
        for c in range(matrix.shape[1]):
            v = complex(matrix[r, c])  # repr of builtin floats round-trips
            lines.append(f"{r},{c},{v.real!r},{v.imag!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _out_dir(cfg: SceneConfig, args) -> Path:
    # Flag beats config; config beats the working directory.
    if args.out is not None:
        directory = Path(args.out)
    elif cfg.output_dir is not None:
        directory = Path(cfg.output_dir)
    else:
        directory = Path(".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _cmd_impedance(cfg: SceneConfig, args) -> int:
    out = _out_dir(cfg, args)
    imps = assemble_impedances(cfg.scene)
    _write_complex_csv(out / "z_ss.csv", imps.z_ss)
    _write_complex_csv(out / "z_rs.csv", imps.z_rs)
    _write_complex_csv(out / "z_st.csv", imps.z_st)
    _write_json(out / "z_rt.json", {
        "z_rt_re_ohm": imps.z_rt.real,
        "z_rt_im_ohm": imps.z_rt.imag,
        "n_elements": imps.n_elements,
    })
    print(f"impedance: wrote z_ss.csv, z_rs.csv, z_st.csv, z_rt.json to {out}")
    return 0


def _tuned_channel(cfg: SceneConfig, scene, command: str):
    """Assemble one scene and evaluate its channel under the config's
    tuning directive.

    Returns (channel, optimize result or None). An optimize directive
    starts from zero reactance clipped into its bounds; fixed entries are
    sized to the scene by tuning_for_scene.
    """
    imps = assemble_impedances(scene)
    spec = cfg.optimize
    if spec is not None:
        lo, hi = spec.reactance_bounds
        init = TuningState.from_reactances(
            np.full(imps.n_elements, min(max(0.0, lo), hi)),
            reactance_bounds=spec.reactance_bounds,
        )
        opt = optimize_tuning(imps, init, budget=spec.budget)
        return opt.channel, opt
    tuning = tuning_for_scene(cfg, scene)
    if tuning is None:
        raise ConfigError(
            f"tuning: required by the {command} command (fixed entries or "
            f"an optimize directive)"
        )
    return end_to_end(imps, tuning), None


def _cmd_channel(cfg: SceneConfig, args) -> int:
    out = _out_dir(cfg, args)
    result, opt = _tuned_channel(cfg, cfg.scene, "channel")
    payload = {
        "h_e2e_re_ohm": result.h_e2e.real,
        "h_e2e_im_ohm": result.h_e2e.imag,
        "gain_db": result.gain_db,
        "condition_estimate": result.condition_estimate,
    }
    if opt is not None:
        payload.update({
            "tuning_re_ohm": [z.real for z in opt.tuning.entries],
            "tuning_im_ohm": [z.imag for z in opt.tuning.entries],
            "objective_trace": list(opt.trace),
            "iterations": len(opt.trace) - 1,
        })

    _write_json(out / "channel.json", payload)
    print(
        f"channel: h_e2e = {payload['h_e2e_re_ohm']:.6g} "
        f"{payload['h_e2e_im_ohm']:+.6g}j ohm, "
        f"gain = {payload['gain_db']:.3f} dB; wrote channel.json to {out}"
    )
    return 0


def _sweep_row(cfg: SceneConfig, parameter: str, value: float):
    """(n_elements, channel) of one sweep point."""
    scene = resolve_sweep_scene(cfg, parameter, value)
    return scene.n_elements, _tuned_channel(cfg, scene, "sweep")[0]


def _cmd_sweep(cfg: SceneConfig, args) -> int:
    if args.points < 1:
        raise ConfigError("sweep --points must be at least 1")
    if not math.isfinite(args.stop - args.start):
        raise ConfigError(f"sweep --from and --to must be finite, with a "
                          f"finite span; got {args.start!r}, {args.stop!r}")
    out = _out_dir(cfg, args)
    values = np.linspace(args.start, args.stop, args.points)

    lines = ["index,parameter,value,n_elements,"
             "h_e2e_re_ohm,h_e2e_im_ohm,h_e2e_abs_ohm,gain_db,status"]
    failures = 0
    for i, value in enumerate(values):
        value = float(value)
        try:
            n_elements, result = _sweep_row(cfg, args.parameter, value)
        except WireCouplingError as exc:
            failures += 1
            lines.append(
                f"{i},{args.parameter},{value!r},,,,,,{type(exc).__name__}"
            )
            continue
        h = result.h_e2e
        lines.append(
            f"{i},{args.parameter},{value!r},{n_elements},"
            f"{h.real!r},{h.imag!r},{abs(h)!r},{result.gain_db!r},ok"
        )
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    print(
        f"sweep: {args.points} points over {args.parameter} in "
        f"[{args.start:g}, {args.stop:g}], {failures} failed; "
        f"wrote sweep.csv to {out}"
    )
    return 0


def _validate_draws(scene, rng, samples: int):
    """Random non-degenerate wire pairs at the configured frequency."""
    lam = scene.wavelength
    for index in range(samples):
        same = index % 10 == 9  # every tenth draw probes a self term
        h_p = rng.uniform(0.1, 0.45) * lam
        a_p = rng.uniform(1.0 / 5000.0, 1.0 / 200.0) * lam
        source = Dipole((0.0, 0.0, 0.0), h_p, a_p)
        if same:
            yield index, source, source, True
            continue
        h_q = rng.uniform(0.1, 0.45) * lam
        a_q = rng.uniform(1.0 / 5000.0, 1.0 / 200.0) * lam
        d = rng.uniform(1.0 / 20.0, 5.0) * lam
        dz = rng.uniform(-2.0, 2.0) * lam
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        observer = Dipole(
            (d * math.cos(azimuth), d * math.sin(azimuth), dz), h_q, a_q
        )
        yield index, source, observer, False


def _cmd_validate(cfg: SceneConfig, args) -> int:
    if args.samples < 1:
        raise ConfigError("validate --samples must be at least 1")
    out = _out_dir(cfg, args)
    k = cfg.scene.wavenumber
    rng = np.random.default_rng(args.seed)

    comparisons = []
    errors = []
    for index, source, observer, same in _validate_draws(
        cfg.scene, rng, args.samples
    ):
        closed = mutual_impedance(source, observer, k, same)
        oracle = mutual_impedance_oracle(source, observer, k, same,
                                         rel_tol=args.oracle_tol)
        rel = abs(closed - oracle) / abs(oracle)
        errors.append(rel)
        geom = pair_geometry(source, observer, same)
        comparisons.append({
            "index": index,
            "same": same,
            "h_p_m": geom.h_p,
            "h_q_m": geom.h_q,
            "rho_m": geom.rho,
            "dz_m": geom.dz,
            "closed_re_ohm": closed.real,
            "closed_im_ohm": closed.imag,
            "oracle_re_ohm": oracle.real,
            "oracle_im_ohm": oracle.imag,
            "rel_err": rel,
        })

    max_err = max(errors)
    passed = max_err <= VALIDATE_GATE
    report = {
        "samples": args.samples,
        "seed": args.seed,
        "frequency_hz": cfg.scene.frequency_hz,
        "oracle_rel_tol": args.oracle_tol,
        "gate_rel": VALIDATE_GATE,
        "max_rel_err": max_err,
        "median_rel_err": statistics.median(errors),
        "passed": passed,
        "comparisons": comparisons,
    }
    _write_json(out / "validate.json", report)
    verdict = "PASS" if passed else "FAIL"
    print(
        f"validate: {args.samples} samples, max rel err {max_err:.3e} "
        f"vs gate {VALIDATE_GATE:.1e}: {verdict}; wrote validate.json to {out}"
    )
    return 0 if passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirecoupling",
        description="Coupling impedances and end-to-end channels of "
                    "thin-wire dipole surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a JSON scene configuration")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output "
                            "section, else the working directory)")

    p_imp = sub.add_parser("impedance", help="write the coupling matrices")
    common(p_imp)
    p_imp.set_defaults(handler=_cmd_impedance)

    p_ch = sub.add_parser("channel", help="evaluate or optimize the channel")
    common(p_ch)
    p_ch.set_defaults(handler=_cmd_channel)

    p_sw = sub.add_parser("sweep", help="evaluate the channel over a range")
    common(p_sw)
    p_sw.add_argument("--param", dest="parameter", required=True,
                      choices=SWEEP_PARAMETERS,
                      help="which scene parameter to sweep")
    p_sw.add_argument("--from", dest="start", type=float, required=True,
                      help="first parameter value")
    p_sw.add_argument("--to", dest="stop", type=float, required=True,
                      help="last parameter value")
    p_sw.add_argument("--points", type=int, required=True,
                      help="number of evenly spaced sweep points")
    p_sw.set_defaults(handler=_cmd_sweep)

    p_val = sub.add_parser("validate",
                           help="compare closed-form couplings to quadrature")
    common(p_val)
    p_val.add_argument("--oracle-tol", dest="oracle_tol", type=float,
                       default=1e-9,
                       help="relative tolerance of the quadrature oracle "
                            "(default 1e-9)")
    p_val.add_argument("--samples", type=int, default=50,
                       help="number of random pairs to compare (default 50)")
    p_val.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
    p_val.set_defaults(handler=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_scene_config(args.config)
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(cfg, args)
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WireCouplingError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
