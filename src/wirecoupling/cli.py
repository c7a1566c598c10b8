"""Command-line front end.

Four subcommands:

    impedance <config>   write the coupling matrices of a scene
    channel <config>     evaluate (or optimize) the end-to-end channel
    sweep <config>       re-evaluate the channel across a parameter range
    validate <config>    compare closed-form couplings against quadrature

Matrices land in CSV files with the header row,col,re_ohm,im_ohm; scalar
results land in JSON. Exit codes: 0 success, 1 configuration problem
(a usage error included), 2 numerical failure.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

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

# Consecutive sweep points share one assembly call while their pair rows,
# 2N + N(N+1)/2 each, fit in this; so a sweep's memory does not grow with
# its point count. A point with more rows than this is assembled alone.
SWEEP_BATCH_PAIRS = 65536


def _write_text(path: Path, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _write_json(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_complex_csv(path: Path, values: np.ndarray):
    matrix = np.atleast_2d(np.asarray(values, dtype=complex))
    if values.ndim == 1:
        matrix = matrix.T  # vectors emit as a single column
    lines = ["row,col,re_ohm,im_ohm"]
    # repr of builtin floats round-trips
    for r, (re_row, im_row) in enumerate(zip(matrix.real.tolist(),
                                             matrix.imag.tolist())):
        lines.extend(f"{r},{c},{re!r},{im!r}"
                     for c, (re, im) in enumerate(zip(re_row, im_row)))
    _write_text(path, "\n".join(lines) + "\n")


def _out_dir(cfg: SceneConfig, args) -> Path:
    # Flag beats config; config beats the working directory.
    directory = Path(args.out if args.out is not None else cfg.output_dir or ".")
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {directory}: "
                          f"{exc.strerror}") from None
    return directory


def _cmd_impedance(cfg: SceneConfig, args) -> int:
    imps = assemble_impedances(cfg.scene)[0]
    out = _out_dir(cfg, args)
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


def _tuned_channel(imps, directive):
    """(channel, optimize result or None) under a tuning_for_scene
    directive: fixed loads, or an optimizer run that starts from zero
    reactance clipped into its bounds."""
    if isinstance(directive, TuningState):
        return end_to_end(imps, directive), None
    lo, hi = directive.reactance_bounds
    init = TuningState.from_reactances(
        np.full(imps.n_elements, min(max(0.0, lo), hi)))
    opt = optimize_tuning(imps, init, budget=directive.budget,
                          reactance_bounds=directive.reactance_bounds)
    return opt.channel, opt


def _cmd_channel(cfg: SceneConfig, args) -> int:
    if cfg.tuning is None:
        raise ConfigError("tuning: required by the channel command (fixed "
                          "entries or an optimize directive)")
    result, opt = _tuned_channel(assemble_impedances(cfg.scene)[0],
                                 tuning_for_scene(cfg, cfg.scene))
    out = _out_dir(cfg, args)
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
            "stop_reason": opt.stop_reason,
        })

    _write_json(out / "channel.json", payload)
    print(
        f"channel: h_e2e = {payload['h_e2e_re_ohm']:.6g} "
        f"{payload['h_e2e_im_ohm']:+.6g}j ohm, "
        f"gain = {payload['gain_db']:.3f} dB; wrote channel.json to {out}"
    )
    return 0


def _sweep_batch(batch, cells):
    """Set the cells of the (index, scene, tuning) points of batch, all
    assembled in one call. If that call raises, the points are assembled
    one at a time, so a row's status is the first error its point raises."""
    try:
        sets = assemble_impedances(*(scene for _, scene, _ in batch))
    except WireCouplingError:
        sets = None
    for j, (i, scene, tuning) in enumerate(batch):
        try:
            imps = sets[j] if sets else assemble_impedances(scene)[0]
            result = _tuned_channel(imps, tuning)[0]
        except WireCouplingError as exc:
            cells[i] = f",,,,,{type(exc).__name__}"
            continue
        h = result.h_e2e
        cells[i] = (f"{scene.n_elements},{h.real!r},{h.imag!r},{abs(h)!r},"
                    f"{result.gain_db!r},ok")


def _cmd_sweep(cfg: SceneConfig, args) -> int:
    if cfg.tuning is None:
        raise ConfigError("tuning: required by the sweep command (fixed "
                          "entries or an optimize directive)")
    if args.points < 1:
        raise ConfigError("sweep --points must be at least 1")
    if not math.isfinite(args.stop - args.start):
        raise ConfigError(f"sweep --from and --to must be finite, with a "
                          f"finite span; got {args.start!r}, {args.stop!r}")
    out = _out_dir(cfg, args)
    values = np.linspace(args.start, args.stop, args.points).tolist()

    cells = [None] * len(values)  # the columns after value, per point
    batch, rows = [], 0
    for i, value in enumerate(values):
        try:
            scene = resolve_sweep_scene(cfg, args.parameter, value)
            point = (i, scene, tuning_for_scene(cfg, scene))
        except WireCouplingError as exc:
            cells[i] = f",,,,,{type(exc).__name__}"
            continue
        size = scene.n_elements * (scene.n_elements + 5) // 2
        if batch and rows + size > SWEEP_BATCH_PAIRS:
            _sweep_batch(batch, cells)
            batch, rows = [], 0
        batch.append(point)
        rows += size
    _sweep_batch(batch, cells)
    failures = sum(not c.endswith(",ok") for c in cells)
    lines = ["index,parameter,value,n_elements,"
             "h_e2e_re_ohm,h_e2e_im_ohm,h_e2e_abs_ohm,gain_db,status"]
    lines += [f"{i},{args.parameter},{value!r},{c}"
              for i, (value, c) in enumerate(zip(values, cells))]
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    print(
        f"sweep: {args.points} points over {args.parameter} in "
        f"[{args.start:g}, {args.stop:g}], {failures} failed; "
        f"wrote sweep.csv to {out}"
    )
    return 0


def _validate_draws(scene, rng, samples: int):
    """(index, wires) of random non-degenerate pairs at the configured
    frequency; a lone wire is a self term."""
    lam = scene.wavelength
    for index in range(samples):
        h_p = rng.uniform(0.1, 0.45) * lam
        a_p = rng.uniform(1.0 / 5000.0, 1.0 / 200.0) * lam
        source = Dipole((0.0, 0.0, 0.0), h_p, a_p)
        if index % 10 == 9:  # every tenth draw probes a self term
            yield index, (source,)
            continue
        h_q = rng.uniform(0.1, 0.45) * lam
        a_q = rng.uniform(1.0 / 5000.0, 1.0 / 200.0) * lam
        d = rng.uniform(1.0 / 20.0, 5.0) * lam
        dz = rng.uniform(-2.0, 2.0) * lam
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        observer = Dipole(
            (d * math.cos(azimuth), d * math.sin(azimuth), dz), h_q, a_q
        )
        yield index, (source, observer)


def _cmd_validate(cfg: SceneConfig, args) -> int:
    if args.samples < 1:
        raise ConfigError("validate --samples must be at least 1")
    if not 0.0 < args.oracle_tol < math.inf:
        raise ConfigError("validate --oracle-tol must be finite and positive")
    out = _out_dir(cfg, args)
    k = cfg.scene.wavenumber
    rng = np.random.default_rng(args.seed)

    comparisons = []
    errors = []
    for index, wires in _validate_draws(cfg.scene, rng, args.samples):
        source, observer, same = wires[0], wires[-1], len(wires) == 1
        closed = mutual_impedance(source, observer, k, same)
        oracle = mutual_impedance_oracle(source, observer, k, same,
                                         rel_tol=args.oracle_tol)
        rel = abs(closed - oracle) / abs(oracle)
        errors.append(rel)
        rho, dz, h_p, h_q = (float(v[0]) for v in
                             pair_geometry(wires, [0], [len(wires) - 1]))
        comparisons.append({
            "index": index,
            "same": same,
            "h_p_m": h_p,
            "h_q_m": h_q,
            "rho_m": rho,
            "dz_m": dz,
            "closed_re_ohm": closed.real,
            "closed_im_ohm": closed.imag,
            "oracle_re_ohm": oracle.real,
            "oracle_im_ohm": oracle.imag,
            "rel_err": rel,
        })

    max_err = max(errors)
    passed = max_err <= VALIDATE_GATE
    # The median as statistics.median takes it, without importing that
    # module (or numpy.ma, which np.median loads): the middle value, or
    # the midpoint of the middle two.
    ranked = sorted(errors)
    mid = len(ranked) // 2
    report = {
        "samples": args.samples,
        "seed": args.seed,
        "frequency_hz": cfg.scene.frequency_hz,
        "oracle_rel_tol": args.oracle_tol,
        "gate_rel": VALIDATE_GATE,
        "max_rel_err": max_err,
        "median_rel_err": (ranked[mid] + ranked[~mid]) / 2,
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


_REQUIRED = object()  # the default of an argument that must be given
_COMMON = {"config": ("config", str, _REQUIRED, "JSON scene configuration"),
           "--out": ("out", str, None, "output directory (default: the "
                     "config's, else the working directory)")}
# command: (handler, help, {argument: (dest, type or choices, default,
# help)}), the argument without dashes being the positional one. This
# table alone drives parsing, the required-argument check and -h.
COMMANDS = {
    "impedance": (_cmd_impedance, "write the coupling matrices", _COMMON),
    "channel": (_cmd_channel, "evaluate or optimize the channel", _COMMON),
    "sweep": (_cmd_sweep, "evaluate the channel over a range", {
        **_COMMON,
        "--param": ("parameter", SWEEP_PARAMETERS, _REQUIRED, "scene "
                    f"parameter to sweep: {', '.join(SWEEP_PARAMETERS)}"),
        "--from": ("start", float, _REQUIRED, "first parameter value"),
        "--to": ("stop", float, _REQUIRED, "last parameter value"),
        "--points": ("points", int, _REQUIRED,
                     "number of evenly spaced sweep points")}),
    "validate": (_cmd_validate, "compare closed-form couplings to "
                                "quadrature", {
        **_COMMON,
        "--oracle-tol": ("oracle_tol", float, 1e-9, "relative tolerance "
                         "of the quadrature oracle (default 1e-9)"),
        "--samples": ("samples", int, 50,
                      "random pairs to compare (default 50)"),
        "--seed": ("seed", int, 0, "random seed (default 0)")}),
}


def _help(command):
    """Print the -h text of a command, or of the program if None; exit 0."""
    rows = {name: entry[1] for name, entry in COMMANDS.items()}
    if command:
        rows = {(f"{name} {dest.upper()}" if name[0] == "-" else name):
                text + " (required)" * (default is _REQUIRED)
                for name, (dest, _, default, text)
                in COMMANDS[command][2].items()}
    print(f"usage: wirecoupling {command or 'COMMAND'} config [flags]",
          *(f"  {arg:<25}{text}" for arg, text in rows.items()), sep="\n")
    raise SystemExit(0)


def _parse(argv):
    """(handler, args) of a command line read against COMMANDS: the
    command, then its config path and flags, each flag as --flag value or
    --flag=value (a value may start with a dash). -h prints help and
    exits 0; a usage error raises ConfigError, worded as argparse words
    it."""
    table = {"command": ("command", tuple(COMMANDS), _REQUIRED, None)}
    prog, given, tokens = "wirecoupling", {}, iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(given.get("command"))
        # a word is the command, then the config path; --flag[=value]
        name, eq, value = (token.partition("=") if token[:1] == "-" and given
                           else ("config" if given else "command", "=", token))
        if name not in table or name in given and name[0] != "-":
            raise ConfigError(f"{prog}: unrecognized arguments: {token}")
        value, kind = value if eq else next(tokens, None), table[name][1]
        if value is None or isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"{prog}: argument {name}: " + (
                "expected one argument" if value is None else
                f"invalid choice: {value!r} (choose from "
                f"{', '.join(map(repr, kind))})"))
        try:
            given[name] = value if isinstance(kind, tuple) else kind(value)
        except ValueError:
            raise ConfigError(f"{prog}: argument {name}: invalid "
                              f"{kind.__name__} value: {value!r}") from None
        if name == "command":  # the command's arguments join the table
            prog, table = f"{prog} {value}", {**table, **COMMANDS[value][2]}
    missing = [name for name, (_, _, default, _) in table.items()
               if default is _REQUIRED and name not in given]
    if missing:
        raise ConfigError(f"{prog}: the following arguments are required: "
                          + ", ".join(missing))
    return COMMANDS[given["command"]][0], SimpleNamespace(**{
        dest: given.get(name, default)
        for name, (dest, _, default, _) in table.items()})


def main(argv=None) -> int:
    # The objects that exist when a command starts, its imports' above
    # all, outlive it. Frozen for the command, no collection inside it
    # scans them; otherwise where the import-time allocation count leaves
    # the collector decides whether the command pays for a generation-1
    # pass over them (1.2 ms of a 10 ms N = 64 channel request on a
    # 2-vCPU VM).
    gc.freeze()
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(load_scene_config(args.config), args)
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WireCouplingError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
