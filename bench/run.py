"""wirecoupling benchmark: closed-loop CLI requests, each in a fresh process.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload optimize --seed 1 --seconds 35 --trace 1

Run from the root of a source checkout; the package is imported from
`src/`. One client sends one request at a time until --seconds have
passed. Every request is a new `python3 bench/child.py` process writing
into its own empty output directory, so each pays the imports and the
BLAS thread start-up a CLI user pays. Outputs are checked outside the
timed window against a quadrature-oracle reference, and every request's
output bytes must equal those of the first request of the run on the
same config.

With --trace 0 the result carries the end-to-end metrics; with --trace 1
passes over the configs alternate untraced and traced, and the result
carries the per-module metrics of the traced requests (see README.md). The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REQUEST_TIMEOUT_S = 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "gain_db": "dB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Counts and seconds summed over the spans of one name.
SPAN_METRICS = {
    "special.e1": ("special.e1_calls", "special.e1_s"),
    "special.quad": ("special.quad_calls", "special.quad_s"),
    "impedance.pair": ("impedance.pairs", None),
    "impedance.oracle": ("impedance.oracle_fallbacks", None),
    "impedance.assemble": (None, "impedance.assemble_s"),
    "channel.end_to_end": ("channel.end_to_end_calls", "channel.end_to_end_s"),
    "channel.lu_factor": (None, "channel.lu_factor_s"),
    "channel.optimize": (None, "channel.optimize_s"),
    "geometry.build_grid": (None, "geometry.build_grid_s"),
    "geometry.scene_validate": (None, "geometry.scene_validate_s"),
    "config.load": (None, "config.load_s"),
    "config.resolve_sweep": (None, "config.resolve_sweep_s"),
}
PER_LAYER_UNITS = {
    "special.e1_calls": "count", "special.e1_s": "s",
    "special.quad_calls": "count", "special.quad_s": "s",
    "impedance.assemble_s": "s", "impedance.pairs": "count",
    "impedance.us_per_pair": "us", "impedance.oracle_fallbacks": "count",
    "impedance.unique_pair_ratio": "ratio",
    "channel.end_to_end_calls": "count", "channel.end_to_end_s": "s",
    "channel.us_per_solve": "us", "channel.lu_factor_s": "s",
    "channel.singular_failures": "count",
    "channel.optimize_s": "s", "channel.opt_sweeps": "count",
    "channel.opt_evals_per_sweep": "count",
    "channel.opt_last_rel_gain": "ratio",
    "geometry.build_grid_s": "s", "geometry.scene_validate_s": "s",
    "config.load_s": "s", "config.resolve_sweep_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s", "error_rate": "ratio",
}


def _ratio(num, den):
    return None if num is None or not den else num / den


def _us_per(total_s, calls):
    return _ratio(None if total_s is None else total_s * 1e6, calls)


def _sig12(v: float) -> float:
    return float(f"{v:.12g}")


def layer_metrics(trace: dict, latency_s: float, output: dict) -> dict:
    """Per-module metrics of one traced request.

    A metric whose wrapped attribute no longer exists is None, so that a
    refactor that removes a name reports null instead of crashing.
    """
    names, spans = trace["names"], trace["spans"]
    missing = set(trace["missing"])
    count = {n: 0 for n in names}
    total = {n: 0.0 for n in names}
    under_root = 0.0
    for name_id, parent, start, end, _ in spans:
        count[names[name_id]] += 1
        total[names[name_id]] += end - start
        if parent == -1:
            under_root += end - start

    m = {}
    for span, (count_key, time_key) in SPAN_METRICS.items():
        known = span not in missing
        if count_key:
            m[count_key] = count.get(span, 0) if known else None
        if time_key:
            m[time_key] = total.get(span, 0.0) if known else None

    m["impedance.us_per_pair"] = _us_per(m["impedance.assemble_s"],
                                         m["impedance.pairs"])
    keys = trace["pair_keys"]
    m["impedance.unique_pair_ratio"] = None if keys is None else _ratio(
        len({(_sig12(r), _sig12(dz), _sig12(hp), _sig12(hq), same)
             for r, dz, hp, hq, same in keys}), len(keys))
    m["channel.us_per_solve"] = _us_per(m["channel.end_to_end_s"],
                                        m["channel.end_to_end_calls"])

    e2e_id = names.index("channel.end_to_end") if (
        "channel.end_to_end" in names) else None
    m["channel.singular_failures"] = None if e2e_id is None else sum(
        1 for s in spans if s[0] == e2e_id and s[4] == "SingularSystem")

    # The optimizer reports |h| after the start and after each sweep.
    objective = output.get("objective_trace") or []
    sweeps = max(len(objective) - 1, 0)
    opt_id = names.index("channel.optimize") if (
        "channel.optimize" in names) else None
    evals = 0 if opt_id is None else sum(
        1 for s in spans if s[0] == e2e_id and s[1] != -1
        and spans[s[1]][0] == opt_id)
    m["channel.opt_sweeps"] = sweeps
    m["channel.opt_evals_per_sweep"] = evals / sweeps if sweeps else 0.0
    m["channel.opt_last_rel_gain"] = (
        objective[-1] / objective[-2] - 1.0 if sweeps else 0.0)
    m["cli.self_s"] = latency_s - under_root
    return m


def run_request(wl, config_path: Path, req_dir: Path, traced: bool):
    """Run one request in a fresh process, writing under req_dir.

    Returns (child result or None, output directory, problem or None).
    """
    out_dir = req_dir / "out"
    out_dir.mkdir(parents=True)
    result_path = req_dir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           "1" if traced else "0", *wl.args(str(config_path), str(out_dir))]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(cmd, cwd=req_dir, env=env, capture_output=True,
                              text=True, timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, out_dir, f"timed out after {REQUEST_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, out_dir, f"child exited {proc.returncode}: {tail[0]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["code"] != 0:
        return result, out_dir, f"cli exited {result['code']}"
    if not Path(result["module_file"]).resolve().is_relative_to(SRC):
        return None, out_dir, f"imported {result['module_file']}, not src/"
    return result, out_dir, None


def output_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(seed: int, requests: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return deps["blas"].get("openblas configuration") or deps["blas"]
        except (TypeError, KeyError, AttributeError):
            return None

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "seed": seed,
        "requests": requests,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _median(values: list):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop of requests for `seconds`; returns the report."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    cycle = len(wl.configs)
    config_paths = [WORK / f"scene-{j}.json" for j in range(cycle)]
    for path, config in zip(config_paths, wl.configs):
        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    refs = [wl.reference(j) for j in range(cycle)]

    plain, traced, failures = [], [], []
    first_bytes = {}
    start = time.perf_counter()
    index = 0
    # A traced run alternates whole cycles of configs, untraced first, so
    # every config is seen both ways.
    while (index == 0 or time.perf_counter() - start < seconds
           or (trace and index <= cycle)):
        j = index % cycle
        is_traced = trace and (index // cycle) % 2 == 1
        result, out_dir, problem = run_request(
            wl, config_paths[j], WORK / f"req-{index:05d}", is_traced)
        problems = [problem] if problem else []
        if not problems:
            data = output_bytes(out_dir)
            if data != first_bytes.setdefault(j, data):
                problems.append("output bytes differ from the first request")
            check_problems, gain = wl.check(out_dir, refs[j])
            problems += check_problems
        if problems:
            failures.append(f"request {index}: " + "; ".join(problems))
        else:
            output = json.loads(data.get("channel.json", b"{}"))
            sample = dict(result, gain_db=gain, output=output)
            (traced if is_traced else plain).append(sample)
        shutil.rmtree(out_dir.parent)
        index += 1
    shutil.rmtree(WORK, ignore_errors=True)

    report = {"workload": wl.name, "trace": trace,
              "environment": environment(seed, index),
              "error_rate": len(failures) / index, "failures": failures}
    lat = [s["latency_s"] for s in plain]
    if trace:
        layers = [layer_metrics(s["trace"], s["latency_s"], s["output"])
                  for s in traced]
        metrics = {k: _median([m.get(k) for m in layers])
                   for k in PER_LAYER_UNITS}
        lat_traced = [s["latency_s"] for s in traced]
        if lat and lat_traced:
            metrics["trace.overhead_s"] = (statistics.median(lat_traced)
                                           - statistics.median(lat))
        metrics["error_rate"] = report["error_rate"]
        report["missing_targets"] = sorted(
            {n for s in traced for n in s["trace"]["missing"]})
        units = PER_LAYER_UNITS
    else:
        samples = {
            "latency_p50_s": lat,
            "gain_db": [s["gain_db"] for s in plain],
            "setup_s": [s["setup_s"] for s in plain],
            "peak_rss_mb": [s["maxrss_kb"] / 1024.0 for s in plain],
        }
        metrics = {k: _median(v) for k, v in samples.items()}
        report["quartiles"] = {
            k: dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v))
            for k, v in samples.items() if v}
        units = END_TO_END_UNITS
    report["result"] = {
        "correct": not failures,
        "attempted": index,
        "failed": len(failures),
        "metrics": {k: {"value": metrics.get(k), "unit": u}
                    for k, u in units.items()},
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wirecoupling" / "cli.py").is_file():
        print(f"bench: no package source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = run(workloads.make(args.workload, args.seed), args.seed,
                 args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report, indent=1))
    quart = report.get("quartiles", {})
    for name, metric in result["metrics"].items():
        q = quart.get(name)
        extra = (f"  (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n {q['n']})"
                 if q else "")
        print(f"{name} = {metric['value']} {metric['unit']}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
