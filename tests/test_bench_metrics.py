"""The benchmark in bench/ still reads this package.

Runs the tiny workloads of bench/test_bench.py through bench/run.py, one
fresh child process per request as in a benchmark run, untraced and
traced. Every output must pass the benchmark's oracle check and every
reported metric must be a finite number: a metric that divides by a
counter the package no longer feeds reads null instead. The result must
also be the last line run.py prints, where a benchmark driver reads it.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from test_bench import TINY  # noqa: E402

# Spans each workload must reach, named by the metric that counts or
# times them; the rest of child.TARGETS (oracle, quadrature) stay idle.
CALLED = ("config.load_s", "geometry.scene_validate_s", "impedance.assemble_s",
          "impedance.pairs", "special.e1_calls", "channel.end_to_end_calls",
          "channel.lu_factor_s")
CALLED_BY = {
    "grid-sweep": ("config.resolve_sweep_s", "geometry.build_grid_s"),
    "jitter-channel": (),
    "optimize": ("geometry.build_grid_s", "channel.optimize_s"),
}


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """(name, trace) -> (exit code, report, printed lines) of one
    `run.main` call per tiny workload and mode, shared by both tests.
    The report is what `run.run` returned, less the result that
    `run.main` pops and prints as its last line."""
    runs = {}

    def get(name, trace):
        if (name, trace) not in runs:
            reports, real_run = [], run.run
            printed = io.StringIO()

            def keep_report(*args, **kwargs):
                reports.append(real_run(*args, **kwargs))
                return reports[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(run, "WORK", tmp_path_factory.mktemp("work") / "w")
                mp.setattr(run.workloads, "make", lambda *_: TINY[name]())
                mp.setattr(run, "run", keep_report)
                mp.setattr(sys, "path", list(sys.path))  # main prepends src/
                with contextlib.redirect_stdout(printed):
                    code = run.main(["--workload", name, "--seconds", "0",
                                     "--trace", str(int(trace))])
            runs[name, trace] = code, reports[0], printed.getvalue().splitlines()
        return runs[name, trace]

    return get


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_a_number(name, trace, bench_run):
    _, report, lines = bench_run(name, trace)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, report["failures"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(metrics) == set(units)
    for key, value in metrics.items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), key
        assert math.isfinite(value), key
    if trace:
        assert report["missing_targets"] == []
        for key in CALLED + CALLED_BY[name]:
            assert metrics[key] > 0, key


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_last_printed_line_is_the_result(name, trace, bench_run):
    code, _, lines = bench_run(name, bool(trace))
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    for key, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), key
        assert math.isfinite(value), key
