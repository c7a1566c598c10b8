"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench

Tiny workloads go through the real CLI in a child process, exactly as in
a benchmark run; the corruption tests make sure the checkers can fail.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "grid-sweep": lambda: workloads.grid_sweep(n=2, points=2),
    "jitter-channel": lambda: workloads.jitter_channel(seed=3, n=2, draws=1),
    "optimize": lambda: workloads.optimize(n=2, budget=2),
}


def request(wl, tmp_path, traced=False):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(wl.configs[0]), encoding="utf-8")
    result, out_dir, problem = run.run_request(wl, config, tmp_path / "req",
                                               traced)
    assert problem is None
    return result, out_dir


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checker(name, tmp_path):
    wl = TINY[name]()
    result, out_dir = request(wl, tmp_path)
    problems, gain = wl.check(out_dir, wl.reference(0))
    assert problems == []
    assert isinstance(gain, float)
    assert result["latency_s"] > 0 and result["setup_s"] > 0


def _corrupt_first_number(text: str, marker: str) -> str:
    # Change a digit just after `marker`, keeping the file well formed.
    at = text.index(marker) + len(marker)
    while not text[at].isdigit() or text[at] == "0":
        at += 1
    return text[:at] + str(int(text[at]) % 9 + 1) + text[at + 1:]


def test_corrupted_sweep_csv_fails_the_check(tmp_path):
    wl = TINY["grid-sweep"]()
    _, out_dir = request(wl, tmp_path)
    path = out_dir / "sweep.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    # h_e2e_re_ohm moves by 1e-5 of |h|, ten times the gate.
    cells[4] = repr(float(cells[4]) + 1e-5 * float(cells[6]))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems, _ = wl.check(out_dir, wl.reference(0))
    assert any("oracle" in p for p in problems)


@pytest.mark.parametrize("name,field", [
    ("jitter-channel", '"h_e2e_im_ohm": '),
    ("jitter-channel", '"gain_db": '),
    ("optimize", '"h_e2e_re_ohm": '),
])
def test_corrupted_channel_json_fails_the_check(name, field, tmp_path):
    wl = TINY[name]()
    _, out_dir = request(wl, tmp_path)
    path = out_dir / "channel.json"
    path.write_text(_corrupt_first_number(
        path.read_text(encoding="utf-8"), field), encoding="utf-8")
    problems, _ = wl.check(out_dir, wl.reference(0))
    assert problems


def test_optimize_tuning_outside_bounds_fails_the_check(tmp_path):
    wl = TINY["optimize"]()
    _, out_dir = request(wl, tmp_path)
    path = out_dir / "channel.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tuning_im_ohm"][0] = 5000.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    problems, _ = wl.check(out_dir, wl.reference(0))
    assert problems and "bounds" in problems[0]


def test_missing_output_fails_the_check(tmp_path):
    wl = TINY["jitter-channel"]()
    _, out_dir = request(wl, tmp_path)
    (out_dir / "channel.json").unlink()
    problems, _ = wl.check(out_dir, wl.reference(0))
    assert problems and "unreadable" in problems[0]


def test_grid_sweep_trace_counts_pairs_and_e1_calls(tmp_path):
    wl = workloads.grid_sweep()
    result, out_dir = request(wl, tmp_path, traced=True)
    m = run.layer_metrics(result["trace"], result["latency_s"], {})
    assert result["trace"]["missing"] == []
    assert m["impedance.pairs"] == 2461
    closed_form = m["impedance.pairs"] - m["impedance.oracle_fallbacks"]
    assert m["special.e1_calls"] == 24 * closed_form
    assert m["impedance.unique_pair_ratio"] < 0.1
    assert m["channel.end_to_end_calls"] == 4
    assert m["cli.self_s"] >= 0


def test_traced_output_is_byte_identical(tmp_path):
    wl = TINY["optimize"]()
    _, plain = request(wl, tmp_path / "a")
    _, traced = request(wl, tmp_path / "b", traced=True)
    assert run.output_bytes(plain) == run.output_bytes(traced)


def test_traced_run_cycles_configs_and_reports_every_metric(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    wl = workloads.jitter_channel(seed=5, n=2, draws=2)
    assert wl.configs[0] != wl.configs[1]
    report = run.run(wl, seed=5, seconds=0.0, trace=True)
    result = report["result"]
    # Untraced cycle, then a traced one, so each config is seen both ways.
    assert result["attempted"] == 3 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    # 2 x 2 grid: 10 surface pairs, 8 transmitter/receiver pairs, 1 direct.
    assert result["metrics"]["impedance.pairs"]["value"] == 19
    assert not (tmp_path / "work").exists()


def test_missing_target_reports_null():
    # As if a refactor had removed adaptive_quad from the impedance module.
    targets = tuple(t for t in child.TARGETS if t[2] != "special.quad")
    tracer = child.Tracer()
    tracer.install(targets + (
        ("wirecoupling.impedance", "no_such_function", "special.quad"),))
    # Undo the wrappers so later tests in this process see the package.
    for module_name, path, _ in targets:
        owner = sys.modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, getattr(owner, attr).__wrapped__)
    trace = tracer.dump()
    assert trace["missing"] == ["special.quad"]
    m = run.layer_metrics(trace, 1.0, {})
    assert m["special.quad_calls"] is None and m["special.quad_s"] is None
    assert m["special.e1_calls"] == 0
