"""Command-line behavior: outputs, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from wirecoupling import (
    Scene,
    assemble_impedances,
    end_to_end,
    load_scene_config,
    mutual_impedance,
    resolve_sweep_scene,
    tuning_for_scene,
    wavelength,
    wavenumber,
)
from wirecoupling import cli
from wirecoupling.cli import main

FREQ = 3.0e8  # [Hz]
LAM = wavelength(FREQ)
K = wavenumber(FREQ)


def write_config(tmp_path, data, name="scene.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def elements_config(n=2, tuning_im=-100.0) -> dict:
    xs = np.linspace(-0.25 * (n - 1), 0.25 * (n - 1), n)
    data = {
        "frequency_hz": FREQ,
        "transmitter": {"center": [0.0, -3.0, 0.0], "half_length": 0.23,
                        "radius": 0.002},
        "receiver": {"center": [0.0, 3.0, 0.0], "half_length": 0.23,
                     "radius": 0.002},
        "surface": {"elements": [
            {"center": [float(x), 0.0, 0.0], "half_length": 0.23,
             "radius": 0.002}
            for x in xs
        ]},
    }
    if tuning_im is not None:
        data["tuning"] = {"entries": [{"re": 0.0, "im": tuning_im}]}
    return data


def grid_config(rows=4, cols=4, spacing=0.125, tuning_im=-100.0) -> dict:
    data = {
        "frequency_hz": FREQ,
        "lambda_units": True,
        "transmitter": {"center": [0.0, -3.0, 0.0], "half_length": 0.23,
                        "radius": 0.002},
        "receiver": {"center": [0.0, 3.0, 0.0], "half_length": 0.23,
                     "radius": 0.002},
        "surface": {"grid": {"rows": rows, "cols": cols, "spacing": spacing,
                             "half_length": 0.23, "radius": 0.002}},
        "tuning": {"entries": [{"re": 0.0, "im": tuning_im}]},
    }
    return data


def read_complex_csv(path) -> np.ndarray:
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,re_ohm,im_ohm"
    rows = cols = 0
    cells = {}
    for line in lines[1:]:
        r, c, re, im = line.split(",")
        cells[(int(r), int(c))] = complex(float(re), float(im))
        rows = max(rows, int(r) + 1)
        cols = max(cols, int(c) + 1)
    out = np.empty((rows, cols), dtype=complex)
    for (r, c), v in cells.items():
        out[r, c] = v
    return out


def read_sweep(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("index,parameter,value,n_elements,h_e2e_re_ohm,"
                        "h_e2e_im_ohm,h_e2e_abs_ohm,gain_db,status")
    return [line.split(",") for line in lines[1:]]


def assert_rows_match_one_scene(cfg_path, parameter, rows):
    """Every ok sweep row equals, bit for bit, its point's scene assembled
    and evaluated on its own."""
    cfg = load_scene_config(cfg_path)
    for row in rows:
        if row[8] != "ok":
            continue
        scene = resolve_sweep_scene(cfg, parameter, float(row[2]))
        result = end_to_end(assemble_impedances(scene)[0],
                            tuning_for_scene(cfg, scene))
        h = result.h_e2e
        assert int(row[3]) == scene.n_elements
        assert [float(v) for v in row[4:8]] == [h.real, h.imag, abs(h),
                                                 result.gain_db]


class TestImpedanceCommand:
    def test_csv_writer_matches_per_entry_formatting(self, tmp_path):
        # signed zeros, subnormals, integers and extremes; a vector
        # emits as a single column
        matrix = np.array([
            [complex(0.0, -0.0), complex(-0.0, 1.0), complex(5e-324, -2.5e-310)],
            [complex(3.0, -7.0), complex(1e300, 0.1), complex(-0.0, -0.0)],
        ])
        for values in (matrix, matrix.T, matrix[1], np.array([1, -2, 1024])):
            path = tmp_path / "z.csv"
            cli._write_complex_csv(path, values)
            cells = np.atleast_2d(np.asarray(values, dtype=complex))
            if values.ndim == 1:
                cells = cells.T
            lines = ["row,col,re_ohm,im_ohm"]
            for r in range(cells.shape[0]):
                for c in range(cells.shape[1]):
                    v = complex(cells[r, c])
                    lines.append(f"{r},{c},{v.real!r},{v.imag!r}")
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_single_element_outputs(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        out = tmp_path / "out"
        assert main(["impedance", cfg_path, "--out", str(out)]) == 0

        cfg = load_scene_config(cfg_path)
        element = cfg.scene.surface[0]
        z_ss = read_complex_csv(out / "z_ss.csv")
        assert z_ss.shape == (1, 1)
        assert z_ss[0, 0] == mutual_impedance(element, element, K, same=True)

        z_rt = json.loads((out / "z_rt.json").read_text())
        expected = mutual_impedance(cfg.scene.transmitter, cfg.scene.receiver, K)
        assert z_rt["z_rt_re_ohm"] == expected.real
        assert z_rt["z_rt_im_ohm"] == expected.imag
        assert z_rt["n_elements"] == 1
        assert "z_ss.csv" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["impedance", cfg_path, "--out", str(a)]) == 0
        assert main(["impedance", cfg_path, "--out", str(b)]) == 0
        for name in ("z_ss.csv", "z_rs.csv", "z_st.csv", "z_rt.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_resonant_scene_exits_2(self, tmp_path, capsys):
        # a resonant surface element or transmitter fails assembly, which
        # runs before the output directory is made
        out = tmp_path / "o"
        data = grid_config(rows=1, cols=2, spacing=0.5)
        data["surface"]["grid"]["half_length"] = 0.5  # k*h = pi
        cfg_path = write_config(tmp_path, data)
        assert main(["impedance", cfg_path, "--out", str(out)]) == 2
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()

        data = grid_config()
        data["transmitter"]["half_length"] = 0.5
        cfg_path = write_config(tmp_path, data, "tx.json")
        assert main(["impedance", cfg_path, "--out", str(out)]) == 2
        assert "transmitter" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exits_1(self, tmp_path, capsys):
        data = elements_config()
        del data["receiver"]
        cfg_path = write_config(tmp_path, data)
        assert main(["impedance", cfg_path]) == 1
        assert "config error" in capsys.readouterr().err

        cfg_path = write_config(tmp_path, {"frequency_hz": FREQ}, "two.json")
        assert main(["impedance", cfg_path]) == 1

    @pytest.mark.parametrize("content", [b'{"frequency_hz": \xff}',
                                         b"[" * 100_000],
                             ids=["non-utf8", "too-deep"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "scene.json"
        cfg_path.write_bytes(content)
        out = tmp_path / "o"
        assert main(["channel", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg_path}")
        assert not out.exists()


class TestChannelCommand:
    def test_single_element_matches_scalar_formula(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1, tuning_im=-42.0))
        out = tmp_path / "out"
        assert main(["channel", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "channel.json").read_text())
        assert set(payload) == {"h_e2e_re_ohm", "h_e2e_im_ohm", "gain_db",
                                "condition_estimate"}

        cfg = load_scene_config(cfg_path)
        imps = assemble_impedances(cfg.scene)[0]
        expected = imps.z_rt - imps.z_rs[0] * imps.z_st[0] / (
            imps.z_ss[0, 0] - 42.0j
        )
        got = complex(payload["h_e2e_re_ohm"], payload["h_e2e_im_ohm"])
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_open_circuit_loading_preserves_direct_link(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=2, tuning_im=1e9))
        out = tmp_path / "out"
        assert main(["channel", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "channel.json").read_text())
        assert abs(payload["gain_db"]) <= 1e-5

    def test_missing_tuning_exits_1(self, tmp_path, capsys, monkeypatch):
        # refused before any output and before the scene is assembled
        def refuse(scene):
            raise AssertionError("assembled a scene that has no tuning")

        monkeypatch.setattr(cli, "assemble_impedances", refuse)
        cfg_path = write_config(tmp_path, elements_config(tuning_im=None))
        out = tmp_path / "o"
        assert main(["channel", cfg_path, "--out", str(out)]) == 1
        assert "tuning" in capsys.readouterr().err
        assert not out.exists()

    def test_optimize_directive(self, tmp_path):
        data = elements_config(n=2, tuning_im=None)
        data["tuning"] = {"optimize": {"budget": 3}}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["channel", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "channel.json").read_text())
        assert len(payload["tuning_re_ohm"]) == 2
        assert len(payload["tuning_im_ohm"]) == 2
        trace = payload["objective_trace"]
        assert payload["iterations"] == len(trace) - 1
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        # converged exactly when the last sweep moved nothing
        assert payload["stop_reason"] == (
            "converged" if trace[-1] == trace[-2] else "budget")
        # the optimized channel must not fall below the direct link only
        # by accident of the initial state: trace starts at init
        assert trace[-1] >= trace[0]

    def test_optimize_bounds_excluding_zero(self, tmp_path):
        # the start point is zero reactance clipped into the bounds
        data = elements_config(n=2, tuning_im=None)
        data["tuning"] = {"optimize": {"reactance_bounds": [100, 500],
                                       "budget": 2}}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["channel", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "channel.json").read_text())
        assert all(100.0 <= x <= 500.0 for x in payload["tuning_im_ohm"])
        assert main(["sweep", cfg_path, "--out", str(out), "--param",
                     "frequency", "--from", "2.9e8", "--to", "3.1e8",
                     "--points", "2"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",ok") for row in rows)

    def test_out_flag_beats_config_directory(self, tmp_path):
        data = elements_config(n=1)
        data["output"] = {"directory": str(tmp_path / "from_config")}
        cfg_path = write_config(tmp_path, data)
        chosen = tmp_path / "from_flag"
        assert main(["channel", cfg_path, "--out", str(chosen)]) == 0
        assert (chosen / "channel.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_config_directory_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = elements_config(n=1)
        data["output"] = {"directory": "cfg_dir"}
        cfg_path = write_config(tmp_path, data)
        assert main(["channel", cfg_path]) == 0
        assert (tmp_path / "cfg_dir" / "channel.json").exists()

    def test_working_directory_used_without_flag_or_config(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, elements_config(n=1))
        assert main(["channel", cfg_path]) == 0
        assert (tmp_path / "channel.json").exists()


class TestSweepCommand:
    def test_singleton_sweep_reproduces_channel(self, tmp_path):
        data = grid_config(rows=2, cols=2)
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        s = 0.125 * LAM
        assert main(["sweep", cfg_path, "--param", "spacing",
                     "--from", repr(s), "--to", repr(s), "--points", "1",
                     "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert len(rows) == 1
        assert rows[0][8] == "ok"
        assert int(rows[0][3]) == 4

        assert main(["channel", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "channel.json").read_text())
        assert float(rows[0][4]) == payload["h_e2e_re_ohm"]
        assert float(rows[0][5]) == payload["h_e2e_im_ohm"]

    def test_spacing_sweep_shrinks_population(self, tmp_path):
        cfg_path = write_config(tmp_path, grid_config(rows=4, cols=4))
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--param", "spacing",
                     "--from", repr(0.125 * LAM), "--to", repr(0.5 * LAM),
                     "--points", "4", "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert [r[8] for r in rows] == ["ok"] * 4
        counts = [int(r[3]) for r in rows]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 16 and counts[-1] == 1

        assert_rows_match_one_scene(cfg_path, "spacing", rows)

    def test_element_count_sweep(self, tmp_path):
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--param", "n_elements",
                     "--from", "2", "--to", "6", "--points", "3",
                     "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert [int(r[3]) for r in rows] == [2, 4, 6]
        assert all(r[8] == "ok" for r in rows)
        assert_rows_match_one_scene(cfg_path, "n_elements", rows)

    def test_frequency_sweep_rows_match_one_scene(self, tmp_path):
        # one assembly call serves every point, each at its own k,
        # evaluated in one group per wavenumber
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=3))
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--param", "frequency",
                     "--from", "2.5e8", "--to", "3.5e8", "--points", "4",
                     "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert [r[8] for r in rows] == ["ok"] * 4
        assert_rows_match_one_scene(cfg_path, "frequency", rows)

    def test_resonant_point_is_reported_not_fatal(self, tmp_path, capsys):
        # geometry resolves at 3e8 Hz with quarter-wave elements; at twice
        # that frequency k*h hits pi and the coupling model breaks down
        data = grid_config(rows=1, cols=2, spacing=0.5)
        data["transmitter"]["half_length"] = 0.25
        data["receiver"]["half_length"] = 0.25
        data["surface"]["grid"]["half_length"] = 0.25
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--param", "frequency",
                     "--from", "5.7e8", "--to", "6.3e8", "--points", "3",
                     "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert [r[8] for r in rows] == ["ok", "ResonantLength", "ok"]
        assert "1 failed" in capsys.readouterr().out
        assert_rows_match_one_scene(cfg_path, "frequency", rows)

    @pytest.mark.parametrize("resonant", [False, True],
                             ids=["spacing", "resonant-frequency"])
    def test_batched_sweep_matches_one_call_bytes(self, tmp_path, monkeypatch,
                                                  resonant):
        # points join an assembly call while their pair rows fit in the
        # budget, a larger point alone; a batch holding a resonant point
        # falls back to one call per point
        data = grid_config(rows=4, cols=4)
        sweep = ["--param", "spacing", "--from", repr(0.125 * LAM),
                 "--to", repr(0.5 * LAM), "--points", "7"]
        budget, calls = 100, [1, 3, 3]  # N = 16; 9, 4, 4; 4, 1, 1
        if resonant:  # as test_resonant_point_is_reported_not_fatal
            data = grid_config(rows=1, cols=2, spacing=0.5)
            for wire in (data["transmitter"], data["receiver"],
                         data["surface"]["grid"]):
                wire["half_length"] = 0.25
            sweep = ["--param", "frequency", "--from", "5.7e8",
                     "--to", "6.3e8", "--points", "5"]
            budget, calls = 21, [3, 1, 1, 1, 2]  # 7 pair rows a point
        sweep = ["sweep", write_config(tmp_path, data), *sweep, "--out"]
        assert main(sweep + [str(tmp_path / "one")]) == 0
        seen, assemble = [], cli.assemble_impedances

        def counting(*scenes):
            seen.append(len(scenes))
            return assemble(*scenes)

        monkeypatch.setattr(cli, "assemble_impedances", counting)
        monkeypatch.setattr(cli, "SWEEP_BATCH_PAIRS", budget)
        assert main(sweep + [str(tmp_path / "batched")]) == 0
        assert seen == calls
        csv = [(tmp_path / d / "sweep.csv").read_bytes()
               for d in ("one", "batched")]
        assert csv[0] == csv[1]
        assert (b"ResonantLength" in csv[0]) == resonant

    def test_crowded_spacing_point_fails_as_geometry(self, tmp_path):
        # a 1e-7 m pitch over the 0.375 m aperture would hold 1.4e13
        # wires; the grid refuses it from the pitch alone
        cfg_path = write_config(tmp_path, grid_config(rows=4, cols=4))
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--param", "spacing",
                     "--from", "1e-7", "--to", repr(0.125 * LAM),
                     "--points", "2", "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert [r[8] for r in rows] == ["GeometryError", "ok"]

    def test_missing_tuning_exits_1(self, tmp_path, capsys, monkeypatch):
        # as for channel: refused before any output and before assembly
        def refuse(*scenes):
            raise AssertionError("assembled a scene that has no tuning")

        monkeypatch.setattr(cli, "assemble_impedances", refuse)
        data = grid_config(rows=2, cols=2)
        del data["tuning"]
        out = tmp_path / "o"
        assert main(["sweep", write_config(tmp_path, data), "--param",
                     "spacing", "--from", repr(0.125 * LAM), "--to",
                     repr(0.25 * LAM), "--points", "2",
                     "--out", str(out)]) == 1
        assert "tuning: required by the sweep command" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_point_count_exits_1(self, tmp_path):
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        assert main(["sweep", cfg_path, "--param", "spacing",
                     "--from", "0.1", "--to", "0.2", "--points", "0",
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("param, start, stop, points, message", [
        ("n_elements", "nan", "4", "2", "finite"),
        ("frequency", "3e8", "inf", "2", "finite"),
        ("frequency", "-inf", "3e8", "1", "finite"),
        ("spacing", "0.1", "nan", "3", "finite"),
        ("frequency", "-1e308", "1e308", "3", "finite span"),
        ("spacing", "0.1", "0.2", "0", "--points"),
    ])
    def test_bad_input_exits_1_before_any_output(self, tmp_path, capsys,
                                                 param, start, stop, points,
                                                 message):
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        out = tmp_path / "o"
        assert main(["sweep", cfg_path, "--param", param, f"--from={start}",
                     f"--to={stop}", "--points", points,
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_report_passes_and_is_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["validate", cfg_path, "--samples", "12",
                     "--out", str(a)]) == 0
        assert main(["validate", cfg_path, "--samples", "12",
                     "--out", str(b)]) == 0
        assert (a / "validate.json").read_bytes() == (b / "validate.json").read_bytes()

        report = json.loads((a / "validate.json").read_text())
        assert report["passed"] is True
        assert report["max_rel_err"] <= 1e-6
        assert report["samples"] == 12
        assert len(report["comparisons"]) == 12
        # every tenth draw exercises the self-impedance path
        assert report["comparisons"][9]["same"] is True
        for row in report["comparisons"]:
            assert row["rel_err"] <= 1e-6

    def test_bad_sample_count_exits_1_before_any_output(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        out = tmp_path / "o"
        assert main(["validate", cfg_path, "--samples", "0",
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_oracle_tolerance_exits_1_before_any_output(self, tmp_path,
                                                            tol):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        out = tmp_path / "o"
        assert main(["validate", cfg_path, "--oracle-tol", tol,
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_single_sample(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        assert main(["validate", cfg_path, "--samples", "1",
                     "--out", str(tmp_path / "o")]) == 0

    def test_max_error_stays_at_the_scalar_kernels(self, tmp_path):
        # the per-pair scalar kernel read 1.6001124530407936e-13 here
        cfg_path = write_config(tmp_path, elements_config(n=1))
        out = tmp_path / "o"
        assert main(["validate", cfg_path, "--samples", "200", "--seed", "7",
                     "--out", str(out)]) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["max_rel_err"] <= 1.6001124530407936e-13 + 1e-12

    def test_seed_changes_draws(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["validate", cfg_path, "--samples", "5", "--seed", "1",
                     "--out", str(a)]) == 0
        assert main(["validate", cfg_path, "--samples", "5", "--seed", "2",
                     "--out", str(b)]) == 0
        ra = json.loads((a / "validate.json").read_text())
        rb = json.loads((b / "validate.json").read_text())
        assert ra["comparisons"][0]["rho_m"] != rb["comparisons"][0]["rho_m"]

    def test_oracle_tolerance_flag(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        out = tmp_path / "o"
        assert main(["validate", cfg_path, "--samples", "3",
                     "--oracle-tol", "1e-7", "--out", str(out)]) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["oracle_rel_tol"] == 1e-7

    def test_oracle_tolerance_belongs_to_validate_only(self, tmp_path,
                                                       capsys):
        # no other command runs quadrature; the flag is a usage error
        cfg_path = write_config(tmp_path, elements_config(n=1))
        sweep = ["--param", "frequency", "--from", "3e8", "--to", "3e8",
                 "--points", "1"]
        for argv in (["impedance"], ["channel"], ["sweep", *sweep]):
            assert main([argv[0], cfg_path, *argv[1:],
                         "--oracle-tol", "1e-7"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert "--oracle-tol" in err


class TestUsage:
    @pytest.mark.parametrize("argv, names", [
        (["channel"], "required: config"),
        (["sweep", "c.json", "--param", "spacing", "--from", "1", "--to",
          "2", "--points", "x"], "--points"),
        (["bogus", "c.json"], "bogus"),
        (["impedance", "c.json", "--nope"], "--nope"),
        ([], "required: command"),
        (["sweep", "c.json", "--param", "spacing", "--from", "1", "--to", "2",
          "--points"], "argument --points: expected one argument"),
        (["channel", "c.json", "d.json"], "unrecognized arguments: d.json"),
        (["sweep", "c.json", "--param", "bogus", "--from", "1", "--to", "2",
          "--points", "2"], "argument --param: invalid choice: 'bogus'"),
        (["sweep", "c.json", "--param=spacing", "--from", "1"],
         "required: --to, --points"),
        (["validate", "c.json", "--samples=x"], "invalid int value: 'x'"),
        (["validate", "c.json", "--sam", "4"],
         "unrecognized arguments: --sam"),
    ], ids=["missing-argument", "bad-int", "bad-command", "unknown-flag",
            "no-command", "value-missing-at-end", "second-positional",
            "bad-choice", "missing-flags", "bad-int-after-equals",
            "abbreviation"])
    def test_usage_error_exits_1_with_one_line(self, capsys, argv, names):
        # a usage error is a configuration problem, as the README says
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert names in err

    def test_out_with_equals_sign(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        out = tmp_path / "o"
        assert main(["channel", cfg_path, f"--out={out}"]) == 0
        assert (out / "channel.json").exists()

    def test_value_may_start_with_a_dash(self, tmp_path):
        # -0.5 is the value of --from, not a flag; the point itself fails
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        out = tmp_path / "o"
        assert main(["sweep", cfg_path, "--param", "spacing", "--from",
                     "-0.5", "--to", repr(0.125 * LAM), "--points", "2",
                     "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert [float(r[2]) for r in rows] == [-0.5, 0.125 * LAM]
        assert rows[0][8] != "ok" and rows[1][8] == "ok"

    def test_validate_defaults(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        out = tmp_path / "o"
        assert main(["validate", cfg_path, "--out", str(out)]) == 0
        report = json.loads((out / "validate.json").read_text())
        assert (report["oracle_rel_tol"], report["samples"],
                report["seed"]) == (1e-9, 50, 0)

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        # the installed entry point calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["wirecoupling", "bogus", "c.json"])
        assert main() == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["-h"], ["sweep", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wirecoupling")

    @pytest.mark.parametrize("argv, names", [
        (["--help"], ["impedance", "channel", "sweep", "validate"]),
        (["impedance", "-h"], ["config", "--out"]),
        (["channel", "c.json", "--help"], ["config", "--out"]),
        (["sweep", "-h"], ["config", "--out", "--param", "--from", "--to",
                           "--points"]),
        (["validate", "--out", "o", "-h"], ["config", "--out", "--oracle-tol",
                                            "--samples", "--seed"]),
    ], ids=["program", "impedance", "channel", "sweep", "validate"])
    def test_help_names_every_argument(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: wirecoupling")
        assert all(name in out for name in names)
        # and no flag of another command
        flags = {name for name in names if name.startswith("--")}
        assert set(re.findall(r"--[a-z-]+", out)) - {"--help"} == flags


class TestOutputPaths:
    # each command with its arguments and its first output file
    COMMANDS = {
        "impedance": ([], "z_ss.csv"),
        "channel": ([], "channel.json"),
        "sweep": (["--param", "spacing", "--from", "0.125", "--to", "0.25",
                   "--points", "2"], "sweep.csv"),
        "validate": (["--samples", "1"], "validate.json"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_output_directory_below_a_file_exits_1(self, tmp_path, capsys,
                                                   command):
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        out = Path(cfg_path) / "sub"
        argv = [command, cfg_path, *self.COMMANDS[command][0], "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot make output directory {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_output_name_taken_by_a_directory_exits_1(self, tmp_path, capsys,
                                                      command):
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        extra, name = self.COMMANDS[command]
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([command, cfg_path, *extra, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / name}: ")
        assert err.count("\n") == 1


class TestImports:
    def test_cli_requests_load_no_scipy(self, tmp_path):
        # Each CLI request is a fresh interpreter, so what it imports is
        # part of every request. Behind an import hook that refuses
        # scipy, the package and the CLI import and all four commands
        # run, an optimized channel included: scipy is a test dependency
        # only, and E1 off the positive imaginary axis is a DomainError,
        # not a call into scipy. Nor do they load statistics, which costs
        # milliseconds of start-up for one median, or argparse, locale
        # and gettext, which cost milliseconds of every request. Of
        # numpy.ma (np.unique without indices imports it) and
        # numpy.polynomial they load nothing that import numpy has not
        # (numpy 1.x imports both itself), except the oracle's
        # Gauss-Legendre rules from numpy.polynomial in validate.
        fixed = write_config(tmp_path, grid_config(rows=2, cols=2), "fixed.json")
        data = grid_config(rows=2, cols=2)
        data["tuning"] = {"optimize": {"budget": 3}}
        optimized = write_config(tmp_path, data, "optimized.json")
        script = textwrap.dedent("""
            import sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ModuleNotFoundError(f"blocked: {name}")
                    return None

            def loaded(*families):
                return {m for m in sys.modules for f in families
                        if m == f or m.startswith(f + ".")}

            sys.meta_path.insert(0, NoScipy())
            import numpy as np
            numpy_own = loaded("numpy.ma", "numpy.polynomial")
            import wirecoupling
            import wirecoupling.cli as cli
            fixed, optimized, out = sys.argv[1:]
            sweep = ["--param", "spacing", "--from", "0.125", "--to", "0.25",
                     "--points", "2"]
            for argv in (["channel", fixed], ["channel", optimized],
                         ["sweep", fixed, *sweep], ["impedance", fixed],
                         ["validate", fixed, "--samples", "2"]):
                if argv[0] == "validate":
                    polynomial = loaded("numpy.polynomial") - numpy_own
                assert cli.main([*argv, "--out", out]) == 0, argv
            try:
                wirecoupling.exp_integral_e1(np.array([1.0 + 0j]))
            except wirecoupling.DomainError:
                pass
            else:
                raise AssertionError("E1 off the axis did not raise")
            print(sorted(polynomial | (loaded("numpy.ma") - numpy_own)
                         | loaded("scipy", "statistics", "argparse",
                                  "locale", "gettext")))
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script, fixed, optimized,
             str(tmp_path / "out")],
            capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"
