"""Command-line behavior: outputs, exit codes, determinism."""

import json
import math

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


class TestImpedanceCommand:
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
        data = grid_config(rows=1, cols=2, spacing=0.5)
        data["surface"]["grid"]["half_length"] = 0.5  # k*h = pi
        cfg_path = write_config(tmp_path, data)
        assert main(["impedance", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "numerical error" in capsys.readouterr().err

    def test_bad_config_exits_1(self, tmp_path, capsys):
        data = elements_config()
        del data["receiver"]
        cfg_path = write_config(tmp_path, data)
        assert main(["impedance", cfg_path]) == 1
        assert "config error" in capsys.readouterr().err

        cfg_path = write_config(tmp_path, {"frequency_hz": FREQ}, "two.json")
        assert main(["impedance", cfg_path]) == 1


class TestChannelCommand:
    def test_single_element_matches_scalar_formula(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1, tuning_im=-42.0))
        out = tmp_path / "out"
        assert main(["channel", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "channel.json").read_text())
        assert set(payload) == {"h_e2e_re_ohm", "h_e2e_im_ohm", "gain_db",
                                "condition_estimate"}

        cfg = load_scene_config(cfg_path)
        imps = assemble_impedances(cfg.scene)
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

    def test_missing_tuning_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, elements_config(tuning_im=None))
        assert main(["channel", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert "tuning" in capsys.readouterr().err

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

        # each row must agree with an independent library evaluation
        cfg = load_scene_config(cfg_path)
        for row in rows:
            scene = resolve_sweep_scene(cfg, "spacing", float(row[2]))
            imps = assemble_impedances(scene)
            tuning = tuning_for_scene(cfg, scene)
            result = end_to_end(imps, tuning)
            assert abs(complex(float(row[4]), float(row[5])) - result.h_e2e) \
                <= 1e-12 * abs(result.h_e2e)
            assert abs(float(row[7]) - result.gain_db) <= 1e-12

    def test_element_count_sweep(self, tmp_path):
        cfg_path = write_config(tmp_path, grid_config(rows=2, cols=2))
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--param", "n_elements",
                     "--from", "2", "--to", "6", "--points", "3",
                     "--out", str(out)]) == 0
        rows = read_sweep(out / "sweep.csv")
        assert [int(r[3]) for r in rows] == [2, 4, 6]
        assert all(r[8] == "ok" for r in rows)

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

    def test_single_sample(self, tmp_path):
        cfg_path = write_config(tmp_path, elements_config(n=1))
        assert main(["validate", cfg_path, "--samples", "1",
                     "--out", str(tmp_path / "o")]) == 0

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

    def test_oracle_tolerance_belongs_to_validate_only(self, tmp_path):
        # no other command runs quadrature
        cfg_path = write_config(tmp_path, elements_config(n=1))
        sweep = ["--param", "frequency", "--from", "3e8", "--to", "3e8",
                 "--points", "1"]
        for argv in (["impedance"], ["channel"], ["sweep", *sweep]):
            with pytest.raises(SystemExit) as exc:
                main([argv[0], cfg_path, *argv[1:], "--oracle-tol", "1e-7"])
            assert exc.value.code == 2
