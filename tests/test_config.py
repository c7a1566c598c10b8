"""Configuration parsing, serialization, and sweep resolution."""

import copy
import json
import math
import re

import numpy as np
import pytest

from wirecoupling import (
    ConfigError,
    build_grid,
    load_scene_config,
    parse_scene_config,
    resolve_sweep_scene,
    scene_config_to_dict,
    tuning_for_scene,
    wavelength,
)

FREQ = 3.0e8  # [Hz]
LAM = wavelength(FREQ)


def elements_config() -> dict:
    return {
        "frequency_hz": FREQ,
        "transmitter": {"center": [0.0, -3.0, 0.0], "half_length": 0.23,
                        "radius": 0.002},
        "receiver": {"center": [0.0, 3.0, 0.0], "half_length": 0.23,
                     "radius": 0.002},
        "surface": {"elements": [
            {"center": [-0.25, 0.0, 0.0], "half_length": 0.23, "radius": 0.002},
            {"center": [0.25, 0.0, 0.0], "half_length": 0.23, "radius": 0.002},
        ]},
    }


def grid_config(rows=4, cols=4, spacing=0.125) -> dict:
    return {
        "frequency_hz": FREQ,
        "lambda_units": True,
        "transmitter": {"center": [0.0, -3.0, 0.0], "half_length": 0.23,
                        "radius": 0.002},
        "receiver": {"center": [0.0, 3.0, 0.0], "half_length": 0.23,
                     "radius": 0.002},
        "surface": {"grid": {"rows": rows, "cols": cols, "spacing": spacing,
                             "half_length": 0.23, "radius": 0.002}},
        "tuning": {"entries": [{"re": 0.0, "im": -100.0}]},
    }


UNKNOWN_FIELD_CASES = [
    ("transmitter", lambda d: d["transmitter"], "length"),
    ("receiver", lambda d: d["receiver"], "length"),
    ("surface", lambda d: d["surface"], "layout"),
    ("surface.grid", lambda d: d["surface"]["grid"], "pitch"),
    ("surface.elements[1]", lambda d: d["surface"]["elements"][1],
     "length"),
    ("tuning", lambda d: d["tuning"], "entires"),
    ("tuning.optimize", lambda d: d["tuning"]["optimize"], "budjet"),
    ("tuning.optimize", lambda d: d["tuning"]["optimize"], "seed"),
]


class TestParse:
    def test_minimal_document(self):
        cfg = parse_scene_config(elements_config())
        assert cfg.scene.n_elements == 2
        assert cfg.scene.frequency_hz == FREQ
        assert cfg.grid is None
        assert cfg.tuning is None
        assert cfg.optimize is None
        assert cfg.output_dir is None

    def test_lambda_units_scale_all_lengths(self):
        cfg = parse_scene_config(grid_config())
        tx = cfg.scene.transmitter
        assert tx.half_length == pytest.approx(0.23 * LAM, rel=1e-15)
        assert tx.radius == pytest.approx(0.002 * LAM, rel=1e-15)
        assert tx.center[1] == pytest.approx(-3.0 * LAM, rel=1e-15)
        assert cfg.grid.spacing == pytest.approx(0.125 * LAM, rel=1e-15)

    def test_grid_surface_matches_direct_construction(self):
        cfg = parse_scene_config(grid_config(rows=2, cols=3))
        expected = build_grid(2, 3, 0.125 * LAM, 0.23 * LAM, 0.002 * LAM)
        assert cfg.scene.surface == expected

    def test_fixed_entries_broadcast(self):
        cfg = parse_scene_config(grid_config())
        assert cfg.tuning is not None
        assert cfg.tuning.n_elements == 16
        assert np.all(cfg.tuning.entries == -100.0j)

    def test_entry_count_must_fit_surface(self):
        data = grid_config()
        data["tuning"] = {"entries": [{"re": 0.0, "im": 0.0}] * 3}
        with pytest.raises(ConfigError, match=r"1 \(broadcast\) or 16"):
            parse_scene_config(data)

    def test_optimize_defaults(self):
        data = grid_config()
        data["tuning"] = {"optimize": {}}
        cfg = parse_scene_config(data)
        assert cfg.tuning is None
        assert cfg.optimize.reactance_bounds == (-2000.0, 2000.0)
        assert cfg.optimize.budget == 20

    def test_optimize_custom_values(self):
        data = grid_config()
        data["tuning"] = {"optimize": {"reactance_bounds": [-500, 500],
                                       "budget": 5}}
        cfg = parse_scene_config(data)
        assert cfg.optimize.reactance_bounds == (-500.0, 500.0)
        assert cfg.optimize.budget == 5

    def test_output_directory(self):
        data = elements_config()
        data["output"] = {"directory": "runs/a"}
        assert parse_scene_config(data).output_dir == "runs/a"

    def test_error_paths_name_the_field(self):
        data = elements_config()
        del data["transmitter"]["radius"]
        with pytest.raises(ConfigError, match="transmitter.radius"):
            parse_scene_config(data)

        data = elements_config()
        data["receiver"]["half_length"] = -1.0
        with pytest.raises(ConfigError, match="receiver.half_length"):
            parse_scene_config(data)

        data = elements_config()
        data["surface"]["elements"][1]["center"] = [0.25, 0.0]
        with pytest.raises(ConfigError, match=r"surface.elements\[1\].center"):
            parse_scene_config(data)

        data = elements_config()
        data["frequency_hz"] = "fast"
        with pytest.raises(ConfigError, match="frequency_hz"):
            parse_scene_config(data)

    def test_surface_needs_exactly_one_flavor(self):
        data = elements_config()
        data["surface"]["grid"] = grid_config()["surface"]["grid"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scene_config(data)
        data = elements_config()
        data["surface"] = {}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scene_config(data)

    def test_tuning_needs_exactly_one_flavor(self):
        data = grid_config()
        data["tuning"] = {"entries": [{"re": 0.0, "im": 0.0}],
                          "optimize": {}}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scene_config(data)

    def test_bad_optimize_bounds(self):
        data = grid_config()
        data["tuning"] = {"optimize": {"reactance_bounds": [5, 5]}}
        with pytest.raises(ConfigError, match="lo < hi"):
            parse_scene_config(data)

    def test_unknown_fields_rejected(self):
        data = elements_config()
        data["polarization"] = "vertical"
        with pytest.raises(ConfigError, match="polarization"):
            parse_scene_config(data)

        data = elements_config()
        data["output"] = {"directory": "x", "format": "csv"}
        with pytest.raises(ConfigError, match="format"):
            parse_scene_config(data)

    @pytest.mark.parametrize("path, select, typo", UNKNOWN_FIELD_CASES,
                             ids=[f"{c[0]}.{c[2]}" for c in UNKNOWN_FIELD_CASES])
    def test_unknown_field_names_its_object(self, path, select, typo):
        data = elements_config() if "elements" in path else grid_config()
        data["tuning"] = {"optimize": {"budget": 5}}
        select(data)[typo] = 5
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}: unknown fields ['{typo}']")):
            parse_scene_config(data)

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_scene_config([1, 2, 3])


class TestLoad:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(elements_config()))
        cfg = load_scene_config(path)
        assert cfg.scene.n_elements == 2

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"frequency_hz": 3e8,,}')
        with pytest.raises(ConfigError, match="line 1"):
            load_scene_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scene_config(tmp_path / "absent.json")


class TestRoundTrip:
    def test_grid_document_survives_json_cycle(self):
        cfg = parse_scene_config(grid_config())
        doc = scene_config_to_dict(cfg)
        again = parse_scene_config(json.loads(json.dumps(doc)))
        assert again.scene == cfg.scene
        assert np.array_equal(again.tuning.entries, cfg.tuning.entries)
        # resolved documents are meter-denominated
        assert doc["lambda_units"] is False

    def test_elements_document_survives_json_cycle(self):
        data = elements_config()
        data["tuning"] = {"optimize": {"budget": 7}}
        cfg = parse_scene_config(data)
        doc = scene_config_to_dict(cfg)
        again = parse_scene_config(json.loads(json.dumps(doc)))
        assert again.scene == cfg.scene
        assert again.optimize == cfg.optimize


class TestSweepResolution:
    def test_spacing_holds_aperture_fixed(self):
        cfg = parse_scene_config(grid_config(rows=4, cols=4, spacing=0.125))
        # aperture is 3 * lambda/8; only one lambda/2 pitch fits
        scene = resolve_sweep_scene(cfg, "spacing", 0.5 * LAM)
        assert scene.n_elements == 1
        scene = resolve_sweep_scene(cfg, "spacing", 0.25 * LAM)
        assert scene.n_elements == 4
        scene = resolve_sweep_scene(cfg, "spacing", 0.125 * LAM)
        assert scene.n_elements == 16
        assert scene.surface == cfg.scene.surface

    def test_frequency_keeps_geometry(self):
        cfg = parse_scene_config(grid_config())
        scene = resolve_sweep_scene(cfg, "frequency", 6.0e8)
        assert scene.frequency_hz == 6.0e8
        assert scene.surface == cfg.scene.surface
        with pytest.raises(ConfigError, match="positive"):
            resolve_sweep_scene(cfg, "frequency", 0.0)

    def test_element_count_reshapes_columns(self):
        cfg = parse_scene_config(grid_config(rows=2, cols=2))
        scene = resolve_sweep_scene(cfg, "n_elements", 6.0)
        assert scene.n_elements == 6
        with pytest.raises(ConfigError, match="multiple"):
            resolve_sweep_scene(cfg, "n_elements", 5.0)
        with pytest.raises(ConfigError, match="integer"):
            resolve_sweep_scene(cfg, "n_elements", 4.5)

    def test_geometry_sweeps_require_a_grid(self):
        cfg = parse_scene_config(elements_config())
        with pytest.raises(ConfigError, match="grid"):
            resolve_sweep_scene(cfg, "spacing", 0.5)

    def test_unknown_parameter(self):
        cfg = parse_scene_config(grid_config())
        with pytest.raises(ConfigError, match="sweep parameter"):
            resolve_sweep_scene(cfg, "height", 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("parameter", ["spacing", "frequency",
                                           "n_elements"])
    def test_non_finite_value_rejected(self, parameter, value):
        cfg = parse_scene_config(grid_config())
        with pytest.raises(ConfigError, match="finite"):
            resolve_sweep_scene(cfg, parameter, value)


class TestTuningForScene:
    def test_broadcast_entry_follows_element_count(self):
        cfg = parse_scene_config(grid_config())
        scene = resolve_sweep_scene(cfg, "spacing", 0.25 * LAM)
        tuning = tuning_for_scene(cfg, scene)
        assert tuning.n_elements == scene.n_elements == 4
        assert np.all(tuning.entries == -100.0j)

    def test_full_vector_only_fits_matching_scene(self):
        data = grid_config(rows=1, cols=2)
        data["tuning"] = {"entries": [{"re": 0.0, "im": -10.0},
                                      {"re": 0.0, "im": 20.0}]}
        cfg = parse_scene_config(data)
        assert tuning_for_scene(cfg, cfg.scene) is cfg.tuning
        shrunk = resolve_sweep_scene(cfg, "spacing", 0.5 * LAM)
        assert shrunk.n_elements == 1
        with pytest.raises(ConfigError, match="broadcast"):
            tuning_for_scene(cfg, shrunk)

    def test_absent_tuning_passes_through(self):
        cfg = parse_scene_config(elements_config())
        assert tuning_for_scene(cfg, cfg.scene) is None
