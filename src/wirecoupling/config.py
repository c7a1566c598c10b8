"""Scene configuration files: parsing, validation, serialization.

Configs are JSON. Lengths are meters unless the file sets
"lambda_units": true, in which case every geometric length (centers,
half lengths, radii, spacing) is a multiple of the free-space wavelength
and gets resolved to meters against the file's frequency at parse time.
Complex quantities are {"re": ..., "im": ...} objects, in ohms.

Layout:

    {
      "frequency_hz": 3.0e8,
      "lambda_units": true,
      "transmitter": {"center": [0, -3, 0], "half_length": 0.23, "radius": 0.002},
      "receiver":    {"center": [0,  3, 0], "half_length": 0.23, "radius": 0.002},
      "surface": {
        "grid": {"rows": 4, "cols": 4, "spacing": 0.125,
                 "half_length": 0.23, "radius": 0.002,
                 "center": [0, 0, 0], "plane": "xy"}
      },
      "tuning": {"entries": [{"re": 0.0, "im": -130.0}]}
    }

The surface takes exactly one of "grid" or "elements" (a list of dipole
objects). The tuning section is required by the channel and sweep
commands and takes either fixed "entries" (length N, or length 1 to
broadcast) or an "optimize" directive.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_REACTANCE_BOUNDS, TuningState
from .errors import ConfigError
from .geometry import Dipole, Scene, build_grid, wavelength


@dataclass(frozen=True)
class GridSpec:
    """Resolved (meters) grid parameters, kept around for sweeps."""

    rows: int
    cols: int
    spacing: float
    half_length: float
    radius: float
    center: tuple[float, float, float]
    plane: str


@dataclass(frozen=True)
class OptimizeSpec:
    """Optimizer directive from a config file."""

    reactance_bounds: tuple[float, float] = DEFAULT_REACTANCE_BOUNDS
    budget: int = 20


@dataclass(frozen=True, eq=False)
class SceneConfig:
    """A parsed configuration: the scene plus tuning instructions."""

    scene: Scene
    grid: GridSpec | None
    tuning: TuningState | None
    optimize: OptimizeSpec | None
    output_dir: str | None = None


def _fail(path: str, reason: str):
    raise ConfigError(f"{path}: {reason}")


def _get(mapping: dict, key, path: str, required: bool = True, default=None):
    if key not in mapping:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing required field")
        return default
    return mapping[key]


def _fields(value, path: str, allowed, shape: str = "an object") -> dict:
    """The object at path, after rejecting any field outside allowed."""
    if not isinstance(value, dict):
        _fail(path, f"must be {shape}")
    unknown = set(value) - set(allowed)
    if unknown:
        _fail(path, f"unknown fields {sorted(unknown)}")
    return value


def _number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, "must be positive")
    return value


def _integer(value, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {type(value).__name__}")
    if value < minimum:
        _fail(path, f"must be at least {minimum}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"must be true or false, got {type(value).__name__}")
    return value


def _vec3(value, path: str, scale: float) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        _fail(path, "must be a list of 3 numbers [x, y, z]")
    return tuple(_number(v, f"{path}[{i}]") * scale for i, v in enumerate(value))


def _complex_entry(value, path: str) -> complex:
    _fields(value, path, ("re", "im"), 'an object {"re": ..., "im": ...}')
    re = _number(_get(value, "re", path), f"{path}.re")
    im = _number(_get(value, "im", path), f"{path}.im")
    return complex(re, im)


def _dipole(value, path: str, scale: float) -> Dipole:
    _fields(value, path, ("center", "half_length", "radius"),
            "an object with center, half_length, radius")
    center = _vec3(_get(value, "center", path), f"{path}.center", scale)
    half_length = _number(
        _get(value, "half_length", path), f"{path}.half_length", positive=True
    ) * scale
    radius = _number(
        _get(value, "radius", path), f"{path}.radius", positive=True
    ) * scale
    return Dipole(center=center, half_length=half_length, radius=radius)


def _surface(value, path: str, scale: float):
    _fields(value, path, ("grid", "elements"),
            'an object holding "grid" or "elements"')
    has_grid = "grid" in value
    has_elements = "elements" in value
    if has_grid == has_elements:
        _fail(path, 'must hold exactly one of "grid" or "elements"')

    if has_elements:
        items = value["elements"]
        if not isinstance(items, list) or not items:
            _fail(f"{path}.elements", "must be a non-empty list of dipoles")
        elements = tuple(
            _dipole(item, f"{path}.elements[{i}]", scale)
            for i, item in enumerate(items)
        )
        return elements, None

    gpath = f"{path}.grid"
    g = _fields(value["grid"], gpath, ("rows", "cols", "spacing", "half_length",
                                       "radius", "center", "plane"))
    spec = GridSpec(
        rows=_integer(_get(g, "rows", gpath), f"{gpath}.rows", minimum=1),
        cols=_integer(_get(g, "cols", gpath), f"{gpath}.cols", minimum=1),
        spacing=_number(_get(g, "spacing", gpath), f"{gpath}.spacing",
                        positive=True) * scale,
        half_length=_number(_get(g, "half_length", gpath),
                            f"{gpath}.half_length", positive=True) * scale,
        radius=_number(_get(g, "radius", gpath), f"{gpath}.radius",
                       positive=True) * scale,
        center=_vec3(_get(g, "center", gpath, required=False,
                          default=[0.0, 0.0, 0.0]), f"{gpath}.center", scale),
        plane=str(_get(g, "plane", gpath, required=False, default="xy")),
    )
    if spec.plane not in ("xy", "xz"):
        _fail(f"{gpath}.plane", 'must be "xy" or "xz"')
    elements = build_grid(
        spec.rows, spec.cols, spec.spacing,
        spec.half_length, spec.radius, spec.center, spec.plane,
    )
    return elements, spec


def _tuning(value, path: str, n_elements: int):
    _fields(value, path, ("entries", "optimize"),
            'an object holding "entries" or "optimize"')
    has_entries = "entries" in value
    has_optimize = "optimize" in value
    if has_entries == has_optimize:
        _fail(path, 'must hold exactly one of "entries" or "optimize"')

    if has_entries:
        items = value["entries"]
        if not isinstance(items, list) or not items:
            _fail(f"{path}.entries", "must be a non-empty list of {re, im}")
        if len(items) not in (1, n_elements):
            _fail(
                f"{path}.entries",
                f"needs 1 (broadcast) or {n_elements} entries to match the "
                f"surface, got {len(items)}",
            )
        entries = [
            _complex_entry(item, f"{path}.entries[{i}]")
            for i, item in enumerate(items)
        ]
        if len(entries) == 1:
            entries = entries * n_elements
        tuning = TuningState(np.array(entries), reactance_only=False)
        return tuning, None

    opath = f"{path}.optimize"
    o = _fields(value["optimize"], opath, ("reactance_bounds", "budget"))
    bounds_raw = _get(o, "reactance_bounds", opath, required=False,
                      default=list(DEFAULT_REACTANCE_BOUNDS))
    if not isinstance(bounds_raw, (list, tuple)) or len(bounds_raw) != 2:
        _fail(f"{opath}.reactance_bounds", "must be [lo, hi] in ohms")
    lo = _number(bounds_raw[0], f"{opath}.reactance_bounds[0]")
    hi = _number(bounds_raw[1], f"{opath}.reactance_bounds[1]")
    if not lo < hi:
        _fail(f"{opath}.reactance_bounds", "must satisfy lo < hi")
    spec = OptimizeSpec(
        reactance_bounds=(lo, hi),
        budget=_integer(_get(o, "budget", opath, required=False, default=20),
                        f"{opath}.budget", minimum=1),
    )
    return None, spec


def parse_scene_config(data, source: str = "<config>") -> SceneConfig:
    """Validate a parsed JSON document into a SceneConfig.

    Error messages name the offending field by its dotted path.
    """
    _fields(data, source, ("frequency_hz", "lambda_units", "transmitter",
                           "receiver", "surface", "tuning", "output"),
            "a JSON object at the top level")

    frequency = _number(_get(data, "frequency_hz", ""), "frequency_hz",
                        positive=True)
    lambda_units = _boolean(
        _get(data, "lambda_units", "", required=False, default=False),
        "lambda_units",
    )
    scale = wavelength(frequency) if lambda_units else 1.0

    transmitter = _dipole(_get(data, "transmitter", ""), "transmitter", scale)
    receiver = _dipole(_get(data, "receiver", ""), "receiver", scale)
    elements, grid = _surface(_get(data, "surface", ""), "surface", scale)

    scene = Scene(
        transmitter=transmitter,
        receiver=receiver,
        surface=elements,
        frequency_hz=frequency,
    )

    tuning = optimize = None
    tuning_raw = _get(data, "tuning", "", required=False)
    if tuning_raw is not None:
        tuning, optimize = _tuning(tuning_raw, "tuning", len(elements))

    output_dir = None
    output_raw = _get(data, "output", "", required=False)
    if output_raw is not None:
        _fields(output_raw, "output", ("directory",))
        directory = _get(output_raw, "directory", "output", required=False)
        if directory is not None:
            if not isinstance(directory, str) or not directory:
                _fail("output.directory", "must be a non-empty string")
            output_dir = directory

    return SceneConfig(scene=scene, grid=grid, tuning=tuning,
                       optimize=optimize, output_dir=output_dir)


def load_scene_config(path) -> SceneConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        )
    return parse_scene_config(data, source=str(path))


def _dipole_to_dict(d: Dipole) -> dict:
    return {
        "center": list(d.center),
        "half_length": d.half_length,
        "radius": d.radius,
    }


def scene_config_to_dict(cfg: SceneConfig) -> dict:
    """Serialize back to the JSON layout, always in meters.

    Round-trip contract: parsing the returned document yields a Scene
    equal to cfg.scene.
    """
    data: dict = {
        "frequency_hz": cfg.scene.frequency_hz,
        "lambda_units": False,
        "transmitter": _dipole_to_dict(cfg.scene.transmitter),
        "receiver": _dipole_to_dict(cfg.scene.receiver),
    }
    if cfg.grid is not None:
        data["surface"] = {"grid": {
            "rows": cfg.grid.rows,
            "cols": cfg.grid.cols,
            "spacing": cfg.grid.spacing,
            "half_length": cfg.grid.half_length,
            "radius": cfg.grid.radius,
            "center": list(cfg.grid.center),
            "plane": cfg.grid.plane,
        }}
    else:
        data["surface"] = {
            "elements": [_dipole_to_dict(d) for d in cfg.scene.surface]
        }
    if cfg.tuning is not None:
        data["tuning"] = {"entries": [
            {"re": z.real, "im": z.imag} for z in cfg.tuning.entries
        ]}
    elif cfg.optimize is not None:
        data["tuning"] = {"optimize": {
            "reactance_bounds": list(cfg.optimize.reactance_bounds),
            "budget": cfg.optimize.budget,
        }}
    if cfg.output_dir is not None:
        data["output"] = {"directory": cfg.output_dir}
    return data


SWEEP_PARAMETERS = ("spacing", "frequency", "n_elements")


def resolve_sweep_scene(cfg: SceneConfig, parameter: str, value: float) -> Scene:
    """Scene for one sweep point.

    spacing: rebuilds the grid at the swept spacing while holding the
      aperture fixed; the per-axis element count becomes
      floor(aperture / spacing) + 1, so coarser spacings carry fewer
      elements. Requires a grid surface.
    frequency: keeps the geometry as resolved at parse time and replaces
      the operating frequency.
    n_elements: reshapes the grid to the swept total count at the
      configured spacing; the count must be a positive multiple of the
      configured row count. Requires a grid surface.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"sweep parameter must be one of {', '.join(SWEEP_PARAMETERS)}; "
            f"got {parameter!r}"
        )
    if not math.isfinite(value):
        raise ConfigError(f"sweep {parameter} must be finite, got {value!r}")
    if parameter == "frequency":
        if not value > 0:
            raise ConfigError(f"sweep frequency must be positive, got {value!r}")
        return dataclasses.replace(cfg.scene, frequency_hz=float(value))

    if cfg.grid is None:
        raise ConfigError(
            f"sweeping {parameter!r} requires a surface defined as a grid"
        )
    g = cfg.grid

    if parameter == "spacing":
        if not value > 0:
            raise ConfigError(f"sweep spacing must be positive, got {value!r}")
        # Hold the physical aperture of the configured grid fixed and
        # repopulate it at the new spacing.
        aperture_cols = (g.cols - 1) * g.spacing
        aperture_rows = (g.rows - 1) * g.spacing
        cols = int(math.floor(aperture_cols / value + 1e-9)) + 1
        rows = int(math.floor(aperture_rows / value + 1e-9)) + 1
        elements = build_grid(rows, cols, float(value), g.half_length,
                              g.radius, g.center, g.plane)
    else:  # n_elements
        count = int(round(value))
        if abs(value - count) > 1e-9 or count < 1:
            raise ConfigError(
                f"sweep n_elements must be a positive integer, got {value!r}"
            )
        if count % g.rows != 0:
            raise ConfigError(
                f"sweep n_elements = {count} is not a multiple of the "
                f"configured {g.rows} grid rows"
            )
        elements = build_grid(g.rows, count // g.rows, g.spacing,
                              g.half_length, g.radius, g.center, g.plane)

    return dataclasses.replace(cfg.scene, surface=elements)


def tuning_for_scene(cfg: SceneConfig, scene: Scene) -> TuningState | None:
    """Fixed tuning entries sized for a (possibly re-gridded) scene.

    A single configured entry broadcasts to any element count; a full
    vector only fits scenes with the matching count.
    """
    if cfg.tuning is None:
        return None
    entries = cfg.tuning.entries
    n = scene.n_elements
    if entries.shape[0] == n:
        return cfg.tuning
    if np.all(entries == entries[0]):
        return TuningState(np.full(n, entries[0]), reactance_only=False)
    raise ConfigError(
        f"tuning.entries: {entries.shape[0]} fixed entries cannot apply to "
        f"a swept scene with {n} elements; use a single broadcast entry"
    )
