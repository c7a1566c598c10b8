"""Mutual coupling and end-to-end channels of thin-wire dipole surfaces.

Models a tunable scattering surface as an array of z-aligned thin-wire
dipoles with sinusoidal currents, computes every pairwise coupling
impedance in closed form through the complex exponential integral
(quadrature serves only as its validation oracle), and evaluates or
optimizes the transmitter-to-receiver transfer impedance through the
surface.
"""

from .channel import (
    ChannelResult,
    OptimizeResult,
    TuningState,
    end_to_end,
    optimize_tuning,
)
from .config import (
    GridSpec,
    OptimizeSpec,
    SceneConfig,
    load_scene_config,
    parse_scene_config,
    resolve_sweep_scene,
    tuning_for_scene,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateGeometry,
    DomainError,
    GeometryError,
    ResonantLength,
    SingularSystem,
    WireCouplingError,
)
from .geometry import (
    SPEED_OF_LIGHT,
    Dipole,
    Scene,
    build_grid,
    pair_geometry,
    wavelength,
    wavenumber,
)
from .impedance import (
    FREE_SPACE_IMPEDANCE,
    ImpedanceSet,
    assemble_impedances,
    mutual_impedance,
)
from .special import exp_integral_e1

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "FREE_SPACE_IMPEDANCE",
    "ChannelResult",
    "ConfigError",
    "ConvergenceError",
    "DegenerateGeometry",
    "Dipole",
    "DomainError",
    "GeometryError",
    "GridSpec",
    "ImpedanceSet",
    "OptimizeResult",
    "OptimizeSpec",
    "ResonantLength",
    "Scene",
    "SceneConfig",
    "SingularSystem",
    "TuningState",
    "WireCouplingError",
    "assemble_impedances",
    "build_grid",
    "end_to_end",
    "exp_integral_e1",
    "load_scene_config",
    "mutual_impedance",
    "optimize_tuning",
    "pair_geometry",
    "parse_scene_config",
    "resolve_sweep_scene",
    "tuning_for_scene",
    "wavelength",
    "wavenumber",
]
