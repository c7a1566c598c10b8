"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and geometry problems
exit with 1, numerical failures (non-convergence, singular systems,
guarded parameter regions) exit with 2.
"""


class WireCouplingError(Exception):
    """Base class for all package errors."""


class DomainError(WireCouplingError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(WireCouplingError, RuntimeError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


class GeometryError(WireCouplingError, ValueError):
    """A dipole or scene violates a geometric validity constraint."""


class DegenerateGeometry(GeometryError):
    """A kernel integral passes through its singular source point."""


class ResonantLength(WireCouplingError, ValueError):
    """Wire length too close to a multiple of half a wavelength.

    The sinusoidal-current normalization divides by sin(k*h), which
    vanishes at h = m*lambda/2; results there would be meaningless.
    """


class SingularSystem(WireCouplingError, RuntimeError):
    """The coupling system matrix is singular or too ill-conditioned."""


class ConfigError(WireCouplingError, ValueError):
    """A scene configuration file is malformed or inconsistent."""
