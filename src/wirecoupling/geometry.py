"""Thin-wire dipole scenes and grid layouts.

All wires are straight, center-fed, and aligned with the z axis. A Scene
bundles a transmitter, a receiver, and the surface array together with
the operating frequency; pair_geometry reduces arrays of wire pairs to the
four numbers the coupling formulas need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

SPEED_OF_LIGHT = 299_792_458.0  # [m/s], exact by definition

# The sinusoidal-current model assumes electrically thin wires; enforce a
# hard slenderness margin instead of degrading silently.
THIN_WIRE_RATIO = 0.1  # radius must stay below this fraction of half_length


def wavelength(frequency_hz: float) -> float:
    """Free-space wavelength in meters."""
    if not frequency_hz > 0:
        raise GeometryError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz


def wavenumber(frequency_hz: float) -> float:
    """Free-space wavenumber 2*pi/lambda in rad/m."""
    return 2.0 * math.pi / wavelength(frequency_hz)


@dataclass(frozen=True)
class Dipole:
    """One z-aligned thin-wire dipole.

    center: (x, y, z) of the feed point [m]
    half_length: half the tip-to-tip extent [m]
    radius: wire radius [m], must stay thin relative to half_length
    """

    center: tuple[float, float, float]
    half_length: float
    radius: float

    def __post_init__(self):
        try:
            center = tuple(float(v) for v in self.center)
        except (TypeError, ValueError):
            raise GeometryError("dipole center must be three numbers") from None
        if len(center) != 3:
            raise GeometryError("dipole center must have exactly 3 coordinates")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_length", float(self.half_length))
        object.__setattr__(self, "radius", float(self.radius))
        if not all(math.isfinite(v) for v in center):
            raise GeometryError("dipole center must be finite")
        if not (math.isfinite(self.half_length) and self.half_length > 0):
            raise GeometryError("dipole half_length must be positive")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise GeometryError("dipole radius must be positive")
        if self.radius >= THIN_WIRE_RATIO * self.half_length:
            raise GeometryError(
                f"dipole radius {self.radius:.6g} m violates the thin-wire "
                f"limit (must be below {THIN_WIRE_RATIO:g} * half_length = "
                f"{THIN_WIRE_RATIO * self.half_length:.6g} m)"
            )


def _wire_arrays(wires):
    """Centers (N, 3), half-lengths (N,) and radii (N,) of the wires."""
    centers = np.array([w.center for w in wires], dtype=float)
    half = np.array([w.half_length for w in wires])
    radius = np.array([w.radius for w in wires])
    return centers, half, radius


def pair_geometry(wires, src, obs):
    """Reduce the pairs (wires[src[i]] -> wires[obs[i]]) to the arrays
    (rho, dz, h_p, h_q) the coupling kernels use.

    rho: transverse separation of the two wire axes [m]
    dz:  observer center minus source center along z [m]
    h_p, h_q: half-lengths of source and observer [m]

    A wire paired with itself (src[i] == obs[i]) is observed on its own
    surface: rho is its radius and dz is zero.
    """
    centers, half, radius = _wire_arrays(wires)
    src, obs = np.asarray(src), np.asarray(obs)
    same = src == obs
    d = centers[obs] - centers[src]
    rho = np.where(same, radius[obs], np.hypot(d[:, 0], d[:, 1]))
    dz = np.where(same, 0.0, d[:, 2])
    return rho, dz, half[src], half[obs]


def _first_overlap(wires) -> tuple[int, int] | None:
    """Index pair (i, j), i < j, of the first two colliding wires, or None.

    Two parallel wires collide when their axes come closer than the sum of
    the radii while their z spans intersect. "First" is the smallest i,
    then the smallest j.
    """
    centers, half, radius = _wire_arrays(wires)
    n = len(wires)
    i = np.arange(n)[:, None]
    d = centers - centers[i]
    hit = ((np.arange(n) > i)
           & (np.hypot(d[..., 0], d[..., 1]) <= radius[i] + radius)
           & (np.abs(d[..., 2]) <= half[i] + half))
    if not hit.any():
        return None
    row, col = np.unravel_index(np.argmax(hit), hit.shape)
    return int(row), int(col)


def wire_name(index: int) -> str:
    """Role of the wire at index of (transmitter, receiver, *surface)."""
    if index < 2:
        return ("transmitter", "receiver")[index]
    return f"surface[{index - 2}]"


@dataclass(frozen=True)
class Scene:
    """Transmitter, receiver, surface array, and operating frequency."""

    transmitter: Dipole
    receiver: Dipole
    surface: tuple[Dipole, ...]
    frequency_hz: float

    def __post_init__(self):
        object.__setattr__(self, "surface", tuple(self.surface))
        object.__setattr__(self, "frequency_hz", float(self.frequency_hz))
        if len(self.surface) < 1:
            raise GeometryError("scene needs at least one surface element")
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise GeometryError("scene frequency must be positive")
        pair = _first_overlap((self.transmitter, self.receiver) + self.surface)
        if pair is not None:
            raise GeometryError(
                f"wires {wire_name(pair[0])} and {wire_name(pair[1])} overlap: "
                "separate them transversally beyond the summed radii "
                "or make their z extents disjoint"
            )

    @property
    def n_elements(self) -> int:
        return len(self.surface)

    @property
    def wavelength(self) -> float:
        return wavelength(self.frequency_hz)

    @property
    def wavenumber(self) -> float:
        return wavenumber(self.frequency_hz)


def build_grid(
    rows: int,
    cols: int,
    spacing: float,
    half_length: float,
    radius: float,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
    plane: str = "xy",
) -> tuple[Dipole, ...]:
    """Regular rows x cols lattice of identical wires, row-major order.

    plane="xy": columns advance along x, rows along y (broadside layout,
    all wires share one z span). plane="xz": rows advance along z instead,
    stacking wires vertically; the spacing must then exceed the full wire
    length or the build fails.

    The lattice is centered on the given center point. Identical inputs
    produce bit-identical output.
    """
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (rows, cols)):
        raise GeometryError("grid rows and cols must be integers")
    if rows < 1 or cols < 1:
        raise GeometryError("grid rows and cols must be at least 1")
    if not (math.isfinite(spacing) and spacing > 0):
        raise GeometryError("grid spacing must be positive")
    if plane not in ("xy", "xz"):
        raise GeometryError(f"grid plane must be 'xy' or 'xz', got {plane!r}")

    # Lattice neighbours sit one spacing apart, side by side (0 and 1) and
    # on an xz grid stacked along z (0 and cols); Scene checks every pair.
    pair = None
    if rows * cols > 1 and spacing <= 2.0 * radius:
        pair = (0, 1)
    elif plane == "xz" and rows > 1 and spacing <= 2.0 * half_length:
        pair = (0, cols)
    if pair is not None:
        raise GeometryError(
            f"grid elements {pair[0]} and {pair[1]} overlap at spacing "
            f"{spacing:.6g} m; increase the spacing or shorten the wires"
        )

    x0, y0, z0 = (float(v) for v in center)
    elements = []
    for r in range(rows):
        row_offset = (r - 0.5 * (rows - 1)) * spacing
        for c in range(cols):
            col_offset = (c - 0.5 * (cols - 1)) * spacing
            if plane == "xy":
                pos = (x0 + col_offset, y0 + row_offset, z0)
            else:
                pos = (x0 + col_offset, y0, z0 + row_offset)
            elements.append(Dipole(pos, half_length, radius))
    return tuple(elements)
