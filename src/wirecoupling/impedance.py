"""Mutual impedances of parallel thin-wire dipoles.

Each wire carries the classical sinusoidal current shape
sin(k*(h - |z|)) / sin(k*h), normalized to unit feed current. The mutual
impedance between two wires is the field of one integrated against the
current of the other. That coupling integral reduces to combinations of
the complex exponential integral for every admissible pair, collinear
ones included. This module provides that closed form, the assembly of a
scene's full coupling set from it, and an adaptive-quadrature oracle of
the defining integral that only tests and validation call.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DomainError, ResonantLength
from .geometry import Dipole, PairGeometry, Scene, pair_geometry
from .special import adaptive_quad, exp_integral_e1

FREE_SPACE_IMPEDANCE = 376.730313668  # [ohm]

# Guard for the 1/sin(k*h) current normalization near h = m*lambda/2.
SIN_MIN = 1e-6


def _sin_or_raise(h: float, k: float, role: str) -> float:
    s = math.sin(k * h)
    if abs(s) <= SIN_MIN:
        raise ResonantLength(
            f"{role} half-length {h:.6g} m sits within the guard band of a "
            f"current-normalization zero (|sin(k*h)| = {abs(s):.2e}); "
            "change the length or the frequency"
        )
    return s


def segment_kernel_integral(
    s0: int,
    d0: float,
    z0: float,
    z_lo: float,
    z_hi: float,
    k: float,
) -> complex:
    """Integral of exp(-j*k*(R + s0*t))/R over t in [z_lo, z_hi].

    R = sqrt(d0^2 + (t - z0)^2) is the distance from a point offset z0
    along a parallel axis at transverse distance d0 >= 0. In closed form
    this is s0 * exp(-j*k*s0*z0) * (E1(j*k*L0) - E1(j*k*U0)) where
    L0 = sqrt(d0^2 + (z_lo - z0)^2) + s0*(z_lo - z0) and U0 is the same
    radical at z_hi. When s0*t and the radical nearly cancel, L0 is
    rewritten as d0^2 / (sqrt(d0^2 + t^2) - s0*t) to avoid losing all
    significant digits.

    On-axis limit: with the segment behind the source point (s0*(t - z0)
    < 0 throughout) and d0 <= 1e-8 * min|t - z0|, the phase is constant
    and the integrand 1/|t - z0| to double precision, so the result is
    exp(-j*k*s0*z0) * |ln((z_hi - z0) / (z_lo - z0))|. Collinear pairs
    (d0 = 0) with disjoint spans take this path.

    Raises DegenerateGeometry when d0*d0 underflows and, outside that
    limit, the segment reaches s0*(t - z0) <= 0 (it passes through its
    source point, a singularity); DomainError for a negative or NaN d0,
    an invalid sign or a reversed interval. An empty interval (z_lo ==
    z_hi) integrates to zero.
    """
    if s0 not in (1, -1):
        raise DomainError(f"segment_kernel_integral: s0 must be +1 or -1, got {s0!r}")
    if not k > 0:
        raise DomainError("segment_kernel_integral: k must be positive")
    if not d0 >= 0.0:
        raise DomainError(f"segment_kernel_integral: d0 must be >= 0, got {d0!r}")
    if z_hi < z_lo:
        raise DomainError("segment_kernel_integral: requires z_lo <= z_hi")
    if z_lo == z_hi:
        return 0.0 + 0.0j

    lo, hi = z_lo - z0, z_hi - z0
    # Behind the source point with (d0/t)^2 <= 1e-16: R = |t| and
    # R + s0*t = d0^2/(R - s0*t) <= 1e-16*|t|/2, both to double precision.
    if s0 * lo < 0.0 and s0 * hi < 0.0 and d0 <= 1e-8 * min(abs(lo), abs(hi)):
        return cmath.exp(-1j * k * s0 * z0) * abs(math.log(hi / lo))
    if d0 * d0 < sys.float_info.min and min(s0 * lo, s0 * hi) <= 0.0:
        raise DegenerateGeometry(
            f"segment [{z_lo:.6g}, {z_hi:.6g}] m passes through its source "
            f"point at {z0:.6g} m on the axis: the kernel integral is singular"
        )

    def radical(t: float) -> float:
        r = math.hypot(d0, t)
        if s0 * t >= 0.0:
            return r + s0 * t
        return d0 * d0 / (r - s0 * t)

    lower = radical(lo)
    upper = radical(hi)
    diff = exp_integral_e1(1j * k * lower) - exp_integral_e1(1j * k * upper)
    return s0 * cmath.exp(-1j * k * s0 * z0) * diff


def wire_kernel_integral(
    xi_p: float,
    s0: int,
    geom: PairGeometry,
    k: float,
) -> complex:
    """Spherical-wave kernel integrated over the observer wire.

    Evaluates the integral of exp(-j*k*(R + s0*|z|))/R for z across the
    observer extent [-h_q, +h_q], with R measured from the source-wire
    point xi_p (one of -h_p, 0, +h_p in the impedance assembly). The |z|
    in the phase splits the run into two segment integrals joined at
    z = 0, each handled in closed form.
    """
    z0 = xi_p - geom.dz
    lower_half = segment_kernel_integral(-s0, geom.rho, z0, -geom.h_q, 0.0, k)
    upper_half = segment_kernel_integral(s0, geom.rho, z0, 0.0, geom.h_q, k)
    return lower_half + upper_half


def _field_terms(z, rho: float, dz: float, h_p: float, k: float):
    # Three spherical waves launched from the wire ends and the feed;
    # vectorized over z. Valid for scalar or ndarray z.
    cos_kh = math.cos(k * h_p)
    acc = None
    for xi, coef in ((h_p, 1.0), (-h_p, 1.0), (0.0, -2.0 * cos_kh)):
        r = np.hypot(rho, dz + z - xi)
        if np.any(r == 0):
            raise DomainError(
                "field point coincides with a source-wire end or feed; "
                "no finite field value exists there"
            )
        term = coef * np.exp(-1j * k * r) / r
        acc = term if acc is None else acc + term
    return acc


def axial_field_kernel(z: float, geom: PairGeometry, k: float) -> complex:
    """Reduced z-component of the field radiated by the source wire.

    Observation point: transverse distance geom.rho from the source axis,
    height z relative to the observer-wire center (the wire centers sit
    geom.dz apart along z). The sinusoidal source current collapses to

        k/sin(k*h_p) * [G(R at +h_p) + G(R at -h_p)
                        - 2*cos(k*h_p) * G(R at feed)]

    with G(R) = exp(-j*k*R)/R: three spherical waves, one from each wire
    end and one from the feed. The physical field carries an additional
    constant absorbed into the coupling integral; mutual_impedance_oracle
    multiplies by j*eta/(4*pi*k) after integrating this kernel against
    the observer current.

    Raises ResonantLength near sin(k*h_p) = 0 and DomainError if the
    observation point lands exactly on a source singularity.
    """
    s = _sin_or_raise(geom.h_p, k, "source")
    return complex(k / s * _field_terms(float(z), geom.rho, geom.dz, geom.h_p, k))


def mutual_impedance(
    source: Dipole,
    observer: Dipole,
    k: float,
    same: bool = False,
) -> complex:
    """Coupling impedance in ohms between two wires, closed form.

    Open-circuit voltage induced at the observer feed per unit source
    feed current. The self term (same=True) observes the wire on its own
    surface, one radius off the axis.

    The result combines six wire_kernel_integral evaluations:

        z = eta / (8*pi*sin(k*h_p)*sin(k*h_q))
            * sum over s0 in {+1, -1} of
              s0 * exp(j*s0*k*h_q) * (I(+h_p) + I(-h_p)
                                      - 2*cos(k*h_p) * I(0))

    The same expression covers every admissible pair, collinear ones
    through the on-axis limit of segment_kernel_integral; no pair is
    integrated numerically.

    Raises ResonantLength when either wire length defeats the sinusoidal
    current normalization, and DegenerateGeometry for collinear wires
    whose spans touch or overlap, which Scene already rejects.
    """
    geom = pair_geometry(source, observer, same)
    sin_p = _sin_or_raise(geom.h_p, k, "source")
    sin_q = _sin_or_raise(geom.h_q, k, "observer")
    cos_p = math.cos(k * geom.h_p)
    total = 0.0 + 0.0j
    for s0 in (1, -1):
        i_top = wire_kernel_integral(geom.h_p, s0, geom, k)
        i_bot = wire_kernel_integral(-geom.h_p, s0, geom, k)
        i_feed = wire_kernel_integral(0.0, s0, geom, k)
        total += s0 * cmath.exp(1j * s0 * k * geom.h_q) * (
            i_top + i_bot - 2.0 * cos_p * i_feed
        )
    return FREE_SPACE_IMPEDANCE * total / (8.0 * math.pi * sin_p * sin_q)


def mutual_impedance_oracle(
    source: Dipole,
    observer: Dipole,
    k: float,
    same: bool = False,
    rel_tol: float = 1e-9,
) -> complex:
    """Coupling impedance by direct integration of the field kernel.

    Integrates the source field against the observer current shape over
    the observer extent with adaptive quadrature:

        z = j*eta/(4*pi*k) * integral of kernel(z) * f_q(z) dz

    Independent of the closed-form reduction, so it serves as its
    correctness oracle; no production path calls it. Also covers
    collinear pairs (rho = 0) with disjoint z extents.

    Raises ResonantLength for guarded lengths and ConvergenceError if the
    quadrature budget runs out.
    """
    geom = pair_geometry(source, observer, same)
    sin_p = _sin_or_raise(geom.h_p, k, "source")
    sin_q = _sin_or_raise(geom.h_q, k, "observer")

    def integrand(z):
        current = np.sin(k * (geom.h_q - np.abs(z))) / sin_q
        field = k / sin_p * _field_terms(z, geom.rho, geom.dz, geom.h_p, k)
        return field * current

    coupling = adaptive_quad(integrand, -geom.h_q, geom.h_q, rel_tol)
    return 1j * FREE_SPACE_IMPEDANCE / (4.0 * math.pi * k) * coupling


@dataclass(frozen=True, eq=False)
class ImpedanceSet:
    """All coupling impedances of a scene, in ohms.

    z_rt: direct transmitter-to-receiver coupling (scalar)
    z_rs: surface-to-receiver couplings, shape (N,)
    z_st: transmitter-to-surface couplings, shape (N,)
    z_ss: surface self/mutual matrix, shape (N, N), symmetric with
          positive-real diagonal
    """

    z_rt: complex
    z_rs: np.ndarray
    z_st: np.ndarray
    z_ss: np.ndarray

    def __post_init__(self):
        z_rs = np.asarray(self.z_rs, dtype=complex)
        z_st = np.asarray(self.z_st, dtype=complex)
        z_ss = np.asarray(self.z_ss, dtype=complex)
        object.__setattr__(self, "z_rt", complex(self.z_rt))
        object.__setattr__(self, "z_rs", z_rs)
        object.__setattr__(self, "z_st", z_st)
        object.__setattr__(self, "z_ss", z_ss)
        n = z_rs.shape[0] if z_rs.ndim == 1 else -1
        if z_rs.ndim != 1 or z_st.shape != (n,) or z_ss.shape != (n, n):
            raise DomainError(
                "impedance set shapes must be z_rs (N,), z_st (N,), z_ss (N, N)"
            )
        for name, arr in (("z_rs", z_rs), ("z_st", z_st), ("z_ss", z_ss)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"impedance set {name} contains non-finite entries")
        asym = np.abs(z_ss - z_ss.T)
        limit = 1e-8 * np.maximum(1.0, np.abs(z_ss))
        if np.any(asym > limit):
            raise DomainError(
                "surface coupling matrix violates reciprocity beyond 1e-8"
            )
        if np.any(z_ss.diagonal().real <= 0):
            raise DomainError(
                "surface self-impedances must have positive real part"
            )

    @property
    def n_elements(self) -> int:
        return self.z_rs.shape[0]


def assemble_impedances(scene: Scene) -> ImpedanceSet:
    """Compute every coupling impedance of a scene.

    Uses the closed form for every pair, collinear ones included; no
    quadrature runs. The surface matrix is filled on the upper triangle and
    mirrored; reciprocity of the underlying formula is covered by tests,
    so the mirror halves the assembly cost without hiding anything.
    """
    k = scene.wavenumber
    tx, rx, elements = scene.transmitter, scene.receiver, scene.surface
    n = len(elements)

    z_rt = mutual_impedance(tx, rx, k)
    z_st = np.array([mutual_impedance(tx, e, k) for e in elements])
    z_rs = np.array([mutual_impedance(e, rx, k) for e in elements])

    z_ss = np.empty((n, n), dtype=complex)
    for q in range(n):
        for p in range(q, n):
            value = mutual_impedance(elements[p], elements[q], k, same=(p == q))
            z_ss[q, p] = value
            z_ss[p, q] = value
    return ImpedanceSet(z_rt=z_rt, z_rs=z_rs, z_st=z_st, z_ss=z_ss)
