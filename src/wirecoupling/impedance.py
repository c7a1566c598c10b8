"""Mutual impedances of parallel thin-wire dipoles.

Each wire carries the classical sinusoidal current shape
sin(k*(h - |z|)) / sin(k*h), normalized to unit feed current. The mutual
impedance between two wires is the field of one integrated against the
current of the other. In closed form (Gradoni & Di Renzo, IEEE WCL
2021) that coupling is a weighted sum of differences of the complex
exponential integral E1 across gaps between the axial offsets of the
pair, collinear pairs included: nine offsets and 18 E1 arguments per
pair, or five offsets and 10 arguments when the two wires have the same
length, as the wires of a surface do. This module provides that closed
form as one kernel over arrays of wire pairs, the assembly of the
coupling sets of scenes from it with each distinct pair evaluated once,
and an adaptive-quadrature oracle of the defining integral that only
tests and validation call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DomainError, ResonantLength
from .geometry import Dipole, Scene, pair_geometry, wire_name
from .special import adaptive_quad, exp_integral_e1

FREE_SPACE_IMPEDANCE = 376.730313668  # [ohm]

# Guard for the 1/sin(k*h) current normalization near h = m*lambda/2.
SIN_MIN = 1e-6

# Wire pairs per kernel call. A pair has 5 or 9 axial offsets, 4 or 6
# gaps between them and 10 or 18 E1 arguments, so every temporary of a
# chunk stays under 18k elements however large the scene. On a 2-vCPU
# VM, chunks of 2048 pairs assembled jittered scenes of N = 256 and 1024
# about 10 % faster, but made a fresh N = 64 request slower.
PAIR_CHUNK = 1024


def _check_lengths(wires, k: float, name) -> None:
    """Raise ResonantLength if a wire's 1/sin(k*h) current normalization
    fails, naming the first such wire, wires[i], as name(i)."""
    h = np.array([w.half_length for w in wires])
    s = np.sin(k * h)
    bad = np.flatnonzero(np.abs(s) <= SIN_MIN)
    if bad.size:
        i = bad[0]
        raise ResonantLength(
            f"{name(i)} half-length {h[i]:.6g} m sits within the guard "
            f"band of a current-normalization zero (|sin(k*h)| = "
            f"{abs(s[i]):.2e}); change the length or the frequency"
        )


def _source_waves(h_p: float, k: float):
    """(xi, coefficient) of the waves exp(-j*k*R)/R from the source-axis
    points xi whose sum, times k/sin(k*h_p), is the source current's field."""
    return (h_p, 1.0), (-h_p, 1.0), (0.0, -2.0 * math.cos(k * h_p))


# Source points xi = _XI[b] * h_p, in the order of _source_waves.
_XI = (1, -1, 0)


def _table(identical: bool):
    """Axial offsets and gaps of a kernel row, of identical wires or not.

    The observer half from z = i*h_q to (i + 1)*h_q, i in (-1, 0), seen
    from source point b spans the axial offsets t = dz + z - xi of its
    two ends. Returns the distinct offsets as coefficient columns c_q,
    c_p of t = dz + c_q*h_q + c_p*h_p, and the distinct gaps as offset
    indices lo, hi with the halves (i, b) that span each, in the order of
    their first half. For identical wires (h_p == h_q) the nine ends fold
    into the five offsets dz + m*h, m = -2..2, and the six halves into
    four gaps.
    """
    offsets, gaps = [], {}
    for i in (-1, 0):
        for b, xi in enumerate(_XI):
            ends = [(a - xi, 0) if identical else (a, -xi) for a in (i, i + 1)]
            offsets += [end for end in ends if end not in offsets]
            gaps.setdefault(tuple(map(offsets.index, ends)), []).append((i, b))
    c_q, c_p = np.array(offsets, dtype=float).T[:, :, None]
    ends, halves = zip(*gaps.items())
    lo, hi = map(list, zip(*ends))
    return c_q, c_p, lo, hi, halves


# Tables of the rows of identical wires and of all other rows.
_TABLES = _table(True), _table(False)


def _closed_form(rho, dz, h_p, h_q) -> np.ndarray:
    """Coupling impedances of the pairs of checked wires (_check_lengths)
    given as the 1-D arrays of pair_geometry times the wavenumber, in
    radians: a coupling depends on its pair only through these electrical
    lengths. See mutual_impedance for the formula. Each row takes the
    _table of its kind, identical wires when h_p == h_q: E1 at 10
    arguments, or else 18."""
    total = np.empty(np.shape(rho), dtype=complex)
    identical = h_p == h_q
    for rows, (c_q, c_p, lo, hi, halves) in zip((identical, ~identical),
                                                _TABLES):
        if not rows.any():
            continue
        r, d, hp, hq = rho[rows], dz[rows], h_p[rows], h_q[rows]
        t = d + (c_q * hq + c_p * hp)
        r_plus = np.sqrt(r * r + t * t) + np.abs(t)
        # s*t < 0 for the phase signs s = +1, -1
        behind = np.stack([t < 0.0, t > 0.0])
        ahead = behind[::-1]
        # A gap behind its source point with (rho/t)^2 <= 1e-16 has R = |t|
        # and R + s*t = rho^2/(R - s*t) <= 1e-16*|t|/2 to double precision:
        # the phase is constant and the E1 difference is exactly its limit
        # ln(r_plus(lo)/r_plus(hi)). Collinear pairs take it. Only rows
        # that come this near the axis can have such gaps or fail the
        # check below.
        on_axis = degenerate = False
        if np.any((r <= 1e-8 * np.abs(t).max(axis=0))
                  | (r * r < sys.float_info.min)):
            on_axis = (behind[:, lo] & behind[:, hi] & (
                r <= 1e-8 * np.minimum(np.abs(t[lo]), np.abs(t[hi]))))
            degenerate = (~on_axis & (r * r < sys.float_info.min)
                          & ~(ahead[:, lo] & ahead[:, hi]))
        if np.any(degenerate):
            _, g, j = np.argwhere(degenerate)[0]
            i, b = halves[g][0]
            lower, upper, at = np.array([i * hq[j], (i + 1) * hq[j],
                                         _XI[b] * hp[j] - d[j]]) / (2 * math.pi)
            raise DegenerateGeometry(
                f"segment [{lower:.6g}, {upper:.6g}] wavelengths passes "
                f"through its source point at {at:.6g} wavelengths on the "
                "axis: the kernel integral is singular"
            )

        # R + s*t, with the near-cancelling radical rewritten where s*t < 0.
        # Past the check above, a zero one belongs to on-axis gaps only,
        # which do not use its E1, so it gets the harmless argument 1.
        radical = np.where(behind, r * r / r_plus, r_plus)
        e1 = exp_integral_e1(1j * np.where(radical > 0.0, radical, 1.0))
        diff = e1[:, lo] - e1[:, hi]
        if np.any(on_axis):
            diff = np.where(on_axis, np.log(r_plus[lo] / r_plus[hi]), diff)
        # The lower (i = -1) and upper (i = 0) observer half from source
        # point b weighs -/+ phi*exp(-/+j*k*h_q) * wave[b], phi =
        # exp(j*k*dz), for s = +1, and the conjugate for s = -1; the
        # halves of one gap add their weights.
        phi, e_q, e_p = np.exp(1j * np.stack([d, hq, hp]))
        half = -phi * e_q.conj(), phi * e_q
        wave = e_p.conj(), e_p, -2.0 * e_p.real
        value = 0.0
        for g, spans in enumerate(halves):
            w = sum(half[i + 1] * wave[b] for i, b in spans)
            value = value + w * diff[0, g] + w.conj() * diff[1, g]
        total[rows] = value / (e_p.imag * e_q.imag)
    return FREE_SPACE_IMPEDANCE / (8.0 * math.pi) * total


def _one_pair(source: Dipole, observer: Dipole, same: bool, k: float):
    """pair_geometry of one pair, after _check_lengths on its wires named
    source and observer and a DomainError for k < 0 or NaN; same observes
    source on its own surface."""
    _check_lengths((source, observer), k, ("source", "observer").__getitem__)
    if not k > 0:
        raise DomainError("mutual impedance: k must be positive")
    wires = (source,) if same else (source, observer)
    return pair_geometry(wires, [0], [len(wires) - 1])


def mutual_impedance(
    source: Dipole,
    observer: Dipole,
    k: float,
    same: bool = False,
) -> complex:
    """Coupling impedance in ohms between two wires, closed form.

    Open-circuit voltage induced at the observer feed per unit source
    feed current. The self term (same=True, with the same wire in both
    slots) observes the wire on its own surface, one radius off the axis.

    Each of the three source points xi_p in (+h_p, -h_p, 0) launches a
    spherical wave; I(xi_p) is the integral of exp(-j*k*(R + s0*|z|))/R
    over the observer wire z in [-h_q, +h_q], R measured from xi_p:

        z = eta / (8*pi*sin(k*h_p)*sin(k*h_q))
            * sum over s0 in {+1, -1} of
              s0 * exp(j*s0*k*h_q) * (I(+h_p) + I(-h_p)
                                      - 2*cos(k*h_p) * I(0))

    An observer point z seen from xi_p sits at the axial offset
    t = dz + z - xi_p, at distance R = sqrt(rho^2 + t^2). The observer
    half with phase sign s in (+1, -1) integrates to
    s * exp(-j*k*s*(xi_p - dz)) * (E1(j*k*(R + s*t)) at its lower end
    minus the same at its upper end). So the coupling is a weighted sum
    of E1 differences across gaps between neighbouring offsets: for
    s = +1 the lower and upper half seen from xi_p weigh
    -/+ phi * exp(-/+j*k*h_q) * w * exp(-j*k*xi_p), phi = exp(j*k*dz),
    with w = 1 at the source ends and w = -2*cos(k*h_p) at the feed;
    s = -1 takes the conjugate weights, and halves that span the same
    gap add theirs. The ends and
    centre of the observer seen from the three source points give nine
    offsets and six gaps, 18 E1 arguments. For wires of equal length h
    (h_p == h_q, compared bit for bit) the offsets are the five
    dz + m*h, m = -2..2, the gaps four, with weights phi * (-exp(-2jkh),
    1 + 2*cos(kh)*exp(-jkh), -(1 + 2*cos(kh)*exp(jkh)), exp(2jkh)), and
    E1 takes 10 arguments. Where s*t < 0, R + s*t is computed as
    rho^2 / (R + |t|) so no digits cancel. A gap behind its source
    point on the axis, rho <= 1e-8*|t| at both ends, takes the exact
    on-axis limit ln(r(lo) / r(hi)), r = R + |t|, of its E1 difference;
    collinear pairs go through it, and no pair is integrated
    numerically. This is a one-pair call of the kernel that
    assemble_impedances runs over all pairs of a scene, and it returns
    bit for bit the value the assembly gives that pair.

    Raises ResonantLength, naming the wire source or observer, when its
    length defeats the sinusoidal current normalization (k = 0 too),
    DomainError for k < 0 or NaN, and DegenerateGeometry for collinear
    wires whose spans touch or overlap, which Scene already rejects.
    """
    pair = _one_pair(source, observer, same, k)
    return complex(_closed_form(*(k * v for v in pair))[0])


def mutual_impedance_oracle(source: Dipole, observer: Dipole, k: float,
                            same: bool = False,
                            rel_tol: float = 1e-9) -> complex:
    """Coupling impedance by quadrature of the defining integral.

        z = j*eta / (4*pi*sin(k*h_p)*sin(k*h_q)) * sum over _source_waves
            of coefficient * integral of exp(-j*k*R)/R * sin(k*(h_q - |z|))

    over the observer z in [-h_q, h_q], R measured from the wave's source
    point c = xi - dz on the observer axis. Each observer half is one
    adaptive_quad call at rel_tol in v = asinh((z - c)/rho), where the
    integrand exp(-j*k*rho*cosh(v)) * sin(...) is smooth; at rho = 0, or
    |z - c| > 1e300*rho where v leaves double range, it is taken in z.
    Independent of the closed form, it is its oracle; no production path
    calls it.

    Raises ResonantLength for guarded lengths (k = 0 too), DomainError
    for k < 0 or NaN, DegenerateGeometry when a half taken in z holds a
    source point (collinear wires that touch or overlap), and
    ConvergenceError if a half does not converge.
    """
    rho, dz, h_p, h_q = (float(v[0])
                         for v in _one_pair(source, observer, same, k))
    total = 0j
    for xi, coef in _source_waves(h_p, k):
        c = xi - dz
        for lo, hi in ((-h_q, 0.0), (0.0, h_q)):
            ends = lo, hi
            if max(abs(lo - c), abs(hi - c)) <= 1e300 * rho:
                def wave(v, c=c):
                    return (np.exp(-1j * k * rho * np.cosh(v))
                            * np.sin(k * (h_q - np.abs(c + rho * np.sinh(v)))))
                ends = math.asinh((lo - c) / rho), math.asinh((hi - c) / rho)
            elif lo <= c <= hi:
                raise DegenerateGeometry(
                    f"segment [{lo:.6g}, {hi:.6g}] m passes through its source "
                    f"point at {c:.6g} m on the axis: the kernel integral is "
                    "singular")
            else:
                def wave(z, c=c):
                    r = np.hypot(rho, z - c)
                    return np.exp(-1j * k * r) / r * np.sin(k * (h_q - np.abs(z)))
            total += coef * adaptive_quad(wave, *ends, rel_tol)
    scale = 1j * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    return scale * total / (math.sin(k * h_p) * math.sin(k * h_q))


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


def _keyed_closed_form(table: np.ndarray) -> np.ndarray:
    """Kernel values of the rows of table, shape (M, 4), each a
    pair_geometry row times its wavenumber, computed in slices of
    PAIR_CHUNK rows. Unless too few rows repeat their rho to pay for it,
    each distinct row, compared bit for bit, is evaluated once, the
    distinct rows in any order."""
    # Keys save at most the rows whose rho repeats: under a quarter, the
    # key sort would cost about what it saves, so every row is its own key.
    # (np.unique without indices would import numpy.ma on first use.)
    inverse = slice(None)
    rho = np.sort(table[:, 0])
    if 4 * (1 + np.count_nonzero(rho[1:] != rho[:-1])) <= 3 * rho.size:
        keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1])))
        _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                      return_inverse=True)
        table = table[first]
    return np.concatenate([_closed_form(*table[lo:lo + PAIR_CHUNK].T.copy())
                           for lo in range(0, len(table), PAIR_CHUNK)])[inverse]


def assemble_impedances(*scenes: Scene) -> list[ImpedanceSet]:
    """Compute the coupling impedances of each scene, one ImpedanceSet each.

    Uses the closed form for every pair, collinear ones included; no
    quadrature runs. Each scene's N + 2 wires are checked first, before
    any kernel work: ResonantLength names the first failing wire by its
    role (transmitter, receiver, surface[i]). z_rt is one mutual_impedance
    call per distinct (transmitter, receiver, wavenumber), Dipoles
    compared by value, so the scenes of a spacing or n_elements sweep
    share one call. The other 2N + N(N+1)/2 pairs of every scene, scaled
    by its wavenumber to electrical lengths, go through one
    _keyed_closed_form pass together, whatever their frequencies, so each
    distinct pair is evaluated once. The upper triangle of z_ss is
    mirrored; reciprocity of the underlying formula is covered by tests.
    """
    if not scenes:
        return []
    tables = []
    for scene in scenes:
        n, k = scene.n_elements, scene.wavenumber
        wires = (scene.transmitter, scene.receiver) + scene.surface
        _check_lengths(wires, k, wire_name)
        element = np.arange(2, n + 2)
        q, p = np.triu_indices(n)  # z_ss[q, p] couples source p to observer q
        src = np.concatenate([np.zeros(n, int), element, p + 2])
        obs = np.concatenate([element, np.ones(n, int), q + 2])
        tables.append(k * np.column_stack(pair_geometry(wires, src, obs)))
    links = [(s.transmitter, s.receiver, s.wavenumber) for s in scenes]
    z_rt = {link: mutual_impedance(*link) for link in dict.fromkeys(links)}
    ends = np.cumsum([len(table) for table in tables])[:-1]
    values = np.split(_keyed_closed_form(np.concatenate(tables)), ends)

    sets = []
    for scene, link, part in zip(scenes, links, values):
        n = scene.n_elements
        q, p = np.triu_indices(n)
        z_ss = np.empty((n, n), dtype=complex)
        z_ss[q, p] = z_ss[p, q] = part[2 * n:]
        sets.append(ImpedanceSet(z_rt=z_rt[link], z_rs=part[n:2 * n],
                                 z_st=part[:n], z_ss=z_ss))
    return sets
