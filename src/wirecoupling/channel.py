"""End-to-end channel evaluation and tuning optimization.

The surface elements are loaded with tunable impedances (the diagonal of
the tuning matrix). The transmitter-to-receiver transfer impedance is

    h = z_rt - z_rs^T (Z_ss + diag(tuning))^(-1) z_st

computed with a checked LU solve. A cyclic coordinate-ascent optimizer
adjusts per-element reactances to maximize |h|. Changing one load is a
rank-1 update of the system, so each step moves a reactance straight to
its exact maximizer over the bounds (a closed form from Sherman-Morrison)
and updates the optimizer's inverse in O(N^2), under the same gates as
the solve; one checked factorization per sweep bounds the drift. A step
decides its gates from O(N) BLAS calls and scalars before it writes:
its residual is one zgemv of the system, which the optimizer keeps and
moves one diagonal entry at a time, and its condition number is checked
on an O(N) upper bound, on the exact norms only where that bound exceeds
the cap. The update is then one zgeru into a new array. All matrix
algebra runs on scipy's BLAS (LU, zgetri, zgemv, zgeru, zdotu, dzasum,
dznrm2): numpy links a second OpenBLAS, and switching between the two
thread pools costs milliseconds.
"""

from __future__ import annotations

import math
import warnings
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import dzasum, dznrm2, zdotu, zgemv, zgeru
from scipy.linalg.lapack import zgecon, zgetri, zgetri_lwork

from .errors import DomainError, SingularSystem
from .impedance import ImpedanceSet

DEFAULT_REACTANCE_BOUNDS = (-2000.0, 2000.0)  # [ohm]
CONDITION_CAP = 1e12  # largest accepted 1-norm condition estimate
DEFAULT_BUDGET = 20  # optimizer sweeps
_RESIDUAL_REL_MAX = 1e-10
# Relative margin on _rank1's O(N) norm bounds, so that rounding in the
# update and in the column sums (about N ulps) never takes a computed
# |A^-1|_1 or |A|_1 above them. The bounds only decide when the exact
# norms are needed, so the margin changes no decision.
_BOUND_ROUNDING = 1.0 + 1e-9
# _rank1's x - s c cannot overflow while its O(N) bound |x|_2 + |s| |c|_2
# stays below this.
_NO_OVERFLOW = 1e300


@dataclass(frozen=True, eq=False)
class TuningState:
    """Diagonal tuning impedances of the surface, one complex load per
    element, in ohms: a non-empty, finite vector. No realizability claim
    is made; optimize_tuning owns the search domain (real parts held
    fixed, reactances within its reactance_bounds).
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 1 or entries.shape[0] < 1:
            raise DomainError("tuning entries must form a non-empty vector")
        if not np.all(np.isfinite(entries)):
            raise DomainError("tuning entries must be finite")

    @classmethod
    def from_reactances(cls, x):
        """Lossless state from a vector of reactances in ohms."""
        return cls(1j * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ChannelResult:
    """One channel evaluation.

    h_e2e: transfer impedance [ohm]
    gain_db: 20*log10(|h_e2e / z_rt|), the level relative to the direct
             transmitter-receiver link
    condition_estimate: 1-norm condition estimate of the solved system
    """

    h_e2e: complex
    gain_db: float
    condition_estimate: float


def _residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x - b by zgemv on a's transpose, the Fortran-ordered view of the
    C-ordered a: given a itself, f2py would copy it on every call."""
    return zgemv(1.0, a.T, x, -1.0, b, trans=1)


def _system(imps: ImpedanceSet, entries: np.ndarray) -> np.ndarray:
    """A = Z_ss + diag(entries) in a new array; DomainError for entries
    that do not fit the surface."""
    n = imps.n_elements
    if entries.shape[0] != n:
        raise DomainError(f"tuning has {entries.shape[0]} entries, surface "
                          f"has {n} elements")
    system = imps.z_ss.copy()
    system.flat[::n + 1] += entries
    return system


def _solve(imps: ImpedanceSet, system: np.ndarray):
    """Checked solve of system x = z_st for a _system array, which
    lu_factor copies (the optimizer keeps and moves it). Returns
    ((lu, piv), x, h, cond); SingularSystem as described in end_to_end.
    ImpedanceSet, TuningState and the optimizer's bounds keep the values
    finite, so scipy's finiteness passes are skipped.
    """
    with warnings.catch_warnings():
        # An exactly singular matrix makes the factorization warn; the
        # condition estimate below turns that case into a typed error.
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(system, check_finite=False)
    if not np.all(np.isfinite(lu)):
        raise SingularSystem("coupling system is singular (non-finite factors)")
    rcond, info = zgecon(lu, np.linalg.norm(system, 1))
    if info != 0:
        raise SingularSystem(f"condition estimator failed (info = {info})")
    cond = math.inf if rcond == 0 else 1.0 / float(rcond)
    if cond > CONDITION_CAP:
        raise SingularSystem(
            f"coupling system condition estimate {cond:.3e} exceeds the "
            f"cap {CONDITION_CAP:.3e}"
        )

    rhs = imps.z_st
    x = lu_solve((lu, piv), rhs, check_finite=False)
    rhs_norm = dznrm2(rhs)
    r = _residual(system, x, rhs)
    residual = dznrm2(r)
    if residual > _RESIDUAL_REL_MAX * rhs_norm:
        # One round of iterative refinement usually recovers the digits.
        x = x - lu_solve((lu, piv), r, check_finite=False)
        residual = dznrm2(_residual(system, x, rhs))
        if residual > _RESIDUAL_REL_MAX * rhs_norm:
            raise SingularSystem(
                f"solve residual {residual:.3e} stayed above "
                f"{_RESIDUAL_REL_MAX:.1e} * |rhs| = "
                f"{_RESIDUAL_REL_MAX * rhs_norm:.3e}"
            )
    return (lu, piv), x, imps.z_rt - zdotu(imps.z_rs, x), cond


def _channel(imps: ImpedanceSet, solved) -> ChannelResult:
    """ChannelResult of a _solve result; DomainError for an undefined gain."""
    _, _, h, cond = solved
    if imps.z_rt == 0:
        raise DomainError("gain is undefined for a vanishing direct link")
    if h == 0:
        raise DomainError("transfer impedance vanished; gain is undefined")
    gain_db = 20.0 * math.log10(abs(h / imps.z_rt))
    return ChannelResult(h_e2e=h, gain_db=gain_db, condition_estimate=cond)


def end_to_end(imps: ImpedanceSet, tuning: TuningState) -> ChannelResult:
    """Evaluate the transfer impedance for one tuning state.

    Solves (Z_ss + diag(tuning)) x = z_st by LU with partial pivoting,
    verifies the residual, and forms h = z_rt - z_rs . x with a plain
    (unconjugated) dot product. Deterministic for fixed inputs.

    Raises SingularSystem when the factorization fails, the 1-norm
    condition estimate exceeds CONDITION_CAP, or the residual will not shrink
    below 1e-10 of the right-hand side; DomainError when the tuning does
    not match the surface or the gain is undefined.
    """
    return _channel(imps, _solve(imps, _system(imps, tuning.entries)))


@dataclass(frozen=True)
class OptimizeResult:
    """Optimizer outcome: best tuning, its channel, the trace of |h_e2e|
    after the initial state and each completed sweep, and why the search
    stopped: "converged" (the last sweep accepted no move) or "budget"."""

    tuning: TuningState
    channel: ChannelResult
    trace: tuple[float, ...]
    stop_reason: str


def _real_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a t^2 + b t + c (of b t + c when a = 0)."""
    if a == 0.0:
        return (-c / b,) if b != 0.0 else ()
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))  # no cancellation
    return (q / a, c / q) if q != 0.0 else (0.0, 0.0)


def _coordinate_step(state, idx: int, current: float, lo: float,
                     hi: float) -> float:
    """Reactance in [lo, hi] of element idx that maximizes |h|, the
    others held fixed (current, the present reactance, when nothing
    beats it). state is the present (A^-1, x, y, h, |A^-1|_1), see
    _inverse.

    With A = Z_ss + diag(entries), x = A^-1 z_st, y = A^-1 z_rs and
    g = (A^-1)_ii, a reactance change t of element i is the rank-1
    update A + j t e_i e_i^T. A is symmetric, so Sherman-Morrison gives

        h(t) = h + j t x_i y_i / (1 + j t g) = (h + j t q) / (1 + j t g)

    with q = h g + x_i y_i. |h(t)|^2 is a ratio of two real quadratics
    whose derivative has a vanishing t^3 term, so its stationary points
    are the real roots of one quadratic. The best of those inside the
    bounds, the two bounds and t = 0 is the exact maximizer.
    """
    inv, x, y, h, _ = state
    g = inv.item(idx, idx)
    q = h * g + x.item(idx) * y.item(idx)
    # |h(t)|^2 = (a0 + a1 t + a2 t^2) / (b0 + b1 t + b2 t^2)
    a0, a1, a2 = abs(h) ** 2, 2.0 * (h * q.conjugate()).imag, abs(q) ** 2
    b0, b1, b2 = 1.0, -2.0 * g.imag, abs(g) ** 2
    roots = _real_roots(a2 * b1 - a1 * b2, 2.0 * (a2 * b0 - a0 * b2),
                        a1 * b0 - a0 * b1)

    def gain(target):  # |h(t)|; a pole wins, a 0/0 point never does
        t = target - current
        num, den = abs(h + 1j * t * q), abs(1.0 + 1j * t * g)
        return num / den if den else (math.inf if num else -math.inf)

    return max([current, lo, hi] + [current + t for t in roots
                                    if lo <= current + t <= hi], key=gain)


def _norms(imps: ImpedanceSet, entries: np.ndarray, lo: float, hi: float):
    """What _rank1's gates read of the surface, fixed over a run that
    holds the real parts of entries and keeps reactances in [lo, hi]:
    the off-diagonal column sums of |Z_ss| (with A's diagonal, the exact
    |A|_1 in one O(N) pass), an upper bound on |A|_1 for the whole run
    (largest column sum of |Z_ss| + largest |Re entry| + max(|lo|, |hi|))
    and |z_st|_2."""
    off = np.abs(imps.z_ss)
    off.flat[::imps.n_elements + 1] = 0.0
    off = off.sum(axis=0)
    a_bound = ((off + np.abs(imps.z_ss.diagonal())).max()
               + np.abs(entries.real).max() + max(abs(lo), abs(hi)))
    return off, a_bound * _BOUND_ROUNDING, dznrm2(imps.z_st)


def _inverse(imps: ImpedanceSet, solved):
    """(A^-1, x, y, h, |A^-1|_1) of a _solve result; zgetri inverts the
    LU factors (into a new array: solved stays intact)."""
    (lu, piv), x, h, _ = solved
    lwork, _ = zgetri_lwork(x.shape[0])
    inv, info = zgetri(lu, piv, lwork=int(lwork.real))
    if info != 0:
        raise SingularSystem(f"inversion of the factors failed (info = {info})")
    return inv, x, zgemv(1.0, inv, imps.z_rs), h, np.linalg.norm(inv, 1)


def _rank1(imps: ImpedanceSet, norms, system: np.ndarray, state, idx: int,
           t: float):
    """state after element idx, already moved in system (A = Z_ss +
    diag(entries)), changed by j t: A^-1 -= coef c c^T with
    c = A^-1 e_idx (Sherman-Morrison). None when the update is not
    finite, or fails _solve's condition cap (on the exact
    |A|_1 |A^-1|_1, never below zgecon's estimate) or residual gate.
    norms is the run's _norms.

    The residual gate is _solve's, one zgemv of system. The cap is
    checked first on the O(N) bound a_bound (|B|_1 + |coef| dzasum(c)
    dznrm2(c)), B the present inverse, as dzasum(c) >= |c|_1 and
    dznrm2(c) >= |c|_inf; only where that bound exceeds the cap are the
    exact norms taken, of the written update. A pass of the bound is a
    pass of the exact gate, so every decision is the exact one, and all
    but that last one are taken before anything is written. The state
    carries the bound (exact after _inverse) as its |B|_1. Finiteness
    follows from h, that bound and the 2-norms of x, y and c, which also
    tell when x - s c needs np.errstate. The update writes a new array;
    state is never modified.
    """
    inv, x, y, h, inv_norm = state
    off, a_bound, z_st_norm = norms
    den = 1.0 + 1j * t * inv.item(idx, idx)
    if den == 0:  # det(A') = det(A) * den: the moved system is singular
        return None
    coef, col = 1j * t / den, inv[:, idx]
    sx, sy = coef * x.item(idx), coef * y.item(idx)
    h = h + sx * y.item(idx)
    col_norm = dznrm2(col)
    if (dznrm2(x) + abs(sx) * col_norm < _NO_OVERFLOW
            and dznrm2(y) + abs(sy) * col_norm < _NO_OVERFLOW):
        x, y = x - sx * col, y - sy * col
    else:
        with np.errstate(all="ignore"):  # a non-finite update fails below
            x, y = x - sx * col, y - sy * col
        if not math.isfinite(dznrm2(y)):
            return None
    if not (math.isfinite(abs(h)) and dznrm2(
            _residual(system, x, imps.z_st)) <= _RESIDUAL_REL_MAX * z_st_norm):
        return None
    inv_norm = (inv_norm + abs(coef) * dzasum(col) * col_norm
                ) * _BOUND_ROUNDING
    cond = a_bound * inv_norm
    inv = zgeru(-coef, col, col, a=inv)  # overwrite_a = 0: a new array
    if not (math.isfinite(cond) and cond <= CONDITION_CAP):
        with np.errstate(all="ignore"):
            inv_norm = np.linalg.norm(inv, 1)
        cond = (off + np.abs(system.diagonal())).max() * inv_norm
        if not (math.isfinite(cond) and cond <= CONDITION_CAP):
            return None
    return inv, x, y, h, inv_norm


def optimize_tuning(
    imps: ImpedanceSet,
    init: TuningState,
    budget: int = DEFAULT_BUDGET,
    reactance_bounds: tuple[float, float] = DEFAULT_REACTANCE_BOUNDS,
) -> OptimizeResult:
    """Maximize |h_e2e| over per-element reactances in reactance_bounds.

    The search domain is the start's real parts, held fixed (zero for a
    lossless start, R for a lossy one), plus reactances in [lo, hi] ohm.
    Cyclic coordinate ascent: each sweep moves each reactance in turn to
    its exact maximizer over the bounds (see _coordinate_step). A move
    updates the optimizer's inverse (_rank1) under end_to_end's gates, or
    gets a checked solve where it fails them, and is accepted only when
    |h_e2e| strictly rises. A sweep that moved ends with one checked
    solve, its trace entry; should that fail or not rise above the last
    entry, the sweep is redone with a checked solve per proposal. The
    trace is non-decreasing. budget caps the sweeps; stop_reason is
    "converged" when the last sweep accepted no move (its trace entry
    repeats the one before), "budget" otherwise. The procedure is
    deterministic.

    Raises DomainError for budget < 1, for bounds that are not finite
    with lo < hi, and for a start reactance outside them; SingularSystem
    when the initial state does not solve (there is no system to step
    from).
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise DomainError("optimizer budget must be an integer >= 1")
    lo, hi = float(reactance_bounds[0]), float(reactance_bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("reactance bounds must satisfy lo < hi, finite")
    if np.any(init.entries.imag < lo) or np.any(init.entries.imag > hi):
        raise DomainError(
            f"tuning reactances must lie within [{lo:g}, {hi:g}] ohm"
        )

    # One checked solve of the start: its factorization serves the first
    # sweep, and _channel raises the gain's DomainErrors up front. The
    # system is kept: a move writes its diagonal entry, a solve factors it.
    entries, system = init.entries.copy(), _system(imps, init.entries)
    try:
        solved = _solve(imps, system)
    except SingularSystem as exc:
        raise SingularSystem(
            f"every probed tuning state failed to solve: the initial "
            f"state is unsolvable ({exc})"
        )
    _channel(imps, solved)
    state, trace = _inverse(imps, solved), [abs(solved[2])]
    norms = _norms(imps, entries, lo, hi)
    n, diag = entries.shape[0], imps.z_ss.diagonal()
    stop_reason = "budget"

    for _ in range(budget):
        start_entries, start_state = entries.copy(), state
        for checked in (False, True):  # True: the redo, _solve per move
            entries[:], state = start_entries, start_state
            system.flat[::n + 1] = diag + entries
            for idx in range(n):
                current = entries[idx]
                target = _coordinate_step(state, idx, current.imag, lo, hi)
                if target == current.imag:
                    continue
                entries[idx] = current.real + 1j * target
                system[idx, idx] = diag[idx] + entries[idx]
                proposal = None if checked else _rank1(
                    imps, norms, system, state, idx, target - current.imag)
                if proposal is None:
                    with suppress(SingularSystem):
                        proposal = _inverse(imps, _solve(imps, system))
                if proposal is not None and abs(proposal[3]) > abs(state[3]):
                    state = proposal
                else:
                    entries[idx] = current
                    system[idx, idx] = diag[idx] + current
            if checked or state is start_state:
                break
            with suppress(SingularSystem):  # one checked solve per sweep
                refreshed = _inverse(imps, _solve(imps, system))
                if abs(refreshed[3]) > trace[-1]:
                    state = refreshed
                    break
        trace.append(abs(state[3]))
        if state is start_state:  # the sweep accepted no move
            stop_reason = "converged"
            break

    final_state = TuningState(entries)
    return OptimizeResult(tuning=final_state,
                          channel=end_to_end(imps, final_state),
                          trace=tuple(trace), stop_reason=stop_reason)
