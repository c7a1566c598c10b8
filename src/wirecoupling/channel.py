"""End-to-end channel evaluation and tuning optimization.

The surface elements are loaded with tunable impedances (the diagonal of
the tuning matrix). The transmitter-to-receiver transfer impedance is

    h = z_rt - z_rs^T (Z_ss + diag(tuning))^(-1) z_st

computed by one LU solve of A = Z_ss + diag(tuning) against
[I | z_st | z_rs], giving w = [A^-1 | x | y]: x and y solve for the
transmitter and receiver couplings, and A^-1 gives the exact 1-norm
condition number and the residual's refinement. A cyclic
coordinate-ascent optimizer adjusts per-element reactances to maximize
|h|. Changing one load is a rank-1 update of the system, so each step
moves a reactance straight to its exact maximizer over the bounds (a
closed form from Sherman-Morrison). The optimizer keeps w as its state,
and a step moves all of it by one O(N^2) outer product, under the same
gates as the solve; one checked solve per sweep bounds the drift. A
step decides its gates from O(N) products and scalars: its residual is
one product with the system, which the optimizer keeps and moves one
diagonal entry at a time, and its condition number is checked on an
O(N) upper bound, on the exact norms only where that bound exceeds the
cap. The update runs with floating-point warnings off; one that
overflows fails the finiteness of h or y, the residual gate or the cap.
All of it is numpy (see _matvec for where a matrix-vector product leaves
BLAS for einsum).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularSystem
from .impedance import ImpedanceSet

DEFAULT_REACTANCE_BOUNDS = (-2000.0, 2000.0)  # [ohm]
CONDITION_CAP = 1e12  # largest accepted 1-norm condition number
DEFAULT_BUDGET = 20  # optimizer sweeps
_RESIDUAL_REL_MAX = 1e-10
# Relative margin on _rank1's O(N) norm bounds, so that rounding in the
# update and in the column sums (about N ulps) never takes a computed
# |A^-1|_1 or |A|_1 above them. The bounds only decide when the exact
# norms are needed, so the margin changes no decision.
_BOUND_ROUNDING = 1.0 + 1e-9

# Solves by LU with partial pivoting, one LAPACK zgesv for all the
# right-hand sides. Every LAPACK call goes through this name.
lu_factor = np.linalg.solve


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
    condition_estimate: exact 1-norm condition number |A|_1 |A^-1|_1 of
                        the solved system A
    """

    h_e2e: complex
    gain_db: float
    condition_estimate: float


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x by BLAS, except for N = 64 to 127, where it is einsum.
    OpenBLAS splits a zgemv over threads from N = 64 on; at N = 64 that
    is a few microseconds of work per thread, and in about one fresh
    process of five on a 2-vCPU VM the hand-off stalled for
    milliseconds per call, where einsum takes 11 us. From N = 128 on, 18 fresh processes of
    300 products each saw no such stall, and einsum costs about four
    times as much as BLAS (80 against 18 us at N = 256)."""
    if 64 <= a.shape[0] < 128:
        return np.einsum("ij,j->i", a, x)
    return a.dot(x)


def _norm2(v: np.ndarray) -> float:
    """|v|_2 by one vdot; NaN once the squares overflow."""
    return math.sqrt(np.vdot(v, v).real)


def _norm1(a: np.ndarray) -> float:
    """|a|_1, the largest column sum of |a|, as np.linalg.norm(a, 1)
    computes it, without its dispatch."""
    return float(np.maximum.reduce(np.add.reduce(np.abs(a), axis=0)))


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


def _condition(system: np.ndarray, inv: np.ndarray):
    """(|A^-1|_1, cond), cond = |A|_1 |A^-1|_1 for system A and its inverse
    inv; SingularSystem when cond is not finite or exceeds CONDITION_CAP."""
    inv_norm = _norm1(inv)
    cond = _norm1(system) * inv_norm
    if not (math.isfinite(cond) and cond <= CONDITION_CAP):
        raise SingularSystem(
            f"coupling system condition number {cond:.3e} exceeds the "
            f"cap {CONDITION_CAP:.3e}"
        )
    return inv_norm, cond


def _solve(imps: ImpedanceSet, system: np.ndarray):
    """Checked solve of system x = z_st for a _system array, which stays
    intact (the optimizer keeps and moves it). Returns the optimizer's
    state (w, h, |A^-1|_1), w = [A^-1 | x | y] one N x (N + 2) array with
    y = A^-1 z_rs, the one lu_factor solve against [I | z_st | z_rs], and
    cond = |A|_1 |A^-1|_1; SingularSystem as described in end_to_end.
    """
    n, rhs = system.shape[0], imps.z_st
    b = np.eye(n, n + 2, dtype=complex)
    b[:, n], b[:, n + 1] = rhs, imps.z_rs
    try:
        w = lu_factor(system, b)
    except np.linalg.LinAlgError:
        raise SingularSystem("coupling system is singular") from None
    inv_norm, cond = _condition(system, w[:, :n])

    bound = _RESIDUAL_REL_MAX * _norm2(rhs)
    r = _matvec(system, w[:, n]) - rhs
    residual = _norm2(r)
    if not residual <= bound:
        # One round of iterative refinement usually recovers the digits.
        w[:, n] -= _matvec(w[:, :n], r)
        residual = _norm2(_matvec(system, w[:, n]) - rhs)
        if not residual <= bound:
            raise SingularSystem(
                f"solve residual {residual:.3e} stayed above "
                f"{_RESIDUAL_REL_MAX:.1e} * |rhs| = {bound:.3e}"
            )
    h = imps.z_rt - complex(np.dot(imps.z_rs, w[:, n]))
    return (w, h, inv_norm), cond


def _channel(imps: ImpedanceSet, solved) -> ChannelResult:
    """ChannelResult of a _solve result; DomainError for an undefined gain."""
    (_, h, _), cond = solved
    if imps.z_rt == 0:
        raise DomainError("gain is undefined for a vanishing direct link")
    if h == 0:
        raise DomainError("transfer impedance vanished; gain is undefined")
    gain_db = 20.0 * math.log10(abs(h / imps.z_rt))
    return ChannelResult(h_e2e=h, gain_db=gain_db, condition_estimate=cond)


def end_to_end(imps: ImpedanceSet, tuning: TuningState) -> ChannelResult:
    """Evaluate the transfer impedance for one tuning state.

    Solves A = Z_ss + diag(tuning) for A^-1 and x = A^-1 z_st in one LU,
    verifies the residual (one round of refinement when it misses), and
    forms h = z_rt - z_rs . x with a plain (unconjugated) dot product.
    Deterministic for fixed inputs and BLAS thread count.

    Raises SingularSystem when the LU fails, the exact 1-norm condition
    number is not finite or exceeds CONDITION_CAP, or the residual
    will not shrink below 1e-10 of the right-hand side; DomainError when
    the tuning does not match the surface or the gain is undefined.
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
    beats it). state is the present (w, h, |A^-1|_1), see _solve.

    With A = Z_ss + diag(entries), x = A^-1 z_st, y = A^-1 z_rs and
    g = (A^-1)_ii, a reactance change t of element i is the rank-1
    update A + j t e_i e_i^T. A is symmetric, so Sherman-Morrison gives

        h(t) = h + j t x_i y_i / (1 + j t g) = (h + j t q) / (1 + j t g)

    with q = h g + x_i y_i. |h(t)|^2 is a ratio of two real quadratics
    whose derivative has a vanishing t^3 term, so its stationary points
    are the real roots of one quadratic. The best of those inside the
    bounds, the two bounds and t = 0 is the exact maximizer.
    """
    w, h, _ = state
    n = w.shape[0]
    g = w.item(idx, idx)
    q = h * g + w.item(idx, n) * w.item(idx, n + 1)
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
    an upper bound on |A|_1 for the whole run (|Z_ss|_1 + largest
    |Re entry| + max(|lo|, |hi|)) and |z_st|_2."""
    a_bound = (_norm1(imps.z_ss) + np.abs(entries.real).max()
               + max(abs(lo), abs(hi)))
    return a_bound * _BOUND_ROUNDING, _norm2(imps.z_st)


def _rank1(imps: ImpedanceSet, norms, system: np.ndarray, state, idx: int,
           t: float):
    """state after element idx, already moved in system (A = Z_ss +
    diag(entries)), changed by j t: w - c (coef w[idx]) (Sherman-Morrison
    on all of [A^-1 | x | y]) with c = A^-1 e_idx, read as row idx of the
    inverse, which is contiguous and, A being symmetric, the same vector.
    None when the update is not finite or fails _solve's residual gate;
    SingularSystem when it fails _solve's condition cap (_condition, on
    the same exact |A|_1 |A^-1|_1), which a checked solve of the moved
    system would refuse as well. norms is the run's _norms.

    The residual gate is _solve's, one product with system. The cap is
    checked first on the O(N) bound a_bound (|B|_1 + |coef| |c|_1^2),
    B the present inverse, as |c|_1 >= |c|_inf; only where that bound
    exceeds the cap are the exact norms taken, of the written update.
    A pass of the bound is a pass of the exact gate, so every decision
    is the exact one. The state carries the bound (exact after _solve)
    as its |B|_1. The update runs with warnings off: an overflow in x
    fails the residual gate, in y its finiteness check, in the inverse
    the cap. The update writes a new array; state is never modified.
    """
    w, h, inv_norm = state
    a_bound, z_st_norm = norms
    n, row = w.shape[0], w[idx]
    den = 1.0 + 1j * t * row.item(idx)
    if den == 0:  # det(A') = det(A) * den: the moved system is singular
        return None
    coef, col = 1j * t / den, row[:n]
    h = h + coef * row.item(n) * row.item(n + 1)
    col_sum = float(np.add.reduce(np.abs(col)))  # |c|_1 >= |c|_2 >= |c|_inf
    with np.errstate(all="ignore"):  # a non-finite update fails below
        # one N x (N + 2) allocation: the outer product, then overwritten
        # by the difference (a plain w - outer makes two)
        out = np.multiply.outer(col, coef * row)
        w = np.subtract(w, out, out=out)
        residual = _norm2(_matvec(system, w[:, n]) - imps.z_st)
        if not (math.isfinite(abs(h)) and math.isfinite(_norm2(w[:, n + 1]))
                and residual <= _RESIDUAL_REL_MAX * z_st_norm):
            return None
        inv_norm = (inv_norm + abs(coef) * col_sum * col_sum) * _BOUND_ROUNDING
        cond = a_bound * inv_norm
        if not (math.isfinite(cond) and cond <= CONDITION_CAP):
            inv_norm, _ = _condition(system, w[:, :n])
    return w, h, inv_norm


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
    gets a checked solve where it fails the residual or finiteness gates
    (never where it fails the condition cap, which a checked solve gates
    on the same exact number), and is accepted only when |h_e2e|
    strictly rises. A sweep that moved ends with one checked
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

    # One checked solve of the start: its inverse serves the first sweep,
    # and _channel raises the gain's DomainErrors up front. The system is
    # kept: a move writes its diagonal entry, a solve reads it whole. The
    # entries are Python complex numbers here: per-element arithmetic on
    # numpy scalars costs several times as much.
    entries, system = init.entries.tolist(), _system(imps, init.entries)
    try:
        solved = _solve(imps, system)
    except SingularSystem as exc:
        raise SingularSystem(
            f"every probed tuning state failed to solve: the initial "
            f"state is unsolvable ({exc})"
        )
    _channel(imps, solved)
    state, trace = solved[0], [abs(solved[0][1])]
    norms = _norms(imps, init.entries, lo, hi)
    n, diag = len(entries), imps.z_ss.diagonal().tolist()
    stop_reason = "budget"

    for _ in range(budget):
        start_entries, start_state = list(entries), state
        for checked in (False, True):  # True: the redo, _solve per move
            entries[:], state = start_entries, start_state
            system.flat[::n + 1] = [d + e for d, e in zip(diag, entries)]
            for idx in range(n):
                current = entries[idx]
                target = _coordinate_step(state, idx, current.imag, lo, hi)
                if target == current.imag:
                    continue
                entries[idx] = complex(current.real, target)
                system[idx, idx] = diag[idx] + entries[idx]
                # _rank1 raises where the exact condition cap refuses the
                # move, which a checked solve would refuse as well.
                try:
                    proposal = None if checked else _rank1(
                        imps, norms, system, state, idx, target - current.imag)
                    if proposal is None:
                        proposal = _solve(imps, system)[0]
                except SingularSystem:
                    proposal = None
                if proposal is not None and abs(proposal[1]) > abs(state[1]):
                    state = proposal
                else:
                    entries[idx] = current
                    system[idx, idx] = diag[idx] + current
            if checked or state is start_state:
                break
            with suppress(SingularSystem):  # one checked solve per sweep
                refreshed = _solve(imps, system)[0]
                if abs(refreshed[1]) > trace[-1]:
                    state = refreshed
                    break
        trace.append(abs(state[1]))
        if state is start_state:  # the sweep accepted no move
            stop_reason = "converged"
            break

    final_state = TuningState(entries)
    return OptimizeResult(tuning=final_state,
                          channel=end_to_end(imps, final_state),
                          trace=tuple(trace), stop_reason=stop_reason)
