"""End-to-end channel evaluation and tuning optimization.

The surface elements are loaded with tunable impedances (the diagonal of
the tuning matrix). The transmitter-to-receiver transfer impedance is

    h = z_rt - z_rs^T (Z_ss + diag(tuning))^(-1) z_st

computed with an LU solve, never an explicit inverse. A cyclic
coordinate-ascent optimizer adjusts per-element reactances to maximize
|h|. Changing one load is a rank-1 update of the system, so each step
moves a reactance straight to its exact maximizer over the bounds (a
closed form from Sherman-Morrison). Each proposed move gets one checked
factorization, and the factorization of an accepted move serves the
next step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from .errors import DomainError, SingularSystem
from .impedance import ImpedanceSet

DEFAULT_REACTANCE_BOUNDS = (-2000.0, 2000.0)  # [ohm]
DEFAULT_CONDITION_CAP = 1e12
_RESIDUAL_REL_MAX = 1e-10


@dataclass(frozen=True, eq=False)
class TuningState:
    """Diagonal tuning impedances of the surface, in ohms.

    With reactance_only set, every entry must be purely imaginary with
    its reactance inside reactance_bounds; this is the physically passive
    lossless regime and the one the optimizer works in. Clearing the flag
    admits arbitrary complex entries without any realizability claim.
    """

    entries: np.ndarray
    reactance_only: bool = True
    reactance_bounds: tuple[float, float] = DEFAULT_REACTANCE_BOUNDS

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        bounds = (float(self.reactance_bounds[0]), float(self.reactance_bounds[1]))
        object.__setattr__(self, "reactance_bounds", bounds)
        if entries.ndim != 1 or entries.shape[0] < 1:
            raise DomainError("tuning entries must form a non-empty vector")
        if not np.all(np.isfinite(entries)):
            raise DomainError("tuning entries must be finite")
        lo, hi = bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError("reactance bounds must satisfy lo < hi, finite")
        if self.reactance_only:
            if np.any(entries.real != 0.0):
                raise DomainError(
                    "reactance-only tuning forbids resistive (real) parts"
                )
            x = entries.imag
            if np.any(x < lo) or np.any(x > hi):
                raise DomainError(
                    f"tuning reactances must lie within [{lo:g}, {hi:g}] ohm"
                )

    @classmethod
    def from_reactances(cls, x, reactance_bounds=DEFAULT_REACTANCE_BOUNDS):
        """Purely reactive state from a vector of reactances in ohms."""
        x = np.asarray(x, dtype=float)
        return cls(1j * x, reactance_only=True, reactance_bounds=reactance_bounds)

    @property
    def n_elements(self) -> int:
        return self.entries.shape[0]


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


def _solve(imps: ImpedanceSet, entries: np.ndarray, cond_cap: float):
    """Checked solve of (Z_ss + diag(entries)) x = z_st.

    Returns ((lu, piv), x, h, cond). Raises SingularSystem as described
    in end_to_end.
    """
    system = imps.z_ss + np.diag(entries)
    with warnings.catch_warnings():
        # An exactly singular matrix makes the factorization warn; the
        # condition estimate below turns that case into a typed error.
        warnings.simplefilter("ignore")
        try:
            lu, piv = lu_factor(system)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"coupling system factorization failed: {exc}")
    if not np.all(np.isfinite(lu)):
        raise SingularSystem("coupling system is singular (non-finite factors)")
    rcond, info = zgecon(lu, np.linalg.norm(system, 1))
    if info != 0:
        raise SingularSystem(f"condition estimator failed (info = {info})")
    cond = math.inf if rcond == 0 else 1.0 / float(rcond)
    if cond > cond_cap:
        raise SingularSystem(
            f"coupling system condition estimate {cond:.3e} exceeds the "
            f"cap {cond_cap:.3e}"
        )

    rhs = imps.z_st
    x = lu_solve((lu, piv), rhs)
    rhs_norm = np.linalg.norm(rhs)
    residual = np.linalg.norm(system @ x - rhs)
    if residual > _RESIDUAL_REL_MAX * rhs_norm:
        # One round of iterative refinement usually recovers the digits.
        x = x + lu_solve((lu, piv), rhs - system @ x)
        residual = np.linalg.norm(system @ x - rhs)
        if residual > _RESIDUAL_REL_MAX * rhs_norm:
            raise SingularSystem(
                f"solve residual {residual:.3e} stayed above "
                f"{_RESIDUAL_REL_MAX:.1e} * |rhs| = "
                f"{_RESIDUAL_REL_MAX * rhs_norm:.3e}"
            )
    return (lu, piv), x, complex(imps.z_rt - np.dot(imps.z_rs, x)), cond


def end_to_end(
    imps: ImpedanceSet,
    tuning: TuningState,
    cond_cap: float = DEFAULT_CONDITION_CAP,
) -> ChannelResult:
    """Evaluate the transfer impedance for one tuning state.

    Solves (Z_ss + diag(tuning)) x = z_st by LU with partial pivoting,
    verifies the residual, and forms h = z_rt - z_rs . x with a plain
    (unconjugated) dot product. Deterministic for fixed inputs.

    Raises SingularSystem when the factorization fails, the 1-norm
    condition estimate exceeds cond_cap, or the residual will not shrink
    below 1e-10 of the right-hand side.
    """
    if tuning.n_elements != imps.n_elements:
        raise DomainError(
            f"tuning has {tuning.n_elements} entries, surface has "
            f"{imps.n_elements} elements"
        )
    _, _, h, cond = _solve(imps, tuning.entries, cond_cap)
    if imps.z_rt == 0:
        raise DomainError("gain is undefined for a vanishing direct link")
    if h == 0:
        raise DomainError("transfer impedance vanished; gain is undefined")
    gain_db = 20.0 * math.log10(abs(h / imps.z_rt))
    return ChannelResult(h_e2e=h, gain_db=gain_db, condition_estimate=cond)


@dataclass(frozen=True)
class OptimizeResult:
    """Optimizer outcome: best tuning, its channel, and the trace of
    |h_e2e| after the initial state and each completed sweep."""

    tuning: TuningState
    channel: ChannelResult
    trace: tuple[float, ...] = field(default_factory=tuple)


def _coordinate_step(imps: ImpedanceSet, solved, idx: int, current: float,
                     lo: float, hi: float) -> float:
    """Reactance in [lo, hi] of element idx that maximizes |h|, the
    others held fixed (current, the present reactance, when nothing
    beats it). solved is the _solve result of the present state; its
    factorization is reused, so the step factors nothing.

    With A = Z_ss + diag(entries), x = A^-1 z_st, y = A^-1 z_rs and
    g = (A^-1)_ii, a reactance change t of element idx is the rank-1
    update A + j t e_i e_i^T. A is symmetric, so Sherman-Morrison gives

        h(t) = h + j t x_i y_i / (1 + j t g) = (h + j t q) / (1 + j t g)

    with q = h g + x_i y_i. |h(t)|^2 is a ratio of two real quadratics
    whose derivative has a vanishing t^3 term, so its stationary points
    are the real roots of one quadratic. The best of those inside the
    bounds, the two bounds and t = 0 is the exact maximizer.
    """
    lu_piv, x, h, _ = solved
    unit = np.zeros(x.shape[0], dtype=complex)
    unit[idx] = 1.0
    y_i, g = lu_solve(lu_piv, np.column_stack((imps.z_rs, unit)))[idx]
    q = h * g + x[idx] * y_i
    # |h(t)|^2 = (a0 + a1 t + a2 t^2) / (b0 + b1 t + b2 t^2)
    a0, a1, a2 = abs(h) ** 2, 2.0 * (h * q.conjugate()).imag, abs(q) ** 2
    b0, b1, b2 = 1.0, -2.0 * g.imag, abs(g) ** 2
    roots = np.roots([a2 * b1 - a1 * b2, 2.0 * (a2 * b0 - a0 * b2),
                      a1 * b0 - a0 * b1])
    candidates = [current, lo, hi] + [
        current + t.real for t in roots
        if t.imag == 0.0 and lo <= current + t.real <= hi
    ]
    t = np.array(candidates) - current
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.abs((h + 1j * t * q) / (1.0 + 1j * t * g))
    return candidates[int(np.nanargmax(gain))]


def optimize_tuning(
    imps: ImpedanceSet,
    init: TuningState,
    budget: int = 20,
    cond_cap: float = DEFAULT_CONDITION_CAP,
) -> OptimizeResult:
    """Maximize |h_e2e| over per-element reactances.

    Cyclic coordinate ascent: each sweep visits the elements in order and
    moves each reactance to its exact maximizer over the bounds, the
    others held fixed (a closed-form rank-1 step, see _coordinate_step).
    The formula only proposes: the proposed state gets one checked
    factorization and solve, with end_to_end's condition cap and residual
    gate, and the move is accepted only when that checked |h_e2e| is
    strictly larger. The accepted factorization then serves the next
    step, so each proposed move costs one LU. The trace of |h_e2e| values
    is therefore non-decreasing. budget caps the number of full sweeps;
    the search stops early once a sweep brings no improvement, so the run
    converged exactly when the last two trace entries are equal and
    stopped at the budget otherwise.

    Real parts of the entries are held fixed; with reactance_only set
    they are all zero. The procedure is deterministic.

    Raises DomainError for budget < 1, and SingularSystem when the
    initial state does not solve (there is no system to step from).
    """
    if not isinstance(budget, int) or budget < 1:
        raise DomainError("optimizer budget must be an integer >= 1")

    # end_to_end checks the length and the gain's DomainErrors once;
    # the steps then work from _solve's factorization.
    try:
        end_to_end(imps, init, cond_cap=cond_cap)
    except SingularSystem as exc:
        raise SingularSystem(
            f"every probed tuning state failed to solve: the initial "
            f"state is unsolvable ({exc})"
        )
    lo, hi = init.reactance_bounds
    entries = init.entries.copy()
    solved = _solve(imps, entries, cond_cap)
    trace = [abs(solved[2])]

    for _ in range(budget):
        improved = False
        for idx in range(entries.shape[0]):
            current = entries[idx]
            target = _coordinate_step(imps, solved, idx, current.imag, lo, hi)
            if target == current.imag:
                continue
            entries[idx] = current.real + 1j * target
            try:
                proposal = _solve(imps, entries, cond_cap)
            except SingularSystem:
                proposal = None
            if proposal is not None and abs(proposal[2]) > abs(solved[2]):
                solved, improved = proposal, True
            else:
                entries[idx] = current
        trace.append(abs(solved[2]))
        if not improved:
            break

    final_state = TuningState(entries, reactance_only=init.reactance_only,
                              reactance_bounds=init.reactance_bounds)
    return OptimizeResult(tuning=final_state,
                          channel=end_to_end(imps, final_state, cond_cap),
                          trace=tuple(trace))
