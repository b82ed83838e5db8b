"""Outer feasibility solvers over two convex sets.

Four schemes are provided, all producing a :class:`SolveReport`:

* :func:`acondg1` -- exact projection onto B alternated with a
  conditional-gradient inexact projection onto a compact A,
* :func:`acondg2` -- inexact projections onto both compact sets,
* :func:`averaged_projection` -- averages the two inexact projections of a
  single iterate,
* :func:`exact_alternating` -- the exact-projection baseline.

All four run one outer loop, ``_drive``, and differ only in its step and
in the verdict that reduces a violation pair to the number the stops read.
The alternating schemes (``_alternate``) project the x-iterate onto B, then
the new y-iterate onto A, through two projector callables ``(anchor, point,
params) -> (w, inner_iters, capped)``, where ``capped`` says the inner loop
stopped at its cap. An exact projector ignores the anchor and the forcing
parameters and reports zero inner iterations; an inexact projector runs
:func:`~feasib.condg.condg_project` warm-started at the anchor. ACondG1
pairs an exact projector on B with an inexact one on A, ACondG2 uses two
inexact ones, and ExactAlt two exact ones under a constant zero schedule;
their verdict is the smaller violation. The averaged scheme's step averages
the two inexact projections of its iterate, and its verdict is the larger
violation of that iterate.

Each solver first runs :func:`check_pair`, the one statement of the input
rules. The forcing regime is one of them: it follows from how many sets the
solver projects inexactly, one for ACondG1 and two for ACondG2 and the
averaged scheme, and each regime has its own conditions on the schedule. A
broken rule raises :class:`~feasib.bodies.InputError`, whose ``path`` names
the argument; the config layer runs the same checks and so the same
messages.

Forcing parameters follow an adaptive schedule that shrinks them by a fixed
factor whenever neither violation improved by the progress factor ``tau``.
``_drive`` states the stop rules and their order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .bodies import ConvexBody, InputError, Vector, check_count, member_vector
from .condg import CondGLimits, CondGStop, ForcingParams, condg_project

__all__ = [
    "ForcingSchedule",
    "SolveReport",
    "StopCode",
    "StoppingConfig",
    "acondg1",
    "acondg2",
    "averaged_projection",
    "check_pair",
    "default_schedule",
    "exact_alternating",
]


@dataclass(frozen=True)
class ForcingSchedule:
    """Adaptive forcing parameters with their update policy.

    ``tau`` is the progress factor: if either feasibility violation shrank
    by at least that factor between consecutive outer iterations the
    parameters are kept, otherwise all three are multiplied by ``delta``.
    Updates never increase any component, so once decreases become permanent
    the parameter sequences are geometric and hence summable.
    """

    current: ForcingParams
    tau: float = 0.9
    delta: float = 0.1

    def __post_init__(self):
        for name, v in (("tau", self.tau), ("delta", self.delta)):
            if not 0.0 < v < 1.0:
                raise InputError(f"schedule.{name}", f"must lie in (0, 1), got {v}")

    def updated(
        self, cb_prev: float, cb_curr: float, ca_prev: float, ca_curr: float
    ) -> "ForcingSchedule":
        """Apply the progress rule; a non-finite baseline (no iterate yet)
        shows no progress."""
        progress = (
            cb_curr <= self.tau * cb_prev < math.inf
            or ca_curr <= self.tau * ca_prev < math.inf
        )
        p = self.current
        # All-zero parameters are a fixed point of the scaling.
        if progress or p.gamma == p.theta == p.lam == 0.0:
            return self
        return replace(self, current=self.current.scaled(self.delta))


def default_schedule() -> ForcingSchedule:
    """Experiment defaults: gamma0 = 0.1 - 1e-8, theta0 = lam0 = 0.2 - 1e-8,
    tau = 0.9, delta = 0.1. They meet the conditions of both regimes."""
    eps = 1e-8
    return ForcingSchedule(
        current=ForcingParams(0.1 - eps, 0.2 - eps, 0.2 - eps), tau=0.9, delta=0.1
    )


# Exact projections take no forcing parameters.
_ZERO_SCHEDULE = ForcingSchedule(ForcingParams(0.0, 0.0, 0.0))


@dataclass(frozen=True)
class StoppingConfig:
    eps_feas: float = 1e-8
    eps_lack: float = 1e-8
    max_outer_iters: int = 100_000

    def __post_init__(self):
        for name in ("eps_feas", "eps_lack"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"stopping.{name}", "must be finite and positive")
        check_count(self.max_outer_iters, "stopping.max_outer_iters")


class StopCode(enum.Enum):
    CONVERGED_FEASIBLE = "converged_feasible"
    LACK_OF_PROGRESS = "lack_of_progress"
    ITERATION_CAP = "iteration_cap"

    @property
    def letter(self) -> str:
        return {"converged_feasible": "C", "lack_of_progress": "L",
                "iteration_cap": "I"}[self.value]


@dataclass(eq=False)
class SolveReport:
    """Outer-loop trace of a feasibility run.

    ``x_trace[k]`` / ``y_trace[k]`` are the iterates after outer iteration
    ``k``; for :func:`acondg1` (and :func:`exact_alternating` without a
    ``y0``) the y-sequence starts at iteration 1, so ``y_trace`` is one entry
    shorter than ``x_trace``. ``violations[k]`` pairs the violation of the
    x-iterate against B with that of the y-iterate against A (``inf`` when
    no y exists yet). For the averaged solver ``x_trace`` holds the averaged
    iterates, ``y_trace`` the B-side anchors, ``anchor_trace`` the A-side
    anchors, and the violation pair measures the averaged iterate against
    B and A.

    ``schedule_trace[k]`` and ``inner_iters_per_k[k]`` record the forcing
    parameters and inner iteration count of the step that produced row ``k``
    (row 0 carries the initial parameters and zero inner iterations).
    ``inner_cap_iters`` lists outer iterations whose inner loop hit its cap.
    All four solvers share one driver, which fills an empty report row by
    row and then sets its stop fields.
    """

    x_trace: list[Vector] = field(default_factory=list)
    y_trace: list[Vector] = field(default_factory=list)
    violations: list[tuple[float, float]] = field(default_factory=list)
    stop_code: StopCode = StopCode.ITERATION_CAP
    outer_iters: int = 0
    inner_iter_total: int = 0
    schedule_trace: list[ForcingParams] = field(default_factory=list)
    inner_iters_per_k: list[int] = field(default_factory=list)
    inner_cap_iters: list[int] = field(default_factory=list)
    anchor_trace: list[Vector] | None = None

    @property
    def min_violation(self) -> float:
        last = self.violations[-1]
        finite = [v for v in last if math.isfinite(v)]
        return min(finite) if finite else math.inf

    @property
    def x_last(self) -> Vector:
        return self.x_trace[-1]

    @property
    def y_last(self) -> Vector:
        return self.y_trace[-1]

    def _add_row(self, k, x, y, violations, params, inner, capped) -> None:
        """Append row ``k``; a ``y`` of None leaves ``y_trace`` unchanged."""
        self.x_trace.append(x)
        if y is not None:
            self.y_trace.append(y)
        self.violations.append(violations)
        self.schedule_trace.append(params)
        self.inner_iters_per_k.append(inner)
        self.inner_iter_total += inner
        if capped:
            self.inner_cap_iters.append(k)

    def _stop(self, code: StopCode, outer: int) -> "SolveReport":
        self.stop_code, self.outer_iters = code, outer
        return self


def _inf_norm(d: Vector) -> float:
    return float(np.abs(d).max())  # the method skips np.max's dispatch


def check_pair(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    first: str,
    second: str,
    schedule: ForcingSchedule | None = None,
) -> tuple[Vector, Vector | None, ForcingSchedule]:
    """Check a solver's input; return ``x0`` and ``y0`` as vectors and the
    schedule the solver runs on.

    ``first`` and ``second`` say what the solver needs of set A and set B:
    ``"compact"`` (a linear oracle, for an inexact projection) or
    ``"exact"`` (an exact projection). ``x0`` must lie in A and ``y0``, when
    given, in B; ``y0`` is required when B is projected inexactly.

    The number of ``"compact"`` needs is the forcing regime. With none, the
    solver projects exactly and runs on the constant zero schedule; with one
    or two, ``schedule`` (default :func:`default_schedule`) must meet that
    regime's conditions.
    """
    for path, body, need in (("set_a", a, first), ("set_b", b, second)):
        if need == "compact" and not body.is_compact:
            raise InputError(path, "must be compact for an inexact projection")
        if need == "exact" and not body.has_exact_projection:
            raise InputError(path, "must support exact projection")
    if a.dim != b.dim:
        raise InputError("set_b", f"has dimension {b.dim}, set_a has {a.dim}")
    x0 = member_vector(a, x0, "x0")
    if y0 is not None:
        y0 = member_vector(b, y0, "y0")
    elif second == "compact":
        raise InputError("y0", "is required when set_b is projected inexactly")
    inexact = (first, second).count("compact")
    if inexact == 0:
        return x0, y0, _ZERO_SCHEDULE
    schedule = schedule or default_schedule()
    p = schedule.current
    if inexact == 1:
        ok, rule = p.theta < 0.5, "one-set regime requires theta < 1/2"
    else:
        ok = p.theta < 0.25 and 2.0 * (p.gamma + p.theta + p.lam) < 1.0
        rule = "two-set regime requires theta < 1/4, 2*(gamma + theta + lam) < 1"
    if not (ok and 2.0 * p.gamma + 4.0 * p.lam < 1.0):
        raise InputError("schedule", f"{rule} and 2*gamma + 4*lam < 1")
    return x0, y0, schedule


_Projector = Callable[
    [Vector | None, Vector, ForcingParams], tuple[Vector, int, bool]
]


def _exact(body: ConvexBody) -> _Projector:
    """Exact projection; ignores the anchor and the forcing parameters."""

    def project(anchor, point, params):
        return body.project(point), 0, False

    return project


def _inexact(body: ConvexBody, limits: CondGLimits) -> _Projector:
    """Conditional-gradient projection warm-started at the anchor."""

    def project(anchor, point, params):
        res = condg_project(body, params, anchor, point, limits)
        return res.w_plus, res.inner_iters, res.stop_reason is CondGStop.ITERATION_CAP

    return project


def _drive(
    rep: SolveReport,
    first_row: tuple[Vector, Vector | None, tuple[float, float]],
    step: Callable[[ForcingParams], tuple],
    verdict: Callable[[tuple[float, float]], float],
    schedule: ForcingSchedule,
    stop: StoppingConfig,
    feas_tol: float,
) -> SolveReport:
    """The one outer loop: row 0 is ``first_row`` ``(x, y, violations)``,
    and each later row comes from ``step(params)``, which returns ``(x, y,
    violations, inner_iters, capped, moved)`` with ``moved`` the max-norm
    distance its iterates moved. ``verdict`` reduces a violation pair to
    the number the stops read. After each step, in this order: a verdict of
    exactly 0 converges (an iterate lies in the other set); ``moved <=
    eps_lack`` for the second step in a row stops for lack of progress; a
    verdict at most ``feas_tol`` converges; otherwise the schedule applies
    its progress rule. A stalled run is thus reported as stalled even when
    its verdict dips under ``feas_tol`` in the same step.
    """
    rep._add_row(0, *first_row, schedule.current, 0, False)
    if verdict(first_row[2]) <= feas_tol:
        return rep._stop(StopCode.CONVERGED_FEASIBLE, 0)

    lack_streak, prev = 0, first_row[2]
    for k in range(1, stop.max_outer_iters + 1):
        params = schedule.current
        x, y, viol, inner, capped, moved = step(params)
        rep._add_row(k, x, y, viol, params, inner, capped)
        v = verdict(viol)
        if v == 0.0:
            return rep._stop(StopCode.CONVERGED_FEASIBLE, k)
        lack_streak = lack_streak + 1 if moved <= stop.eps_lack else 0
        if lack_streak >= 2:
            return rep._stop(StopCode.LACK_OF_PROGRESS, k)
        if v <= feas_tol:
            return rep._stop(StopCode.CONVERGED_FEASIBLE, k)
        schedule = schedule.updated(prev[0], viol[0], prev[1], viol[1])
        prev = viol

    return rep._stop(StopCode.ITERATION_CAP, stop.max_outer_iters)


def _alternate(
    a: ConvexBody,
    b: ConvexBody,
    proj_a: _Projector,
    proj_b: _Projector,
    x0: Vector,
    y0: Vector | None,
    schedule: ForcingSchedule,
    stop: StoppingConfig,
    feas_tol: float,
) -> SolveReport:
    """Alternate ``y = proj_b(y, x)`` and ``x = proj_a(x, y)`` from ``x0``.

    Without ``y0`` the y-sequence starts at iteration 1, and ``moved`` is
    ``inf`` until it has two entries. A y-iterate exactly in A ends the
    step, and so the run, with ``x`` and its violation unchanged.
    """
    x, y, cb_x = x0, y0, b.violation(x0)

    def step(params):
        nonlocal x, y, cb_x
        y_new, inner_b, cap_b = proj_b(y, x, params)
        ca_y = a.violation(y_new)
        if ca_y == 0.0:
            return x, y_new, (cb_x, ca_y), inner_b, cap_b, math.inf
        x_new, inner_a, cap_a = proj_a(x, y_new, params)
        moved = math.inf if y is None else max(
            _inf_norm(x_new - x), _inf_norm(y_new - y)
        )
        x, y, cb_x = x_new, y_new, b.violation(x_new)
        return x, y, (cb_x, ca_y), inner_b + inner_a, cap_b or cap_a, moved

    ca0 = a.violation(y0) if y0 is not None else math.inf
    first_row = (x0, y0, (cb_x, ca0))
    return _drive(SolveReport(), first_row, step, min, schedule, stop, feas_tol)


def acondg1(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    schedule: ForcingSchedule | None = None,
    stop: StoppingConfig = StoppingConfig(),
    limits: CondGLimits = CondGLimits(),
) -> SolveReport:
    """Alternate the exact projection onto ``b`` with a conditional-gradient
    inexact projection onto the compact set ``a``, starting from ``x0 in a``.
    """
    x0, _, sched = check_pair(a, b, x0, None, "compact", "exact", schedule)
    return _alternate(
        a, b, _inexact(a, limits), _exact(b), x0, None, sched, stop, stop.eps_feas
    )


def acondg2(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    schedule: ForcingSchedule | None = None,
    stop: StoppingConfig = StoppingConfig(),
    limits: CondGLimits = CondGLimits(),
) -> SolveReport:
    """Alternate conditional-gradient inexact projections onto both compact
    sets, starting from ``x0 in a`` and ``y0 in b``."""
    x0, y0, sched = check_pair(a, b, x0, y0, "compact", "compact", schedule)
    return _alternate(
        a, b, _inexact(a, limits), _inexact(b, limits), x0, y0, sched, stop,
        stop.eps_feas,
    )


def averaged_projection(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    schedule: ForcingSchedule | None = None,
    stop: StoppingConfig = StoppingConfig(),
    limits: CondGLimits = CondGLimits(),
) -> SolveReport:
    """Average the two inexact projections of a single iterate.

    The averaged iterate starts at the midpoint of ``x0`` and ``y0``; each
    iteration projects it inexactly onto both sets, warm-started at the
    previous projection outputs, and averages the results. The run converges
    when the averaged iterate lies in both sets to ``eps_feas``; lack of
    progress watches the averaged iterate only. In the report ``x_trace``
    holds the averaged iterates and ``y_trace`` / ``anchor_trace`` the two
    projection outputs.
    """
    x0, y0, sched = check_pair(a, b, x0, y0, "compact", "compact", schedule)
    proj_a, proj_b = _inexact(a, limits), _inexact(b, limits)
    z, anchor_a, anchor_b = 0.5 * (x0 + y0), x0, y0
    rep = SolveReport(anchor_trace=[x0])

    def step(params):
        nonlocal z, anchor_a, anchor_b
        anchor_a, inner_a, cap_a = proj_a(anchor_a, z, params)
        anchor_b, inner_b, cap_b = proj_b(anchor_b, z, params)
        rep.anchor_trace.append(anchor_a)
        z_new = 0.5 * (anchor_a + anchor_b)
        moved, z = _inf_norm(z_new - z), z_new
        viol = (b.violation(z), a.violation(z))
        return z, anchor_b, viol, inner_a + inner_b, cap_a or cap_b, moved

    first_row = (z, y0, (b.violation(z), a.violation(z)))
    return _drive(rep, first_row, step, max, sched, stop, stop.eps_feas)


def exact_alternating(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    stop: StoppingConfig = StoppingConfig(),
    y0=None,
) -> SolveReport:
    """Exact alternating projections: project onto ``b``, then onto ``a``.

    ``y0`` is optional; when given it only seeds the initial feasibility
    check and the first lack-of-progress baseline.

    Exact projections land on set boundaries, so this baseline converges
    only when an iterate is *exactly* feasible for the other set; it does
    not declare success at ``eps_feas``. A run that merely approaches the
    intersection stops for lack of progress, with the report's violations
    showing how close it got.
    """
    x0, y0, zero = check_pair(a, b, x0, y0, "exact", "exact")
    return _alternate(a, b, _exact(a), _exact(b), x0, y0, zero, stop, 0.0)
