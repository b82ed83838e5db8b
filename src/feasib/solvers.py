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
Each solver states one fact, which of set A and set B it projects
inexactly: ``(True, False)`` for ACondG1, ``(True, True)`` for ACondG2 and
the averaged scheme, ``(False, False)`` for ExactAlt. :func:`check_pair`
derives the input rules and the forcing regime from it, and ``_alternate``
the convergence tolerance. A broken rule raises :class:`~feasib.bodies.InputError`,
whose ``path`` names the argument; the config layer runs the same checks
and so the same messages.

Every projection of every step is one call, ``_project(body, inexact,
anchor, point, params) -> (w, inner_iters, capped)``: inexact,
:func:`~feasib.condg.condg_project` warm-started at the anchor, where
``capped`` says it stopped at its cap, the module constant
``condg._MAX_INNER_ITERS``; or exact, the body's unchecked ``_project``.
After ``check_pair`` the loop checks only that each ``w`` and averaged
midpoint is finite, so an overflow raises ValueError before a stop rule
reads its row. The alternating schemes project the x-iterate onto B,
then the new y-iterate onto A, and their verdict is the smaller violation.
The averaged scheme's step averages the two inexact projections of its
iterate, and its verdict is the larger violation of that iterate.

A :class:`ForcingSchedule`, which is also the config's ``schedule``
section, holds the initial forcing parameters and the factors ``tau`` and
``delta``. ``_drive`` keeps the current
:class:`~feasib.condg.ForcingParams` as a local and scales them by
``delta`` whenever neither violation improved by the progress factor
``tau``. It also states the stop rules and their order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import Callable

from .bodies import ConvexBody, InputError, Vector, as_float, check_count, member_vector
from .bodies import _all_finite, _inf_norm
from .condg import CondGStop, ForcingParams, condg_project

__all__ = [
    "ForcingSchedule",
    "SolveReport",
    "StopCode",
    "StoppingConfig",
    "acondg1",
    "acondg2",
    "averaged_projection",
    "check_pair",
    "exact_alternating",
]


@dataclass(frozen=True)
class ForcingSchedule:
    """Initial forcing parameters and the factors of their update policy.

    ``tau`` is the progress factor: if either feasibility violation shrank
    by at least that factor between consecutive outer iterations the
    parameters are kept, otherwise all three are multiplied by ``delta``
    (``_drive`` applies the rule). Updates never increase any component, so
    once decreases become permanent the parameter sequences are geometric
    and hence summable. The defaults are the experiment values; they meet
    the conditions of both regimes.
    """

    gamma0: float = 0.1 - 1e-8
    theta0: float = 0.2 - 1e-8
    lambda0: float = 0.2 - 1e-8
    tau: float = 0.9
    delta: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            path = f"schedule.{f.name}"
            v = as_float(getattr(self, f.name), path)
            if f.name in ("tau", "delta"):
                ok, rule = 0.0 < v < 1.0, "must lie in (0, 1)"
            else:
                ok, rule = v >= 0.0, "must be >= 0"
            if not ok:
                raise InputError(path, f"{rule}, got {v}")
            object.__setattr__(self, f.name, v)


# Exact projections take no forcing parameters.
_ZERO_SCHEDULE = ForcingSchedule(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class StoppingConfig:
    eps_feas: float = 1e-8
    eps_lack: float = 1e-8
    max_outer_iters: int = 100_000

    def __post_init__(self):
        for name in ("eps_feas", "eps_lack"):
            path = f"stopping.{name}"
            v = as_float(getattr(self, name), path)
            if v <= 0.0:
                raise InputError(path, "must be positive")
            object.__setattr__(self, name, v)
        check_count(self.max_outer_iters, "stopping.max_outer_iters")


class StopCode(enum.Enum):
    CONVERGED_FEASIBLE = "C"
    LACK_OF_PROGRESS = "L"
    ITERATION_CAP = "I"

    @property
    def letter(self) -> str:
        return self.value


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
    (row 0 carries the schedule's initial parameters and zero inner
    iterations); the parameters change only by the driver's progress rule.
    ``inner_cap_iters`` lists outer iterations whose inner loop hit its cap.
    All four solvers share one driver, which fills an empty report row by
    row and then sets its stop code; ``outer_iters`` (the last row's index)
    and ``inner_iter_total`` are read off the rows.
    """

    x_trace: list[Vector] = field(default_factory=list)
    y_trace: list[Vector] = field(default_factory=list)
    violations: list[tuple[float, float]] = field(default_factory=list)
    stop_code: StopCode = StopCode.ITERATION_CAP
    schedule_trace: list[ForcingParams] = field(default_factory=list)
    inner_iters_per_k: list[int] = field(default_factory=list)
    inner_cap_iters: list[int] = field(default_factory=list)
    anchor_trace: list[Vector] | None = None

    @property
    def outer_iters(self) -> int:
        return len(self.x_trace) - 1

    @property
    def inner_iter_total(self) -> int:
        return sum(self.inner_iters_per_k)

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

    def _add_row(self, x, y, violations, params, inner, capped) -> None:
        """Append a row; a ``y`` of None leaves ``y_trace`` unchanged."""
        self.x_trace.append(x)
        if y is not None:
            self.y_trace.append(y)
        self.violations.append(violations)
        self.schedule_trace.append(params)
        self.inner_iters_per_k.append(inner)
        if capped:
            self.inner_cap_iters.append(self.outer_iters)

    def _stop(self, code: StopCode) -> "SolveReport":
        self.stop_code = code
        return self


def check_pair(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    inexact: tuple[bool, bool],
    schedule: ForcingSchedule | None = None,
) -> tuple[Vector, Vector | None, ForcingSchedule]:
    """Check a solver's input; return ``x0`` and ``y0`` as vectors and the
    schedule the solver runs on.

    ``inexact`` says whether the solver projects set A and set B inexactly,
    which needs a compact set (a linear oracle); every body projects
    exactly. ``x0`` must lie in A and ``y0``, when given, in B; ``y0`` is
    required when B is projected inexactly.

    The number of sets projected inexactly is the forcing regime. With none,
    the solver runs on the constant zero schedule and ``schedule`` is
    ignored; with one or two, ``schedule`` (default ``ForcingSchedule()``)
    must meet that regime's conditions. Its range rules are its own and
    hold for every solver.
    """
    for path, body, approx in (("set_a", a, inexact[0]), ("set_b", b, inexact[1])):
        if approx and not body.is_compact:
            raise InputError(path, "must be compact for an inexact projection")
    if a.dim != b.dim:
        raise InputError("set_b", f"has dimension {b.dim}, set_a has {a.dim}")
    x0 = member_vector(a, x0, "x0")
    if y0 is not None:
        y0 = member_vector(b, y0, "y0")
    elif inexact[1]:
        raise InputError("y0", "is required when set_b is projected inexactly")
    regime = sum(inexact)
    if regime == 0:
        return x0, y0, _ZERO_SCHEDULE
    schedule = schedule or ForcingSchedule()
    gamma, theta, lam = schedule.gamma0, schedule.theta0, schedule.lambda0
    if regime == 1:
        ok, rule = theta < 0.5, "one-set regime requires theta < 1/2"
    else:
        ok = theta < 0.25 and 2.0 * (gamma + theta + lam) < 1.0
        rule = "two-set regime requires theta < 1/4, 2*(gamma + theta + lam) < 1"
    if not (ok and 2.0 * gamma + 4.0 * lam < 1.0):
        raise InputError("schedule", f"{rule} and 2*gamma + 4*lam < 1")
    return x0, y0, schedule


def _finite(w: Vector) -> Vector:
    # An overflow; a stop rule would read nan as 0.
    if not _all_finite(w):
        raise ValueError(f"an iterate is not finite, the run overflowed: {w}")
    return w


def _project(body, inexact, anchor, point, params) -> tuple[Vector, int, bool]:
    """One projection of a step, as the module docstring states."""
    if not inexact:
        return _finite(body._project(point)), 0, False
    res = condg_project(body, params, anchor, point)
    return _finite(res.w_plus), res.inner_iters, res.stop_reason is CondGStop.ITERATION_CAP


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
    violations, inner_iters, capped, moved)``. ``params`` are the current
    forcing parameters, a local that starts at the schedule's initial values
    and that only the progress rule changes. ``moved`` is the max-norm
    distance the step's iterates moved (exact when at most ``eps_lack``, and
    any larger number otherwise). ``verdict`` reduces a violation pair to
    the number the stops read. After each step, in this order: a verdict of
    exactly 0 converges (an iterate lies in the other set); ``moved <=
    eps_lack`` for the second step in a row stops for lack of progress; a
    verdict at most ``feas_tol`` converges; otherwise the progress rule
    scales ``params`` by ``delta`` unless either violation is at most ``tau``
    times its value in the previous row. A stalled run is thus reported as
    stalled even when its verdict dips under ``feas_tol`` in the same step.
    """
    params = ForcingParams(schedule.gamma0, schedule.theta0, schedule.lambda0)
    rep._add_row(*first_row, params, 0, False)
    if verdict(first_row[2]) <= feas_tol:
        return rep._stop(StopCode.CONVERGED_FEASIBLE)

    lack_streak, prev = 0, first_row[2]
    for _ in range(stop.max_outer_iters):
        x, y, viol, inner, capped, moved = step(params)
        rep._add_row(x, y, viol, params, inner, capped)
        v = verdict(viol)
        if v == 0.0:
            return rep._stop(StopCode.CONVERGED_FEASIBLE)
        lack_streak = lack_streak + 1 if moved <= stop.eps_lack else 0
        if lack_streak >= 2:
            return rep._stop(StopCode.LACK_OF_PROGRESS)
        if v <= feas_tol:
            return rep._stop(StopCode.CONVERGED_FEASIBLE)
        # A non-finite baseline (no iterate yet) shows no progress, and
        # all-zero parameters are a fixed point of the scaling.
        progress = (
            viol[0] <= schedule.tau * prev[0] < math.inf
            or viol[1] <= schedule.tau * prev[1] < math.inf
        )
        if not (progress or params.gamma == params.theta == params.lam == 0.0):
            params = params.scaled(schedule.delta)
        prev = viol

    return rep._stop(StopCode.ITERATION_CAP)


def _alternate(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    inexact: tuple[bool, bool],
    schedule: ForcingSchedule | None,
    stop: StoppingConfig,
) -> SolveReport:
    """Alternate ``y = proj_b(y, x)`` and ``x = proj_a(x, y)`` from ``x0``,
    projecting inexactly the sets ``inexact`` names (see :func:`check_pair`).

    A run with an inexact projection converges at ``stop.eps_feas``, one
    with none only at an exactly feasible iterate. Without ``y0`` the
    y-sequence starts at iteration 1, and ``moved`` is ``inf`` until it has
    two entries. A y-iterate exactly in A ends the step, and so the run,
    with ``x`` and its violation unchanged.
    """
    x0, y0, schedule = check_pair(a, b, x0, y0, inexact, schedule)
    feas_tol = stop.eps_feas if any(inexact) else 0.0
    x, y, cb_x = x0, y0, b._violation(x0)

    def step(params):
        nonlocal x, y, cb_x
        y_new, inner_b, cap_b = _project(b, inexact[1], y, x, params)
        ca_y = a._violation(y_new)
        if ca_y == 0.0:
            return x, y_new, (cb_x, ca_y), inner_b, cap_b, math.inf
        x_new, inner_a, cap_a = _project(a, inexact[0], x, y_new, params)
        # The driver reads ``moved`` only against eps_lack, so y's norm is
        # needed only when x moved that little.
        moved = math.inf if y is None else _inf_norm(x_new - x)
        if moved <= stop.eps_lack:
            moved = max(moved, _inf_norm(y_new - y))
        x, y, cb_x = x_new, y_new, b._violation(x_new)
        return x, y, (cb_x, ca_y), inner_b + inner_a, cap_b or cap_a, moved

    ca0 = a._violation(y0) if y0 is not None else math.inf
    first_row = (x0, y0, (cb_x, ca0))
    return _drive(SolveReport(), first_row, step, min, schedule, stop, feas_tol)


def acondg1(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    schedule: ForcingSchedule | None = None,
    stop: StoppingConfig = StoppingConfig(),
) -> SolveReport:
    """Alternate the exact projection onto ``b`` with a conditional-gradient
    inexact projection onto the compact set ``a``, starting from ``x0 in a``.
    """
    return _alternate(a, b, x0, None, (True, False), schedule, stop)


def acondg2(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    schedule: ForcingSchedule | None = None,
    stop: StoppingConfig = StoppingConfig(),
) -> SolveReport:
    """Alternate conditional-gradient inexact projections onto both compact
    sets, starting from ``x0 in a`` and ``y0 in b``."""
    return _alternate(a, b, x0, y0, (True, True), schedule, stop)


def averaged_projection(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    schedule: ForcingSchedule | None = None,
    stop: StoppingConfig = StoppingConfig(),
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
    x0, y0, sched = check_pair(a, b, x0, y0, (True, True), schedule)
    z, anchor_a, anchor_b = _finite(0.5 * (x0 + y0)), x0, y0
    rep = SolveReport(anchor_trace=[x0])

    def step(params):
        nonlocal z, anchor_a, anchor_b
        anchor_a, inner_a, cap_a = _project(a, True, anchor_a, z, params)
        anchor_b, inner_b, cap_b = _project(b, True, anchor_b, z, params)
        rep.anchor_trace.append(anchor_a)
        z_new = _finite(0.5 * (anchor_a + anchor_b))
        moved, z = _inf_norm(z_new - z), z_new
        viol = (b._violation(z), a._violation(z))
        return z, anchor_b, viol, inner_a + inner_b, cap_a or cap_b, moved

    first_row = (z, y0, (b._violation(z), a._violation(z)))
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
    return _alternate(a, b, x0, y0, (False, False), None, stop)
