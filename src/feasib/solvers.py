"""Outer feasibility solvers over two convex sets.

Four schemes are provided, all producing a :class:`SolveReport`:

* :func:`acondg1` -- exact projection onto B alternated with a
  conditional-gradient inexact projection onto a compact A,
* :func:`acondg2` -- inexact projections onto both compact sets,
* :func:`averaged_projection` -- averages the two inexact projections of a
  single iterate,
* :func:`exact_alternating` -- the exact-projection baseline.

All four run one outer loop, ``_drive`` (the alternating three through
``_alternate``, or its float form below), and differ only in its step and
in the verdict that reduces a violation pair to the number the stops read.
Each solver is fixed by one fact, which of set A and set B it projects
inexactly, stated once in :data:`INEXACT`. :func:`check_pair` derives a
run's whole entry contract from it: the input rules, the forcing regime and
the convergence tolerance. A broken rule raises :class:`~feasib.bodies.InputError`,
whose ``path`` names the argument; the config layer runs the same checks
and so the same messages.

A step measures each new iterate against the other set, then projects it
there. On a side projected exactly one call does both, the body's unchecked
``_violation_project``, and the step takes that projection as it is; on an
inexact side ``_violation`` measures, and the step projects by
:func:`~feasib.condg.condg_project` warm-started at the anchor, whose one
:class:`~feasib.condg.CondGResult` ``_drive`` keeps in the step's report
row. So the alternating step measures the new x against B and projects it
onto B in one call at its end, the next step consumes that projection, and
a run computes at most one exact projection it does not use, of its last
iterate. After ``check_pair`` the loop checks nothing: input within
``bodies.RANGE`` keeps every iterate finite. The alternating
schemes project the x-iterate onto B, then the new y-iterate onto A, and
their verdict is the smaller violation. The averaged scheme's step averages
the two inexact projections of its iterate, and its verdict is the larger
violation of that iterate.

One selection reads the input: :func:`exact_alternating` on two 2-D
ellipsoids runs ``_alternate``'s exact step over Python floats
(``_planar_alternate``), calling each body's Newton core,
``Ellipsoid._newton_planar``, on floats rather than ``_violation_project``
on arrays, and gives the same bits. Every other pair, and every other
solver, takes the array step. A halfspace or ball side stays on numpy
because numpy's two-term ``ndarray.dot`` rounds apart from the float sum
(README, "Rounding-sensitive results").

A :class:`ForcingSchedule`, which is also the config's ``schedule``
section, holds the initial forcing parameters and the factors ``tau`` and
``delta``. ``_drive`` keeps the current
:class:`~feasib.condg.ForcingParams` as a local and scales them by
``delta`` whenever neither violation improved by the progress factor
``tau``. Zero parameters are a fixed point of that scaling, so ``_drive``
keeps a flag that they are exactly 0, set on entry and recomputed only when
it scales them, and skips the progress test while it holds: on every
exact-only step, and on every inexact step once ``delta`` has scaled the
parameters to 0. It also states the stop rules and their order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .bodies import ConvexBody, Ellipsoid, InputError, Vector, as_float, check_count, member_vector
from .bodies import _check_type, _inf_dist
from .condg import CondGResult, CondGStop, ForcingParams, condg_project

__all__ = [
    "ForcingSchedule",
    "INEXACT",
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

# Whether each solver function projects set A and set B inexactly, by
# ``condg_project``, which needs a compact set, rather than exactly.
INEXACT = {"acondg1": (True, False), "acondg2": (True, True),
           "averaged_projection": (True, True), "exact_alternating": (False, False)}


@dataclass(frozen=True)
class StoppingConfig:
    """The outer stop tolerances and iteration cap (``_drive`` applies them);
    also the config's ``stopping`` section."""

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


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outer-loop trace of a feasibility run, a frozen value of tuples.

    ``x_trace[k]`` / ``y_trace[k]`` are the iterates after outer iteration
    ``k``; for :func:`acondg1` (and :func:`exact_alternating` without a
    ``y0``) the y-sequence starts at iteration 1, so ``y_trace`` is one entry
    shorter than ``x_trace``. ``violations[k]`` pairs the violation of the
    x-iterate against B with that of the y-iterate against A (``inf`` when
    no y exists yet). For the averaged solver ``x_trace`` holds the averaged
    iterates, ``y_trace`` the B-side anchors, ``anchor_trace`` the A-side
    anchors (``None`` for the other solvers), and the violation pair
    measures the averaged iterate against B and A.

    ``schedule_trace[k]`` holds the forcing parameters of the step that
    produced row ``k`` (row 0: the schedule's initial ones), which change
    only by the driver's progress rule, and ``inner_results[k]`` the
    ``CondGResult`` of each of its inner projections in call order (none on
    row 0 or on an exact step). All four solvers share one driver, which
    builds the report once, at its stop; no row is a caller's array.
    ``outer_iters``, ``inner_iters_per_k``, ``inner_iter_total`` and
    ``inner_cap_iters`` (the rows with an inner loop capped) are read off.
    """

    x_trace: tuple[Vector, ...]
    y_trace: tuple[Vector, ...]
    violations: tuple[tuple[float, float], ...]
    stop_code: StopCode
    schedule_trace: tuple[ForcingParams, ...]
    inner_results: tuple[tuple[CondGResult, ...], ...]
    anchor_trace: tuple[Vector, ...] | None = None

    @property
    def outer_iters(self) -> int:
        return len(self.x_trace) - 1

    @property
    def inner_iters_per_k(self) -> list[int]:
        # ``if row`` builds no generator for the empty rows of exact steps.
        return [sum(r.inner_iters for r in row) if row else 0
                for row in self.inner_results]

    @property
    def inner_iter_total(self) -> int:
        return sum(self.inner_iters_per_k)

    @property
    def inner_cap_iters(self) -> list[int]:
        return [k for k, row in enumerate(self.inner_results)
                if any(r.stop_reason is CondGStop.ITERATION_CAP for r in row)]

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


def check_pair(
    a: ConvexBody,
    b: ConvexBody,
    x0,
    y0,
    inexact: tuple[bool, bool],
    schedule: ForcingSchedule | None = None,
    stop: StoppingConfig = StoppingConfig(),
) -> tuple[Vector, Vector | None, ForcingSchedule, float]:
    """Check a solver's input; return ``x0`` and ``y0`` as new vectors, so
    no report row is the caller's array, its schedule and its convergence
    tolerance.

    ``inexact`` is the solver's :data:`INEXACT` entry; an inexact projection
    needs a compact set (a linear oracle), while every body projects
    exactly. ``x0`` must lie in A and ``y0``, when given, in B; ``y0`` is
    required when B is projected inexactly.

    The number of sets projected inexactly is the forcing regime. With none,
    the solver runs on the constant zero schedule, ignoring ``schedule``, to
    a tolerance of 0.0, an exactly feasible iterate; with one or two,
    ``schedule`` (default ``ForcingSchedule()``) must meet that regime's
    conditions, and the tolerance is ``stop.eps_feas``. A ``schedule`` that
    is no ``ForcingSchedule``, or a ``stop`` no ``StoppingConfig``, is
    refused in every regime.
    """
    _check_type(stop, StoppingConfig, "stop")
    for path, body, approx in (("set_a", a, inexact[0]), ("set_b", b, inexact[1])):
        if approx and not body.is_compact:
            raise InputError(path, "must be compact for an inexact projection")
    if a.dim != b.dim:
        raise InputError("set_b", f"has dimension {b.dim}, set_a has {a.dim}")
    x0 = member_vector(a, x0, "x0").copy()
    if y0 is not None:
        y0 = member_vector(b, y0, "y0").copy()
    elif inexact[1]:
        raise InputError("y0", "is required when set_b is projected inexactly")
    schedule = ForcingSchedule() if schedule is None else schedule
    _check_type(schedule, ForcingSchedule, "schedule")
    regime = sum(inexact)
    if regime == 0:
        return x0, y0, _ZERO_SCHEDULE, 0.0
    gamma, theta, lam = schedule.gamma0, schedule.theta0, schedule.lambda0
    if regime == 1:
        ok, rule = theta < 0.5, "one-set regime requires theta < 1/2"
    else:
        ok = theta < 0.25 and 2.0 * (gamma + theta + lam) < 1.0
        rule = "two-set regime requires theta < 1/4, 2*(gamma + theta + lam) < 1"
    if not (ok and 2.0 * gamma + 4.0 * lam < 1.0):
        raise InputError("schedule", f"{rule} and 2*gamma + 4*lam < 1")
    return x0, y0, schedule, stop.eps_feas


def _measurer(body, inexact):
    """``point -> (violation, projection)`` for one side: one call on a
    side projected exactly, and a projection of None on an inexact side."""
    if inexact:
        return lambda point: (body._violation(point), None)
    return body._violation_project


def _drive(
    first_row: tuple[Vector, Vector | None, tuple[float, float]],
    step: Callable[[ForcingParams], tuple],
    verdict: Callable[[tuple[float, float]], float],
    schedule: ForcingSchedule,
    stop: StoppingConfig,
    feas_tol: float,
) -> SolveReport:
    """The one outer loop, which keeps its rows in five lists and builds the
    report it returns once, at its stop: row 0 is ``first_row`` ``(x, y,
    violations)``, and each later row comes from ``step(params)``, which
    returns ``(x, y, violations, inner_results, moved)``; a ``y`` of None
    adds no y-row. ``params`` are the current forcing parameters, a local
    that starts at the schedule's initial values and that only the progress
    rule changes. ``moved`` is the max-norm distance the step's iterates
    moved (exact when at most ``eps_lack``, and any larger number
    otherwise). ``verdict`` reduces a violation pair to the number the stops
    read. After each step, in this order: a verdict of exactly 0 converges
    (an iterate lies in the other set); ``moved <= eps_lack`` for the second
    step in a row stops for lack of progress; a verdict at most ``feas_tol``
    converges; otherwise the progress rule scales ``params`` by ``delta``
    unless either violation is at most ``tau`` times its value in the
    previous row. A stalled run is thus reported as stalled even when its
    verdict dips under ``feas_tol`` in the same step.
    """
    x, y, prev = first_row
    params = ForcingParams(schedule.gamma0, schedule.theta0, schedule.lambda0)
    xs, ys, viols, param_rows, inner = [x], [] if y is None else [y], [prev], [params], [()]
    add_x, add_y, add_viol, add_params, add_inner = (
        xs.append, ys.append, viols.append, param_rows.append, inner.append)
    eps_lack, tau, delta = stop.eps_lack, schedule.tau, schedule.delta

    def stop_code(params: ForcingParams, prev: tuple[float, float]) -> StopCode:
        """Run the steps, adding each one's row, and return the stop."""
        if verdict(prev) <= feas_tol:
            return StopCode.CONVERGED_FEASIBLE
        zero = params.gamma == params.theta == params.lam == 0.0
        lack_streak = 0
        for _ in range(stop.max_outer_iters):
            x, y, viol, results, moved = step(params)
            add_x(x)
            if y is not None:
                add_y(y)
            add_viol(viol)
            add_params(params)
            add_inner(results)
            v = verdict(viol)
            if v == 0.0:
                return StopCode.CONVERGED_FEASIBLE
            lack_streak = lack_streak + 1 if moved <= eps_lack else 0
            if lack_streak >= 2:
                return StopCode.LACK_OF_PROGRESS
            if v <= feas_tol:
                return StopCode.CONVERGED_FEASIBLE
            if not zero:
                # A non-finite baseline (no iterate yet) shows no progress.
                if not (viol[0] <= tau * prev[0] < math.inf
                        or viol[1] <= tau * prev[1] < math.inf):
                    params = params.scaled(delta)
                    zero = params.gamma == params.theta == params.lam == 0.0
                prev = viol
        return StopCode.ITERATION_CAP

    code = stop_code(params, prev)
    return SolveReport(tuple(xs), tuple(ys), tuple(viols), code, tuple(param_rows), tuple(inner))


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
    projecting inexactly the sets its :data:`INEXACT` entry ``inexact`` names.

    Without ``y0`` the y-sequence starts at iteration 1, and ``moved`` is
    ``inf`` until it has two entries. A y-iterate exactly in A ends the
    step, and so the run, with ``x`` and its violation unchanged.
    """
    x0, y0, schedule, feas_tol = check_pair(a, b, x0, y0, inexact, schedule, stop)
    measure_a, measure_b = _measurer(a, inexact[0]), _measurer(b, inexact[1])
    x, y, eps_lack = x0, y0, stop.eps_lack
    cb_x, y_exact = measure_b(x0)

    def step(params):
        nonlocal x, y, cb_x, y_exact
        # A measurer's projection, on an exact side, is taken as it is; on
        # an inexact side it is None, and condg_project projects.
        y_new, res_b = y_exact, ()
        if y_new is None:
            res_b = (condg_project(b, params, y, x),)
            y_new = res_b[0].w_plus
        ca_y, x_new = measure_a(y_new)
        if ca_y == 0.0:
            return x, y_new, (cb_x, ca_y), res_b, math.inf
        res_a = ()
        if x_new is None:
            res_a = (condg_project(a, params, x, y_new),)
            x_new = res_a[0].w_plus
        # ``_drive`` reads ``moved`` only against eps_lack, so y's distance
        # is needed only when x moved that little.
        moved = math.inf if y is None else _inf_dist(x_new, x)
        if moved <= eps_lack:
            moved = max(moved, _inf_dist(y_new, y))
        x, y = x_new, y_new
        cb_x, y_exact = measure_b(x)
        return x, y, (cb_x, ca_y), res_b + res_a, moved

    ca0 = a._violation(y0) if y0 is not None else math.inf
    first_row = (x0, y0, (cb_x, ca0))
    return _drive(first_row, step, min, schedule, stop, feas_tol)


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
    return _alternate(a, b, x0, None, INEXACT["acondg1"], schedule, stop)


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
    return _alternate(a, b, x0, y0, INEXACT["acondg2"], schedule, stop)


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
    projection outputs; ``anchor_trace`` is added after the run, from each
    row's first inner result.
    """
    inexact = INEXACT["averaged_projection"]
    x0, y0, sched, feas_tol = check_pair(a, b, x0, y0, inexact, schedule, stop)
    z, anchor_a, anchor_b = 0.5 * (x0 + y0), x0, y0

    def step(params):
        nonlocal z, anchor_a, anchor_b
        res = condg_project(a, params, anchor_a, z), condg_project(b, params, anchor_b, z)
        anchor_a, anchor_b = res[0].w_plus, res[1].w_plus
        z_new = 0.5 * (anchor_a + anchor_b)
        moved, z = _inf_dist(z_new, z), z_new
        viol = (b._violation(z), a._violation(z))
        return z, anchor_b, viol, res, moved

    first_row = (z, y0, (b._violation(z), a._violation(z)))
    rep = _drive(first_row, step, max, sched, stop, feas_tol)
    return replace(rep, anchor_trace=(x0, *(row[0].w_plus for row in rep.inner_results[1:])))


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
    if (isinstance(a, Ellipsoid) and a._planar is not None
            and isinstance(b, Ellipsoid) and b._planar is not None):
        return _planar_alternate(a, b, x0, y0, stop)
    return _alternate(a, b, x0, y0, INEXACT["exact_alternating"], None, stop)


def _planar_alternate(
    a: Ellipsoid,
    b: Ellipsoid,
    x_start,
    y_start,
    stop: StoppingConfig,
) -> SolveReport:
    """``_alternate`` with both sets projected exactly, for two 2-D
    ellipsoids, over Python floats: the step carries x, y and the pending
    projection ``q`` of x onto B as floats, calls each body's Newton core on
    them, and builds one array per report row, so it gives ``_alternate``'s
    bits. Without ``y_start`` the y baseline lies at infinity: the first
    step's y distance is then inf, so its ``moved`` exceeds ``eps_lack``, as
    ``_alternate``'s inf does."""
    inexact = INEXACT["exact_alternating"]
    x_start, y_start, schedule, feas_tol = check_pair(
        a, b, x_start, y_start, inexact, None, stop)
    project_a, project_b, eps_lack = a._newton_planar, b._newton_planar, stop.eps_lack
    x0, x1 = x_start.tolist()
    y0, y1 = (math.inf, math.inf) if y_start is None else y_start.tolist()
    cb_x, q0, q1, _ = project_b(x0, x1)

    def step(params):
        nonlocal x0, x1, y0, y1, cb_x, q0, q1
        ca_y, n0, n1, _ = project_a(q0, q1)
        if ca_y == 0.0:
            return np.array((x0, x1)), np.array((q0, q1)), (cb_x, ca_y), (), math.inf
        # ``_inf_dist``'s bits: IEEE subtraction, abs and max of floats.
        moved = max(abs(n0 - x0), abs(n1 - x1))
        if moved <= eps_lack:
            moved = max(moved, abs(q0 - y0), abs(q1 - y1))
        x0, x1, y0, y1 = n0, n1, q0, q1
        cb_x, q0, q1, _ = project_b(n0, n1)
        return np.array((n0, n1)), np.array((y0, y1)), (cb_x, ca_y), (), moved

    ca0 = a._violation(y_start) if y_start is not None else math.inf
    first_row = (x_start, y_start, (cb_x, ca0))
    return _drive(first_row, step, min, schedule, stop, feas_tol)
