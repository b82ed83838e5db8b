"""The paper's four solvers, written from the paper over the public API.

Each inexact projection is Frank-Wolfe in global coordinates: the linear
oracle is ``lo_minimize``, the step an exact line search, and ``phi`` the
tolerance at every iterate. Exact sides call ``project``, and every
violation is ``violation``. The inner safeguards are the package's module
constants; the outer loop's stop rules, their order and the schedule update
are ``solvers._drive``'s, written out again, on the default schedule and
stopping rules. Each solver returns ``(stop letter, min_violation)``. No
frame, plane, tolerance skip or shared exact projection is used, so a test
can hold the package's fast paths against this.
"""

import math

import numpy as np

from feasib import ForcingParams, ForcingSchedule, StoppingConfig, condg

SCHEDULE, STOP = ForcingSchedule(), StoppingConfig()


def frank_wolfe(body, params, anchor, point):
    """A member ``w`` of ``body`` with ``<point - w, z - w> <= phi`` for
    every member ``z``, from ``anchor``, or the inner loop's safeguard stop."""
    w, steps = anchor, 0
    while True:
        g = w - point
        s = body.lo_minimize(g)[0] - w
        gap = -float(g @ s)
        if gap <= condg.phi(params, anchor, point, w) or gap <= condg._DEGENERATE_GAP_TOL:
            return w
        dd = float(s @ s)
        if dd <= condg._DEGENERATE_STEP_SQ or steps >= condg._MAX_INNER_ITERS:
            return w
        w, steps = w + min(1.0, gap / dd) * s, steps + 1


def drive(first, step, verdict, feas_tol):
    """The outer loop, from the violation pair ``first``. After each step, in
    this order: a verdict of 0 converges, a second short move in a row stops
    for lack of progress, and a verdict at most ``feas_tol`` converges; else
    the parameters shrink by ``delta`` unless a violation fell by ``tau``."""
    params = ForcingParams(SCHEDULE.gamma0, SCHEDULE.theta0, SCHEDULE.lambda0)
    viol, lack = first, 0
    if verdict(viol) <= feas_tol:
        return "C", lowest(viol)
    for _ in range(STOP.max_outer_iters):
        prev, (viol, moved) = viol, step(params)
        lack = lack + 1 if moved <= STOP.eps_lack else 0
        if verdict(viol) == 0.0:
            return "C", lowest(viol)
        if lack >= 2:
            return "L", lowest(viol)
        if verdict(viol) <= feas_tol:
            return "C", lowest(viol)
        if not any(v <= SCHEDULE.tau * p < math.inf for v, p in zip(viol, prev)):
            params = params.scaled(SCHEDULE.delta)
    return "I", lowest(viol)


def lowest(viol):
    """The report's ``min_violation``: the smaller finite violation."""
    return min((v for v in viol if math.isfinite(v)), default=math.inf)


def alternate(a, b, x0, y0, inexact):
    """Project x onto B, measure the new y against A, then project y onto A,
    inexactly on the sides ``inexact`` names; ``y0`` may be None."""
    x, y, cb_x = x0, y0, b.violation(x0)

    def project(body, approx, anchor, point, params):
        return frank_wolfe(body, params, anchor, point) if approx else body.project(point)

    def step(params):
        nonlocal x, y, cb_x
        y_new = project(b, inexact[1], y, x, params)
        ca_y = a.violation(y_new)
        if ca_y == 0.0:
            return (cb_x, ca_y), math.inf
        x_new = project(a, inexact[0], x, y_new, params)
        moved = math.inf if y is None else np.abs(np.r_[x_new - x, y_new - y]).max()
        x, y, cb_x = x_new, y_new, b.violation(x_new)
        return (cb_x, ca_y), moved

    first = (cb_x, math.inf if y0 is None else a.violation(y0))
    return drive(first, step, min, STOP.eps_feas if any(inexact) else 0.0)


def averaged(a, b, x0, y0):
    """Project the midpoint onto both sets inexactly, each warm-started at
    its last output, and take the midpoint of the two outputs."""
    z, anchor_a, anchor_b = 0.5 * (x0 + y0), x0, y0

    def step(params):
        nonlocal z, anchor_a, anchor_b
        anchor_a = frank_wolfe(a, params, anchor_a, z)
        anchor_b = frank_wolfe(b, params, anchor_b, z)
        z_old, z = z, 0.5 * (anchor_a + anchor_b)
        return (b.violation(z), a.violation(z)), np.abs(z - z_old).max()

    return drive((b.violation(z), a.violation(z)), step, max, STOP.eps_feas)


# In the paper's order, each called with numpy start points as ``(a, b, x0,
# y0)``. ACondG1 reads no ``y0``; ExactAlt reads it when it is not None.
SOLVERS = {
    "ACondG1": lambda a, b, x0, y0: alternate(a, b, x0, None, (True, False)),
    "ACondG2": lambda a, b, x0, y0: alternate(a, b, x0, y0, (True, True)),
    "Averaged": averaged,
    "ExactAlt": lambda a, b, x0, y0: alternate(a, b, x0, y0, (False, False)),
}
