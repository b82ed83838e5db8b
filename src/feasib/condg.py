"""Frank-Wolfe inner loop computing feasible inexact projections.

``condg_project(body, params, anchor, point)`` returns a member ``w`` of the
body satisfying ``<point - w, z - w> <= phi(params, anchor, point, w)`` for
every member ``z``. With zero forcing parameters the tolerance collapses and
the output is the exact projection of ``point`` up to the degenerate-gap
tolerance. The loop never leaves the body: iterates are convex combinations
of members. Two safeguards outside the method end it too, as module
constants: the iteration cap ``_MAX_INNER_ITERS`` and the degenerate-gap
cutoff ``_DEGENERATE_GAP_TOL``.

The loop runs in the body's own frame (see :mod:`feasib.bodies`), an
isometry in which the linear oracle costs O(n), and maps only its result
back. In the frame, with ``u`` the iterate, ``u_a`` and ``u_p`` the anchor
and the point, and ``z`` the oracle's answer for the gradient ``g = u - u_p``:

* the Frank-Wolfe gap is ``-<g, z - u>``;
* the tolerance is ``gamma*|p - a|^2`` (computed once) ``+ theta*|g|^2 +
  lam*|u - u_a|^2``, which is :func:`phi` at the iterate, since the map
  keeps distances;
* the step is the exact line search ``min(1, gap / |z - u|^2)``.

Most loops end at the cutoff. The anchor and the iterates lie in the body
grown by ``START_TOL``, of diameter ``D = body._diameter``, so with
``|u - u_a| <= D`` and ``|g| <= D + |p - a|`` the tolerance is at most
``gamma*|p - a|^2 + theta*(D + |p - a|)^2 + lam*D^2``. Where that is at most
half the cutoff (``_phi_can_stop``; the half absorbs rounding), no larger gap
meets it, and the loop evaluates it only at gaps up to the cutoff: same bits.

Where the iterates stay in a plane, the loop runs there over Python floats
(``_plane_loop``), in the plane the body gives (``body._fw_plane``):

* a 2-D ellipsoid, the body of every instance in the paper's tables, gives
  its cached frame;
* a ball, in any dimension, gives the plane through its centre spanned by
  the offsets of the anchor and the point. Its oracle ``c - r g/|g|`` points
  along ``g``, and ``g = u - u_p`` starts in that plane, so every step stays
  in it; in the plane the ball is a disk, the ellipse ``l0 = l1 = 1/r^2``,
  which floats hold for every radius in range (``bodies.RANGE``);
* every other body gives None and runs the numpy loop (``_frame_loop``),
  which updates its vectors in place.

Only the result, and each iterate of a kept trace, is mapped back. ``phi``
itself stays as the reference the tests compare against.

``condg_project`` converts the anchor and the point; then whoever maps the
anchor (``_frame_loop``, or the body's ``_fw_plane``) tests that it is a
member, on the coordinates it computes anyway, by the body's own membership
formula: ``_frame_violation`` in the frame, ``Ellipsoid._violation``'s
expression in the 2-D ellipsoid's plane, and the ball's ``|a - c| - r``.
The solvers call ``condg_project`` once or twice per outer step,
warm-started at their last iterate, and the test maps no point into the
frame a second time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    ConvexBody,
    InputError,
    Plane,
    Vector,
    _POINT_RANGE,
    _check_type,
    _vector,
    as_float,
    as_vector,
    check_member,
)

__all__ = [
    "CondGResult",
    "CondGStop",
    "ForcingParams",
    "condg_project",
    "phi",
]

# The inner loop's safeguards: ITERATION_CAP after _MAX_INNER_ITERS steps,
# and DEGENERATE_GAP once the gap is at most _DEGENERATE_GAP_TOL (a gap g puts
# the iterate within sqrt(2 g) of the exact projection). Both kernels copy
# them and _DEGENERATE_STEP_SQ into locals when called.
_MAX_INNER_ITERS = 10_000
_DEGENERATE_GAP_TOL = 1e-11
# A step ``s`` with |s|^2 at most this is too short to move the iterate: the
# loop stops before it with DEGENERATE_GAP, whatever the gap, and returns the
# anchor unchanged when no step was taken. (No division is at stake: the line
# search divides the gap by |s|^2 only when the gap is smaller.)
_DEGENERATE_STEP_SQ = 1e-24


@dataclass(frozen=True)
class ForcingParams:
    """Nonnegative coefficients of the projection error tolerance."""

    gamma: float
    theta: float
    lam: float

    def __post_init__(self):
        for name in ("gamma", "theta", "lam"):
            v = as_float(getattr(self, name), name)
            if v < 0.0:
                raise InputError(name, f"must be >= 0, got {v}")
            object.__setattr__(self, name, v)

    def scaled(self, factor: float) -> "ForcingParams":
        """The parameters times ``factor``, a float in [0, 1]. The products
        of checked nonnegative floats and such a factor are again finite and
        nonnegative, so they skip ``__post_init__``'s checks."""
        if not 0.0 <= factor <= 1.0:
            raise InputError("factor", f"must lie in [0, 1], got {factor}")
        out = object.__new__(ForcingParams)
        out.__dict__.update(
            gamma=self.gamma * factor, theta=self.theta * factor, lam=self.lam * factor
        )
        return out


class CondGStop(enum.Enum):
    TOLERANCE_MET = "tolerance_met"
    DEGENERATE_GAP = "degenerate_gap"
    ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True, eq=False, slots=True)
class CondGResult:
    """Outcome of one inexact projection.

    ``final_gap`` is the last linear-optimality gap, the certified bound on
    ``<point - w_plus, z - w_plus>`` over members ``z``; ``trace`` holds the
    inner iterates when requested. Slotted: a report keeps one per call.
    """

    w_plus: Vector
    inner_iters: int
    final_gap: float
    stop_reason: CondGStop
    trace: list[Vector] | None = None


def phi(params: ForcingParams, anchor, point, candidate) -> float:
    """Error tolerance ``gamma*|point-anchor|^2 + theta*|candidate-point|^2
    + lam*|candidate-anchor|^2``."""
    anchor = np.asarray(anchor, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    d_pa = point - anchor
    d_cp = candidate - point
    d_ca = candidate - anchor
    return float(
        params.gamma * (d_pa @ d_pa)
        + params.theta * (d_cp @ d_cp)
        + params.lam * (d_ca @ d_ca)
    )


def condg_project(
    body: ConvexBody,
    params: ForcingParams,
    anchor,
    point,
    keep_trace: bool = False,
) -> CondGResult:
    """Project ``point`` onto ``body`` inexactly, warm-started at ``anchor``.

    Parameters
    ----------
    body : compact ConvexBody with a linear minimization oracle.
    params : ForcingParams, the forcing coefficients; all zero projects exactly.
    anchor : member of the body (violation <= ``START_TOL``), the warm start
        and the reference point of the tolerance. A non-member raises
        InputError at ``anchor``; it is tested in the body's frame or plane.
    point : the point being projected, with entries within
        +-``bodies.RANGE**2``: ACondG1 passes the exact projection of a
        member of set A onto set B, which may leave +-``bodies.RANGE``.
    keep_trace : record every inner iterate in the result.

    Returns
    -------
    CondGResult with ``w_plus`` a member of the body. ``ITERATION_CAP``
    signals that the tolerance was not certified within ``_MAX_INNER_ITERS``
    steps; the point is still feasible.
    """
    if not body.is_compact:
        raise body._no_oracle()
    _check_type(params, ForcingParams, "params")
    anchor = as_vector(anchor, body.dim, "anchor")
    point = _vector(point, body.dim, "point", _POINT_RANGE)
    plane = body._fw_plane(anchor, point)
    if plane is None:
        return _frame_loop(body, params, anchor, point, keep_trace)
    return _plane_loop(plane, params, anchor, body._diameter, keep_trace)


def _phi_can_stop(params: ForcingParams, pa_sq: float, diam: float) -> bool:
    """Whether the module docstring's bound exceeds half the cutoff."""
    reach = diam + math.sqrt(pa_sq)
    bound = params.gamma * pa_sq + params.theta * reach * reach + params.lam * diam * diam
    return not bound <= 0.5 * _DEGENERATE_GAP_TOL


# Both kernels stop on the same rules in the same order: tolerance met,
# degenerate gap, degenerate step, iteration cap. When no step was taken the
# result is a copy of the anchor, not its round trip through the frame.


def _frame_loop(
    body: ConvexBody,
    params: ForcingParams,
    anchor: Vector,
    point: Vector,
    keep_trace: bool,
) -> CondGResult:
    """Frank-Wolfe in the frame of any compact body, with numpy vectors
    updated in place. It takes finite arrays of the body's dimension and
    tests the anchor's membership in the frame."""
    to_global, frame_lo = body._from_frame, body._frame_lo
    u_a = body._to_frame(anchor)
    check_member(body._frame_violation(u_a), "anchor")
    u_p = body._to_frame(point)
    d = point - anchor
    pa_sq = float(d.dot(d))
    base, theta, lam = params.gamma * pa_sq, params.theta, params.lam
    gap_tol, cap, step_sq = _DEGENERATE_GAP_TOL, _MAX_INNER_ITERS, _DEGENERATE_STEP_SQ
    phi_can_stop = _phi_can_stop(params, pa_sq, body._diameter)
    trace = [anchor.copy()] if keep_trace else None
    u, g = u_a.copy(), np.empty_like(u_a)
    ell = 0
    while True:
        np.subtract(u, u_p, out=g)
        s = frame_lo(g)
        s -= u
        gap = -float(g.dot(s))
        if phi_can_stop or gap <= gap_tol:
            e = u - u_a
            if gap <= base + theta * float(g.dot(g)) + lam * float(e.dot(e)):
                stop = CondGStop.TOLERANCE_MET
                break
            if gap <= gap_tol:
                stop = CondGStop.DEGENERATE_GAP
                break
        dd = float(s.dot(s))
        if dd <= step_sq:
            stop = CondGStop.DEGENERATE_GAP
            break
        if ell >= cap:
            stop = CondGStop.ITERATION_CAP
            break
        s *= gap / dd if gap < dd else 1.0
        u += s
        ell += 1
        if trace is not None:
            trace.append(to_global(u))
    w = anchor.copy() if ell == 0 else to_global(u)
    return CondGResult(w, ell, gap, stop, trace)


def _plane_loop(
    plane: Plane,
    params: ForcingParams,
    anchor: Vector,
    diameter: float,
    keep_trace: bool,
) -> CondGResult:
    """``_frame_loop`` in the plane of the call, over Python floats.

    ``plane`` is ``body._fw_plane(anchor, point)``, which has tested the
    anchor. The oracle is ``Ellipsoid._frame_lo`` on the ellipse
    ``l0 u0^2 + l1 u1^2 <= 1``, written out per coordinate.
    """
    ua0, ua1, up0, up1, pa_sq, l0, l1, to_global = plane
    base, theta, lam, sqrt = params.gamma * pa_sq, params.theta, params.lam, math.sqrt
    gap_tol, cap, step_sq = _DEGENERATE_GAP_TOL, _MAX_INNER_ITERS, _DEGENERATE_STEP_SQ
    phi_can_stop = _phi_can_stop(params, pa_sq, diameter)
    trace = [anchor.copy()] if keep_trace else None
    u0, u1 = ua0, ua1
    ell = 0
    while True:
        g0, g1 = u0 - up0, u1 - up1
        w0, w1 = g0 / l0, g1 / l1
        q = g0 * w0 + g1 * w1
        if q == 0.0:
            s0, s1 = -u0, -u1
        else:
            r = -1.0 / sqrt(q)
            s0, s1 = w0 * r - u0, w1 * r - u1
        gap = -(g0 * s0 + g1 * s1)
        if phi_can_stop or gap <= gap_tol:
            e0, e1 = u0 - ua0, u1 - ua1
            if gap <= base + theta * (g0 * g0 + g1 * g1) + lam * (e0 * e0 + e1 * e1):
                stop = CondGStop.TOLERANCE_MET
                break
            if gap <= gap_tol:
                stop = CondGStop.DEGENERATE_GAP
                break
        dd = s0 * s0 + s1 * s1
        if dd <= step_sq:
            stop = CondGStop.DEGENERATE_GAP
            break
        if ell >= cap:
            stop = CondGStop.ITERATION_CAP
            break
        t = gap / dd if gap < dd else 1.0
        u0, u1 = u0 + t * s0, u1 + t * s1
        ell += 1
        if trace is not None:
            trace.append(to_global(u0, u1))
    w = anchor.copy() if ell == 0 else to_global(u0, u1)
    return CondGResult(w, ell, gap, stop, trace)
