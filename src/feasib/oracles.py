"""Slow, independent ground-truth oracles for tests and cross-checks.

A certified bound on the error of a projection (any dimension), analytic
ellipsoid/halfspace distance via support functions, and a tight-tolerance
distance estimator (any dimension) by one alternation of exact
projections, whose cap and stopping tolerance are module constants.
Solvers never call into this module. The first two read only a body's
defining fields, never its cached frame: ``body.support`` reads only those
(an ellipsoid's makes its own ``eigh``). The estimator alternates the
projections of the bodies' unchecked ``_violation_project``.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import Ball, Box, ConvexBody, Ellipsoid, Halfspace, Vector, _norm, as_vector

__all__ = [
    "dist_ellipse_halfspace",
    "dist_two_bodies",
    "projection_error_bound",
]

_ALTERNATION_CAP = 500_000
_TOLERANCE = 1e-12


def _member(body: ConvexBody, w: Vector) -> Vector:
    """A member near ``w``, from the fields: ``w`` itself, its clip to a box,
    or the boundary point on the ray from the centre through ``w``. The
    ellipsoid gauge is summed in the eigenbasis, as ``d @ shape @ d`` would
    cancel to an error of about eps * cond(shape)."""
    if isinstance(body, Box):
        return np.clip(w, body.lower, body.upper)
    d = w - body.center
    if isinstance(body, Ball):
        s = float(np.linalg.norm(d)) / body.radius
    else:
        lam, vecs = np.linalg.eigh(body.shape)
        s = math.sqrt(float(lam @ (vecs.T @ d) ** 2))
    return w if s <= 1.0 else body.center + d / s


def projection_error_bound(body: ConvexBody, point, w) -> float:
    """An upper bound on ``|w - proj_body(point)|``, in any dimension.

    For a compact body it is the Frank-Wolfe duality-gap certificate
    (Jaggi, ICML 2013): for a member ``m``, ``g = point - m`` and the
    projection ``p*``, ``|m - p*|^2 <= <g, p* - m> <= support(g) - <g, m>``.
    ``m`` is ``w`` or, when ``w`` lies outside (a ``project`` output does so
    only by rounding or its Newton tolerance), a member near it
    (``_member``), and the bound adds ``|w - m|``. For a halfspace it is the
    exact distance. Neither reads a body's cached frame.
    """
    point, w = as_vector(point, body.dim, "point"), as_vector(w, body.dim, "w")
    if isinstance(body, Halfspace):
        a, g = body.normal, point - w
        if float(a @ point) <= body.offset:  # the point is its own projection
            return float(np.linalg.norm(g))
        # p* lies on the boundary and differs from the point along a only.
        na = float(np.linalg.norm(a))
        across = float(np.linalg.norm(g - (float(a @ g) / na**2) * a))
        return math.hypot((float(a @ w) - body.offset) / na, across)
    m = _member(body, w)
    g = point - m
    gap = body.support(g) - float(g @ m)
    return float(np.linalg.norm(w - m)) + math.sqrt(max(0.0, gap))


def dist_ellipse_halfspace(ellipse: Ellipsoid, halfspace: Halfspace) -> float:
    """Euclidean distance between an ellipsoid and a halfspace.

    The nearest face of the halfspace is its boundary hyperplane; the signed
    clearance is the smallest value of ``<normal, z>`` over the ellipsoid
    minus the offset, over the normal's length.
    """
    a = halfspace.normal
    low = -ellipse.support(-a)  # the smallest <a, z> over the ellipsoid
    return max(0.0, (low - halfspace.offset) / float(np.linalg.norm(a)))


def dist_two_bodies(a: ConvexBody, b: ConvexBody) -> tuple[float, Vector, Vector]:
    """Distance between two bodies via tight exact alternating projections.

    One alternation of exact projections, started from ``a``'s projection of
    the origin, stops once both iterates move at most ``_TOLERANCE`` in the
    Euclidean norm, the norm of the distance it returns, so the stop does not
    loosen with the dimension. It returns ``(distance, point_in_a,
    point_in_b)``. When one of two closed convex sets is compact, it reaches
    a nearest pair from any start (Cheney and Goldstein, 1959).
    """
    x = a._violation_project(np.zeros(a.dim))[1]
    y = b._violation_project(x)[1]
    for _ in range(_ALTERNATION_CAP):
        x_new = a._violation_project(y)[1]
        y_new = b._violation_project(x_new)[1]
        moved = max(_norm(x_new - x), _norm(y_new - y))
        x, y = x_new, y_new
        if moved <= _TOLERANCE:
            break
    return float(np.linalg.norm(x - y)), x, y
