"""Slow, independent ground-truth oracles.

These exist to manufacture expected values for tests and cross-checks:
boundary-sampling projection (2-D only), analytic ellipsoid/halfspace
distance via support functions, and a tight-tolerance alternating-projection
distance estimator (any dimension). Solvers never call into this module.
Their settings are module constants: ``brute_project``'s boundary sample
count and golden-section step cap, and the tolerance at which it and
``dist_two_bodies`` stop.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import Ball, Box, ConvexBody, Ellipsoid, Halfspace, Vector, as_vector

__all__ = [
    "brute_project",
    "dist_ellipse_halfspace",
    "dist_two_bodies",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ALTERNATION_CAP = 500_000
_BOUNDARY_SAMPLES = 100_000
_REFINE_ITERS = 200
_TOLERANCE = 1e-12


def _boundary_curve(body: ConvexBody, v: Vector):
    """Return (t_lo, t_hi, curve) parameterizing the body's boundary.

    ``curve`` accepts a scalar parameter or an array of parameters. The
    ellipsoid decomposition is recomputed here so the oracle trusts nothing
    cached inside the body.
    """
    if isinstance(body, Ellipsoid):
        lam, vecs = np.linalg.eigh(body.shape)
        half = vecs @ np.diag(1.0 / np.sqrt(lam)) @ vecs.T

        def curve(t):
            circ = np.stack([np.cos(t), np.sin(t)], axis=-1)
            return body.center + circ @ half.T

        return 0.0, 2.0 * math.pi, curve
    if isinstance(body, Ball):
        c, r = body.center, body.radius

        def curve(t):
            return c + r * np.stack([np.cos(t), np.sin(t)], axis=-1)

        return 0.0, 2.0 * math.pi, curve
    if isinstance(body, Box):
        lo, hi = body.lower, body.upper
        w, h = hi - lo
        # Degenerate edges still need nonzero spans for the parameterization.
        spans = np.maximum(np.array([w, h, w, h]), 1e-300)
        offsets = np.concatenate([[0.0], np.cumsum(spans)])
        corners = np.array(
            [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
        )
        directions = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

        def curve(t):
            t = np.asarray(t, dtype=np.float64) % offsets[-1]
            edge = np.clip(np.searchsorted(offsets, t, side="right") - 1, 0, 3)
            local = t - offsets[edge]
            return corners[edge] + local[..., None] * directions[edge]

        return 0.0, float(offsets[-1]), curve
    if isinstance(body, Halfspace):
        a = body.normal
        foot = v - ((float(a @ v) - body.offset) / float(a @ a)) * a
        tangent = np.array([-a[1], a[0]]) / float(np.linalg.norm(a))
        span = 10.0 * (1.0 + float(np.linalg.norm(v - foot)))

        def curve(t):
            t = np.asarray(t, dtype=np.float64)
            return foot + t[..., None] * tangent

        return -span, span, curve
    raise NotImplementedError(f"no boundary parameterization for {type(body)}")


def brute_project(body: ConvexBody, v) -> Vector:
    """Projection by dense boundary sampling plus golden-section refinement.

    2-D bodies only. Members project to themselves.
    """
    v = as_vector(v, body.dim)
    if body.dim != 2:
        raise NotImplementedError("brute_project supports 2-D bodies only")
    if body.contains(v):
        return v.copy()

    t_lo, t_hi, curve = _boundary_curve(body, v)
    ts = np.linspace(t_lo, t_hi, _BOUNDARY_SAMPLES, endpoint=False)
    dists = np.linalg.norm(curve(ts) - v, axis=-1)
    i = int(np.argmin(dists))
    step = (t_hi - t_lo) / _BOUNDARY_SAMPLES

    # The true minimizer lies within one sample spacing of the best sample;
    # golden-section search needs only unimodality on that bracket.
    lo, hi = float(ts[i]) - step, float(ts[i]) + step
    f = lambda t: float(np.linalg.norm(curve(t) - v))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_REFINE_ITERS):
        if hi - lo <= _TOLERANCE:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return curve(0.5 * (lo + hi))


def dist_ellipse_halfspace(ellipse: Ellipsoid, halfspace: Halfspace) -> float:
    """Euclidean distance between an ellipsoid and a halfspace.

    The nearest face of the halfspace is its boundary hyperplane; the signed
    clearance is the hyperplane distance of the center minus the ellipsoid's
    support radius along the normal.
    """
    a = halfspace.normal
    na = float(np.linalg.norm(a))
    gap = (float(a @ ellipse.center) - halfspace.offset) / na
    radius = math.sqrt(float(a @ np.linalg.solve(ellipse.shape, a)))
    return max(0.0, gap - radius / na)


def _anchor(body: ConvexBody) -> Vector:
    if isinstance(body, (Ellipsoid, Ball)):
        return body.center.copy()
    if isinstance(body, Box):
        return 0.5 * (body.lower + body.upper)
    if isinstance(body, Halfspace):
        return body.project(np.zeros(body.dim))
    raise NotImplementedError(f"no anchor for {type(body)}")


def dist_two_bodies(a: ConvexBody, b: ConvexBody) -> tuple[float, Vector, Vector]:
    """Distance between two bodies via tight exact alternating projections.

    Runs plain alternating exact projections from several deterministic
    starts until both iterates move less than ``_TOLERANCE`` in the max
    norm, and returns the best ``(distance, point_in_a, point_in_b)`` found.
    """
    starts = [_anchor(a), a.project(_anchor(b))]
    best: tuple[float, Vector, Vector] | None = None
    for x in starts:
        y = b.project(x)
        for _ in range(_ALTERNATION_CAP):
            x_new = a.project(y)
            y_new = b.project(x_new)
            moved = max(
                float(np.max(np.abs(x_new - x))), float(np.max(np.abs(y_new - y)))
            )
            x, y = x_new, y_new
            if moved <= _TOLERANCE:
                break
        d = float(np.linalg.norm(x - y))
        if best is None or d < best[0]:
            best = (d, x, y)
    assert best is not None
    return best
