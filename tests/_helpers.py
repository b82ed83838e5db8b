"""Shared bodies for the test suite: the paper's table bodies, random
instance generators and a reference alternation."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from feasib import (
    START_TOL,
    Ball,
    Box,
    Ellipsoid,
    Halfspace,
    InputError,
    StoppingConfig,
    condg,
    solvers,
)

# The range refusals (``feasib.RANGE``): of a vector entry, of an entry of
# ``condg_project``'s point, which may lie within +-RANGE**2, and of a length
# (a radius, a semi-axis or |normal|), whose message names the value.
VECTOR_RANGE = "vector entries must lie in [-2^128, 2^128]"
POINT_RANGE = "vector entries must lie in [-2^256, 2^256]"


def length_range(x, name=""):
    return f"{name}must lie in [2^-64, 2^64], got {x}"


def assert_refused(call, path, message):
    """``call()`` raises InputError at ``path`` with ``message``."""
    with pytest.raises(InputError) as err:
        call()
    assert (err.value.path, err.value.message) == (path, message)


# The paper's table bodies: set A of both tables, whose extent along x1 is
# SQRT_202; table 1's set B, x1 >= beta; table 2's set B, centred at (c1, 0.5).
SQRT_202 = math.sqrt(2.02)


def slim_ellipse():
    return Ellipsoid.from_axes([0.0, 0.0], -math.pi / 4.0, (2.0, 0.2))


def halfspace_at(beta):
    return Halfspace(normal=[-1.0, 0.0], offset=-beta)


def second_ellipse(c1):
    return Ellipsoid.from_axes([c1, 0.5], math.pi / 3.0, (2.0, 0.4))


def unit_disk():
    return Ellipsoid(center=np.zeros(2), shape=np.eye(2))


def boundary_point(e, u):
    """The point of ellipsoid ``e``'s boundary in unit-quadratic coordinates
    along the unit vector ``u``: ``c + V diag(lam)^(-1/2) V^T u``."""
    return e._from_frame((e._eigvecs.T @ u) / np.sqrt(e._eigvals))


def inner_limits(cap=condg._MAX_INNER_ITERS, gap_tol=condg._DEGENERATE_GAP_TOL):
    """Patch setting the inner loop's iteration cap and degenerate-gap
    cutoff, as a context manager or a test decorator."""
    return mock.patch.multiple(condg, _MAX_INNER_ITERS=cap, _DEGENERATE_GAP_TOL=gap_tol)


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def random_ellipsoid(rng, dim=2, axes=(0.5, 2.0), center_scale=3.0):
    rot = random_rotation(rng, dim)
    semi = rng.uniform(*axes, size=dim)
    shape = rot @ np.diag(1.0 / semi**2) @ rot.T
    return Ellipsoid(center=rng.uniform(-center_scale, center_scale, dim), shape=shape)


def ill_conditioned_ellipsoid(rng, dim, cond=1e8, center_scale=3.0):
    """Random ellipsoid whose shape matrix has condition number ``cond``:
    semi-axes log-uniform in ``[1/sqrt(cond), 1]``, both ends attained."""
    logs = rng.uniform(-0.5 * math.log10(cond), 0.0, size=dim)
    logs[0], logs[-1] = -0.5 * math.log10(cond), 0.0
    semi = 10.0**logs
    rot = random_rotation(rng, dim)
    shape = rot @ np.diag(1.0 / semi**2) @ rot.T
    return Ellipsoid(center=rng.uniform(-center_scale, center_scale, dim), shape=shape)


def random_ball(rng, dim=2, center_scale=3.0):
    return Ball(
        center=rng.uniform(-center_scale, center_scale, dim),
        radius=rng.uniform(0.5, 2.0),
    )


def random_box(rng, dim=2, center_scale=3.0):
    center = rng.uniform(-center_scale, center_scale, dim)
    span = rng.uniform(0.2, 1.5, dim)
    return Box(lower=center - span, upper=center + span)


def random_halfspace(rng, dim=2):
    normal = rng.normal(size=dim)
    while not np.any(normal):
        normal = rng.normal(size=dim)
    return Halfspace(normal=normal, offset=rng.uniform(-2.0, 2.0))


_COMPACT = ("ellipsoid", "ball", "box")


def random_compact_body(rng, dim=2, kinds=_COMPACT):
    kind = kinds[rng.integers(len(kinds))]
    if kind == "ellipsoid":
        return random_ellipsoid(rng, dim)
    if kind == "ball":
        return random_ball(rng, dim)
    return random_box(rng, dim)


def random_body(rng, dim=2):
    if rng.uniform() < 0.25:
        return random_halfspace(rng, dim)
    return random_compact_body(rng, dim)


def sample_members(body, rng, n):
    """Draw ``n`` points of the body (uniform-ish, exact members)."""
    dim = body.dim
    if isinstance(body, Ellipsoid):
        u = rng.normal(size=(n, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(size=(n, 1)) ** (1.0 / dim)
        lam, vecs = np.linalg.eigh(body.shape)
        half = vecs @ np.diag(1.0 / np.sqrt(lam)) @ vecs.T
        return body.center + r * (u @ half.T)
    if isinstance(body, Ball):
        u = rng.normal(size=(n, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(size=(n, 1)) ** (1.0 / dim)
        return body.center + body.radius * r * u
    if isinstance(body, Box):
        return rng.uniform(body.lower, body.upper, size=(n, dim))
    if isinstance(body, Halfspace):
        pts = rng.uniform(-4.0, 4.0, size=(n, dim))
        a = np.asarray(body.normal)
        excess = np.maximum(0.0, pts @ a - body.offset) / float(a @ a)
        feet = pts - excess[:, None] * a
        depth = rng.uniform(0.0, 3.0, size=(n, 1))
        return feet - depth * (a / np.linalg.norm(a))
    raise TypeError(type(body))


def diameter(body):
    """Euclidean diameter from the body's geometry."""
    if isinstance(body, Ellipsoid):
        lam = np.linalg.eigvalsh(body.shape)
        return 2.0 / math.sqrt(float(lam[0]))
    if isinstance(body, Ball):
        return 2.0 * body.radius
    if isinstance(body, Box):
        return float(np.linalg.norm(body.upper - body.lower))
    raise TypeError(type(body))


def foot_tol(body):
    """Relative rounding floor of a boundary point and outward normal built
    from an ellipsoid's ``shape`` matrix: ``START_TOL``, or about
    eps*cond(shape) when that is larger (9e-8 at cond 1e8). The shape
    entries carry rounding of about eps*|shape|, while the projection works
    from the eigendecomposition, so a foot and normal built from ``shape``
    place the exact projection only to within this share of the scale."""
    if not isinstance(body, Ellipsoid):
        return START_TOL
    return max(START_TOL, 4.0 * np.finfo(float).eps * np.linalg.cond(body.shape))


def containing_body(rng, point, kind, dim=2):
    """Random body of the given kind containing ``point`` with margin."""
    point = np.asarray(point, dtype=np.float64)
    if kind == "ellipsoid":
        body = random_ellipsoid(rng, dim, center_scale=1.5)
        gap = float((point - body.center) @ (body.shape @ (point - body.center)))
        if gap > 0.8:
            body = Ellipsoid(center=body.center, shape=body.shape * (0.8 / gap))
        return body
    if kind == "ball":
        center = point + rng.uniform(-1.0, 1.0, dim)
        return Ball(center=center, radius=float(np.linalg.norm(point - center)) + rng.uniform(0.3, 1.5))
    if kind == "box":
        return Box(
            lower=point - rng.uniform(0.2, 2.0, dim),
            upper=point + rng.uniform(0.2, 2.0, dim),
        )
    if kind == "halfspace":
        normal = rng.normal(size=dim)
        while not np.any(normal):
            normal = rng.normal(size=dim)
        return Halfspace(
            normal=normal, offset=float(normal @ point) + rng.uniform(0.2, 1.5)
        )
    raise ValueError(kind)


def reference_alternate(a, b, x0, y0, inexact, schedule=None, stop=StoppingConfig()):
    """``solvers._alternate`` with the step measuring and projecting each
    point by two calls, ``_violation`` and then ``_violation_project``,
    each mapping the point into the body's frame; the loop around the step
    is the solvers' own ``_drive``."""
    x0, y0, schedule, feas_tol = solvers.check_pair(a, b, x0, y0, inexact, schedule, stop)

    def project(body, approx, anchor, point, params):
        if not approx:
            return body._violation_project(point)[1], ()
        res = condg.condg_project(body, params, anchor, point)
        return res.w_plus, (res,)

    x, y, cb_x = x0, y0, b._violation(x0)

    def step(params):
        nonlocal x, y, cb_x
        y_new, res_b = project(b, inexact[1], y, x, params)
        ca_y = a._violation(y_new)
        if ca_y == 0.0:
            return x, y_new, (cb_x, ca_y), res_b, math.inf
        x_new, res_a = project(a, inexact[0], x, y_new, params)
        moved = math.inf
        if y is not None:
            moved = max(solvers._inf_norm(x_new - x), solvers._inf_norm(y_new - y))
        x, y, cb_x = x_new, y_new, b._violation(x_new)
        return x, y, (cb_x, ca_y), res_b + res_a, moved

    ca0 = a._violation(y0) if y0 is not None else math.inf
    return solvers._drive((x0, y0, (cb_x, ca0)), step, min, schedule, stop, feas_tol)
