"""The float range (``feasib.RANGE``): every call either meets its contract
or refuses an argument beyond the range, naming it; and the solvers, run on
bodies built at the range's corners, keep every iterate finite.

Warnings are errors in this directory (see ``conftest.py``), so an overflow
that numpy reports fails a test even where its result would pass.
"""

import itertools
import math

import numpy as np
import pytest

from feasib import (
    RANGE,
    START_TOL,
    Ball,
    Box,
    CondGStop,
    Ellipsoid,
    ForcingParams,
    ForcingSchedule,
    Halfspace,
    InputError,
    StoppingConfig,
    acondg1,
    acondg2,
    averaged_projection,
    condg_project,
    exact_alternating,
    phi,
    projection_error_bound,
)

from _helpers import inner_limits, random_rotation

EXACT = ForcingParams(0.0, 0.0, 0.0)
_DEFAULT = ForcingSchedule()
DEFAULT = ForcingParams(_DEFAULT.gamma0, _DEFAULT.theta0, _DEFAULT.lambda0)
DIMS = (2, 3, 16)
# 1e-300 to 1e300, then the range's edge and twice it.
MAGNITUDES = [10.0**k for k in range(-300, 301, 25)] + [RANGE, 2.0 * RANGE]
# Rounding slack of the certificates, relative to the scale of their inner
# products, as in test_condg.py.
CERT_RTOL = 1e-9


def unit_bodies(n):
    """One body of each kind near the origin, of unit size."""
    rng = np.random.default_rng(n)
    rot = random_rotation(rng, n)
    axes = rng.uniform(0.5, 2.0, n)
    return {
        "halfspace": Halfspace(normal=rng.normal(size=n), offset=0.5),
        "ball": Ball(center=rng.uniform(-0.5, 0.5, n), radius=1.0),
        "box": Box(lower=-rng.uniform(0.5, 1.5, n), upper=rng.uniform(0.5, 1.5, n)),
        "ellipsoid": Ellipsoid(
            center=rng.uniform(-0.5, 0.5, n), shape=rot @ np.diag(axes**-2.0) @ rot.T
        ),
    }


def norm(v):
    """|v|, exact for vectors whose squares underflow (numpy's norm is not)."""
    return math.hypot(*v)


def diameter(body):
    if isinstance(body, Ball):
        return 2.0 * body.radius
    if isinstance(body, Box):
        return float(np.linalg.norm(body.upper - body.lower))
    return 2.0 / math.sqrt(float(np.linalg.eigvalsh(body.shape)[0]))


def outcome(call, path, x, bound=RANGE):
    """``call()``, which must raise InputError at ``path`` exactly when an
    entry of ``x`` lies beyond +-``bound``; None when it does."""
    if np.max(np.abs(x)) > bound:
        with pytest.raises(InputError) as err:
            call()
        assert err.value.path == path
        return None
    return call()


def check_projection(body, v, w):
    assert np.all(np.isfinite(w))
    assert body.violation(w) <= START_TOL
    assert projection_error_bound(body, v, w) <= 1e-6 * max(1.0, norm(v))


def check_oracle(body, c, z, value):
    assert np.all(np.isfinite(z))
    assert body.violation(z) <= START_TOL
    assert value == float(c @ z)
    scale = norm(c) * (norm(z) + diameter(body))
    assert abs(body.support(-c) + value) <= 1e-12 * scale


def check_inexact_projection(body, params, anchor, point, res):
    w = res.w_plus
    assert np.all(np.isfinite(w))
    assert body.violation(w) <= START_TOL
    r = point - w
    d = diameter(body)
    slack = CERT_RTOL * (norm(r) + d) * (norm(w) + d)
    # r may lie beyond the range (so may the point); support is homogeneous.
    e = max(0, math.frexp(np.max(np.abs(r)))[1] - 64)
    gap = math.ldexp(body.support(np.ldexp(r, -e)), e) - float(r @ w)
    assert abs(res.final_gap - gap) <= slack
    if res.stop_reason is CondGStop.TOLERANCE_MET:
        assert res.final_gap <= phi(params, anchor, point, w) + slack


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", ["halfspace", "ball", "box", "ellipsoid"])
def test_every_call_meets_its_contract_or_names_a_refused_argument(kind, n):
    body = unit_bodies(n)[kind]
    rng = np.random.default_rng(100 + n)
    d = rng.normal(size=n)
    for m, sign in itertools.product(MAGNITUDES, (1.0, -1.0)):
        x = sign * m * d
        v = outcome(lambda: body.violation(x), "z", x)
        if v is not None:
            assert math.isfinite(v) and v >= 0.0
        w = outcome(lambda: body.project(x), "v", x)
        if w is not None:
            check_projection(body, x, w)
        if not body.is_compact:
            continue
        zv = outcome(lambda: body.lo_minimize(x), "c", x)
        if zv is not None:
            check_oracle(body, x, *zv)
        h = outcome(lambda: body.support(x), "c", x)
        if h is not None:
            assert math.isfinite(h)
        for anchor in (body.lo_minimize(d)[0], body.lo_minimize(-d)[0]):
            for params in (EXACT, DEFAULT):
                res = outcome(lambda: condg_project(body, params, anchor, x), "point", x,
                              bound=RANGE**2)
                if res is not None:
                    check_inexact_projection(body, params, anchor, x, res)


@pytest.mark.parametrize("n", DIMS)
def test_inexact_projection_of_a_point_beyond_the_range(n):
    # ACondG1 passes condg_project the exact projection of a member of A
    # onto B, which may leave +-RANGE; its point may lie within +-RANGE**2.
    rng = np.random.default_rng(200 + n)
    for kind in ("ball", "box", "ellipsoid"):
        body = unit_bodies(n)[kind]
        anchor = body.lo_minimize(rng.normal(size=n))[0]
        for m in (2.0 * RANGE, 2.0**200, RANGE**2):
            point = m * rng.uniform(-1.0, 1.0, n)
            for params in (EXACT, DEFAULT):
                res = condg_project(body, params, anchor, point)
                check_inexact_projection(body, params, anchor, point, res)


@pytest.mark.parametrize("n", DIMS)
def test_a_ball_reads_tiny_offsets_from_its_centre(n):
    # Offsets whose squares fall below the normal floats are in range: the
    # ball's norm rescales them, or its plane would read a point 1e-160 from
    # the centre along a wrong axis and certify a wrong gap.
    rng = np.random.default_rng(300 + n)
    body = Ball(center=np.zeros(n), radius=2.0**-64)
    for k in range(-175, -149):
        d = rng.normal(size=n)
        point = 10.0**k * d
        assert body.violation(point) == 0.0
        assert np.array_equal(body.project(point), point)
        for anchor in (body.lo_minimize(d)[0], body.lo_minimize(-d)[0]):
            for params in (EXACT, DEFAULT):
                res = condg_project(body, params, anchor, point)
                check_inexact_projection(body, params, anchor, point, res)


# Far inputs that would return a wrong point or warn if they entered, each
# with the argument that refuses them.
OPEN_INPUTS = {
    "halfspace-projection": (
        lambda: Halfspace(normal=[1.0, 1.0], offset=0.0).project([1e308, 1e308]), "v"),
    "condg-far-point": (
        lambda: condg_project(Ellipsoid(center=[0.0, 0.0], shape=np.diag([1.0, 4.0])),
                              EXACT, [0.0, 0.5], [1e200, 1e200]), "point"),
    "semi-axes-1e78": (
        lambda: condg_project(Ellipsoid.from_axes([0.0, 0.0], 0.0, (1e78, 1e78)),
                              EXACT, [1e78, 0.0], [3e77, 4e77]), "semi_axes"),
    "ball-far-point": (
        lambda: condg_project(Ball(center=[0.0, 0.0], radius=1.0), EXACT, [1.0, 0.0],
                              [1e160, 1e160]), "point"),
    "ellipsoid-3d-newton": (
        lambda: Ellipsoid(center=np.zeros(3), shape=np.diag([1.0, 4.0, 9.0])).project(
            [1e154] * 3), "v"),
    "ball-far-centre": (
        lambda: Ball(center=[-1e308, 0.0], radius=1.0).project([1e308, 0.0]), "center"),
}


@pytest.mark.parametrize("case", OPEN_INPUTS)
def test_far_inputs_are_refused_where_they_enter(case):
    call, path = OPEN_INPUTS[case]
    with pytest.raises(InputError) as err:
        call()
    assert err.value.path == path


# Each builds a body from a number m, which it accepts exactly in range: a
# coordinate or an offset within +-RANGE, a shape eigenvalue in
# [RANGE**-1, RANGE] (its semi-axis in [2^-64, 2^64]).
BUILDERS = {
    "ball-center": (lambda n, m: Ball(center=np.full(n, m), radius=1.0), "center",
                    lambda m: m <= RANGE),
    "box-lower": (lambda n, m: Box(lower=np.full(n, -m), upper=np.full(n, RANGE)),
                  "lower", lambda m: m <= RANGE),
    "halfspace-offset": (lambda n, m: Halfspace(normal=np.ones(n), offset=-m), "offset",
                         lambda m: m <= RANGE),
    "ellipsoid-shape": (lambda n, m: Ellipsoid(center=np.zeros(n), shape=np.eye(n) * m),
                        "shape", lambda m: 1.0 / RANGE <= m <= RANGE),
}


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("field", BUILDERS)
def test_a_body_is_built_exactly_when_its_numbers_lie_in_range(field, n):
    build, path, accepted = BUILDERS[field]
    for m in MAGNITUDES:
        if accepted(m):
            assert math.isfinite(build(n, m).violation(np.zeros(n)))
            continue
        with pytest.raises(InputError) as err:
            build(n, m)
        assert err.value.path == path


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ("ball", "ellipsoid", "halfspace") for n in DIMS]
    + [("from_axes", 2)],
)
def test_a_length_is_accepted_exactly_within_its_bounds(kind, n):
    build = {
        "ball": (lambda r: Ball(center=np.zeros(n), radius=r), "radius"),
        "ellipsoid": (lambda r: Ellipsoid(center=np.zeros(n), shape=np.eye(n) / r**2),
                      "shape"),
        "from_axes": (lambda r: Ellipsoid.from_axes([0.0, 0.0], 0.3, (r, r)), "semi_axes"),
        "halfspace": (lambda r: Halfspace(normal=np.full(n, r / math.sqrt(n)), offset=0.0),
                      "normal"),
    }[kind]
    for r in [10.0**k for k in range(-30, 31, 3)] + [2.0**-64, 2.0**64, 2.0**-65, 2.0**65]:
        if 2.0**-64 <= r <= 2.0**64:
            build[0](r)
            continue
        with pytest.raises(InputError) as err:
            build[0](r)
        assert err.value.path == build[1]


def corner_bodies(n, sign, length):
    """Bodies at a corner of the range: centres and offsets at +-RANGE, and
    each length at ``length``, a bound of [2^-64, 2^64]."""
    center = np.full(n, sign * RANGE)
    rot = random_rotation(np.random.default_rng(n), n)
    if n == 2:
        rotated = Ellipsoid.from_axes(center, 0.3, (length, length))
    else:
        rotated = Ellipsoid(center=center, shape=rot @ np.diag(np.full(n, length**-2.0)) @ rot.T)
    return {
        "ball": Ball(center=center, radius=length),
        "ellipsoid": Ellipsoid(center=center, shape=np.eye(n) / length**2),
        "ellipsoid-rotated": rotated,
        "box": Box(lower=center - length, upper=center + length),
        "box-of-the-range": Box(lower=np.full(n, -RANGE), upper=np.full(n, RANGE)),
        "halfspace": Halfspace(normal=rot[0] * length, offset=sign * RANGE),
    }


def corner_runs(n):
    """``(label, run)`` for every solver on pairs of corner bodies; ACondG2
    and Averaged need a compact pair."""
    stop = StoppingConfig(max_outer_iters=300)
    lengths = (2.0**-64, 2.0**64)
    for (sa, sb), la, lb in itertools.product(((1.0, -1.0), (1.0, 1.0)), lengths, lengths):
        bodies_a, bodies_b = corner_bodies(n, sa, la), corner_bodies(n, sb, lb)
        for (ka, a), (kb, b) in itertools.product(bodies_a.items(), bodies_b.items()):
            if not a.is_compact:
                continue
            label = f"{ka}@{sa:+g},{la:g} {kb}@{sb:+g},{lb:g}"
            x0 = a.lo_minimize(np.ones(n))[0]
            yield f"ExactAlt {label}", lambda a=a, b=b, x0=x0: exact_alternating(a, b, x0, stop)
            yield f"ACondG1 {label}", lambda a=a, b=b, x0=x0: acondg1(a, b, x0, stop=stop)
            if b.is_compact:
                y0 = b.lo_minimize(-np.ones(n))[0]
                yield f"ACondG2 {label}", lambda a=a, b=b, x0=x0, y0=y0: acondg2(
                    a, b, x0, y0, stop=stop)
                yield f"Averaged {label}", lambda a=a, b=b, x0=x0, y0=y0: averaged_projection(
                    a, b, x0, y0, stop=stop)


@pytest.mark.parametrize("n", DIMS)
@inner_limits(cap=100)
def test_solvers_at_the_corners_of_the_range_stay_finite(n):
    # The proof that the loop needs no finiteness check of its own: every
    # iterate and every violation is finite; a violation is inf only in row
    # 0, where no y exists yet. The cap only bounds the run time: against
    # the box of the whole range the absolute gap cutoff lies far below the
    # rounding of the iterates, so those inner loops end at the cap.
    runs = 0
    for label, run in corner_runs(n):
        report = run()
        for k, (x, viol) in enumerate(zip(report.x_trace, report.violations)):
            assert np.all(np.isfinite(x)), (label, k)
            assert all(math.isfinite(v) or (k == 0 and v == math.inf) for v in viol), (label, k)
        assert all(np.all(np.isfinite(y)) for y in report.y_trace), label
        runs += 1
    assert runs == 880
