import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feasib import (
    Ball,
    Box,
    CondGStop,
    Ellipsoid,
    ForcingParams,
    ForcingSchedule,
    Halfspace,
    InputError,
    RANGE,
    START_TOL,
    UnsupportedOracleError,
    condg,
    condg_project,
    phi,
)
from feasib.condg import _frame_loop

from _helpers import (
    POINT_RANGE,
    VECTOR_RANGE,
    assert_refused,
    boundary_point,
    diameter,
    ill_conditioned_ellipsoid,
    inner_limits,
    length_range,
    random_ball,
    random_compact_body,
    sample_members,
    unit_disk,
)

EXACT = ForcingParams(0.0, 0.0, 0.0)
TIGHT_GAP = 1e-14


def psi(z, v):
    d = np.asarray(z) - np.asarray(v)
    return 0.5 * float(d @ d)


CERT_DIMS = (2, 3, 16, 50)
CERT_KINDS = ("ball", "box", "ellipsoid", "ill_conditioned")
# Rounding slack of the certificate checks, relative to the scale
# (|v - w| + D) * (|w| + D) of the inner products involved, D the diameter.
CERT_RTOL = 1e-9


def certificate_case(rng, dim, kind):
    """A body, a member anchor and a point within about a diameter of it, so
    that the loop has to run rather than stop on a far point's large
    tolerance."""
    if kind == "ill_conditioned":
        body = ill_conditioned_ellipsoid(rng, dim, cond=1e8)
    else:
        body = random_compact_body(rng, dim, kinds=(kind,))
    u = sample_members(body, rng, 1)[0]
    v = u + rng.normal(size=dim) * (diameter(body) / math.sqrt(dim))
    return body, u, v


def check_certificate(body, params, u, v, res):
    """The exact Frank-Wolfe certificate of a result, recomputed in global
    coordinates: ``final_gap = support(v - w) - <v - w, w>`` bounds
    ``<v - w, z - w>`` over all members ``z``; on ``TOLERANCE_MET`` it is at
    most ``phi``; and ``w`` is a member to ``START_TOL``."""
    w = res.w_plus
    r = v - w
    d = diameter(body)
    slack = CERT_RTOL * (np.linalg.norm(r) + d) * (np.linalg.norm(w) + d)
    gap = body.support(r) - float(r @ w)
    assert abs(res.final_gap - gap) <= slack, (res.final_gap, gap)
    if res.stop_reason is CondGStop.TOLERANCE_MET:
        assert res.final_gap <= phi(params, u, v, w) + slack
    assert body.violation(w) <= START_TOL


class TestPhi:
    def test_zero_params_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            u, v, w = rng.normal(size=(3, 4))
            assert phi(EXACT, u, v, w) == 0.0

    def test_direct_evaluation(self):
        val = phi(ForcingParams(1.0, 1.0, 1.0), [0.0, 0.0], [1.0, 0.0], [1.0, 1.0])
        assert val == pytest.approx(4.0)

    def test_coincident_points(self):
        p = ForcingParams(0.1, 0.2, 0.2)
        u = np.array([0.3, -0.7])
        assert phi(p, u, u, u) == 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ForcingParams(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            ForcingParams(0.0, math.nan, 0.0)

    def test_scaled_matches_the_checked_constructor_bitwise(self):
        # scaled skips the constructor's checks; its value must not differ.
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = 10.0 ** rng.uniform(-300.0, 0.0, 3)
            values[rng.integers(3)] = 0.0
            p, factor = ForcingParams(*values), float(rng.uniform(0.0, 1.0))
            got = p.scaled(factor)
            ref = ForcingParams(p.gamma * factor, p.theta * factor, p.lam * factor)
            assert got == ref and hash(got) == hash(ref)
            fields = ("gamma", "theta", "lam")
            assert all(type(getattr(got, f)) is float for f in fields)
            assert [getattr(got, f).hex() for f in fields] == [
                getattr(ref, f).hex() for f in fields
            ]
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.gamma = 1.0


class TestCondGBasics:
    @inner_limits(gap_tol=TIGHT_GAP)
    def test_interior_point_projects_to_itself(self):
        res = condg_project(unit_disk(), EXACT, [1.0, 0.0], [0.5, 0.0])
        assert res.stop_reason is CondGStop.TOLERANCE_MET
        assert np.allclose(res.w_plus, [0.5, 0.0], atol=1e-12)
        assert res.inner_iters <= 5

    @inner_limits(gap_tol=TIGHT_GAP)
    def test_exterior_point_matches_exact_projection(self):
        res = condg_project(unit_disk(), EXACT, [0.0, 1.0], [3.0, 4.0])
        assert np.allclose(res.w_plus, [0.6, 0.8], atol=1e-6)

    def test_loose_tolerance_contract_by_sampling(self):
        body = unit_disk()
        params = ForcingParams(0.1, 0.0, 0.0)
        u = np.array([1.0, 0.0])
        v = np.array([-2.0, 0.0])
        res = condg_project(body, params, u, v)
        bound = 0.1 * float((v - u) @ (v - u))
        assert res.final_gap <= bound + 1e-12
        rng = np.random.default_rng(3)
        members = sample_members(body, rng, 1000)
        assert ((members - res.w_plus) @ (v - res.w_plus)).max() <= bound + 1e-9

    def test_non_compact_body_rejected(self):
        h = Halfspace(normal=[1.0, 0.0], offset=0.0)
        with pytest.raises(UnsupportedOracleError):
            condg_project(h, EXACT, [-1.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "bad", [[0.0, 0.0, 0.0], [0.0, math.nan], [0.0, "1"]], ids=["length", "nan", "str"]
    )
    def test_bad_point_named(self, bad):
        with pytest.raises(InputError) as err:
            condg_project(unit_disk(), EXACT, [0.0, 0.0], bad)
        assert err.value.path == "point"

    def test_anchor_outside_body_rejected(self):
        with pytest.raises(ValueError):
            condg_project(unit_disk(), EXACT, [2.0, 0.0], [0.0, 0.0])

    @inner_limits(cap=2, gap_tol=TIGHT_GAP)
    def test_iteration_cap_is_tagged(self):
        res = condg_project(unit_disk(), EXACT, [0.0, 1.0], [3.0, 4.0])
        assert res.stop_reason is CondGStop.ITERATION_CAP
        assert res.inner_iters == 2
        assert unit_disk().violation(res.w_plus) <= 1e-10

    @pytest.mark.parametrize(
        "body, anchor, point",
        [
            (unit_disk(), [1.0 - 1e-13, 0.0], [1e5, 0.0]),
            (Ellipsoid(center=np.zeros(3), shape=np.eye(3)),
             [1.0 - 1e-13, 0.0, 0.0], [1e5, 0.0, 0.0]),
            (Box(lower=[0.0, 0.0], upper=[1.0, 1.0]),
             [1.0 - 1e-13, 1.0 - 1e-13], [1e3, 1e3]),
        ],
        ids=["ellipsoid-2d", "ellipsoid-3d", "box"],
    )
    def test_degenerate_step_stops_before_the_first_step(self, body, anchor, point):
        # The anchor sits 1e-13 from the oracle's answer, so the step is
        # below the degenerate-step cutoff while the gap, far above the
        # degenerate-gap cutoff, is not.
        res = condg_project(body, EXACT, anchor, point)
        assert res.stop_reason is CondGStop.DEGENERATE_GAP
        assert res.inner_iters == 0
        assert res.final_gap > condg._DEGENERATE_GAP_TOL
        assert np.array_equal(res.w_plus, anchor)

    @pytest.mark.parametrize("dim", [2, 3, 16, 50, 256])
    def test_ball_plane_certificate_on_degenerate_planes(self, dim):
        # The plane of a ball is spanned by the offsets of the point and the
        # anchor from the centre; here one of them, or both, is 0, or the
        # two are collinear up to rounding, which leaves no second axis.
        rng = np.random.default_rng(dim)
        for _ in range(3):
            body = random_ball(rng, dim)
            c, r = body.center, body.radius
            d, e = _unit(rng, dim), _unit(rng, dim)
            cases = {
                "point at the centre": (c + r * d, c.copy()),
                "anchor at the centre": (c.copy(), c + 3.0 * r * e),
                "both at the centre": (c.copy(), c.copy()),
                "collinear, same side": (c + 0.5 * r * d, c + 4.0 * r * d),
                "collinear, far side": (c - r * d, c + 4.0 * r * d),
                "point inside": (c + r * d, c + 0.3 * r * e),
            }
            for name, (u, v) in cases.items():
                assert body._fw_plane(u, v) is not None, name
                for params in (EXACT, ForcingParams(0.01, 0.02, 0.02)):
                    res = condg_project(body, params, u, v)
                    check_certificate(body, params, u, v, res)

    @pytest.mark.parametrize("end", [1.2928932188134525, 2.7071067811865475])
    def test_ball_plane_keeps_a_diagonal_anchor_in_the_ball(self, end):
        # Anchor and point on the diagonal through the centre: what the
        # first pass leaves of the anchor's offset is rounding along e1, and
        # an e2 built from it would put the anchor at the wrong plane point
        # and map the result out of the ball. The first anchor is the
        # projection already; from the second the loop steps.
        body = Ball(center=[2.0, 2.0], radius=1.0)
        u = np.full(2, end)
        v = np.full(2, -0.4343145750507619)
        params = ForcingParams(0.01, 0.02, 0.02)
        res = condg_project(body, params, u, v)
        assert res.inner_iters == (0 if end < 2.0 else 1)
        check_certificate(body, params, u, v, res)

    @pytest.mark.parametrize(
        "r", [1e-170, 1e-160, 1e-156, 1e78, 1e100, 1e120, 1e150, 2.0**-64, 2.0**64]
    )
    def test_ball_at_either_length_bound_runs_in_its_plane(self, r):
        # The plane's oracle divides by l = 1/r^2 and forms |g|^2 r^2, which
        # a radius beyond [2^-64, 2^64] could underflow or overflow; such a
        # radius is refused. At either bound the call runs in the plane and
        # gives the frame loop's point; the point inside is its own projection.
        if not 2.0**-64 <= r <= 2.0**64:
            assert_refused(lambda: Ball(center=[0.0, 0.0], radius=r), "radius",
                           length_range(r))
            return
        body = Ball(center=[0.0, 0.0], radius=r)
        u = np.array([r, 0.0])
        for v in (np.array([0.3 * r, 0.4 * r]), np.array([1.0, 1.0])):
            assert body._fw_plane(u, v) is not None
            res = condg_project(body, EXACT, u, v)
            frame = _frame_loop(body, EXACT, u, v, keep_trace=False)
            assert np.allclose(res.w_plus, frame.w_plus, rtol=1e-12, atol=0.0)
            check_certificate(body, EXACT, u, v, res)

    def test_result_gap_certificate_on_tolerance_met(self):
        # ITERATION_CAP is allowed on the ill-conditioned ellipsoids; the
        # certificate and membership must hold for every result.
        rng = np.random.default_rng(5)
        for dim in CERT_DIMS:
            for kind in CERT_KINDS:
                for _ in range(3):
                    body, u, v = certificate_case(rng, dim, kind)
                    params = ForcingParams(*10.0 ** rng.uniform(-6.0, -0.6, 3))
                    res = condg_project(body, params, u, v)
                    check_certificate(body, params, u, v, res)


def follows_the_frame_loop(kind, dim):
    """The first 10 iterates of the plane kernel, mapped back, agree with
    those of the frame loop on 15 random bodies and points."""
    rng = np.random.default_rng(27)
    for _ in range(15):
        body = random_compact_body(rng, dim, kinds=(kind,))
        u = sample_members(body, rng, 1)[0]
        v = rng.uniform(-5.0, 5.0, dim)
        assert body._fw_plane(u, v) is not None
        planar = condg_project(body, EXACT, u, v, keep_trace=True)
        frame = _frame_loop(body, EXACT, u, v, keep_trace=True)
        steps = min(len(planar.trace), len(frame.trace))
        assert steps >= 2
        assert np.allclose(planar.trace[:steps], frame.trace[:steps], rtol=0, atol=1e-9)


def _ellipsoid_anchor(body, t):
    """The point of violation ``t`` on the ray from the centre through a
    boundary point."""
    b = boundary_point(body, np.ones(body.dim) / math.sqrt(body.dim))
    return body.center + math.sqrt(1.0 + t) * (b - body.center)


# (body, anchor_at) with ``anchor_at(t)`` a point of violation t. The 2-D
# ellipsoid runs the planar kernel, the others the numpy frame loop.
ANCHOR_CASES = [
    pytest.param(
        Ellipsoid(center=[0.5, -0.2], shape=[[4.0, 1.0], [1.0, 1.0]]),
        _ellipsoid_anchor,
        id="ellipsoid-2d",
    ),
    pytest.param(
        Ellipsoid(center=[0.5, -0.2, 1.0], shape=np.diag([4.0, 1.0, 0.25])),
        _ellipsoid_anchor,
        id="ellipsoid-3d",
    ),
    pytest.param(
        Ball(center=[0.5, -0.2, 1.0], radius=2.0),
        lambda body, t: body.center + [2.0 + t, 0.0, 0.0],
        id="ball-3d",
    ),
    pytest.param(
        Box(lower=[-1.0, 0.0, 2.0], upper=[1.0, 0.5, 3.0]),
        lambda body, t: np.array([0.0, 0.25, 3.0 + t]),
        id="box-3d",
    ),
]


@pytest.mark.parametrize("body, anchor_at", ANCHOR_CASES)
class TestAnchorChecks:
    """Each kernel tests the anchor in its frame; the checks and messages
    are those of ``member_vector``."""

    def far_point(self, body):
        return np.full(body.dim, 10.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "length"])
    def test_malformed_anchor_names_the_anchor(self, body, anchor_at, bad):
        anchor = anchor_at(body, 0.0)
        if bad == "length":
            anchor = np.append(anchor, 0.0)
        else:
            anchor[0] = float(bad)
        with pytest.raises(InputError) as err:
            condg_project(body, EXACT, anchor, self.far_point(body))
        assert err.value.path == "anchor"

    def test_anchor_beyond_start_tol_rejected(self, body, anchor_at):
        anchor = anchor_at(body, 2.0 * START_TOL)
        assert body.violation(anchor) == pytest.approx(2.0 * START_TOL, rel=1e-3)
        with pytest.raises(InputError) as err:
            condg_project(body, EXACT, anchor, self.far_point(body))
        assert err.value.path == "anchor"
        assert err.value.message == f"must belong to its set (violation <= {START_TOL:g})"

    def test_anchor_within_start_tol_accepted(self, body, anchor_at):
        anchor = anchor_at(body, 0.5 * START_TOL)
        assert body.violation(anchor) == pytest.approx(0.5 * START_TOL, rel=1e-3)
        res = condg_project(body, EXACT, anchor, self.far_point(body))
        assert body.violation(res.w_plus) <= START_TOL

    def test_nan_point_rejected(self, body, anchor_at):
        point = np.full(body.dim, np.nan)
        with pytest.raises(ValueError):
            condg_project(body, EXACT, anchor_at(body, 0.0), point)


def test_anchor_whose_offset_overflows_rejected():
    # A centre or an anchor beyond the range is refused where it enters;
    # the farthest anchor in range, 2^129 from the centre, is no member.
    assert_refused(lambda: Ellipsoid(center=[-1e308, 0.0], shape=np.eye(2)), "center",
                   VECTOR_RANGE)
    body = Ellipsoid(center=[-RANGE, 0.0], shape=np.eye(2))
    assert_refused(lambda: condg_project(body, EXACT, [1e308, 0.0], [0.0, 0.0]), "anchor",
                   VECTOR_RANGE)
    assert_refused(lambda: condg_project(body, EXACT, [RANGE, 0.0], [0.0, 0.0]), "anchor",
                   f"must belong to its set (violation <= {START_TOL:g})")


class TestIterateProperties:
    # condg_project sends 2-D ellipsoids to the planar kernel; the numpy
    # frame loop is called directly.
    @pytest.mark.parametrize(
        "kernel, kinds",
        [
            (condg_project, ("ellipsoid",)),
            (_frame_loop, ("ellipsoid", "ball", "box")),
        ],
        ids=["planar", "frame"],
    )
    @inner_limits(gap_tol=TIGHT_GAP)
    def test_inner_iterates_stay_feasible_and_descend(self, kernel, kinds):
        rng = np.random.default_rng(21)
        for _ in range(15):
            body = random_compact_body(rng, kinds=kinds)
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-5.0, 5.0, 2)
            res = kernel(body, EXACT, u, v, keep_trace=True)
            values = [psi(w, v) for w in res.trace]
            for w in res.trace:
                assert body.violation(w) <= 1e-10
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    @inner_limits(cap=10, gap_tol=0.0)
    def test_planar_kernel_follows_the_frame_loop(self):
        # Same recurrence, different summation order. Near the projection
        # Frank-Wolfe zig-zags and the rounding difference grows about 10x
        # every 5 steps, so only the first 10 steps are compared; they agree
        # to 1e-11 or better.
        follows_the_frame_loop("ellipsoid", 2)

    @pytest.mark.parametrize("dim", [2, 3, 16, 256])
    @inner_limits(cap=10)
    def test_ball_plane_kernel_follows_the_frame_loop(self, dim):
        # A ball's plane is built per call, and its oracle is the ellipse's
        # with l0 = l1 = 1/r^2. Past the cutoff a step's gap is rounding:
        # with none, step 10 differed by up to 2e-8 over 300 draws per
        # dimension (6e-9 on the 2-D ellipsoid), and by at most 3e-10 with
        # it, so the balls keep it.
        follows_the_frame_loop("ball", dim)

    @inner_limits(cap=400, gap_tol=TIGHT_GAP)
    def test_sublinear_rate_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            kind = ("ellipsoid", "box")[rng.integers(2)]
            body = random_compact_body(rng, kinds=(kind,))
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-5.0, 5.0, 2)
            res = condg_project(body, EXACT, u, v, keep_trace=True)
            best = psi(body.project(v), v)
            bound = 8.0 * diameter(body) ** 2
            for ell, w in enumerate(res.trace):
                if ell >= 1:
                    assert psi(w, v) - best <= bound / ell + 1e-10

    @inner_limits(gap_tol=1e-12)
    def test_exactness_limit(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            body = random_compact_body(rng, kinds=("ellipsoid", "ball"))
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-6.0, 6.0, 2)
            res = condg_project(body, EXACT, u, v)
            assert np.linalg.norm(res.w_plus - body.project(v)) <= 1e-5

    @inner_limits(gap_tol=TIGHT_GAP)
    def test_strongly_convex_per_step_contraction(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            body = random_ball(rng)
            u = sample_members(body, rng, 1)[0]
            v = body.center + rng.normal(size=2) * 4.0
            dist = body.violation(v)
            if dist <= 0.1:
                continue
            res = condg_project(body, EXACT, u, v, keep_trace=True)
            best = psi(body.project(v), v)
            q = max(0.5, 1.0 - (1.0 / body.radius) * dist / 8.0)
            values = [psi(w, v) - best for w in res.trace]
            for ell in range(1, len(values) - 1):
                assert values[ell + 1] <= q * values[ell] + 1e-12

    def test_distance_bound_to_exact_projection(self):
        # With lam < 1/2 the output sits in a ball around the exact
        # projection controlled by the forcing terms.
        rng = np.random.default_rng(25)
        for _ in range(25):
            body = random_compact_body(rng)
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-5.0, 5.0, 2)
            gamma, theta, lam = rng.uniform(0.0, 0.45, 3)
            res = condg_project(body, ForcingParams(gamma, theta, lam), u, v)
            w = res.w_plus
            p = body.project(v)
            du = float((v - u) @ (v - u))
            dv = float((w - v) @ (w - v))
            bound = (2 * gamma + 2 * lam) / (1 - 2 * lam) * du
            bound += 2 * theta / (1 - 2 * lam) * dv
            assert float((w - p) @ (w - p)) <= bound + 1e-9

    def test_member_distance_inequality(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            body = random_compact_body(rng)
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-5.0, 5.0, 2)
            gamma, theta, lam = rng.uniform(0.0, 0.4, 3)
            res = condg_project(body, ForcingParams(gamma, theta, lam), u, v)
            w = res.w_plus
            du = float((v - u) @ (v - u))
            dv = float((w - v) @ (w - v))
            members = sample_members(body, rng, 100)
            lhs = np.sum((w - members) ** 2, axis=1)
            rhs = np.sum((v - members) ** 2, axis=1)
            rhs = rhs + (2 * gamma + 2 * lam) / (1 - 2 * lam) * du
            rhs = rhs - (1 - 2 * theta) / (1 - 2 * lam) * dv
            assert np.all(lhs <= rhs + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    gamma=st.floats(0.0, 0.4),
    theta=st.floats(0.0, 0.4),
    lam=st.floats(0.0, 0.4),
)
def test_inexact_projection_contract_property(data, gamma, theta, lam):
    seed = data.draw(st.integers(0, 2**31 - 1))
    dim = data.draw(st.sampled_from(CERT_DIMS))
    kind = data.draw(st.sampled_from(CERT_KINDS))
    rng = np.random.default_rng(seed)
    body, u, v = certificate_case(rng, dim, kind)
    params = ForcingParams(gamma, theta, lam)
    res = condg_project(body, params, u, v)
    check_certificate(body, params, u, v, res)
    # Sampled members obey the certified bound.
    members = sample_members(body, rng, 500)
    assert ((members - res.w_plus) @ (v - res.w_plus)).max() <= res.final_gap + 1e-9


# The tolerance skip: each kernel evaluates the tolerance only where it can
# end the loop (condg module docstring). ``skip_cases`` spans the bodies,
# anchors, points and forcing levels that decide it.
def _schedule_levels():
    """The schedule defaults scaled by 0.1^k, as the solvers' progress rule
    scales them, at levels k from 0 to the first at which all three are
    exactly 0."""
    s = ForcingSchedule()
    params, chain = ForcingParams(s.gamma0, s.theta0, s.lambda0), []
    while params != EXACT:
        chain.append(params)
        params = params.scaled(0.1)
    return [chain[k] for k in (0, 6, 11, 12, 13, 15)] + [params]


FORCING_LEVELS = _schedule_levels()
SKIP_DISTANCES = (1e-8, 1e-5, 1e-2, 1.0, 10.0)
# Violations of the anchors: on the boundary, and up to START_TOL outside.
SKIP_ANCHOR_VIOLATIONS = (0.0, 0.5 * START_TOL, 0.9 * START_TOL)


def _box_with_flat_coordinates(rng, dim):
    center = rng.uniform(-3.0, 3.0, dim)
    span = rng.uniform(0.2, 1.5, dim)
    span[rng.permutation(dim)[: max(1, dim // 3)]] = 0.0
    return Box(lower=center - span, upper=center + span)


def skip_bodies(rng):
    bodies = [
        ill_conditioned_ellipsoid(rng, n, cond=cond)
        for n, cond in ((2, 1.0), (2, 1e4), (2, 1e8), (3, 1e8), (16, 1.0), (16, 1e8))
    ]
    bodies += [
        Ball(center=rng.uniform(-3.0, 3.0, n), radius=r)
        for n, r in ((2, 1.0), (2, 1e-6), (3, 1e-6), (16, 0.7))
    ]
    bodies += [_box_with_flat_coordinates(rng, n) for n in (2, 3, 16)]
    return bodies + [Box(lower=[0.5, -1.0, 2.0], upper=[0.5 + 1e-6, -1.0, 2.0])]


def _unit(rng, dim):
    d = rng.normal(size=dim)
    return d / np.linalg.norm(d)


def boundary_anchor(body, rng, t):
    """A point of violation about ``t`` at most START_TOL: on the boundary
    for ``t = 0``."""
    dim = body.dim
    if isinstance(body, Ellipsoid):
        b = boundary_point(body, _unit(rng, dim))
        return body.center + math.sqrt(1.0 + t) * (b - body.center)
    if isinstance(body, Ball):
        return body.center + (body.radius + t) * _unit(rng, dim)
    anchor = rng.uniform(body.lower, body.upper)
    j = int(np.argmin(body.upper - body.lower))  # a flat coordinate
    anchor[j] = body.upper[j] + t
    return anchor


def skip_cases(rng):
    """``(body, anchor, point)`` triples over every body, anchor violation
    and distance above."""
    for body in skip_bodies(rng):
        for t in SKIP_ANCHOR_VIOLATIONS:
            anchor = boundary_anchor(body, rng, t)
            assert body.violation(anchor) <= START_TOL
            for dist in SKIP_DISTANCES:
                yield body, anchor, anchor + dist * _unit(rng, body.dim)


def far_side_cases(rng):
    """``(body, anchor, point)`` with the anchor at an end of the body's
    longest chord, up to START_TOL outside, and the point far beyond the
    other end, which the loop reaches in one step: there ``|u - u_a|`` is
    about ``D``. The point is far enough for a first gap above the cutoff
    on the smallest bodies too."""
    for body in skip_bodies(rng):
        for t in SKIP_ANCHOR_VIOLATIONS:
            if isinstance(body, Box):
                anchor = body.lower.copy()
                anchor[int(np.argmin(body.upper - body.lower))] -= t
                yield body, anchor, anchor + 100.0 * (body.upper - anchor)
                continue
            if isinstance(body, Ellipsoid):
                end = boundary_point(body, body._eigvecs[:, 0])
                anchor = body.center + math.sqrt(1.0 + t) * (end - body.center)
            else:
                anchor = body.center + (body.radius + t) * _unit(rng, body.dim)
            assert body.violation(anchor) <= START_TOL
            yield body, anchor, anchor + 100.0 * (body.center - anchor)


def forcing_terms(params):
    """The parameters and each of their three terms alone."""
    g, t, lam = params.gamma, params.theta, params.lam
    alone = [(g, 0.0, 0.0), (0.0, t, 0.0), (0.0, 0.0, lam)]
    return [params] + [ForcingParams(*terms) for terms in alone]


def kernels_for(body):
    """``condg_project`` and the frame loop on a ball or a 2-D body (a 2-D
    box runs the frame loop both times), else the frame loop alone."""
    if isinstance(body, Ball) or body.dim == 2:
        return (condg_project, _frame_loop)
    return (_frame_loop,)


def tolerance_bound(params, body, anchor, point):
    """The module docstring's bound on the tolerance over every iterate."""
    d_pa = point - anchor
    pa, d = float(np.linalg.norm(d_pa)), body._diameter
    # The first term as phi computes it, so that a gamma alone meets it exactly.
    return params.gamma * float(d_pa @ d_pa) + params.theta * (d + pa) ** 2 + params.lam * d * d


def phi_can_stop(params, anchor, point, body):
    """The kernels' decision for this call."""
    pa_sq = sum(x * x for x in (point - anchor).tolist())  # inf for a far point
    return condg._phi_can_stop(params, pa_sq, body._diameter)


def never_skip():
    """Patch under which both kernels evaluate the tolerance at every step."""
    return mock.patch.object(condg, "_phi_can_stop", lambda *args: True)


def same_result(a, b):
    return (
        a.w_plus.tobytes() == b.w_plus.tobytes()
        and a.inner_iters == b.inner_iters
        and a.final_gap.hex() == b.final_gap.hex()
        and a.stop_reason is b.stop_reason
    )


class TestToleranceSkip:
    def test_diameter_is_that_of_the_grown_body(self):
        # An ellipsoid's diameter from its shape matrix rounds apart from the
        # cached eigenvalues, by about eps * cond(shape).
        rng = np.random.default_rng(40)
        for body in skip_bodies(rng):
            if isinstance(body, Ellipsoid):
                grown = diameter(body) * math.sqrt(1.0 + START_TOL)
            elif isinstance(body, Ball):
                grown = diameter(body) + 2.0 * START_TOL
            else:
                grown = float(np.linalg.norm(body.upper - body.lower + 2.0 * START_TOL))
            assert body._diameter == pytest.approx(grown, rel=1e-7, abs=0.0)

    @inner_limits(cap=60)
    def test_tolerance_stays_under_the_bound_where_skipped(self):
        # The cap only bounds the run time; the bound holds at every iterate.
        # On the far-side cases each term alone comes close to its part of
        # the bound, so a diameter that leaves out START_TOL fails here.
        rng = np.random.default_rng(41)
        levels = list(enumerate(FORCING_LEVELS))
        cases = [(case, levels) for case in skip_cases(rng)]
        terms = [(k, q) for k, params in levels for q in forcing_terms(params)]
        cases += [(case, terms) for case in far_side_cases(rng)]
        checked, skipped = 0, [0] * len(levels)
        for (body, anchor, point), level_params in cases:
            for k, params in level_params:
                if phi_can_stop(params, anchor, point, body):
                    continue
                skipped[k] += 1
                bound = tolerance_bound(params, body, anchor, point)
                assert bound <= 0.5 * condg._DEGENERATE_GAP_TOL
                for kernel in kernels_for(body):
                    res = kernel(body, params, anchor, point, keep_trace=True)
                    for w in res.trace:
                        assert phi(params, anchor, point, w) <= bound
                    checked += len(res.trace)
        # Every level skips somewhere, the defaults on the tiny balls.
        assert min(skipped) >= 1 and sum(skipped) >= 700 and checked >= 20_000

    def test_far_point_bound_stays_finite(self):
        # Within the range the bound is finite: a far point or a huge box
        # gives forcing a large bound, so no call skips, and zero forcing
        # the bound 0, so every call skips. Beyond the range nothing enters.
        body = unit_disk()
        anchor, point = np.array([0.0, 0.5]), np.array([2.0**127, 2.0**127])
        assert phi_can_stop(FORCING_LEVELS[-2], anchor, point, body)
        assert not phi_can_stop(EXACT, anchor, point, body)
        assert_refused(lambda: condg_project(body, EXACT, anchor, [1e160, 1e160]), "point",
                       POINT_RANGE)
        assert_refused(lambda: Box(lower=[-1e308, 0.0], upper=[1e308, 1.0]), "lower",
                       VECTOR_RANGE)
        huge = Box(lower=[-RANGE, 0.0], upper=[RANGE, 1.0])
        assert huge._diameter == pytest.approx(2.0 * RANGE, rel=1e-15)
        assert phi_can_stop(FORCING_LEVELS[-2], np.zeros(2), np.ones(2), huge)
        assert not phi_can_stop(EXACT, np.zeros(2), np.ones(2), huge)

    @inner_limits(cap=500)
    def test_skipping_changes_no_bit(self):
        # The cap only bounds the run time; some runs end at it.
        rng = np.random.default_rng(42)
        skipped = 0
        cases = list(skip_cases(rng)) + list(far_side_cases(rng))
        for i, (body, anchor, point) in enumerate(cases):
            params = FORCING_LEVELS[i % len(FORCING_LEVELS)]
            skipped += not phi_can_stop(params, anchor, point, body)
            for kernel in kernels_for(body):
                got = kernel(body, params, anchor, point, keep_trace=True)
                with never_skip():
                    ref = kernel(body, params, anchor, point, keep_trace=True)
                assert same_result(got, ref), (body, params, anchor, point)
                assert [w.tobytes() for w in got.trace] == [w.tobytes() for w in ref.trace]
        assert skipped >= 50

    @inner_limits(gap_tol=0.0, cap=200)
    def test_skipping_changes_no_bit_without_a_cutoff(self):
        # With no cutoff, only exactly zero parameters skip, and the loop
        # ends at the tolerance once the gap is 0, or at the cap.
        rng = np.random.default_rng(43)
        body = ill_conditioned_ellipsoid(rng, 2, cond=1e4)
        anchor = boundary_anchor(body, rng, 0.0)
        point = anchor + 3.0 * _unit(rng, 2)
        assert not phi_can_stop(EXACT, anchor, point, body)
        for kernel in kernels_for(body):
            got = kernel(body, EXACT, anchor, point, keep_trace=False)
            with never_skip():
                ref = kernel(body, EXACT, anchor, point, keep_trace=False)
            assert same_result(got, ref)

    def test_skipping_changes_no_bit_for_a_far_point(self):
        # The farthest point in range; beyond it nothing enters.
        body = unit_disk()
        anchor = np.array([0.0, 0.5])
        assert_refused(lambda: condg_project(body, EXACT, anchor, [1e160, 1e160]), "point",
                       POINT_RANGE)
        for point in (np.array([2.0**127, 2.0**127]), np.array([RANGE, -RANGE])):
            for params in (EXACT, FORCING_LEVELS[-2]):
                for kernel in kernels_for(body):
                    got = kernel(body, params, anchor, point, keep_trace=False)
                    with never_skip():
                        ref = kernel(body, params, anchor, point, keep_trace=False)
                    assert same_result(got, ref)
