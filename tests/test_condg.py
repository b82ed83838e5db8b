import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feasib import (
    Ball,
    Box,
    CondGLimits,
    CondGStop,
    Ellipsoid,
    ForcingParams,
    Halfspace,
    InputError,
    START_TOL,
    UnsupportedOracleError,
    condg_project,
    phi,
)
from feasib.condg import _frame_loop

from _helpers import (
    diameter,
    ill_conditioned_ellipsoid,
    random_ball,
    random_compact_body,
    sample_members,
)

EXACT = ForcingParams(0.0, 0.0, 0.0)
TIGHT = CondGLimits(degenerate_gap_tol=1e-14)


def unit_disk():
    return Ellipsoid(center=np.zeros(2), shape=np.eye(2))


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

    def test_limits_validation(self):
        cases = (
            ({"max_inner_iters": 0}, "limits.max_inner_iters"),
            ({"max_inner_iters": 2.5}, "limits.max_inner_iters"),
            ({"max_inner_iters": True}, "limits.max_inner_iters"),
            ({"degenerate_gap_tol": math.inf}, "limits.degenerate_gap_tol"),
            ({"degenerate_gap_tol": -1.0}, "limits.degenerate_gap_tol"),
            ({"degenerate_gap_tol": math.nan}, "limits.degenerate_gap_tol"),
        )
        for kwargs, path in cases:
            with pytest.raises(InputError) as err:
                CondGLimits(**kwargs)
            assert err.value.path == path


class TestCondGBasics:
    def test_interior_point_projects_to_itself(self):
        res = condg_project(unit_disk(), EXACT, [1.0, 0.0], [0.5, 0.0], TIGHT)
        assert res.stop_reason is CondGStop.TOLERANCE_MET
        assert np.allclose(res.w_plus, [0.5, 0.0], atol=1e-12)
        assert res.inner_iters <= 5

    def test_exterior_point_matches_exact_projection(self):
        res = condg_project(unit_disk(), EXACT, [0.0, 1.0], [3.0, 4.0], TIGHT)
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

    def test_anchor_outside_body_rejected(self):
        with pytest.raises(ValueError):
            condg_project(unit_disk(), EXACT, [2.0, 0.0], [0.0, 0.0])

    def test_iteration_cap_is_tagged(self):
        res = condg_project(
            unit_disk(),
            EXACT,
            [0.0, 1.0],
            [3.0, 4.0],
            CondGLimits(max_inner_iters=2, degenerate_gap_tol=1e-14),
        )
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
        assert res.final_gap > CondGLimits().degenerate_gap_tol
        assert np.array_equal(res.w_plus, anchor)

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


def _ellipsoid_anchor(body, t):
    """The point of violation ``t`` on the ray from the centre through a
    boundary point."""
    b = body.boundary_point(np.ones(body.dim) / math.sqrt(body.dim))
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
    def test_inner_iterates_stay_feasible_and_descend(self, kernel, kinds):
        rng = np.random.default_rng(21)
        for _ in range(15):
            body = random_compact_body(rng, kinds=kinds)
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-5.0, 5.0, 2)
            res = kernel(body, EXACT, u, v, TIGHT, keep_trace=True)
            values = [psi(w, v) for w in res.trace]
            for w in res.trace:
                assert body.violation(w) <= 1e-10
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_planar_kernel_follows_the_frame_loop(self):
        # Same recurrence, different summation order. Near the projection
        # Frank-Wolfe zig-zags and the rounding difference grows about 10x
        # every 5 steps, so only the first 10 steps are compared; they agree
        # to 1e-11 or better.
        rng = np.random.default_rng(27)
        limits = CondGLimits(max_inner_iters=10, degenerate_gap_tol=0.0)
        for _ in range(15):
            body = random_compact_body(rng, kinds=("ellipsoid",))
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-5.0, 5.0, 2)
            planar = condg_project(body, EXACT, u, v, limits, keep_trace=True)
            frame = _frame_loop(body, EXACT, u, v, limits, keep_trace=True)
            steps = min(len(planar.trace), len(frame.trace))
            assert steps >= 2
            assert np.allclose(planar.trace[:steps], frame.trace[:steps], rtol=0, atol=1e-9)

    def test_sublinear_rate_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            kind = ("ellipsoid", "box")[rng.integers(2)]
            body = random_compact_body(rng, kinds=(kind,))
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-5.0, 5.0, 2)
            res = condg_project(
                body,
                EXACT,
                u,
                v,
                CondGLimits(max_inner_iters=400, degenerate_gap_tol=1e-14),
                keep_trace=True,
            )
            best = psi(body.project(v), v)
            bound = 8.0 * diameter(body) ** 2
            for ell, w in enumerate(res.trace):
                if ell >= 1:
                    assert psi(w, v) - best <= bound / ell + 1e-10

    def test_exactness_limit(self):
        rng = np.random.default_rng(23)
        limits = CondGLimits(degenerate_gap_tol=1e-12)
        for _ in range(20):
            body = random_compact_body(rng, kinds=("ellipsoid", "ball"))
            u = sample_members(body, rng, 1)[0]
            v = rng.uniform(-6.0, 6.0, 2)
            res = condg_project(body, EXACT, u, v, limits)
            assert np.linalg.norm(res.w_plus - body.project(v)) <= 1e-5

    def test_strongly_convex_per_step_contraction(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            body = random_ball(rng)
            u = sample_members(body, rng, 1)[0]
            v = body.center + rng.normal(size=2) * 4.0
            dist = body.violation(v)
            if dist <= 0.1:
                continue
            res = condg_project(body, EXACT, u, v, TIGHT, keep_trace=True)
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
