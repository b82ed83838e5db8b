import math

import numpy as np
import pytest

from feasib import (
    Ball,
    CondGLimits,
    Ellipsoid,
    ForcingParams,
    ForcingSchedule,
    Halfspace,
    InputError,
    START_TOL,
    StopCode,
    StoppingConfig,
    acondg1,
    acondg2,
    averaged_projection,
    default_schedule,
    dist_ellipse_halfspace,
    dist_two_bodies,
    exact_alternating,
)
from feasib.solvers import check_pair

from _helpers import containing_body, ill_conditioned_ellipsoid, sample_members

SQRT_202 = math.sqrt(2.02)


def slim_ellipse():
    return Ellipsoid.from_axes([0.0, 0.0], -math.pi / 4.0, (2.0, 0.2))


def second_ellipse(c1):
    return Ellipsoid.from_axes([c1, 0.5], math.pi / 3.0, (2.0, 0.4))


def halfspace_at(beta):
    return Halfspace(normal=[-1.0, 0.0], offset=-beta)


def unit_disk():
    return Ellipsoid(center=np.zeros(2), shape=np.eye(2))


def ill_conditioned_sweep():
    """``(n, k, A, B, meets)`` for n in (2, 3, 16) and k < 20: A an
    ellipsoid of condition number 1e8 and B a halfspace whose boundary sits
    0.05 inside (even ``k``, the sets meet) or outside (odd ``k``) A's
    support point along a random unit axis."""
    rng = np.random.default_rng(7)
    for n in (2, 3, 16):
        for k in range(20):
            a = ill_conditioned_ellipsoid(rng, n, cond=1e8)
            axis = rng.normal(size=n)
            axis /= np.linalg.norm(axis)
            shift = 0.05 if k % 2 else -0.05
            b = Halfspace(normal=-axis, offset=-(a.support(axis) + shift))
            yield n, k, a, b, k % 2 == 0


def regime_check(inexact_sets: int, gamma: float, theta: float, lam: float):
    """``check_pair`` on a solver that projects ``inexact_sets`` sets
    inexactly, with a schedule starting at ``(gamma, theta, lam)``."""
    a, b = unit_disk(), unit_disk()
    inexact = (True, inexact_sets == 2)
    schedule = ForcingSchedule(ForcingParams(gamma, theta, lam))
    return check_pair(a, b, [0.0, 0.0], [0.0, 0.0], inexact, schedule)[2]


class TestForcingSchedule:
    def test_one_set_conditions_enforced(self):
        with pytest.raises(ValueError):
            regime_check(1, 0.3, 0.1, 0.11)
        with pytest.raises(ValueError):
            regime_check(1, 0.0, 0.5, 0.0)
        assert regime_check(1, 0.3, 0.45, 0.09).current.theta == 0.45

    def test_two_set_conditions_enforced(self):
        with pytest.raises(ValueError):
            regime_check(2, 0.0, 0.25, 0.0)
        with pytest.raises(ValueError):
            regime_check(2, 0.3, 0.1, 0.11)
        assert regime_check(2, 0.1, 0.2, 0.19).current.theta == 0.2

    def test_factor_ranges(self):
        with pytest.raises(ValueError):
            ForcingSchedule(ForcingParams(0.0, 0.0, 0.0), tau=1.0)
        with pytest.raises(ValueError):
            ForcingSchedule(ForcingParams(0.0, 0.0, 0.0), delta=0.0)

    def test_progress_keeps_parameters(self):
        s = default_schedule()
        assert s.updated(1.0, 0.5, 2.0, 2.0) is s

    def test_no_progress_scales_by_delta(self):
        s = ForcingSchedule(ForcingParams(0.09, 0.19, 0.19), tau=0.9, delta=0.1)
        s2 = s.updated(1.0, 0.95, 1.0, 0.95)
        assert s2.current.gamma == pytest.approx(0.009)
        assert s2.current.theta == pytest.approx(0.019)
        assert s2.current.lam == pytest.approx(0.019)

    def test_zero_violations_count_as_progress(self):
        s = default_schedule()
        assert s.updated(0.0, 0.0, 1.0, 0.99) is s

    def test_no_baseline_shows_no_progress(self):
        # Before a y-iterate exists its violation is inf: there is no
        # baseline to improve on, so only the x side can show progress.
        s = default_schedule()
        assert s.updated(1.0, 1.0, math.inf, 0.5).current == s.current.scaled(s.delta)
        assert s.updated(1.0, 0.5, math.inf, 0.5) is s

    def test_zero_parameters_are_kept_without_progress(self):
        s = ForcingSchedule(ForcingParams(0.0, 0.0, 0.0))
        assert s.updated(1.0, 1.0, 1.0, 1.0) is s

    def test_defaults_match_experiment_values(self):
        s = default_schedule()
        assert s.current.gamma == pytest.approx(0.1 - 1e-8)
        assert s.current.theta == pytest.approx(0.2 - 1e-8)
        assert s.current.lam == pytest.approx(0.2 - 1e-8)
        assert s.tau == 0.9 and s.delta == 0.1

    def test_stopping_validation(self):
        with pytest.raises(ValueError):
            StoppingConfig(eps_feas=0.0)
        with pytest.raises(ValueError):
            StoppingConfig(max_outer_iters=0)

    @pytest.mark.parametrize(
        "build, path",
        [
            (lambda: StoppingConfig(eps_feas=0.0), "stopping.eps_feas"),
            (lambda: StoppingConfig(eps_lack=-1.0), "stopping.eps_lack"),
            (lambda: StoppingConfig(max_outer_iters=0), "stopping.max_outer_iters"),
            pytest.param(
                lambda: StoppingConfig(max_outer_iters=2.5),
                "stopping.max_outer_iters",
                id="<lambda>-stopping.max_outer_iters-integral",
            ),
            pytest.param(
                lambda: StoppingConfig(eps_feas=math.inf),
                "stopping.eps_feas",
                id="<lambda>-stopping.eps_feas-finite",
            ),
            pytest.param(
                lambda: StoppingConfig(eps_lack=math.inf),
                "stopping.eps_lack",
                id="<lambda>-stopping.eps_lack-finite",
            ),
            (lambda: ForcingParams(0.0, math.nan, 0.0), "theta"),
            (lambda: ForcingSchedule(ForcingParams(0.0, 0.0, 0.0), tau=1.0),
             "schedule.tau"),
        ],
    )
    def test_range_errors_name_the_field(self, build, path):
        with pytest.raises(InputError) as err:
            build()
        assert err.value.path == path


class TestACondG1:
    def test_feasible_instance_finds_exact_point(self):
        rep = acondg1(slim_ellipse(), halfspace_at(1.30), [0.0, 0.0])
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.min_violation == 0.0
        assert rep.outer_iters <= 50

    def test_infeasible_instance_matches_set_distance(self):
        a, b = slim_ellipse(), halfspace_at(1.50)
        rep = acondg1(a, b, [0.0, 0.0])
        assert rep.stop_code is StopCode.LACK_OF_PROGRESS
        expected = dist_ellipse_halfspace(a, b)
        assert expected == pytest.approx(1.5 - SQRT_202, abs=1e-12)
        assert rep.min_violation == pytest.approx(expected, abs=1e-4)
        gap = float(np.linalg.norm(rep.x_last - rep.y_last))
        assert gap == pytest.approx(expected, abs=1e-4)

    def test_start_already_feasible_stops_at_zero(self):
        rep = acondg1(unit_disk(), Halfspace(normal=[-1.0, 0.0], offset=0.0), [0.5, 0.0])
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.outer_iters == 0

    def test_start_outside_first_set_rejected(self):
        with pytest.raises(ValueError):
            acondg1(unit_disk(), halfspace_at(1.0), [2.0, 0.0])

    def test_non_compact_first_set_rejected(self):
        with pytest.raises(ValueError):
            acondg1(halfspace_at(1.0), unit_disk(), [2.0, 0.0])

    def test_iterates_belong_to_their_sets(self):
        a, b = slim_ellipse(), halfspace_at(1.45)
        rep = acondg1(a, b, [0.0, 0.0])
        for x in rep.x_trace:
            assert a.violation(x) <= 1e-10
        for y in rep.y_trace:
            assert b.violation(y) <= 1e-10
        assert len(rep.x_trace) == rep.outer_iters + 1
        assert len(rep.y_trace) == rep.outer_iters
        assert len(rep.violations) == rep.outer_iters + 1
        assert len(rep.schedule_trace) == rep.outer_iters + 1
        assert all(cb >= 0.0 for cb, _ in rep.violations)

    def test_schedule_trace_is_monotone(self):
        rep = acondg1(slim_ellipse(), halfspace_at(1.50), [0.0, 0.0])
        for p, q in zip(rep.schedule_trace, rep.schedule_trace[1:]):
            assert q.gamma <= p.gamma and q.theta <= p.theta and q.lam <= p.lam

    def test_inexact_iterates_enter_the_interior(self):
        # The defining contrast with the exact baseline: on a feasible
        # instance the inexact method leaves the boundary of its set and
        # finishes strictly inside, while exact projections of exterior
        # points always land on the boundary.
        a, b = slim_ellipse(), halfspace_at(1.30)
        rep = acondg1(a, b, [0.0, 0.0])
        quad = [
            float((x - a.center) @ (a.shape @ (x - a.center))) - 1.0
            for x in rep.x_trace
        ]
        assert min(quad) < -1e-3

        ex = exact_alternating(a, b, [0.0, 0.0])
        for x in ex.x_trace[1:]:
            boundary_residual = abs(
                float((x - a.center) @ (a.shape @ (x - a.center))) - 1.0
            )
            assert boundary_residual <= 1e-9

    def test_fejer_monotone_on_feasible_instances(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 10:
            p = rng.uniform(-2.0, 2.0, 2)
            a = containing_body(rng, p, ("ellipsoid", "ball", "box")[rng.integers(3)])
            b = containing_body(rng, p, ("ball", "box", "halfspace")[rng.integers(3)])
            x0 = sample_members(a, rng, 1)[0]
            rep = acondg1(a, b, x0)
            assert not rep.inner_cap_iters
            dists = [float(np.linalg.norm(x - p)) for x in rep.x_trace]
            for d0, d1 in zip(dists, dists[1:]):
                assert d1 <= d0 + 1e-10
            done += 1

    def test_ill_conditioned_sweep_stays_feasible(self):
        # Each run's anchors are its own Frank-Wolfe outputs, so they must
        # pass the START_TOL membership check that condg_project applies to
        # them. Of the kept (n, k), all but (2, 2) and (3, 2) raised "anchor:
        # must belong to its set" partway through when Ellipsoid.violation
        # used the shape matrix and the oracle the eigenbasis. The other
        # cases are left out for time: some take up to 30 s.
        keep = {2: (1, 2, 9, 11), 3: (1, 2, 3, 9, 10, 17, 19), 16: (5, 13, 17)}
        for n, k, a, b, meets in ill_conditioned_sweep():
            if k not in keep[n]:
                continue
            rep = acondg1(a, b, a.center)
            expected = StopCode.CONVERGED_FEASIBLE if meets else StopCode.LACK_OF_PROGRESS
            assert rep.stop_code is expected, (n, k)
            assert a.violation(rep.x_last) <= START_TOL, (n, k)
            assert b.violation(rep.y_last) <= START_TOL, (n, k)


class TestACondG2:
    def test_feasible_pair_finds_exact_point(self):
        rep = acondg2(
            slim_ellipse(), second_ellipse(2.30), [0.0, 0.0], [2.30, 0.5]
        )
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.min_violation == 0.0
        assert rep.outer_iters <= 50

    def test_disjoint_pair_matches_limit_violation(self):
        a, b = slim_ellipse(), second_ellipse(2.50)
        rep = acondg2(a, b, [0.0, 0.0], [2.50, 0.5])
        assert rep.stop_code is StopCode.LACK_OF_PROGRESS
        d, xa, yb = dist_two_bodies(a, b)
        limit_violation = min(b.violation(xa), a.violation(yb))
        assert rep.min_violation == pytest.approx(limit_violation, rel=2e-2)
        assert float(np.linalg.norm(rep.x_last - rep.y_last)) == pytest.approx(
            d, abs=1e-3
        )

    def test_start_in_other_set_stops_at_zero(self):
        rep = acondg2(unit_disk(), unit_disk(), [0.0, 0.0], [0.9, 0.0])
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.outer_iters == 0

    def test_requires_compact_sets(self):
        with pytest.raises(ValueError):
            acondg2(unit_disk(), halfspace_at(0.0), [0.0, 0.0], [1.0, 0.0])

    def test_lyapunov_decrease_on_feasible_instances(self):
        rng = np.random.default_rng(43)
        done = 0
        while done < 10:
            p = rng.uniform(-2.0, 2.0, 2)
            kinds = ("ellipsoid", "ball", "box")
            a = containing_body(rng, p, kinds[rng.integers(3)])
            b = containing_body(rng, p, kinds[rng.integers(3)])
            x0 = sample_members(a, rng, 1)[0]
            y0 = sample_members(b, rng, 1)[0]
            rep = acondg2(a, b, x0, y0)
            assert not rep.inner_cap_iters
            vals = [
                float((x - p) @ (x - p)) + 0.5 * float((x - y) @ (x - y))
                for x, y in zip(rep.x_trace, rep.y_trace)
            ]
            for v0, v1 in zip(vals, vals[1:]):
                assert v1 <= v0 + 1e-10
            done += 1

    def test_step_size_relation_along_trace(self):
        a, b = slim_ellipse(), second_ellipse(2.40)
        rep = acondg2(a, b, [0.0, 0.0], [2.40, 0.5])
        for k in range(1, rep.outer_iters + 1):
            lhs = float(np.linalg.norm(rep.x_trace[k] - rep.y_trace[k]))
            rhs = float(np.linalg.norm(rep.x_trace[k - 1] - rep.y_trace[k]))
            assert lhs <= 3.0 * rhs + 1e-12

    def test_direction_limit_on_disjoint_disks(self):
        a = Ball(center=[-2.0, 0.0], radius=1.0)
        b = Ball(center=[2.0, 0.0], radius=1.0)
        rep = acondg2(a, b, [-2.0, 0.0], [2.0, 0.0])
        assert rep.stop_code is StopCode.LACK_OF_PROGRESS
        gap = rep.x_last - rep.y_last
        assert np.allclose(gap, [-2.0, 0.0], atol=1e-4)


class TestAveraged:
    def test_midpoint_already_feasible(self):
        rep = averaged_projection(
            unit_disk(), unit_disk(), [1.0, 0.0], [-1.0, 0.0]
        )
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.outer_iters == 0

    def test_disjoint_disks_converge_to_midpoint(self):
        a = Ball(center=[-2.0, 0.0], radius=1.0)
        b = Ball(center=[2.0, 0.0], radius=1.0)
        rep = averaged_projection(a, b, [-2.0, 0.0], [2.0, 0.0])
        assert rep.stop_code is StopCode.LACK_OF_PROGRESS

        # Independent oracle: exact averaged projections run to 1e-10.
        z = np.array([0.0, 0.0])
        for _ in range(200_000):
            z_new = 0.5 * (a.project(z) + b.project(z))
            if np.max(np.abs(z_new - z)) <= 1e-10:
                break
            z = z_new
        assert np.allclose(rep.x_last, z, atol=1e-3)
        assert np.allclose(rep.x_last, [0.0, 0.0], atol=1e-3)
        assert np.allclose(rep.anchor_trace[-1], [-1.0, 0.0], atol=1e-3)
        assert np.allclose(rep.y_last, [1.0, 0.0], atol=1e-3)

    def test_feasible_ellipse_pair_converges(self):
        rep = averaged_projection(
            slim_ellipse(), second_ellipse(2.30), [0.0, 0.0], [2.30, 0.5],
            stop=StoppingConfig(max_outer_iters=500),
        )
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.outer_iters <= 500
        a, b = slim_ellipse(), second_ellipse(2.30)
        assert a.violation(rep.x_last) <= 1e-8
        assert b.violation(rep.x_last) <= 1e-8

    def test_anchor_traces_stay_feasible(self):
        a, b = slim_ellipse(), second_ellipse(2.50)
        rep = averaged_projection(a, b, [0.0, 0.0], [2.50, 0.5])
        for pa in rep.anchor_trace:
            assert a.violation(pa) <= 1e-10
        for pb in rep.y_trace:
            assert b.violation(pb) <= 1e-10


class TestExactAlternating:
    def test_feasible_instance_stalls_with_positive_violation(self):
        rep = exact_alternating(slim_ellipse(), halfspace_at(1.30), [0.0, 0.0])
        assert rep.stop_code is StopCode.LACK_OF_PROGRESS
        assert 0.0 < rep.min_violation <= 1e-6

    def test_disjoint_disks_reach_set_distance(self):
        a = Ball(center=[-2.0, 0.0], radius=1.0)
        b = Ball(center=[2.0, 0.0], radius=1.0)
        rep = exact_alternating(a, b, [-1.5, 0.0])
        assert rep.stop_code is StopCode.LACK_OF_PROGRESS
        assert float(np.linalg.norm(rep.x_last - rep.y_last)) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_identical_sets_stop_immediately(self):
        rep = exact_alternating(unit_disk(), unit_disk(), [0.3, 0.1])
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.outer_iters == 0

    def test_requires_exact_projections(self):
        rep = exact_alternating(unit_disk(), halfspace_at(0.5), [0.0, 0.0])
        assert rep.stop_code in (StopCode.CONVERGED_FEASIBLE, StopCode.LACK_OF_PROGRESS)

    def test_empty_intersection_distance_ellipse_halfspace(self):
        a, b = slim_ellipse(), halfspace_at(1.50)
        rep = exact_alternating(a, b, [0.0, 0.0])
        gap = float(np.linalg.norm(rep.x_last - rep.y_last))
        assert gap == pytest.approx(dist_ellipse_halfspace(a, b), abs=1e-4)

    @pytest.mark.parametrize(
        "solve, with_y0",
        [
            (acondg1, False),
            (acondg2, True),
            (averaged_projection, True),
            (exact_alternating, False),
            (exact_alternating, True),
        ],
        ids=["acondg1", "acondg2", "averaged", "exact_alternating",
             "exact_alternating-y0"],
    )
    def test_iteration_cap_code(self, solve, with_y0):
        a, b = slim_ellipse(), second_ellipse(2.50)
        y0 = {"y0": [2.50, 0.5]} if with_y0 else {}
        rep = solve(a, b, [0.0, 0.0], stop=StoppingConfig(max_outer_iters=3), **y0)
        assert rep.stop_code is StopCode.ITERATION_CAP
        assert rep.outer_iters == 3
        assert len(rep.x_trace) == len(rep.violations) == 4

    def test_y_movement_counts_toward_lack_of_progress(self):
        # x stays at (1, 0) from the start, but step 1 moves y from y0 =
        # (2, 5) to (2, 0): only steps 2 and 3 make the stalled streak.
        a = Ball(center=[0.0, 0.0], radius=1.0)
        b = Halfspace(normal=[-1.0, 0.0], offset=-2.0)
        rep = exact_alternating(a, b, [1.0, 0.0], y0=[2.0, 5.0])
        assert rep.stop_code is StopCode.LACK_OF_PROGRESS
        assert rep.outer_iters == 3

    @pytest.mark.parametrize("solve", [acondg1, exact_alternating])
    def test_y_iterate_in_a_stops_on_the_half_step(self, solve):
        # y1 = (0.5, 0) lies in the unit disk, so step 1 ends before its
        # projection onto A: x and its violation stay those of row 0.
        rep = solve(unit_disk(), halfspace_at(0.5), [0.0, 0.0])
        assert rep.stop_code is StopCode.CONVERGED_FEASIBLE
        assert rep.outer_iters == 1
        assert np.array_equal(rep.x_trace[1], rep.x_trace[0])
        assert [tuple(y) for y in rep.y_trace] == [(0.5, 0.0)]
        assert rep.violations[1] == (0.5, 0.0)
        assert rep.inner_iters_per_k == [0, 0]

    @pytest.mark.parametrize(
        "solve, code, outer",
        [(acondg1, StopCode.CONVERGED_FEASIBLE, 1),
         (exact_alternating, StopCode.LACK_OF_PROGRESS, 3)],
        ids=["acondg1", "exact_alternating"],
    )
    def test_eps_feas_stops_only_a_run_with_an_inexact_projection(
        self, solve, code, outer
    ):
        # The sets lie 0.05 apart, under eps_feas = 0.1: ACondG1 converges
        # at the first step, while ExactAlt ignores eps_feas and stalls.
        a = Ball(center=[0.0, 0.0], radius=1.0)
        rep = solve(a, halfspace_at(1.05), [0.0, 0.0], stop=StoppingConfig(eps_feas=0.1))
        assert rep.stop_code is code
        assert rep.outer_iters == outer
        assert rep.min_violation == pytest.approx(0.05)


CAPPED = CondGLimits(max_inner_iters=2, degenerate_gap_tol=1e-14)


class TestInnerCapPropagation:
    @pytest.mark.parametrize(
        "b, run",
        [
            pytest.param(
                halfspace_at(1.50),
                lambda a, b: acondg1(a, b, [0.0, 0.0], limits=CAPPED),
                id="acondg1",
            ),
            pytest.param(
                second_ellipse(2.40),
                lambda a, b: acondg2(a, b, [0.0, 0.0], [2.40, 0.5], limits=CAPPED),
                id="acondg2",
            ),
        ],
    )
    def test_outer_continues_after_inner_cap(self, b, run):
        a = slim_ellipse()
        rep = run(a, b)
        caps = rep.inner_cap_iters
        assert caps
        # Each outer step is recorded at most once, in order.
        assert all(k0 < k1 for k0, k1 in zip(caps, caps[1:]))
        assert 1 <= caps[0] and caps[-1] <= rep.outer_iters
        for x in rep.x_trace:
            assert a.violation(x) <= 1e-10
        for y in rep.y_trace:
            assert b.violation(y) <= 1e-10
        assert rep.stop_code in (StopCode.LACK_OF_PROGRESS, StopCode.ITERATION_CAP)


class TestInputRules:
    # theta = 0.3 meets the one-set condition (theta < 1/2) but not the
    # two-set one (theta < 1/4).
    ONE_SET_ONLY = ForcingSchedule(ForcingParams(0.0, 0.3, 0.0))

    @pytest.mark.parametrize("solve", [acondg2, averaged_projection])
    def test_two_set_solvers_hold_a_schedule_to_their_regime(self, solve):
        a, b = slim_ellipse(), second_ellipse(2.30)
        with pytest.raises(InputError) as err:
            solve(a, b, [0.0, 0.0], [2.30, 0.5], schedule=self.ONE_SET_ONLY)
        assert err.value.path == "schedule"
        assert "two-set regime" in str(err.value)

    def test_one_set_solver_accepts_a_one_set_schedule(self):
        rep = acondg1(
            slim_ellipse(), halfspace_at(1.30), [0.0, 0.0], schedule=self.ONE_SET_ONLY
        )
        assert rep.schedule_trace[0].theta == 0.3

    @pytest.mark.parametrize("solve", [acondg2, averaged_projection])
    def test_missing_y0_names_the_argument(self, solve):
        with pytest.raises(InputError) as err:
            solve(slim_ellipse(), second_ellipse(2.30), [0.0, 0.0], None)
        assert err.value.path == "y0"

    def test_bad_start_vectors_name_the_argument(self):
        with pytest.raises(InputError) as err:
            acondg1(slim_ellipse(), halfspace_at(1.30), [0.0, 0.0, 0.0])
        assert err.value.path == "x0"
        with pytest.raises(InputError) as err:
            acondg2(unit_disk(), unit_disk(), [0.0, 0.0], [float("nan"), 0.0])
        assert err.value.path == "y0"

    def test_dimension_mismatch_names_set_b(self):
        b = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
        with pytest.raises(InputError) as err:
            exact_alternating(unit_disk(), b, [0.0, 0.0])
        assert err.value.path == "set_b"
