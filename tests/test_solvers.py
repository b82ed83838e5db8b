import dataclasses
import math
import sys

import numpy as np
import pytest

from feasib import (
    Ball,
    Box,
    Ellipsoid,
    ForcingParams,
    ForcingSchedule,
    Halfspace,
    InputError,
    RANGE,
    START_TOL,
    StopCode,
    StoppingConfig,
    acondg1,
    acondg2,
    averaged_projection,
    dist_ellipse_halfspace,
    dist_two_bodies,
    exact_alternating,
)
from feasib import bodies, condg, solvers
from feasib.instances import (
    _solver_call,
    table1_config,
    table2_config,
    table_config,
    table_reference,
)
from feasib.runner import solve_config, trace_lines
from feasib.solvers import _drive, check_pair

from _helpers import (
    VECTOR_RANGE,
    assert_refused,
    SQRT_202,
    boundary_point,
    containing_body,
    halfspace_at,
    ill_conditioned_ellipsoid,
    inner_limits,
    random_ball,
    random_box,
    random_ellipsoid,
    random_halfspace,
    random_rotation,
    reference_alternate,
    reference_schedule,
    sample_members,
    second_ellipse,
    slim_ellipse,
    unit_disk,
)


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
    schedule = ForcingSchedule(gamma, theta, lam)
    return check_pair(a, b, [0.0, 0.0], [0.0, 0.0], inexact, schedule)[2]


def driven_params(rows, schedule=ForcingSchedule()):
    """The forcing parameters of each row when the outer driver steps
    through the violation pairs ``rows``, row 0 first. The step stores no
    iterates and never stalls, and the verdict is the larger violation, so
    only a zero pair or the iteration cap stops the run."""
    pairs = iter(rows[1:])

    def step(params):
        return None, None, next(pairs), (), math.inf

    stop = StoppingConfig(max_outer_iters=len(rows) - 1)
    rep = _drive((None, None, rows[0]), step, max, schedule, stop, 0.0)
    return rep.schedule_trace


def driven_stop(first, steps, max_outer_iters=100):
    """The stop code and outer count when the outer driver, at the default
    tolerances (``feas_tol = eps_lack = 1e-8``), starts at the verdict
    ``first`` and steps through the ``(verdict, moved)`` pairs ``steps``."""
    pairs = iter(steps)

    def step(params):
        v, moved = next(pairs)
        return None, None, (v, v), (), moved

    stop = StoppingConfig(max_outer_iters=max_outer_iters)
    rep = _drive((None, None, (first, first)), step, max, ForcingSchedule(), stop, 1e-8)
    return rep.stop_code.letter, rep.outer_iters


class TestStopOrder:
    """``_drive`` tests its stops in its documented order: a verdict of
    exactly 0, then a second step in a row that moved at most ``eps_lack``,
    then a verdict at most ``feas_tol``, and the cap after the last step."""

    @pytest.mark.parametrize(
        "first, steps, cap, expected",
        [
            (5e-9, [], 100, ("C", 0)),
            (1.0, [(0.5, 1e-9), (0.0, 1e-9)], 100, ("C", 2)),
            # A stalled run is reported as stalled even when its verdict
            # dips under feas_tol in the step that ends the streak.
            (1.0, [(0.5, 1e-9), (5e-9, 1e-9)], 100, ("L", 2)),
            (1.0, [(5e-9, 1e-9)], 100, ("C", 1)),
            (1.0, [(0.5, 1e-9), (0.5, 1.0), (0.5, 1e-9), (0.5, 1e-8)], 100, ("L", 4)),
            (1.0, [(0.5, 1e-9), (0.5, 1.0)], 2, ("I", 2)),
        ],
        ids=["start-within-feas-tol", "zero-before-lack", "lack-before-feas-tol",
             "one-still-step-then-feas-tol", "a-move-resets-the-streak", "cap"],
    )
    def test_each_stop_is_tested_in_order(self, first, steps, cap, expected):
        assert driven_stop(first, steps, cap) == expected


# Each scalar field of the solver and inner-loop config objects, by path,
# and the call that sets it to ``bad``.
SCALAR_FIELDS = {
    "gamma": lambda bad: ForcingParams(bad, 0.0, 0.0),
    "lam": lambda bad: ForcingParams(0.0, 0.0, bad),
    "stopping.eps_feas": lambda bad: StoppingConfig(eps_feas=bad),
    "stopping.eps_lack": lambda bad: StoppingConfig(eps_lack=bad),
    **{
        f"schedule.{name}": lambda bad, name=name: ForcingSchedule(**{name: bad})
        for name in ("gamma0", "theta0", "lambda0", "tau", "delta")
    },
}


class TestForcingSchedule:
    def test_one_set_conditions_enforced(self):
        with pytest.raises(ValueError):
            regime_check(1, 0.3, 0.1, 0.11)
        with pytest.raises(ValueError):
            regime_check(1, 0.0, 0.5, 0.0)
        assert regime_check(1, 0.3, 0.45, 0.09).theta0 == 0.45

    def test_two_set_conditions_enforced(self):
        with pytest.raises(ValueError):
            regime_check(2, 0.0, 0.25, 0.0)
        with pytest.raises(ValueError):
            regime_check(2, 0.3, 0.1, 0.11)
        assert regime_check(2, 0.1, 0.2, 0.19).theta0 == 0.2

    def test_factor_ranges(self):
        with pytest.raises(ValueError):
            ForcingSchedule(0.0, 0.0, 0.0, tau=1.0)
        with pytest.raises(ValueError):
            ForcingSchedule(0.0, 0.0, 0.0, delta=0.0)

    # Row k + 1 carries the parameters the driver chose after comparing
    # row k with row k - 1; rows 0 and 1 carry the initial parameters.
    def test_progress_keeps_parameters(self):
        trace = driven_params([(1.0, 2.0), (0.5, 2.0), (1.0, 1.0)])
        assert trace[2] is trace[0]

    def test_no_progress_scales_by_delta(self):
        s = ForcingSchedule(0.09, 0.19, 0.19, tau=0.9, delta=0.1)
        trace = driven_params([(1.0, 1.0), (0.95, 0.95), (1.0, 1.0)], s)
        assert trace[2].gamma == pytest.approx(0.009)
        assert trace[2].theta == pytest.approx(0.019)
        assert trace[2].lam == pytest.approx(0.019)

    def test_zero_violations_count_as_progress(self):
        trace = driven_params([(0.0, 1.0), (0.0, 0.99), (1.0, 1.0)])
        assert trace[2] is trace[0]

    def test_no_baseline_shows_no_progress(self):
        # Before a y-iterate exists its violation is inf: there is no
        # baseline to improve on, so only the x side can show progress.
        s = ForcingSchedule()
        trace = driven_params([(1.0, math.inf), (1.0, 0.5), (1.0, 1.0)], s)
        assert trace[2] == trace[0].scaled(s.delta)
        trace = driven_params([(1.0, math.inf), (0.5, 0.5), (1.0, 1.0)], s)
        assert trace[2] is trace[0]

    def test_parameters_scaled_to_zero_stay_zero(self):
        # A step that never makes progress scales parameters of about
        # 1e-300 down through the subnormals to exactly 0.0. From there
        # ``_drive`` skips the progress test, and every row keeps that object.
        s = ForcingSchedule(1e-300, 2e-300, 3e-300)
        rows = [(1.0, 1.0)] * 40
        trace = driven_params(rows, s)
        assert trace == reference_schedule(rows, s)
        zero = trace.index(ForcingParams(0.0, 0.0, 0.0))
        assert 0.0 < trace[zero - 1].lam < sys.float_info.min
        assert zero < 35 and all(p is trace[zero] for p in trace[zero:])

    def test_zero_parameters_are_kept_without_progress(self):
        s = ForcingSchedule(0.0, 0.0, 0.0)
        trace = driven_params([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], s)
        assert trace[2] is trace[0]

    @pytest.mark.parametrize(
        "solve, shows",
        [
            # Row 0 of ACondG1 has no y-iterate: an inf baseline.
            (lambda: acondg1(slim_ellipse(), halfspace_at(1.50), [0.0, 0.0]),
             lambda p, c, params: p[1] == math.inf),
            (lambda: exact_alternating(slim_ellipse(), halfspace_at(1.42), [0.0, 0.0]),
             lambda p, c, params: params == ForcingParams(0.0, 0.0, 0.0)
             and not any(cv <= 0.9 * pv for pv, cv in zip(p, c))),
            (lambda: acondg2(slim_ellipse(), second_ellipse(2.36), [0.0, 0.0],
                             [2.36, 0.5]),
             lambda p, c, params: not any(cv <= 0.9 * pv for pv, cv in zip(p, c))),
            # Set A lies inside set B, so every averaged iterate is in B.
            (lambda: averaged_projection(
                Ball(center=[0.0, 0.0], radius=1.0),
                Box(lower=[-2.0, -2.0], upper=[2.0, 2.0]), [1.0, 0.0], [2.0, 2.0]),
             lambda p, c, params: p[0] == c[0] == 0.0),
        ],
        ids=["acondg1-inf-baseline", "exact-zero-parameters", "acondg2-shrinks",
             "averaged-zero-violations"],
    )
    def test_solves_follow_the_progress_rule(self, solve, shows):
        """Recompute every row's parameters from the two rows before it, on
        a solve that shows the case ``shows`` names at some step."""
        rep, tau, delta = solve(), 0.9, 0.1
        trace, viol = rep.schedule_trace, rep.violations
        assert trace[1] == trace[0]
        seen = False
        for k in range(1, rep.outer_iters):
            prev, curr, params = viol[k - 1], viol[k], trace[k]
            progress = any(cv <= tau * pv < math.inf for pv, cv in zip(prev, curr))
            kept = progress or params == ForcingParams(0.0, 0.0, 0.0)
            assert trace[k + 1] == (params if kept else params.scaled(delta))
            seen = seen or shows(prev, curr, params)
        assert seen

    def test_defaults_match_experiment_values(self):
        s = ForcingSchedule()
        assert s.gamma0 == pytest.approx(0.1 - 1e-8)
        assert s.theta0 == pytest.approx(0.2 - 1e-8)
        assert s.lambda0 == pytest.approx(0.2 - 1e-8)
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
            (lambda: ForcingSchedule(0.0, 0.0, 0.0, tau=1.0), "schedule.tau"),
        ],
    )
    def test_range_errors_name_the_field(self, build, path):
        with pytest.raises(InputError) as err:
            build()
        assert err.value.path == path

    @pytest.mark.parametrize("path", list(SCALAR_FIELDS))
    @pytest.mark.parametrize("bad", ["x", None, "1e-3", True])
    def test_malformed_numbers_name_the_field(self, path, bad):
        with pytest.raises(InputError) as err:
            SCALAR_FIELDS[path](bad)
        assert err.value.path == path
        assert err.value.message.startswith("malformed number: ")


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


# Each solver run from float64 start points the caller keeps.
FEW = StoppingConfig(max_outer_iters=5)
START_POINT_RUNS = {
    "ACondG1": lambda x0, y0: acondg1(slim_ellipse(), halfspace_at(1.30), x0, stop=FEW),
    "ACondG2": lambda x0, y0: acondg2(slim_ellipse(), second_ellipse(2.30), x0, y0, stop=FEW),
    "Averaged": lambda x0, y0: averaged_projection(
        slim_ellipse(), second_ellipse(2.30), x0, y0, stop=FEW
    ),
    "ExactAlt2": lambda x0, y0: exact_alternating(
        slim_ellipse(), second_ellipse(2.30), x0, FEW, y0
    ),
}


class TestReportIsAValue:
    @pytest.mark.parametrize("solver", START_POINT_RUNS)
    def test_every_report_field_is_frozen(self, solver):
        rep = START_POINT_RUNS[solver](np.zeros(2), np.array([2.30, 0.5]))
        for f in dataclasses.fields(rep):
            value = getattr(rep, f.name)
            assert value is None or isinstance(value, (tuple, StopCode)), f.name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, f.name, value)

    @pytest.mark.parametrize("solver", START_POINT_RUNS)
    def test_a_later_edit_of_the_start_points_leaves_the_report(self, solver):
        x0, y0 = np.zeros(2), np.array([2.30, 0.5])
        rep = START_POINT_RUNS[solver](x0, y0)
        traces = [rep.x_trace, rep.y_trace]
        if rep.anchor_trace is not None:
            traces.append(rep.anchor_trace)
        first = [trace[0].tolist() for trace in traces]
        x0 += 0.25
        y0 += 0.25
        assert [trace[0].tolist() for trace in traces] == first


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


class TestInnerCapPropagation:
    @pytest.mark.parametrize(
        "b, run",
        [
            pytest.param(
                halfspace_at(1.50),
                lambda a, b: acondg1(a, b, [0.0, 0.0]),
                id="acondg1",
            ),
            pytest.param(
                second_ellipse(2.40),
                lambda a, b: acondg2(a, b, [0.0, 0.0], [2.40, 0.5]),
                id="acondg2",
            ),
        ],
    )
    @inner_limits(cap=2, gap_tol=1e-14)
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


def averaged_table_run():
    """Table 2's 2.30 pair under the averaged scheme, through ``solve_config``."""
    config = dataclasses.replace(table2_config("2.30", "ACondG2"), solver="Averaged")
    return solve_config(config)


class TestInnerResults:
    """A report keeps each inner projection's result, in call order, in the
    row of the step that made it; the counts it reports are read off them."""

    @staticmethod
    def projected(rep, k, solver):
        """Row ``k``'s iterates that inner projections returned, in call
        order. An alternating step projects y, then x; a y-iterate in A
        ends the step before x's projection. The averaged step projects
        its A-side anchor, then its B-side one."""
        if solver == "Averaged":
            return [rep.anchor_trace[k], rep.y_trace[k]]
        y = rep.y_trace[k - (len(rep.x_trace) - len(rep.y_trace))]
        out = [y] if solver == "ACondG2" else []
        return out if rep.violations[k][1] == 0.0 else out + [rep.x_trace[k]]

    def kept_runs(self, table_reports):
        runs = [(solver, rep) for (_, _, solver), rep in table_reports.items()
                if solver.startswith("ACondG")]
        return runs + [("Averaged", averaged_table_run())]

    def test_each_row_keeps_the_results_whose_points_it_holds(self, table_reports):
        for solver, rep in self.kept_runs(table_reports):
            assert len(rep.inner_results) == len(rep.x_trace) and rep.inner_results[0] == ()
            for k in range(1, len(rep.x_trace)):
                results, points = rep.inner_results[k], self.projected(rep, k, solver)
                assert len(results) == len(points), (solver, k)
                assert all(r.w_plus is p for r, p in zip(results, points)), (solver, k)

    def test_the_kept_inner_iterations_are_the_trace_column(self, table_reports):
        for solver, rep in self.kept_runs(table_reports):
            column = [int(line.rsplit(",", 1)[1]) for line in trace_lines(rep, 2)]
            kept = [sum(r.inner_iters for r in row) for row in rep.inner_results]
            assert column == kept == rep.inner_iters_per_k, solver
            assert rep.inner_iter_total == sum(kept) > 0, solver

    @inner_limits(cap=2)
    def test_a_cap_of_two_stops_the_inner_loops_of_these_rows(self):
        # Pinned rows; the report reads them off its kept stop reasons.
        runs = [
            (solve_config(table1_config("1.42", "ACondG1")), [4, 5, 6, 7, 8]),
            (solve_config(table2_config("2.358", "ACondG2")), list(range(2, 15))),
            (averaged_table_run(), list(range(3, 52))),
        ]
        for rep, capped in runs:
            assert rep.inner_cap_iters == capped


def descent_pair(rng, n, b_kinds):
    """A random A (an ellipsoid of condition number 1 to 1e8, or a ball) and
    a random B of one of ``b_kinds``, in dimension ``n``, with centres in
    ``[-1, 1]^n`` so that many pairs meet or nearly touch."""

    def body(kind):
        if kind == "ellipsoid":
            cond = 10.0 ** rng.uniform(0.0, 8.0)
            return ill_conditioned_ellipsoid(rng, n, cond, center_scale=1.0)
        if kind == "halfspace":
            return random_halfspace(rng, n)
        return {"ball": random_ball, "box": random_box}[kind](rng, n, center_scale=1.0)

    return body(("ellipsoid", "ball")[rng.integers(2)]), body(rng.choice(b_kinds))


class TestDescentInvariant:
    """The alternating solvers never let ``d_k = |x_k - y_k|`` grow.

    ``y_{k+1}`` is at least as near ``x_k`` as the member ``y_k``: an exact
    projection is the nearest point, and a Frank-Wolfe loop warm-started at
    its anchor lowers ``|w - p|`` at every step and returns the anchor when
    it takes none. In the same way ``x_{k+1}`` is at least as near
    ``y_{k+1}`` as ``x_k``. So ``d_{k+1} <= d_k`` on every pair of rows that
    both have a y-iterate, up to ``8 eps (|x_k| + |y_k|)`` of rounding. The
    averaged scheme moves a midpoint, not a pair, and has no such
    invariant. A box projected by Frank-Wolfe is left out: its inner loop
    runs to the cap, and one such run took 87 s.
    """

    ANY_B = ("ellipsoid", "ball", "box", "halfspace")
    # Each solver's kinds of B, and its call.
    SOLVES = {
        "ACondG1": (ANY_B, lambda a, b, x0, y0, stop: acondg1(a, b, x0, stop=stop)),
        "ACondG2": (
            ("ellipsoid", "ball"),
            lambda a, b, x0, y0, stop: acondg2(a, b, x0, y0, stop=stop),
        ),
        "ExactAlt": (ANY_B, lambda a, b, x0, y0, stop: exact_alternating(a, b, x0, stop)),
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("solver", list(SOLVES))
    def test_the_distance_between_the_iterates_never_grows(self, solver, seed):
        b_kinds, solve = self.SOLVES[solver]
        rng = np.random.default_rng(900 + seed)
        eps = np.finfo(float).eps
        for n in [2] * 4 + [3] * 4 + [16] * 4:
            a, b = descent_pair(rng, n, b_kinds)
            x0, y0 = sample_members(a, rng, 1)[0], sample_members(b, rng, 1)[0]
            rep = solve(a, b, x0, y0, StoppingConfig(max_outer_iters=60))
            # Row k holds x_trace[k]; the rows with a y-iterate are the last
            # len(y_trace) rows.
            xs = rep.x_trace[len(rep.x_trace) - len(rep.y_trace):]
            rows = zip(xs, rep.y_trace, xs[1:], rep.y_trace[1:])
            for k, (xk, yk, x_next, y_next) in enumerate(rows):
                rise = np.linalg.norm(x_next - y_next) - np.linalg.norm(xk - yk)
                slack = 8.0 * eps * (np.linalg.norm(xk) + np.linalg.norm(yk))
                assert rise <= slack, (n, k, rise, slack)


def meeting_pair(rng, n, depth):
    """A random ellipsoid A and a unit ball B that reaches ``depth`` into A
    along A's outward normal ``nu`` at a boundary point ``p``, their common
    point ``z = p - (depth / 2) nu``, and start points ``x0`` in A and ``y0``
    in B: the projections of a point off ``p`` in A's tangent plane, from
    which the runs creep along the thin gap between the two boundaries."""
    a = random_ellipsoid(rng, n)
    u = rng.normal(size=n)
    p = boundary_point(a, u / np.linalg.norm(u))
    nu = a.shape @ (p - a.center)
    nu /= np.linalg.norm(nu)
    b = Ball(center=p + (1.0 - depth) * nu, radius=1.0)
    t = rng.normal(size=n)
    t -= (t @ nu) * nu
    off = p + 0.3 * t / np.linalg.norm(t)
    return a, b, p - 0.5 * depth * nu, a.project(off), b.project(off)


class TestQuasiFejer:
    """Every row of the solvers is quasi-Fejér with respect to a common
    point ``z``, with the inner loops' final gaps as its error.

    A Frank-Wolfe output ``w`` for the point ``p`` with final gap ``g``
    has ``<p - w, z - w> <= g`` for every member ``z``, so ``|w - z|^2 <=
    |p - z|^2 + 2 g``, and an exact projection has ``g = 0``. An
    alternating step projects twice in a row, so ``|x_{k+1} - z|^2 <=
    |x_k - z|^2 + 2 (g_B + g_A)``; the averaged step takes the midpoint of
    its two outputs, and as ``|. - z|^2`` is convex its factor is 1.
    ExactAlt projects exactly, so its factor is 0 and each row is plain
    Fejér. Row ``k + 1``'s gaps are the final gaps of the inner results
    the report keeps for it, ``inner_results[k + 1]``. B of each pair is a
    ball, which ACondG2 and Averaged project by its plane kernel.
    """

    SOLVES = {
        "ACondG1": (2.0, lambda a, b, x0, y0, stop: acondg1(a, b, x0, stop=stop)),
        "ACondG2": (2.0, lambda a, b, x0, y0, stop: acondg2(a, b, x0, y0, stop=stop)),
        "Averaged": (
            1.0,
            lambda a, b, x0, y0, stop: averaged_projection(a, b, x0, y0, stop=stop),
        ),
        "ExactAlt": (0.0, lambda a, b, x0, y0, stop: exact_alternating(a, b, x0, stop=stop)),
    }

    @pytest.mark.parametrize("solver", list(SOLVES))
    def test_each_row_moves_away_from_a_common_point_by_at_most_its_gaps(self, solver):
        c, solve = self.SOLVES[solver]
        for n in (2, 3, 16):
            rng = np.random.default_rng(n)
            a, b, z, x0, y0 = meeting_pair(rng, n, 1e-2)
            assert a.violation(z) == b.violation(z) == 0.0
            rep = solve(a, b, x0, y0, StoppingConfig(max_outer_iters=100))
            assert rep.outer_iters == 100
            dist_sq = [float((x - z) @ (x - z)) for x in rep.x_trace]
            for k in range(rep.outer_iters):
                error = c * sum(res.final_gap for res in rep.inner_results[k + 1])
                slack = 1e-13 * (1.0 + dist_sq[k])
                assert dist_sq[k + 1] <= dist_sq[k] + error + slack, (n, k)


class TestInputRules:
    # theta = 0.3 meets the one-set condition (theta < 1/2) but not the
    # two-set one (theta < 1/4).
    ONE_SET_ONLY = ForcingSchedule(0.0, 0.3, 0.0)

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

    @pytest.mark.parametrize(
        "call, path",
        [
            # y0 passed by position, as the other solvers take it, lands on stop.
            (lambda a, b: exact_alternating(a, b, [0.0, 0.0], [1.5, 0.0]), "stop"),
            (lambda a, b: exact_alternating(a, b, [0.0, 0.0], None), "stop"),
            (lambda a, b: acondg1(a, b, [0.0, 0.0], schedule={"gamma0": 0.1}), "schedule"),
            (lambda a, b: acondg1(a, b, [0.0, 0.0], schedule={}), "schedule"),
            (lambda a, b: acondg1(a, b, [0.0, 0.0], stop={"eps_feas": 1e-8}), "stop"),
            (lambda a, b: acondg2(a, b, [0.0, 0.0], [1.5, 0.0], stop=(1e-8,)), "stop"),
            (lambda a, b: averaged_projection(a, b, [0.0, 0.0], [1.5, 0.0], stop=[]), "stop"),
            (lambda a, b: condg.condg_project(a, (0.1, 0.2, 0.2), [0.0, 0.0], [2.0, 0.0]),
             "params"),
        ],
        ids=["exact-y0-as-stop", "exact-stop-none", "acondg1-schedule-dict",
             "acondg1-schedule-empty", "acondg1-stop-dict", "acondg2-stop-tuple",
             "averaged-stop-list", "condg-params-tuple"],
    )
    def test_a_config_object_of_another_type_is_refused_at_its_argument(self, call, path):
        # Unchecked, each raised AttributeError mid-run, or ran on the
        # default schedule in place of an empty dict.
        expected = {"stop": "StoppingConfig", "schedule": "ForcingSchedule",
                    "params": "ForcingParams"}[path]
        with pytest.raises(InputError) as err:
            call(unit_disk(), Ball(center=[1.5, 0.0], radius=1.0))
        assert err.value.path == path
        assert err.value.message.startswith(f"expected a {expected}, got ")

    def test_dimension_mismatch_names_set_b(self):
        b = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
        with pytest.raises(InputError) as err:
            exact_alternating(unit_disk(), b, [0.0, 0.0])
        assert err.value.path == "set_b"


def count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` in every feasib module that binds it, as the benchmark's
    tracer does, and return the list that each call appends to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "feasib" or name.startswith("feasib."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestCheckedOnce:
    """A run checks its input vectors once, in ``check_pair``; the loop
    checks nothing, since input in range keeps every iterate finite."""

    @pytest.mark.parametrize(
        "label, solver", [("2.359", "ExactAlt2"), ("2.358", "ACondG2")]
    )
    def test_a_table_run_checks_each_vector_where_it_enters(
        self, monkeypatch, label, solver
    ):
        config = table2_config(label, solver)
        config.bodies  # built before counting
        # ``as_vector`` checks through ``_vector``, as ``condg_project``
        # checks its point (against the wider point range).
        checks = count_calls(monkeypatch, bodies._vector)
        report = solve_config(config)
        projections = [res for row in report.inner_results for res in row]
        assert report.outer_iters > 100
        assert (len(projections) > 0) == (solver == "ACondG2")
        # x0 and y0, then the anchor and the point of each inner projection.
        assert len(checks) == 2 + 2 * len(projections)

    @pytest.mark.parametrize(
        "solver, n",
        [("ExactAlt", 2), ("ACondG1", 2), ("Averaged", 2), ("ExactAlt", 16)],
        ids=["ExactAlt", "ACondG1", "Averaged", "ExactAlt-16D"],
    )
    def test_an_overflowing_iterate_raises(self, solver, n):
        # Input whose first step would overflow, so that a stop rule would
        # read the non-finite iterate's violation max(0.0, nan) as 0.0, is
        # refused at its path before any step: far centres, a far x0.
        x0 = [1e308] * n
        assert_refused(lambda: Ball(center=x0, radius=1.0), "center", VECTOR_RANGE)
        assert_refused(lambda: Ellipsoid(center=x0, shape=np.eye(n)), "center", VECTOR_RANGE)
        edge = [RANGE] * n
        a = Ball(center=edge, radius=1.0)
        b = Halfspace(normal=[1.0] * n, offset=0.0)
        disk = Ellipsoid(center=edge, shape=np.eye(n))
        run = {
            "ExactAlt": lambda: exact_alternating(a, b, x0),
            "ACondG1": lambda: acondg1(a, b, x0),
            "Averaged": lambda: averaged_projection(disk, disk, x0, x0),
        }[solver]
        assert_refused(run, "x0", VECTOR_RANGE)


def special_vectors(n):
    """``(v, in_range)`` pairs: an n-vector with inf, -inf, nan, -0.0, the
    least subnormal, +-RANGE, +-2 RANGE or a value near the float maximum in
    its first or last entry."""
    values = (math.inf, -math.inf, math.nan, -0.0, 5e-324, RANGE, -RANGE,
              2.0 * RANGE, -2.0 * RANGE, 1.7e308)
    for value in values:
        for i in sorted({0, n - 1}):
            v = np.linspace(-3.0, 5.0, n)
            v[i] = value
            yield v, abs(value) <= RANGE


class TestShortAndLongVectors:
    """Vectors of at most ``bodies._SHORT`` entries are tested over Python
    floats, longer ones with numpy; both sides give the same answers."""

    SIZES = [1, 2, bodies._SHORT, bodies._SHORT + 1, 16, 256]

    @pytest.mark.parametrize("n", SIZES)
    def test_as_vector_states_the_range(self, n):
        for v, in_range in special_vectors(n):
            for x in (v, v.tolist()):
                if in_range:
                    assert np.array_equal(bodies.as_vector(x, n, "x0"), v)
                else:
                    assert_refused(lambda: bodies.as_vector(x, n, "x0"), "x0", VECTOR_RANGE)

    @pytest.mark.parametrize("n", SIZES)
    def test_inf_norm_is_the_max_of_absolute_values(self, n):
        # A difference of finite vectors holds finite or +-inf entries.
        diffs = [v for v, _ in special_vectors(n) if not np.isnan(v).any()]
        signed_infs = np.where(np.arange(n) % 2 == 0, -math.inf, math.inf)
        for d in (*diffs, np.full(n, -0.0), np.full(n, 5e-324), signed_infs):
            assert bodies._inf_norm(d).hex() == float(np.max(np.abs(d))).hex()


def table_case(table, label, solver):
    """A table run as ``(a, b, x0, y0, inexact, kwargs, solver function)``."""
    config = (table1_config if table == 1 else table2_config)(label, solver)
    name, inexact, kwargs = _solver_call(config)
    a, b = config.bodies
    return a, b, config.x0, kwargs.get("y0"), inexact, kwargs, getattr(solvers, name)


def disjoint_ellipsoid_halfspace_case(n=16):
    """An n-D ellipsoid and a halfspace 0.1 above its highest point along a
    random axis u, with x0 the ellipsoid's lowest point, as an ExactAlt run."""
    rng = np.random.default_rng(n)
    rot = random_rotation(rng, n)
    semi = rng.permutation(np.linspace(0.6, 1.4, n))
    a = Ellipsoid(center=rng.uniform(-1.0, 1.0, n), shape=(rot * semi**-2) @ rot.T)
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    b = Halfspace(normal=-u, offset=-(a.support(u) + 0.1))
    x0 = a.lo_minimize(u)[0]
    return a, b, x0, None, (False, False), {}, exact_alternating


@pytest.mark.parametrize(
    "case",
    [
        lambda: table_case(1, "1.42", "ExactAlt1"),
        lambda: table_case(2, "2.358", "ExactAlt2"),
        lambda: table_case(1, "1.42", "ACondG1"),
        disjoint_ellipsoid_halfspace_case,
    ],
    ids=["ExactAlt1@1.42", "ExactAlt2@2.358", "ACondG1@1.42", "ExactAlt-16D"],
)
def test_one_call_per_exact_side_reports_what_two_calls_did(case):
    # The step measures and projects a point on each exactly projected side
    # with one ``_violation_project`` call; the reference makes the two
    # calls. Every row of the report is the same, bit for bit.
    a, b, x0, y0, inexact, kwargs, solve = case()
    report = solve(a, b, x0, **kwargs)
    reference = reference_alternate(
        a, b, x0, y0, inexact, kwargs.get("schedule"), kwargs.get("stop", StoppingConfig())
    )
    assert report.outer_iters > 10
    assert report.stop_code is reference.stop_code
    for got, want in ((report.x_trace, reference.x_trace), (report.y_trace, reference.y_trace)):
        assert len(got) == len(want)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert report.violations == reference.violations
    assert report.inner_iters_per_k == reference.inner_iters_per_k
    assert report.schedule_trace == reference.schedule_trace
    assert report.inner_cap_iters == reference.inner_cap_iters


@pytest.mark.parametrize(
    "solver, which, label, per_row, ended_in_a",
    [
        ("ACondG1", 1, "1.30", 1, 0),
        ("ACondG2", 2, "2.30", 2, 1),
        ("Averaged", 2, "2.30", 2, None),
        ("ExactAlt1", 1, "1.30", 0, None),
        ("ExactAlt2", 2, "2.30", 0, None),
    ],
)
def test_each_solvers_inexact_entry_is_what_its_run_does(
    solver, which, label, per_row, ended_in_a
):
    # ``solvers.INEXACT`` states which sets each solver projects inexactly.
    # Every row after row 0 holds one inner result per such set, except the
    # row an alternating run ends on when its y-iterate lies exactly in A,
    # which holds only B's (``ended_in_a``; None where no row ends so). A
    # run with no inexact set converges only at exactly 0.
    config = dataclasses.replace(table_config(which, label, f"ExactAlt{which}"), solver=solver)
    name, inexact, _ = _solver_call(config)
    assert inexact is solvers.INEXACT[name] and sum(inexact) == per_row
    report = solve_config(config)
    rows = report.inner_results[1:]
    ended = [k for k, v in enumerate(report.violations[1:], 1)
             if solver != "Averaged" and v[1] == 0.0]
    assert len(rows) > 1 and ended == ([] if ended_in_a is None else [len(rows)])
    if ended_in_a is not None:
        assert ended_in_a == int(inexact[1])
    for k, row in enumerate(rows, 1):
        assert len(row) == (ended_in_a if k in ended else per_row), k
    loose = solve_config(dataclasses.replace(config, stopping=StoppingConfig(eps_feas=1e-3)))
    if per_row == 0:
        assert loose.stop_code is report.stop_code is StopCode.LACK_OF_PROGRESS
        assert loose.outer_iters == report.outer_iters
    else:
        assert loose.stop_code is StopCode.CONVERGED_FEASIBLE
        assert min(loose.violations[-1]) <= 1e-3


def long_axis_scaled(config, factor):
    """``config`` with the long semi-axis of its set A scaled by ``factor``."""
    long, short = config.set_a["semi_axes"]
    set_a = {**config.set_a, "semi_axes": (long * factor, short)}
    return dataclasses.replace(config, set_a=set_a)


def test_a_change_in_the_13th_digit_keeps_the_stable_table_quantities(table_reports):
    # Each table run again with set A's long semi-axis scaled by 1 +- 1e-13.
    # The inner and outer counts of the inexact runs move (README,
    # "Rounding-sensitive results"); the stop codes, the ExactAlt outer
    # counts, the exact 0 of a C run's min_violation and the first four
    # digits of an L run's must not.
    runs = [(table1_config, 1, label) for label in table_reference(1)]
    runs += [(table2_config, 2, label) for label in table_reference(2)]
    for make, which, label in runs:
        for solver in table_reference(which)[label]:
            config = make(label, solver)
            base = table_reports[which, label, solver]
            for factor in (1.0 + 1e-13, 1.0 - 1e-13):
                rep = solve_config(long_axis_scaled(config, factor))
                at = (label, solver, factor)
                assert rep.stop_code is base.stop_code, at
                if solver.startswith("ExactAlt"):
                    assert rep.outer_iters == base.outer_iters, at
                if base.stop_code is StopCode.CONVERGED_FEASIBLE:
                    assert rep.min_violation == base.min_violation == 0.0, at
                else:
                    assert rep.min_violation == pytest.approx(base.min_violation, rel=1e-4), at
