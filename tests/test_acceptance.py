"""Acceptance suite, the package's acceptance gate: every criterion prints
one pass/fail line.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

import time

import numpy as np
import pytest

from feasib import (
    Ball,
    ForcingParams,
    StopCode,
    acondg1,
    acondg2,
    condg_project,
    dist_ellipse_halfspace,
    dist_two_bodies,
    exact_alternating,
    phi,
    projection_error_bound,
)

from _helpers import (
    SQRT_202,
    containing_body,
    diameter,
    halfspace_at,
    inner_limits,
    random_ball,
    random_body,
    random_compact_body,
    random_halfspace,
    sample_members,
    second_ellipse,
    slim_ellipse,
)

EXACT = ForcingParams(0.0, 0.0, 0.0)


def check(num, name, failures, detail=""):
    ok = not failures
    line = f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} failed: {failures}"


def psi_gap(trace, v, best):
    return [0.5 * float((w - v) @ (w - v)) - best for w in trace]


def test_criterion_01_infeasible_halfspace_violations():
    start = time.perf_counter()
    failures = []
    a = slim_ellipse()
    for beta in (1.43, 1.45, 1.50, 1.60):
        b = halfspace_at(beta)
        expected = beta - SQRT_202
        oracle = dist_ellipse_halfspace(a, b)
        if abs(oracle - expected) > 1e-9:
            failures.append(f"oracle mismatch at beta={beta}")
        for name, rep in (
            ("inexact", acondg1(a, b, [0.0, 0.0])),
            ("exact", exact_alternating(a, b, [0.0, 0.0])),
        ):
            if rep.stop_code is not StopCode.LACK_OF_PROGRESS:
                failures.append(f"{name} beta={beta}: stop {rep.stop_code.letter}")
            if abs(rep.min_violation - expected) > 1e-4:
                failures.append(
                    f"{name} beta={beta}: violation {rep.min_violation:.6e}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    check(1, "infeasible halfspace instances hit beta - sqrt(2.02)", failures,
          f"{elapsed:.2f}s")


def test_criterion_02_feasible_halfspace_behavior():
    failures = []
    a = slim_ellipse()
    for beta in (1.30, 1.35, 1.40, 1.42):
        b = halfspace_at(beta)
        rep = acondg1(a, b, [0.0, 0.0])
        if rep.stop_code is not StopCode.CONVERGED_FEASIBLE:
            failures.append(f"inexact beta={beta}: stop {rep.stop_code.letter}")
        if rep.min_violation != 0.0:
            failures.append(f"inexact beta={beta}: violation {rep.min_violation:.3e}")
        if rep.outer_iters > 10_000:
            failures.append(f"inexact beta={beta}: {rep.outer_iters} iterations")
        ex = exact_alternating(a, b, [0.0, 0.0])
        if ex.stop_code is not StopCode.LACK_OF_PROGRESS:
            failures.append(f"exact beta={beta}: stop {ex.stop_code.letter}")
        if not 0.0 < ex.min_violation <= 1e-6:
            failures.append(f"exact beta={beta}: violation {ex.min_violation:.3e}")
    check(2, "feasible instances: exact zero vs. boundary stall", failures)


def test_criterion_03_infeasible_ellipse_pair_violations():
    start = time.perf_counter()
    failures = []
    a = slim_ellipse()
    refs = {2.40: 4.01e-2, 2.50: 1.59e-1}
    for c1, ref in refs.items():
        b = second_ellipse(c1)
        _, xa, yb = dist_two_bodies(a, b)
        limit = min(b.violation(xa), a.violation(yb))
        if abs(limit - ref) > 2e-2 * ref:
            failures.append(f"oracle c1={c1}: {limit:.4e} vs {ref:.2e}")
        for name, rep in (
            ("inexact", acondg2(a, b, [0.0, 0.0], [c1, 0.5])),
            ("exact", exact_alternating(a, b, [0.0, 0.0], y0=[c1, 0.5])),
        ):
            if rep.stop_code is not StopCode.LACK_OF_PROGRESS:
                failures.append(f"{name} c1={c1}: stop {rep.stop_code.letter}")
            if abs(rep.min_violation - ref) > 2e-2 * ref:
                failures.append(f"{name} c1={c1}: {rep.min_violation:.4e}")
            if abs(rep.min_violation - limit) > 2e-2 * limit:
                failures.append(f"{name} c1={c1}: off oracle {limit:.4e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    check(3, "infeasible ellipse pairs hit the limit violations", failures,
          f"{elapsed:.2f}s")


def test_criterion_04_feasible_ellipse_pair_behavior():
    failures = []
    a = slim_ellipse()
    for c1 in (2.30, 2.35, 2.357, 2.358):
        b = second_ellipse(c1)
        rep = acondg2(a, b, [0.0, 0.0], [c1, 0.5])
        if rep.stop_code is not StopCode.CONVERGED_FEASIBLE:
            failures.append(f"inexact c1={c1}: stop {rep.stop_code.letter}")
        if rep.min_violation != 0.0:
            failures.append(f"inexact c1={c1}: violation {rep.min_violation:.3e}")
        ex = exact_alternating(a, b, [0.0, 0.0], y0=[c1, 0.5])
        if ex.stop_code is not StopCode.LACK_OF_PROGRESS:
            failures.append(f"exact c1={c1}: stop {ex.stop_code.letter}")
        if not ex.min_violation > 0.0:
            failures.append(f"exact c1={c1}: violation {ex.min_violation:.3e}")
    check(4, "feasible ellipse pairs: converge vs. stall", failures)


@inner_limits(cap=500, gap_tol=1e-14)
def test_criterion_05_sublinear_rate_suite():
    failures = []
    rng = np.random.default_rng(2025)
    for i in range(100):
        kind = "ellipsoid" if i % 2 == 0 else "box"
        body = random_compact_body(rng, kinds=(kind,))
        u = sample_members(body, rng, 1)[0]
        v = rng.uniform(-5.0, 5.0, 2)
        res = condg_project(body, EXACT, u, v, keep_trace=True)
        best = 0.5 * float(np.sum((body.project(v) - v) ** 2))
        bound = 8.0 * diameter(body) ** 2
        gaps = psi_gap(res.trace, v, best)
        for ell in range(1, len(gaps)):
            if gaps[ell] > bound / ell + 1e-10:
                failures.append(f"instance {i} ell={ell}: {gaps[ell]:.3e}")
                break
    check(5, "sublinear rate bound on 100 ellipsoid/box instances", failures)


@inner_limits(gap_tol=1e-14)
def test_criterion_06_strongly_convex_rate_suite():
    failures = []
    rng = np.random.default_rng(2026)
    done = 0
    while done < 100:
        body = random_ball(rng)
        v = rng.uniform(-5.0, 5.0, 2)
        dist = body.violation(v)
        if dist < 0.1:
            continue
        u = sample_members(body, rng, 1)[0]
        res = condg_project(body, EXACT, u, v, keep_trace=True)
        best = 0.5 * float(np.sum((body.project(v) - v) ** 2))
        q = max(0.5, 1.0 - (1.0 / body.radius) * dist / 8.0)
        gaps = psi_gap(res.trace, v, best)
        for ell in range(1, len(gaps) - 1):
            if gaps[ell + 1] > q * gaps[ell] + 1e-12:
                failures.append(f"instance {done} ell={ell}")
                break
        done += 1
    check(6, "strong-convexity contraction on 100 ball instances", failures)


def test_criterion_07_inexactness_contract_suite():
    failures = []
    rng = np.random.default_rng(2027)
    for i in range(500):
        body = random_compact_body(rng)
        u = sample_members(body, rng, 1)[0]
        v = rng.uniform(-5.0, 5.0, 2)
        params = ForcingParams(*rng.uniform(0.0, 0.45, 3))
        res = condg_project(body, params, u, v)
        members = sample_members(body, rng, 1000)
        tol = phi(params, u, v, res.w_plus)
        worst = float(((members - res.w_plus) @ (v - res.w_plus)).max())
        if worst > tol + 1e-9:
            failures.append(f"instance {i}: {worst:.3e} > {tol:.3e}")
    check(7, "inexact projection contract on 500 randomized calls", failures)


def test_criterion_08_monotonicity_suites():
    failures = []
    rng = np.random.default_rng(2028)
    kinds = ("ellipsoid", "ball", "box")
    done = 0
    while done < 50:
        p = rng.uniform(-2.0, 2.0, 2)
        a = containing_body(rng, p, kinds[rng.integers(3)])
        b = containing_body(rng, p, kinds[rng.integers(3)])
        x0 = sample_members(a, rng, 1)[0]
        y0 = sample_members(b, rng, 1)[0]

        rep1 = acondg1(a, b, x0)
        dists = [float(np.linalg.norm(x - p)) for x in rep1.x_trace]
        if any(d1 > d0 + 1e-10 for d0, d1 in zip(dists, dists[1:])):
            failures.append(f"instance {done}: distance to common point grew")

        rep2 = acondg2(a, b, x0, y0)
        vals = [
            float((x - p) @ (x - p)) + 0.5 * float((x - y) @ (x - y))
            for x, y in zip(rep2.x_trace, rep2.y_trace)
        ]
        if any(v1 > v0 + 1e-10 for v0, v1 in zip(vals, vals[1:])):
            failures.append(f"instance {done}: energy grew")
        done += 1
    check(8, "Fejer/Lyapunov monotonicity on 50 feasible instances", failures)


def test_criterion_09_disjoint_disk_direction_limit():
    failures = []
    cases = [
        ((-2.0, 0.0), 1.0, (2.0, 0.0), 1.0),
        ((0.0, -3.0), 0.5, (0.0, 2.5), 1.5),
        ((-1.0, -1.0), 0.8, (2.0, 2.0), 1.0),
    ]
    for ca, ra, cb, rb in cases:
        a = Ball(center=ca, radius=ra)
        b = Ball(center=cb, radius=rb)
        u = (np.asarray(cb) - ca) / np.linalg.norm(np.asarray(cb) - ca)
        gap = np.linalg.norm(np.asarray(cb) - ca) - ra - rb
        expected = -u * gap
        rep = acondg2(a, b, ca, cb)
        got = rep.x_last - rep.y_last
        if np.max(np.abs(got - expected)) > 1e-4:
            failures.append(f"inexact {ca}->{cb}: {got}")
        ex = exact_alternating(a, b, ca)
        got = ex.x_last - ex.y_last
        if np.max(np.abs(got - expected)) > 1e-4:
            failures.append(f"exact {ca}->{cb}: {got}")
    check(9, "disjoint disks: displacement matches the minimal vector", failures)


@inner_limits(gap_tol=1e-12)
def test_criterion_10_oracle_consistency():
    failures = []
    rng = np.random.default_rng(2030)
    for i in range(200):
        body = random_body(rng)
        v = rng.uniform(-5.0, 5.0, 2)
        err = projection_error_bound(body, v, body.project(v))
        if err > 1e-6:
            failures.append(f"certified instance {i}: {err:.2e}")

    for i in range(200):
        body = random_compact_body(rng, kinds=("ellipsoid", "ball"))
        u = sample_members(body, rng, 1)[0]
        v = rng.uniform(-6.0, 6.0, 2)
        res = condg_project(body, EXACT, u, v)
        err = float(np.linalg.norm(res.w_plus - body.project(v)))
        if err > 1e-5:
            failures.append(f"condg instance {i}: {err:.2e}")

    # The certificate holds in any dimension: 100 bodies of each kind in
    # n = 3 and n = 16.
    for dim in (3, 16):
        for kind in ("ellipsoid", "ball", "box", "halfspace"):
            for i in range(100):
                if kind == "halfspace":
                    body = random_halfspace(rng, dim)
                else:
                    body = random_compact_body(rng, dim, kinds=(kind,))
                v = rng.uniform(-5.0, 5.0, dim)
                err = projection_error_bound(body, v, body.project(v))
                if err > 1e-6:
                    failures.append(f"certified {kind} {i}, n = {dim}: {err:.2e}")
    check(10, "oracle consistency: certified projections and exact-limit engine", failures)
