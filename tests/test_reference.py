"""Each solver against the paper's algorithm, written out in ``reference.py``.

A reference run and the package's run must agree on the quantities that do
not depend on rounding (README, "Rounding-sensitive results"): the stop
code, a ``min_violation`` of exactly 0 where an inexact solver converges,
and ``min_violation`` to 1e-4 relative where a run stops for lack of
progress. No count is compared: the reference's oracle and sums round
apart from the package's frames and planes.
"""

import numpy as np
import pytest

from feasib import Ball, Box, Ellipsoid, Halfspace, solvers
from feasib.instances import solve_config, table_config, table_reference

from _helpers import random_rotation
from reference import SOLVERS

# The three slowest table runs take 10 s of the reference's CPU together.
SLOW = {("2.358", "ACondG2"), ("2.359", "ACondG2"), ("2.36", "ACondG2")}
TABLE_RUNS = [
    (which, label, solver)
    for which in (1, 2)
    for label, codes in table_reference(which).items()
    for solver in codes
    if (label, solver) not in SLOW
]


def assert_agrees(report, reference, exact):
    code, min_violation = reference
    assert report.stop_code.letter == code
    if code == "C" and not exact:
        assert report.min_violation == min_violation == 0.0
    elif code == "L":
        assert report.min_violation == pytest.approx(min_violation, rel=1e-4)


@pytest.mark.parametrize("which, label, solver", TABLE_RUNS)
def test_each_table_run_agrees_with_the_reference(which, label, solver):
    config = table_config(which, label, solver)
    a, b = config.bodies
    name = "ExactAlt" if solver.startswith("ExactAlt") else solver
    y0 = None if config.y0 is None else np.array(config.y0)
    reference = SOLVERS[name](a, b, np.array(config.x0), y0)
    assert_agrees(solve_config(config), reference, name == "ExactAlt")


def body_at(rng, kind, n):
    """A random body of ``kind``, about 1 across, as a function of its centre."""
    if kind == "ball":
        radius = rng.uniform(0.5, 1.5)
        return lambda center: Ball(center=center, radius=radius)
    if kind == "box":
        half = rng.uniform(0.3, 1.0, n) / np.sqrt(n)
        return lambda center: Box(lower=center - half, upper=center + half)
    rot = random_rotation(rng, n)
    shape = (rot / rng.uniform(0.3, 1.5, n) ** 2) @ rot.T
    return lambda center: Ellipsoid(center=center, shape=shape)


def random_pair(rng, n, kinds_a, kinds_b, meet):
    """A random A, and a B beyond it along a random unit ``u``, with start
    points ``x0`` and ``y0`` on the far sides. B meets A at the point
    halfway from A's centre to A's farthest point along ``u``, or lies
    beyond the plane 0.3 past that farthest point."""
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    center = rng.uniform(-1.0, 1.0, n)
    a = body_at(rng, rng.choice(kinds_a), n)(center)
    far = a.lo_minimize(-u)[0]
    target = far if meet else far + 0.3 * u
    kind = rng.choice(kinds_b)
    if kind == "halfspace":
        b = Halfspace(normal=-u, offset=float(-u @ target) + (0.1 if meet else 0.0))
        return a, b, a.lo_minimize(u)[0], target + 2.0 * u
    # B's point nearest A along u lands on the target, or, for a meeting
    # pair, 0.9 of the way from B's centre to it does.
    make = body_at(rng, kind, n)
    near = make(np.zeros(n)).lo_minimize(u)[0]
    b = make(target - (0.9 if meet else 1.0) * near)
    x0, y0 = a.lo_minimize(rng.normal(size=n))[0], b.lo_minimize(rng.normal(size=n))[0]
    return a, b, x0, y0


# Each solver's kinds of A and B: Frank-Wolfe projects onto balls and
# ellipsoids only (on a disjoint pair a box caps it at every step), so a box
# or a halfspace appears only on a side projected exactly.
ROUND = ("ball", "ellipsoid")
KINDS = {
    "ACondG1": (ROUND, ("ball", "ellipsoid", "box", "halfspace")),
    "ACondG2": (ROUND, ROUND),
    "Averaged": (ROUND, ROUND),
    "ExactAlt": (("ball", "ellipsoid", "box"), ("ball", "ellipsoid", "box", "halfspace")),
}
PACKAGE = {
    "ACondG1": lambda a, b, x0, y0: solvers.acondg1(a, b, x0),
    "ACondG2": solvers.acondg2,
    "Averaged": solvers.averaged_projection,
    "ExactAlt": lambda a, b, x0, y0: solvers.exact_alternating(a, b, x0, y0=y0),
}


@pytest.mark.parametrize("meet", [True, False], ids=["meeting", "disjoint"])
@pytest.mark.parametrize("n", [3, 16])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_random_pairs_agree_with_the_reference(solver, n, meet):
    rng = np.random.default_rng([n, meet, list(SOLVERS).index(solver)])
    a, b, x0, y0 = random_pair(rng, n, *KINDS[solver], meet)
    report = PACKAGE[solver](a, b, x0, y0)
    reference = SOLVERS[solver](a, b, x0, y0)
    assert_agrees(report, reference, solver == "ExactAlt")
    # An inexact solver converges exactly where the pair meets; ExactAlt
    # may stall short of a meeting pair's intersection.
    if solver != "ExactAlt" or not meet:
        assert report.stop_code.letter == ("C" if meet else "L")
