import math

import numpy as np
import pytest

from feasib import (
    Ball,
    Ellipsoid,
    Halfspace,
    brute_project,
    dist_ellipse_halfspace,
    dist_two_bodies,
)

from _helpers import boundary_samples, random_body

SQRT_202 = math.sqrt(2.02)


def slim_ellipse():
    return Ellipsoid.from_axes([0.0, 0.0], -math.pi / 4.0, (2.0, 0.2))


def test_brute_project_radial_disk():
    disk = Ellipsoid(center=np.zeros(2), shape=np.eye(2))
    w = brute_project(disk, [3.0, 4.0])
    assert np.allclose(w, [0.6, 0.8], atol=1e-8)


def test_brute_project_member_is_identity():
    disk = Ball(center=[0.0, 0.0], radius=1.0)
    v = np.array([0.2, -0.3])
    assert np.array_equal(brute_project(disk, v), v)


def test_brute_project_halfspace():
    # The distance curve is flat to machine precision near the foot point,
    # so the refinement resolves the minimizer only to ~sqrt(eps).
    h = Halfspace(normal=[-1.0, 0.0], offset=-1.5)
    assert np.allclose(brute_project(h, [0.0, 0.0]), [1.5, 0.0], atol=1e-6)


def test_brute_project_rejects_higher_dimensions():
    ball = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
    with pytest.raises(NotImplementedError):
        brute_project(ball, [2.0, 0.0, 0.0])


def test_brute_project_two_densities_agree():
    e = slim_ellipse()
    with boundary_samples(100_000):
        dense = brute_project(e, [2.0, 2.0])
    with boundary_samples(10_000):
        sparse = brute_project(e, [2.0, 2.0])
    assert np.max(np.abs(dense - sparse)) <= 1e-6
    assert np.max(np.abs(dense - e.project([2.0, 2.0]))) <= 1e-6


def test_distance_formula_against_slim_ellipse():
    e = slim_ellipse()
    assert dist_ellipse_halfspace(
        e, Halfspace(normal=[-1.0, 0.0], offset=-1.5)
    ) == pytest.approx(1.5 - SQRT_202, abs=1e-9)
    assert dist_ellipse_halfspace(
        e, Halfspace(normal=[-1.0, 0.0], offset=-1.42)
    ) == 0.0


def test_distance_formula_ignores_the_eigen_cache():
    # The oracle checks the body's own eigenbasis computations, so it must
    # not read them: scaling the cached eigenvalues leaves it unchanged.
    e = slim_ellipse()
    h = Halfspace(normal=[-1.0, 0.0], offset=-1.5)
    object.__setattr__(e, "_eigvals", 4.0 * e._eigvals)
    assert dist_ellipse_halfspace(e, h) == pytest.approx(1.5 - SQRT_202, abs=1e-9)


def test_distance_formula_disk_to_halfspace():
    disk = Ellipsoid(center=np.zeros(2), shape=np.eye(2))
    h = Halfspace(normal=[-1.0, 0.0], offset=-3.0)
    assert dist_ellipse_halfspace(disk, h) == pytest.approx(2.0, abs=1e-12)


def test_dist_two_bodies_disjoint_disks():
    a = Ball(center=[-2.0, 0.0], radius=1.0)
    b = Ball(center=[2.0, 0.0], radius=1.0)
    d, xa, yb = dist_two_bodies(a, b)
    assert d == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(xa, [-1.0, 0.0], atol=1e-9)
    assert np.allclose(yb, [1.0, 0.0], atol=1e-9)


def test_dist_two_bodies_intersecting():
    a = Ball(center=[0.0, 0.0], radius=1.0)
    b = Ball(center=[1.0, 0.0], radius=1.0)
    d, _, _ = dist_two_bodies(a, b)  # at the oracle's tolerance, 1e-12
    assert d <= 1e-11


def test_dist_two_bodies_agrees_with_support_formula():
    rng = np.random.default_rng(31)
    for _ in range(8):
        e = Ellipsoid.from_axes(
            rng.uniform(-1.0, 1.0, 2),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0.3, 1.5, 2),
        )
        normal = rng.normal(size=2)
        offset = float(normal @ e.center) - rng.uniform(1.0, 3.0) * float(
            np.linalg.norm(normal)
        )
        h = Halfspace(normal=normal, offset=offset)
        expected = dist_ellipse_halfspace(e, h)
        d, xa, yb = dist_two_bodies(e, h)
        assert d == pytest.approx(expected, abs=1e-6)


@boundary_samples(20_000)
def test_brute_project_matches_exact_projection_randomized():
    rng = np.random.default_rng(32)
    for _ in range(30):
        body = random_body(rng)
        v = rng.uniform(-5.0, 5.0, 2)
        assert (
            np.max(np.abs(brute_project(body, v) - body.project(v))) <= 1e-6
        )
