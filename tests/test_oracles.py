import math

import numpy as np
import pytest

from feasib import (
    MEMBER_TOL,
    Ball,
    Box,
    Ellipsoid,
    Halfspace,
    InputError,
    dist_ellipse_halfspace,
    dist_two_bodies,
    projection_error_bound,
)

from _helpers import SQRT_202, random_body, random_rotation, slim_ellipse


def known_projections():
    """``(body, point, projection)`` triples whose projection is known in
    closed form: a disk, a member, a halfspace's foot, a halfspace member
    and a 5-D ball."""
    c = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    u = np.array([1.0, 2.0, -2.0, 4.0, 0.0]) / 5.0
    foot = Halfspace(normal=[-1.0, 0.0], offset=-1.5)
    return [
        (Ellipsoid(center=np.zeros(2), shape=np.eye(2)), [3.0, 4.0], [0.6, 0.8]),
        (Ball(center=[0.0, 0.0], radius=1.0), [0.2, -0.3], [0.2, -0.3]),
        (foot, [0.0, 0.0], [1.5, 0.0]),
        (foot, [2.0, 1.0], [2.0, 1.0]),
        (Ball(center=c, radius=2.0), c + 5.0 * u, c + 2.0 * u),
    ]


def test_projection_error_bound_reads_zero_on_known_projections():
    for body, point, proj in known_projections():
        assert projection_error_bound(body, point, proj) <= 1e-7


@pytest.mark.parametrize(
    "bad", [[0.0, 0.0, 0.0], [0.0, math.inf], [0.0, "1"]], ids=["length", "inf", "str"]
)
@pytest.mark.parametrize("name", ["point", "w"])
def test_projection_error_bound_names_a_bad_vector(name, bad):
    for body in (Ball(center=[0.0, 0.0], radius=1.0), Halfspace(normal=[1.0, 0.0], offset=0.0)):
        args = {"point": [2.0, 0.0], "w": [1.0, 0.0], name: bad}
        with pytest.raises(InputError) as err:
            projection_error_bound(body, **args)
        assert err.value.path == name


def test_projection_error_bound_covers_a_known_error():
    # Moved off the projection by t, a point's bound reads at least t,
    # whether the move leaves the body or not.
    rng = np.random.default_rng(33)
    for body, point, proj in known_projections():
        for t in (1e-3, 0.1, 1.0):
            for _ in range(20):
                step = rng.normal(size=body.dim)
                w = np.asarray(proj) + t * step / np.linalg.norm(step)
                assert projection_error_bound(body, point, w) >= t * (1.0 - 1e-9)


def test_projection_error_bound_ignores_the_cached_frame():
    # The bound checks the body's own projection, so it must not read the
    # eigendecomposition that projection uses: with the cached eigenvalues
    # scaled, the projection lands on a smaller ellipse, and the bound
    # sees it.
    e = slim_ellipse()
    planar = list(e._planar)
    planar[4:6] = [4.0 * planar[4], 4.0 * planar[5]]
    object.__setattr__(e, "_eigvals", 4.0 * e._eigvals)
    object.__setattr__(e, "_planar", tuple(planar))
    assert projection_error_bound(e, [2.0, 2.0], e.project([2.0, 2.0])) > 0.1


def test_projection_error_bound_certifies_exact_projection_randomized():
    rng = np.random.default_rng(32)
    for dim in (2, 3, 16):
        for _ in range(30):
            body = random_body(rng, dim)
            v = rng.uniform(-5.0, 5.0, dim)
            assert projection_error_bound(body, v, body.project(v)) <= 1e-6


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


def separated_pairs(n, gap):
    """``(a, b)`` pairs in ``n`` dimensions at distance ``gap``, separated
    along the last axis: the unit cube ``[-1, 1]^n`` against a box, a ball
    and a halfspace (with a normal of length 2) beyond ``x_{n-1} = 1``.
    Off that axis each other body overlaps the cube's range, so the
    nearest points differ along the last axis only."""
    e = np.eye(n)[-1]
    off = np.where(np.arange(n) % 2 == 0, 0.5, -0.3) * (1.0 - e)
    cube = Box(lower=-np.ones(n), upper=np.ones(n))
    box = Box(lower=off - 0.7 + (1.0 + gap + 0.7) * e, upper=off + 0.7 + (3.0 + gap) * e)
    ball = Ball(center=off + (1.0 + gap + 0.6) * e, radius=0.6)
    halfspace = Halfspace(normal=-2.0 * e, offset=-2.0 * (1.0 + gap))
    return [(cube, box), (cube, ball), (cube, halfspace), (ball, cube), (halfspace, cube)]


@pytest.mark.parametrize("n", [2, 3, 16])
def test_dist_two_bodies_boxes_balls_and_halfspaces(n):
    for gap in (0.05, 0.5, 2.0):
        for a, b in separated_pairs(n, gap):
            d, xa, yb = dist_two_bodies(a, b)
            assert d == pytest.approx(gap, abs=1e-9)
            assert d == pytest.approx(float(np.linalg.norm(xa - yb)), rel=1e-15)
            assert a.violation(xa) <= MEMBER_TOL and b.violation(yb) <= MEMBER_TOL


def test_dist_two_bodies_parallel_halfspaces():
    # {<u, z> <= 1} and {<u, z> >= 4}, u of length 5: 3 / 5 apart.
    u = np.array([3.0, -4.0, 0.0])
    a = Halfspace(normal=u, offset=1.0)
    b = Halfspace(normal=-u, offset=-4.0)
    d, xa, yb = dist_two_bodies(a, b)
    assert d == pytest.approx(0.6, abs=1e-12)
    assert a.violation(xa) <= MEMBER_TOL and b.violation(yb) <= MEMBER_TOL


@pytest.mark.parametrize("n", [2, 3, 16])
def test_dist_two_bodies_intersecting_boxes(n):
    a = Box(lower=-np.ones(n), upper=np.ones(n))
    b = Box(lower=np.full(n, 0.5), upper=np.linspace(2.0, 3.0, n))
    d, xa, yb = dist_two_bodies(a, b)
    assert d <= 1e-11
    assert a.violation(xa) <= MEMBER_TOL and b.violation(yb) <= MEMBER_TOL


@pytest.mark.parametrize("kind", ["ellipsoid", "ball"])
def test_dist_two_bodies_meeting_pairs_in_256_dimensions(kind):
    # The benchmark's 256-D meeting pairs: a halfspace cuts 0.1 deep into a
    # body along a random axis u; the ellipsoid's semi-axes spread over
    # [0.6, 1.4]. In 256-D a move of 1e-12 in the max norm may be 16 times
    # that in the Euclidean norm of the returned distance: a stop on the
    # max-norm move returned 1.1e-11 for both kinds, above the bound of the
    # 2-D meeting pair.
    n = 256
    rng = np.random.default_rng(256)
    for _ in range(2):
        center = rng.uniform(-1.0, 1.0, n)
        if kind == "ellipsoid":
            rot = random_rotation(rng, n)
            semi = rng.permutation(np.linspace(0.6, 1.4, n))
            a = Ellipsoid(center=center, shape=(rot * semi**-2) @ rot.T)
        else:
            a = Ball(center=center, radius=1.0)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        b = Halfspace(normal=-u, offset=0.1 - a.support(u))
        d, xa, yb = dist_two_bodies(a, b)
        assert d <= 1e-11
        assert a.violation(xa) <= MEMBER_TOL and b.violation(yb) <= MEMBER_TOL
