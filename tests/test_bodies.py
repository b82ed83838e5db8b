import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feasib import (
    MEMBER_TOL,
    RANGE,
    START_TOL,
    bodies,
    Ball,
    Box,
    ConvexBody,
    Ellipsoid,
    ForcingParams,
    Halfspace,
    InputError,
    UnsupportedOracleError,
    acondg2,
    condg_project,
)

from _helpers import (
    SQRT_202,
    VECTOR_RANGE,
    assert_refused,
    boundary_point,
    diameter,
    foot_tol,
    ill_conditioned_ellipsoid,
    length_range,
    random_ball,
    random_body,
    random_box,
    random_compact_body,
    random_ellipsoid,
    random_halfspace,
    sample_members,
    slim_ellipse,
    unit_disk,
)


class TestConstruction:
    def test_halfspace_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(normal=[0.0, 0.0], offset=1.0)

    def test_ball_radius_positive(self):
        with pytest.raises(ValueError):
            Ball(center=[0.0, 0.0], radius=0.0)

    def test_box_ordering(self):
        with pytest.raises(ValueError):
            Box(lower=[0.0, 1.0], upper=[1.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Ball(center=[np.nan, 0.0], radius=1.0)
        with pytest.raises(ValueError):
            Halfspace(normal=[1.0, np.inf], offset=0.0)
        for offset in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="offset"):
                Halfspace(normal=[-1.0, 0.0], offset=offset)

    def test_ellipsoid_of_dimension_zero_refused(self):
        # The config refuses dimension 0, and the one vector rule refuses
        # the empty centre that would give a body that dimension.
        with pytest.raises(InputError) as err:
            Ellipsoid(center=[], shape=np.zeros((0, 0)))
        assert err.value.path == "center"
        assert err.value.message == "expected at least one entry"

    def test_ellipsoid_requires_symmetry(self):
        with pytest.raises(ValueError):
            Ellipsoid(center=[0.0, 0.0], shape=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_ellipsoid_requires_positive_definite(self):
        with pytest.raises(ValueError):
            Ellipsoid(center=[0.0, 0.0], shape=np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            Ellipsoid(center=[0.0, 0.0], shape=np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "center, shape, path",
        [
            ([0.0, np.nan], np.eye(2), "center"),
            ([0.0, 0.0], np.eye(3), "shape"),
            ([0.0, 0.0], np.diag([1.0, np.inf]), "shape"),
            ([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]), "shape"),
            ([0.0, 0.0], np.diag([1.0, 0.0]), "shape"),
            # Finite entries whose sum with the transpose overflows (the
            # parent's symmetrization turned them into NaN eigenvalues).
            ([0.0, 0.0], np.diag([1e308, 25.0]), "shape"),
        ],
        ids=["center", "size", "entries", "symmetry", "definite", "nan-eigvals"],
    )
    def test_ellipsoid_errors_name_the_field(self, center, shape, path):
        with pytest.raises(InputError) as err:
            Ellipsoid(center=center, shape=shape)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "angle, semi_axes, message",
        [
            (0.0, (1e-154, 0.2), length_range(1e-154)),
            (0.3, (1e-150, 0.2), length_range(1e-150)),
            (0.3, (1e-8, 1e8), "eigh gives semi-axes "),
            (0.3, (1.0, 1e9), "must be positive definite, "),
        ],
        ids=["nan-eigvals", "indefinite", "long-axis-lost", "indefinite-in-range"],
    )
    def test_axes_beyond_the_eigensolver_range_rejected(self, angle, semi_axes, message):
        # The first two are lengths outside the range. The last two are in
        # it, but at condition 1e32 eigh of the rotated shape returns a long
        # semi-axis near 2, and at 1e18 an eigenvalue <= 0; the digits it
        # returns may differ between LAPACK builds, so only the start of the
        # message is checked.
        with pytest.raises(InputError) as err:
            Ellipsoid.from_axes([0.0, 0.0], angle, semi_axes)
        assert err.value.path == "semi_axes"
        assert err.value.message.startswith(message)

    @pytest.mark.parametrize(
        "build, path, message",
        [
            (
                lambda: Ellipsoid(
                    center=[0.0, 0.0], shape=np.array([[1e200, 1e199], [0.0, 1e200]])
                ),
                "shape",
                "entries must lie in [-2^128, 2^128]",
            ),
            (
                # At the range's edge the norms of the symmetry test hold.
                lambda: Ellipsoid(
                    center=[0.0, 0.0], shape=[[2.0**127, 2.0**126], [0.0, 2.0**127]]
                ),
                "shape",
                "must be symmetric",
            ),
            (
                lambda: Ellipsoid.from_axes([0.0, 0.0], 0.0, (1e-154, 0.2)),
                "semi_axes",
                length_range(1e-154),
            ),
            (
                # Each row of a list-form shape follows the vector rule.
                lambda: Ellipsoid(center=[0, 0], shape=[[10**400, 0], [0, 1]]),
                "shape",
                VECTOR_RANGE,
            ),
        ],
        ids=["asymmetric", "asymmetric-in-range", "from_axes", "huge-int-row"],
    )
    def test_huge_shape_entries_checked_without_overflow(self, build, path, message):
        # Entries beyond the range are refused before any norm or sum is
        # taken; within it the unscaled symmetry test cannot overflow.
        assert_refused(build, path, message)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            slim_ellipse().violation([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Box(lower=[0.0], upper=[1.0, 2.0])

    def test_compactness_flags(self):
        assert slim_ellipse().is_compact
        assert Ball(center=[0.0], radius=1.0).is_compact
        assert Box(lower=[0.0], upper=[1.0]).is_compact
        assert not Halfspace(normal=[1.0], offset=0.0).is_compact

    @pytest.mark.parametrize(
        "build, path",
        [
            (lambda: Ball(center=[np.nan], radius=1.0), "center"),
            (lambda: Halfspace(normal=[np.nan, 1.0], offset=0.0), "normal"),
            (lambda: Box(lower=[[0.0]], upper=[1.0]), "lower"),
            (lambda: Box(lower=[0.0], upper=[1.0, 2.0]), "upper"),
            (lambda: Ellipsoid.from_axes([0.0, 0.0, 0.0], 0.0, (1.0, 1.0)), "center"),
            (lambda: Ball(center=np.zeros((1, 2)), radius=1.0), "center"),
        ],
        ids=["ball-center", "halfspace-normal", "box-lower", "box-upper",
             "from_axes-center", "ball-center-2d-array"],
    )
    def test_vector_errors_name_the_field(self, build, path):
        with pytest.raises(InputError) as err:
            build()
        assert err.value.path == path

    @pytest.mark.parametrize(
        "build, path",
        [
            (lambda: Ball(center=["a", 0.0], radius=1.0), "center"),
            (lambda: Ball(center=[[0.0], [1.0, 2.0]], radius=1.0), "center"),
            (lambda: acondg2(unit_disk(), unit_disk(), [0.0, 0.0], ["a", 0.0]), "y0"),
            (
                lambda: condg_project(
                    unit_disk(), ForcingParams(0.0, 0.0, 0.0), ["a", 0.0], [0.0, 0.0]
                ),
                "anchor",
            ),
            (lambda: Ellipsoid(center=[0.0, 0.0], shape=[[1.0, 0.0], [0.0]]), "shape"),
            (lambda: Halfspace(normal=[1.0, 0.0], offset="x"), "offset"),
            (lambda: Ball(center=[0.0, 0.0], radius="x"), "radius"),
            (lambda: Ball(center=[0.0, 0.0], radius=None), "radius"),
            (lambda: Ellipsoid.from_axes([0.0, 0.0], math.nan, (2.0, 0.2)), "angle"),
            (lambda: Ellipsoid.from_axes([0.0, 0.0], math.inf, (2.0, 0.2)), "angle"),
            (lambda: Ellipsoid.from_axes([0.0, 0.0], "x", (2.0, 0.2)), "angle"),
            (lambda: Ellipsoid.from_axes([0.0, 0.0], 0.0, (2.0,)), "semi_axes"),
            (lambda: Ball(center=[0, 0], radius=True), "radius"),
            (lambda: Ball(center=["1", "2"], radius=1.0), "center"),
            (lambda: Ball(center=[True, 0.0], radius=1.0), "center"),
            (lambda: Ball(center=np.array([True, False]), radius=1.0), "center"),
            (
                lambda: Ellipsoid(center=[0, 0], shape=[["1", "0"], ["0", "1"]]),
                "shape",
            ),
            (lambda: Ellipsoid(center=[0, 0], shape=np.eye(2, dtype=bool)), "shape"),
            (lambda: Halfspace(normal=[1.0, 0.0], offset=10**400), "offset"),
        ],
        ids=["ball-center-str", "ball-center-ragged", "acondg2-y0", "condg-anchor",
             "ellipsoid-shape-ragged", "halfspace-offset-str", "ball-radius-str",
             "ball-radius-none", "angle-nan", "angle-inf", "angle-str",
             "semi_axes-one-entry", "ball-radius-bool", "ball-center-numeric-str",
             "ball-center-bool-entry", "ball-center-bool-array",
             "ellipsoid-shape-numeric-str", "ellipsoid-shape-bool-array",
             "halfspace-offset-huge-int"],
    )
    def test_malformed_input_names_the_field(self, build, path):
        with pytest.raises(InputError) as err:
            build()
        assert err.value.path == path


class TestViolation:
    def test_halfspace_boundary_point(self):
        h = Halfspace(normal=[-1.0, 0.0], offset=-1.3)
        assert h.violation([1.3, 0.7]) == 0.0

    def test_unit_disk_outside(self):
        assert unit_disk().violation([2.0, 0.0]) == pytest.approx(3.0, abs=1e-12)

    def test_slim_ellipse_center_is_interior(self):
        assert slim_ellipse().violation([0.0, 0.0]) == 0.0

    def test_ball_violation_of_a_far_point(self):
        # A point beyond the range is refused; one at its edge, 2^127 from
        # the centre along each axis, is measured exactly.
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        assert_refused(lambda: ball.violation([1e200, 1e200]), "z", VECTOR_RANGE)
        v = ball.violation([2.0**127, 2.0**127])
        assert v == pytest.approx(math.sqrt(2.0) * 2.0**127, rel=1e-15)

    # A centre or a point beyond the range is refused where it enters, so no
    # offset from a compact body overflows into a nan violation.
    @pytest.mark.parametrize(
        "build, dim",
        [
            (lambda c: Ellipsoid(center=c, shape=np.eye(2)), 2),
            (lambda c: Ellipsoid(center=c, shape=np.eye(3)), 3),
            (lambda c: Ball(center=c, radius=1.0), 2),
        ],
        ids=["ellipsoid-2d", "ellipsoid-3d", "ball"],
    )
    def test_a_point_whose_offset_overflows_is_no_member(self, build, dim):
        far = [1e308] + [0.0] * (dim - 1)
        assert_refused(lambda: build([-1e308] + [0.0] * (dim - 1)), "center", VECTOR_RANGE)
        body = build([-RANGE] + [0.0] * (dim - 1))
        assert_refused(lambda: body.violation(far), "z", VECTOR_RANGE)
        # The farthest point in range, 2^129 from the centre, is no member.
        v = body.violation([RANGE] + [0.0] * (dim - 1))
        assert v == pytest.approx(2.0 * RANGE if isinstance(body, Ball) else 4.0 * RANGE**2)

    def test_a_tiny_ball_measures_its_points(self):
        # A radius below 2^-64 is refused; a ball of radius 2^-64 tells its
        # points apart.
        assert_refused(lambda: Ball(center=[0.0, 0.0], radius=1e-300), "radius",
                       length_range(1e-300))
        r = 2.0**-64
        ball = Ball(center=[0.0, 0.0], radius=r)
        assert ball.violation([2.0 * r, 0.0]) == r
        assert ball.violation([0.0, 0.0]) == 0.0
        assert ball.violation([r, 0.0]) == 0.0
        # A member test still passes at twice the radius: MEMBER_TOL is an
        # absolute 1e-12, whatever the size of the body.
        assert ball.violation([2.0 * r, 0.0]) <= MEMBER_TOL

    def test_the_norm_keeps_its_bits_in_range(self):
        # The rescaled sum runs only outside the normal range of d . d.
        rng = np.random.default_rng(11)
        for _ in range(2000):
            d = rng.normal(size=rng.integers(1, 20)) * 10.0 ** rng.uniform(-150, 150)
            assert bodies._norm(d) == math.sqrt(float(d.dot(d)))

    def test_zero_iff_member(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            body = random_body(rng)
            for z in sample_members(body, rng, 5):
                assert body.violation(z) <= 1e-12
            far = rng.uniform(6.0, 9.0, 2) * np.sign(rng.normal(size=2))
            if not body.violation(far) <= MEMBER_TOL:
                assert body.violation(far) > 0.0


class TestLinearOracle:
    def test_ball_example(self):
        z, val = Ball(center=[0.0, 0.0], radius=1.0).lo_minimize([1.0, 0.0])
        assert np.allclose(z, [-1.0, 0.0])
        assert val == pytest.approx(-1.0)

    def test_box_example(self):
        z, val = Box(lower=[0.0, 0.0], upper=[1.0, 1.0]).lo_minimize([-1.0, 2.0])
        assert np.allclose(z, [1.0, 0.0])
        assert val == pytest.approx(-1.0)

    def test_box_zero_component_tie_breaks_to_lower(self):
        z, _ = Box(lower=[0.0, 0.0], upper=[1.0, 1.0]).lo_minimize([0.0, 1.0])
        assert np.allclose(z, [0.0, 0.0])

    def test_zero_direction_returns_canonical_point(self):
        e = slim_ellipse()
        z, val = e.lo_minimize([0.0, 0.0])
        assert np.allclose(z, e.center)
        assert val == 0.0

    def test_ball_zero_direction_returns_its_center(self):
        z, val = Ball(center=[1.0, -2.0], radius=0.5).lo_minimize([0.0, 0.0])
        assert z.tolist() == [1.0, -2.0]
        assert val == 0.0

    def test_slim_ellipse_extreme_first_coordinate(self):
        # Independent check: densely sample the boundary and maximize z1.
        e = slim_ellipse()
        lam, vecs = np.linalg.eigh(e.shape)
        half = vecs @ np.diag(1.0 / np.sqrt(lam)) @ vecs.T
        ts = np.linspace(0.0, 2.0 * math.pi, 400_001)
        boundary = np.stack([np.cos(ts), np.sin(ts)], axis=-1) @ half.T
        sampled_max = boundary[:, 0].max()
        assert sampled_max == pytest.approx(SQRT_202, abs=1e-9)

        z, val = e.lo_minimize([-1.0, 0.0])
        assert val == pytest.approx(-1.4212670403551895, abs=1e-6)
        assert val == pytest.approx(-sampled_max, abs=1e-6)
        expected = half @ half @ np.array([1.0, 0.0]) / SQRT_202
        assert np.allclose(z, expected, atol=1e-9)

    def test_halfspace_has_no_oracle(self):
        with pytest.raises(UnsupportedOracleError):
            Halfspace(normal=[1.0, 0.0], offset=0.0).lo_minimize([1.0, 0.0])
        with pytest.raises(UnsupportedOracleError):
            Halfspace(normal=[1.0, 0.0], offset=0.0).support([1.0, 0.0])

    def test_optimality_against_sampled_members(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            body = random_compact_body(rng)
            c = rng.normal(size=2)
            z, val = body.lo_minimize(c)
            assert body.violation(z) <= 1e-12
            assert val == pytest.approx(float(c @ z), abs=1e-12)
            members = sample_members(body, rng, 1000)
            assert val <= (members @ c).min() + 1e-9


class TestSupport:
    def test_ball_example(self):
        assert Ball(center=[0.0, 0.0], radius=1.0).support([0.0, 1.0]) == pytest.approx(1.0)

    def test_box_example(self):
        assert Box(lower=[0.0, 0.0], upper=[1.0, 1.0]).support([1.0, 1.0]) == pytest.approx(2.0)

    def test_slim_ellipse_first_axis(self):
        assert slim_ellipse().support([1.0, 0.0]) == pytest.approx(
            1.4212670403551895, abs=1e-6
        )

    def test_ball_support_of_a_large_direction(self):
        # A direction beyond the range is refused; one at its edge is not.
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        assert_refused(lambda: ball.support([1e200, 1e200]), "c", VECTOR_RANGE)
        v = ball.support([2.0**127, 2.0**127])
        assert v == pytest.approx(math.sqrt(2.0) * 2.0**127, rel=1e-15)

    def test_duality_with_linear_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            body = random_compact_body(rng, dim=int(rng.integers(2, 5)))
            c = rng.normal(size=body.dim)
            _, val = body.lo_minimize(-c)
            assert body.support(c) == pytest.approx(-val, abs=1e-10)


# A compact body of each kind, whose support is positive in every direction.
SCALED_BODIES = {
    "ball": lambda: Ball(center=[0.5, -1.0], radius=2.0),
    "box": lambda: Box(lower=[-1.0, -2.0], upper=[1.0, 2.0]),
    "ellipsoid-2d": lambda: Ellipsoid(center=[0.0, 0.0], shape=[[1.0, 0.0], [0.0, 4.0]]),
    "ellipsoid-3d": lambda: Ellipsoid(center=np.zeros(3), shape=np.diag([1.0, 4.0, 9.0])),
}


@pytest.mark.parametrize("kind", SCALED_BODIES)
@pytest.mark.parametrize(
    "s", [2.0**-700, 1e-200, 1e200, 2.0**700, 2.0**126],
    ids=["2^-700", "1e-200", "1e200", "2^700", "2^126"],
)
def test_oracles_of_large_and_tiny_directions(kind, s):
    # The minimizer depends only on the direction, and the support is
    # homogeneous of degree 1, though |s d|^2 underflows. A power-of-two s
    # keeps every bit of the minimizer. A direction beyond the range is
    # refused.
    body = SCALED_BODIES[kind]()
    rng = np.random.default_rng(29)
    exact = math.frexp(s)[0] == 0.5
    if s > RANGE:
        for call in (body.lo_minimize, body.support):
            assert_refused(lambda: call(s * np.ones(body.dim)), "c", VECTOR_RANGE)
        return
    for d in (np.ones(body.dim), *rng.normal(size=(4, body.dim))):
        z, zs = body.lo_minimize(d)[0], body.lo_minimize(s * d)[0]
        if exact:
            assert zs.tolist() == z.tolist()
        else:
            assert np.max(np.abs(zs - z)) <= 1e-15 * max(1.0, np.max(np.abs(z)))
        expected = s * body.support(d)
        assert body.support(s * d) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "kind, s",
    [("ellipsoid-2d", s) for s in (1e102, 1e103, 1e150, 1e160, 1e300)]
    + [("ellipsoid-3d", s) for s in (1e102, 1e103, 1e150)]
    + [(kind, s) for kind in ("ellipsoid-2d", "ellipsoid-3d") for s in (2.0**64, 2.0**127)],
)
def test_a_far_point_projects_to_its_limit_or_raises(kind, s):
    # As s grows, P(s d) tends to the point of the body farthest along d,
    # the minimizer of <-d, z>, up to the range's edge; beyond it the point
    # is refused, as the Newton solve would overflow past s = 1e102.
    body = SCALED_BODIES[kind]()
    d = np.ones(body.dim)
    if s > RANGE:
        assert_refused(lambda: body.project(s * d), "v", VECTOR_RANGE)
        return
    p = body.project(s * d)
    assert body.violation(p) <= MEMBER_TOL
    assert np.max(np.abs(p - body.lo_minimize(-d)[0])) <= 1e-12


# One body of each kind, the arguments its public methods name, and three
# vectors each of them refuses: of the wrong length, with a non-finite entry
# and with a string entry.
CHECKED_BODIES = {
    "halfspace": lambda: Halfspace(normal=[1.0, 0.0], offset=0.0),
    "ball": unit_disk,
    "box": lambda: Box(lower=[0.0, 0.0], upper=[1.0, 1.0]),
    "ellipsoid": slim_ellipse,
}
CHECKED_ARGUMENTS = {"violation": "z", "project": "v", "lo_minimize": "c", "support": "c"}


class TestCheckedLayer:
    @pytest.mark.parametrize("kind", CHECKED_BODIES)
    @pytest.mark.parametrize(
        "bad", [[0.0, 0.0, 0.0], [0.0, math.inf], [0.0, "1"]], ids=["length", "inf", "str"]
    )
    def test_each_public_method_names_its_argument(self, kind, bad):
        body = CHECKED_BODIES[kind]()
        names = CHECKED_ARGUMENTS if body.is_compact else ["violation", "project"]
        for name in names:
            with pytest.raises(InputError) as err:
                getattr(body, name)(bad)
            assert err.value.path == CHECKED_ARGUMENTS[name]

    @pytest.mark.parametrize("cls", [Halfspace, Ball, Box, Ellipsoid])
    def test_each_kind_binds_the_one_checked_layer(self, cls):
        # The traced names are ConvexBody's own functions, and no kind
        # defines a public method of its own.
        traced = ["violation", "project"] + ["lo_minimize"] * cls.is_compact
        for name in CHECKED_ARGUMENTS:
            if name in traced:
                assert cls.__dict__[name] is getattr(ConvexBody, name)
            else:
                assert name not in cls.__dict__


class TestProjection:
    def test_halfspace_axis_aligned(self):
        h = Halfspace(normal=[-1.0, 0.0], offset=-1.5)
        assert np.allclose(h.project([0.0, 0.0]), [1.5, 0.0])

    def test_unit_disk_radial(self):
        assert np.allclose(unit_disk().project([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_ball_projects_a_far_point(self):
        # A point beyond the range is refused; from the range's edge the
        # projection keeps the point's direction.
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        assert_refused(lambda: ball.project([1e200, 1e200]), "v", VECTOR_RANGE)
        w = ball.project([2.0**127, 2.0**127])
        assert np.allclose(w, [math.sqrt(0.5), math.sqrt(0.5)], rtol=0, atol=1e-15)

    def test_ball_projects_a_point_whose_offset_overflows(self):
        # A centre or a point whose offset would overflow is refused; the
        # farthest offset in range, 2^129, projects to the ball.
        assert_refused(lambda: Ball(center=[-1e308, 0.0], radius=1.0), "center", VECTOR_RANGE)
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        assert_refused(lambda: ball.project([1.5e308, 1.5e308]), "v", VECTOR_RANGE)
        w = Ball(center=[-RANGE, 0.0], radius=1.0).project([RANGE, 0.0])
        assert np.array_equal(w, [-RANGE + 1.0, 0.0])

    def test_tiny_ball_projects_outside_points(self):
        # Radii below 2^-64 are refused; a ball of radius 2^-64 projects an
        # outside point along its offset.
        for r in (1e-300, 1e-160):
            assert_refused(lambda: Ball(center=[0.0, 0.0], radius=r), "radius",
                           length_range(r))
        r = 2.0**-64
        ball = Ball(center=[0.0, 0.0], radius=r)
        assert np.array_equal(ball.project([3.0 * r, 0.0]), [r, 0.0])
        w = ball.project([3.0 * r, 4.0 * r])
        assert np.allclose(w, [0.6 * r, 0.8 * r], rtol=1e-15, atol=0)

    def test_slim_ellipse_against_boundary_sampling(self):
        # Frozen from a boundary-sampling oracle (since retired) at 1e5 and
        # 1e4 samples, which agreed to 3e-8.
        w = slim_ellipse().project([2.0, 2.0])
        assert np.allclose(w, [0.14142132, 0.14142140], atol=1e-6)
        assert slim_ellipse().violation(w) <= 1e-12

    def test_slim_ellipse_optimality_over_boundary(self):
        e = slim_ellipse()
        v = np.array([2.0, 2.0])
        w = e.project(v)
        ts = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
        dirs = np.stack([np.cos(ts), np.sin(ts)], axis=-1)
        boundary = np.array([boundary_point(e, d) for d in dirs])
        assert np.max((boundary - w) @ (v - w)) <= 1e-9

    def test_member_projects_to_itself(self):
        e = slim_ellipse()
        v = np.array([0.1, -0.1])
        assert e.violation(v) == 0.0
        assert np.array_equal(e.project(v), v)

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_inequalities_and_idempotence(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            body = random_body(rng)
            v = rng.uniform(-6.0, 6.0, 2)
            w = body.project(v)
            assert body.violation(w) <= 1e-10
            members = sample_members(body, rng, 500)
            gaps = (members - w) @ (v - w)
            assert gaps.max() <= 1e-9
            dist_sq = np.sum((members - w) ** 2, axis=1)
            orig_sq = np.sum((members - v) ** 2, axis=1)
            assert np.all(dist_sq <= orig_sq - float((w - v) @ (w - v)) + 1e-9)
            again = body.project(w)
            assert np.max(np.abs(again - w)) <= 1e-10


def test_projection_optimality_in_higher_dimensions():
    rng = np.random.default_rng(17)
    for dim in (3, 4, 5):
        for _ in range(8):
            body = random_compact_body(rng, dim=dim)
            v = rng.uniform(-6.0, 6.0, dim)
            w = body.project(v)
            assert body.violation(w) <= 1e-10
            members = sample_members(body, rng, 300)
            assert ((members - w) @ (v - w)).max() <= 1e-9
            assert np.max(np.abs(body.project(w) - w)) <= 1e-10


PROJ_DIMS = (2, 3, 16, 50)
PROJ_KINDS = ("random", "ill_conditioned")
PROJ_DISTANCES = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
# These cases take at most 12 Newton steps (2-D, cond 1e8), and a wider
# sweep of 800 points took at most 15; halving each step would take dozens.
MAX_NEWTON_STEPS = 20


def projection_cases(dim, kind, n_bodies=6):
    """Ellipsoids, each with points at every distance of ``PROJ_DISTANCES``
    along the outward normal of a random boundary point ``foot``, which is
    then the exact projection (to the rounding floor ``foot_tol``).
    ``ill_conditioned`` shapes have condition number 1e8."""
    rng = np.random.default_rng(1000 * dim + PROJ_KINDS.index(kind))
    for _ in range(n_bodies):
        if kind == "ill_conditioned":
            body = ill_conditioned_ellipsoid(rng, dim, cond=1e8)
        else:
            body = random_ellipsoid(rng, dim)
        for dist in PROJ_DISTANCES:
            direction = rng.normal(size=dim)
            foot = boundary_point(body, direction / np.linalg.norm(direction))
            normal = body.shape @ (foot - body.center)
            yield body, foot + dist * normal / np.linalg.norm(normal), foot


def newton_solve(body):
    """The Newton solve ``Ellipsoid.project`` runs for this dimension."""
    return body._newton_planar if body.dim == 2 else body._newton_frame


@pytest.mark.parametrize("kind", PROJ_KINDS)
@pytest.mark.parametrize("dim", PROJ_DIMS)
def test_ellipsoid_projection_certificate(dim, kind):
    # At the exact projection w of v the Frank-Wolfe gap
    # support(v - w) - <v - w, w> is 0, and at a member it bounds
    # <v - w, z - w> over all members z.
    for body, v, foot in projection_cases(dim, kind):
        _, w, steps = newton_solve(body)(v)
        assert np.array_equal(body.project(v), w)
        r = v - w
        scale = np.linalg.norm(r) * (np.linalg.norm(w) + diameter(body))
        assert body.support(r) - float(r @ w) <= 1e-9 * scale
        assert body.violation(w) <= START_TOL
        tol = foot_tol(body) * (np.linalg.norm(foot) + diameter(body))
        assert np.linalg.norm(w - foot) <= tol
        assert 1 <= steps <= MAX_NEWTON_STEPS


@pytest.mark.parametrize("kind", PROJ_KINDS)
def test_planar_newton_agrees_with_the_numpy_solve(kind):
    for body, v, _ in projection_cases(2, kind, n_bodies=20):
        _, w_planar, steps_planar = body._newton_planar(v)
        _, w_numpy, steps_numpy = body._newton_frame(v)
        assert np.linalg.norm(w_planar - w_numpy) <= 1e-12 * np.linalg.norm(w_numpy)
        assert steps_planar == steps_numpy


def planar_membership_cases(kind, n_bodies=10, n_points=20):
    """Random 2-D ellipsoids (``ill_conditioned``: condition number 1e8),
    each with points on rays from the centre at up to twice the boundary's
    distance, moved by noise of random size."""
    rng = np.random.default_rng(PROJ_KINDS.index(kind))
    for _ in range(n_bodies):
        if kind == "ill_conditioned":
            body = ill_conditioned_ellipsoid(rng, 2, cond=1e8)
        else:
            body = random_ellipsoid(rng, 2)
        for _ in range(n_points):
            direction = rng.normal(size=2)
            edge = boundary_point(body, direction / np.linalg.norm(direction))
            noise = rng.normal(size=2) * 10.0 ** rng.uniform(-8.0, 0.0)
            along = rng.uniform(0.0, 2.0) * (edge - body.center)
            yield body, body.center + along + noise


class _Recorded(Exception):
    pass


def kernel_anchor_test(monkeypatch, body, anchor):
    """The value the anchor test of the ellipsoid's Frank-Wolfe plane computes."""
    seen = []

    def record(violation, path):
        seen.append(violation)
        raise _Recorded

    monkeypatch.setattr(bodies, "check_member", record)
    with pytest.raises(_Recorded):
        condg_project(body, ForcingParams(0.0, 0.0, 0.0), anchor, body.center)
    monkeypatch.undo()
    return seen[0]


def newton_residual_is(monkeypatch, body, v, r):
    """Whether the residual ``s2 - 1`` of ``_newton_planar`` at mu = 0 is
    exactly ``r > 0``: under the member tolerance ``r`` the solve stops at
    once, and under the next float below ``r`` it steps."""
    monkeypatch.setattr(bodies, "MEMBER_TOL", r)
    stops = body._newton_planar(v)[2] == 0
    monkeypatch.setattr(bodies, "MEMBER_TOL", math.nextafter(r, -math.inf))
    steps = body._newton_planar(v)[2] > 0
    monkeypatch.undo()
    return stops and steps


@pytest.mark.parametrize("kind", PROJ_KINDS)
class TestPlanarMembership:
    """A 2-D ellipsoid has one membership formula: its violation, the
    planar kernel's anchor test and the Newton solve's residual at mu = 0
    are the same expression over Python floats."""

    def test_violation_anchor_test_and_newton_residual_agree_bitwise(
        self, monkeypatch, kind
    ):
        outside = 0
        for body, v in planar_membership_cases(kind):
            viol = body._violation(v)
            raw = kernel_anchor_test(monkeypatch, body, v)
            assert viol == max(0.0, raw)
            # A residual this far above 0 makes a Newton step that moves mu.
            if raw > 1e-12:
                outside += 1
                assert newton_residual_is(monkeypatch, body, v, raw)
        assert outside >= 50

    def test_violation_agrees_with_the_numpy_frame_formula(self, kind):
        # Both forms round b = V^T (v - center) (numpy may fuse its
        # multiply-adds), so they differ by a few ulps of the quadratic form
        # q plus what each b_i's rounding, eps * sum_j |V_ji d_j|, moves q by.
        # At condition number 1e8 the latter reaches 2e3 ulps of max(1, q).
        eps = np.finfo(np.float64).eps
        for body, v in planar_membership_cases(kind):
            d = v - body.center
            u = body._to_frame(v)
            q = float(body._eigvals.dot(u * u))
            spread = np.abs(body._eigvecs.T).dot(np.abs(d))
            scale = max(1.0, q) + float(body._eigvals.dot(np.abs(u) * spread))
            numpy_form = body._frame_violation(u)
            assert abs(body._violation(v) - numpy_form) <= 4.0 * eps * scale

    def test_non_member_anchor_rejected_at_start_tol(self, kind):
        # The kernel's decision is the violation's: InputError exactly when
        # it exceeds START_TOL.
        exact = ForcingParams(0.0, 0.0, 0.0)
        verdicts = set()
        for body, v in planar_membership_cases(kind, n_points=2):
            d = v - body.center
            edge = boundary_point(body, d / np.linalg.norm(d))
            far = body.center + 10.0 * (edge - body.center)
            for t in np.array([0.5, 0.9, 1.1, 2.0]) * START_TOL:
                anchor = body.center + math.sqrt(1.0 + t) * (edge - body.center)
                member = body.violation(anchor) <= START_TOL
                verdicts.add(member)
                if member:
                    condg_project(body, exact, anchor, far)
                    continue
                with pytest.raises(InputError) as err:
                    condg_project(body, exact, anchor, far)
                assert err.value.path == "anchor"
                assert err.value.message == (
                    f"must belong to its set (violation <= {START_TOL:g})"
                )
        assert verdicts == {True, False}


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    cx=st.floats(-3, 3),
    cy=st.floats(-3, 3),
)
def test_projection_optimality_property(data, cx, cy):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    body = random_body(rng)
    v = np.array([cx, cy])
    w = body.project(v)
    assert body.violation(w) <= 1e-10
    members = sample_members(body, rng, 200)
    assert ((members - w) @ (v - w)).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_support_is_tight_property(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    body = random_compact_body(rng)
    c = rng.normal(size=2)
    h = body.support(c)
    members = sample_members(body, rng, 500)
    assert (members @ c).max() <= h + 1e-9
    z, _ = body.lo_minimize(-c)
    assert float(z @ c) == pytest.approx(h, abs=1e-9)


MEASURED_KINDS = {
    "ellipsoid": random_ellipsoid,
    "ball": random_ball,
    "box": random_box,
    "halfspace": random_halfspace,
}


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(sorted(MEASURED_KINDS)),
    dim=st.sampled_from([2, 3, 16]),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from(["inside", "boundary", "outside"]),
    share=st.floats(0.0, 1.0),
)
def test_violation_project_is_the_pair_of_calls_property(kind, dim, seed, where, share):
    # One frame map gives the violation that ``_violation`` gives, bit for
    # bit, and the projection that ``project`` returns: members, points
    # within MEMBER_TOL of the boundary on either side, and points outside.
    # The projection tests above check the projections themselves.
    rng = np.random.default_rng(seed)
    body = MEASURED_KINDS[kind](rng, dim)
    member = sample_members(body, rng, 1)[0]
    if where == "inside":
        v = member
    else:
        d = rng.normal(size=dim)
        if kind == "halfspace":  # leave along the outward normal
            unit = body.normal / np.linalg.norm(body.normal)
            d += (3.0 - float(d @ unit)) * unit
        far = member + 100.0 * d / np.linalg.norm(d)
        foot = body._violation_project(far)[1]
        out = (far - foot) / np.linalg.norm(far - foot)
        step = (2.0 * share - 1.0) * MEMBER_TOL if where == "boundary" else 1e-3 + 10.0 * share
        v = foot + step * out
    violation, w = body._violation_project(v)
    assert violation == body._violation(v)
    reference = body.project(v)
    assert w.dtype == reference.dtype and w.tobytes() == reference.tobytes()
    assert w is not v
