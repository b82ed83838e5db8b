"""Closed convex sets with violation measures, linear oracles, and projections.

Every body is an immutable value. The operations exposed per body are:

* ``violation(z)``   -- max over defining constraints of ``max(0, g_i(z))``,
  zero exactly on members,
* ``lo_minimize(c)`` -- linear minimization oracle, compact bodies only,
* ``support(c)``     -- support function ``max_z <c, z>``, compact bodies only,
* ``project(v)``     -- exact Euclidean projection.

An ellipsoid measures violation and projects in its eigenbasis frame (see
below), where a point ``u`` has violation ``sum lam_i u_i^2 - 1`` and the
projection of an outside point solves a scalar secular equation by monotone
Newton steps (Moré and Sorensen's form, see ``Ellipsoid.project``), over
Python floats in 2-D and numpy vectors otherwise.

Each compact body has a private frame, an isometry ``u = R^T (x - o)``
in which its linear oracle costs O(n): ``_to_frame`` and ``_from_frame`` map
points in and out, ``_frame_lo(g)`` minimizes ``<g, u>`` over the body in
frame coordinates, and ``_frame_violation(u)`` is the membership formula
there. Distances and inner products are the same in the frame, so the
Frank-Wolfe loop of :mod:`feasib.condg` runs there, tests its anchor with
``_frame_violation`` and maps only its result back. The public
``lo_minimize`` is the frame oracle between the two maps, and the public
``violation`` is ``_frame_violation`` after ``_to_frame``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import ClassVar, TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]

# Points with violation at or below MEMBER_TOL are members to the library
# itself; experiment-level feasibility uses its own eps_feas. A start point
# or warm-start anchor may sit up to START_TOL outside its set. At condition
# number 1e8 ellipsoid projections read up to about 6e-12 outside, so a
# start test at 1e-12 would refuse them, and a member test at 1e-10 would
# let ``project`` return points that far outside unchanged.
MEMBER_TOL = 1e-12
START_TOL = 1e-10

__all__ = [
    "Ball",
    "Box",
    "ConvexBody",
    "Ellipsoid",
    "Halfspace",
    "InputError",
    "MEMBER_TOL",
    "START_TOL",
    "UnsupportedOracleError",
    "Vector",
    "as_vector",
    "check_count",
    "check_member",
    "member_vector",
]


class UnsupportedOracleError(NotImplementedError):
    """Raised when a body does not support the requested oracle."""


class InputError(ValueError):
    """Invalid solver or config input; ``path`` names the argument or field."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


def check_count(value, path: str) -> None:
    """Raise InputError unless ``value`` is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(path, "must be an integer")
    if value < 1:
        raise InputError(path, "must be >= 1")


def as_vector(x, dim: int | None = None, path: str | None = None) -> Vector:
    """Validate and convert ``x`` to a finite 1-D float64 array; a bad ``x``
    raises InputError at ``path``, or ValueError when no path is given."""
    try:
        v = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        problem = f"malformed vector: {exc}"
    else:
        if v.ndim != 1:
            problem = f"expected a 1-D vector, got shape {v.shape}"
        elif not np.isfinite(v).all():
            problem = "vector entries must be finite"
        elif dim is not None and v.shape[0] != dim:
            problem = f"dimension mismatch: expected {dim}, got {v.shape[0]}"
        else:
            return v
    raise ValueError(problem) if path is None else InputError(path, problem)


def _as_float(x, path: str) -> float:
    """``x`` as a float, or InputError at ``path`` when ``float`` refuses it."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(path, f"malformed number: {exc}") from None


def check_member(violation: float, path: str) -> None:
    """Raise InputError unless ``violation`` is at most ``START_TOL``."""
    if violation > START_TOL:
        raise InputError(path, f"must belong to its set (violation <= {START_TOL:g})")


def member_vector(body: ConvexBody, x, path: str) -> Vector:
    """``x`` as a vector in ``body`` to within ``START_TOL``, or InputError."""
    v = as_vector(x, body.dim, path)
    check_member(body.violation(v), path)
    return v


class ConvexBody:
    """Base class for closed convex sets.

    Subclasses set ``is_compact`` (whether the body has a linear oracle, and
    so a conditional-gradient projection) and implement the geometric
    operations. Every body kind projects exactly. All instances are
    immutable after construction.
    """

    is_compact: ClassVar[bool]

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def violation(self, z) -> float:
        """Constraint violation ``max(0, g(z))``; zero iff ``z`` is a member."""
        raise NotImplementedError

    def contains(self, z) -> bool:
        return self.violation(z) <= MEMBER_TOL

    def lo_minimize(self, c) -> tuple[Vector, float]:
        """Return ``(z_star, value)`` minimizing ``<c, z>`` over the body."""
        raise UnsupportedOracleError(
            f"{type(self).__name__} does not support a linear minimization oracle"
        )

    def support(self, c) -> float:
        """Support function ``max_z <c, z>`` over the body."""
        raise UnsupportedOracleError(
            f"{type(self).__name__} does not support the support function"
        )

    def project(self, v) -> Vector:
        """Exact Euclidean projection of ``v`` onto the body."""
        raise UnsupportedOracleError(
            f"{type(self).__name__} does not support exact projection"
        )


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexBody):
    """Halfspace ``{z : <normal, z> <= offset}``.

    The violation is the raw constraint value ``max(0, <normal, z> - offset)``,
    not the Euclidean distance (they agree for unit normals).
    """

    normal: Vector
    offset: float

    is_compact: ClassVar[bool] = False

    def __post_init__(self):
        a = as_vector(self.normal, path="normal")
        if not np.any(a != 0.0):
            raise InputError("normal", "must be nonzero")
        offset = _as_float(self.offset, "offset")
        if not math.isfinite(offset):
            raise InputError("offset", f"must be finite, got {self.offset}")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def violation(self, z) -> float:
        z = as_vector(z, self.dim)
        return max(0.0, float(self.normal @ z) - self.offset)

    def project(self, v) -> Vector:
        v = as_vector(v, self.dim)
        excess = float(self.normal @ v) - self.offset
        if excess <= 0.0:
            return v.copy()
        return v - (excess / float(self.normal @ self.normal)) * self.normal


@dataclass(frozen=True, eq=False)
class Ball(ConvexBody):
    """Euclidean ball ``{z : ||z - center|| <= radius}``."""

    center: Vector
    radius: float

    is_compact: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, path="center"))
        r = _as_float(self.radius, "radius")
        if not 0.0 < r < math.inf:
            raise InputError("radius", f"must be finite and positive, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def violation(self, z) -> float:
        return self._frame_violation(self._to_frame(as_vector(z, self.dim)))

    def _to_frame(self, x: Vector) -> Vector:
        return x - self.center

    def _frame_violation(self, u: Vector) -> float:
        return max(0.0, float(np.linalg.norm(u)) - self.radius)

    def _from_frame(self, u: Vector) -> Vector:
        return self.center + u

    def _frame_lo(self, g: Vector) -> Vector:
        ng = math.sqrt(float(g @ g))
        if ng == 0.0:
            return np.zeros_like(g)
        return (-self.radius / ng) * g

    def lo_minimize(self, c) -> tuple[Vector, float]:
        c = as_vector(c, self.dim)
        z = self._from_frame(self._frame_lo(c))
        return z, float(c @ z)

    def support(self, c) -> float:
        c = as_vector(c, self.dim)
        return float(c @ self.center) + self.radius * float(np.linalg.norm(c))

    def project(self, v) -> Vector:
        v = as_vector(v, self.dim)
        d = v - self.center
        nd = float(np.linalg.norm(d))
        if nd <= self.radius:
            return v.copy()
        return self.center + (self.radius / nd) * d


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """Axis-aligned box ``{z : lower <= z <= upper}`` (componentwise)."""

    lower: Vector
    upper: Vector

    is_compact: ClassVar[bool] = True

    def __post_init__(self):
        lo = as_vector(self.lower, path="lower")
        hi = as_vector(self.upper, lo.shape[0], "upper")
        if np.any(lo > hi):
            raise InputError("upper", "must be >= lower componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def violation(self, z) -> float:
        return self._frame_violation(self._to_frame(as_vector(z, self.dim)))

    # The frame is the identity.
    def _to_frame(self, x: Vector) -> Vector:
        return x

    def _frame_violation(self, u: Vector) -> float:
        under = np.max(self.lower - u, initial=0.0)
        over = np.max(u - self.upper, initial=0.0)
        return float(max(0.0, under, over))

    def _from_frame(self, u: Vector) -> Vector:
        return u

    def _frame_lo(self, g: Vector) -> Vector:
        # g_i > 0 picks the lower bound, g_i < 0 the upper; ties go to lower.
        return np.where(g < 0.0, self.upper, self.lower)

    def lo_minimize(self, c) -> tuple[Vector, float]:
        c = as_vector(c, self.dim)
        z = self._frame_lo(c)
        return z, float(c @ z)

    def support(self, c) -> float:
        c = as_vector(c, self.dim)
        return float(np.sum(np.where(c > 0.0, c * self.upper, c * self.lower)))

    def project(self, v) -> Vector:
        v = as_vector(v, self.dim)
        return np.clip(v, self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class Ellipsoid(ConvexBody):
    """Ellipsoid ``{z : (z - center)^T shape (z - center) <= 1}``.

    ``shape`` must be symmetric positive definite. Its eigendecomposition is
    cached at construction so oracles and projections reduce to scalar work
    in the eigenbasis.
    """

    center: Vector
    shape: NDArray[np.float64]
    _eigvals: Vector = field(init=False, repr=False)
    _eigvecs: NDArray[np.float64] = field(init=False, repr=False)

    is_compact: ClassVar[bool] = True

    SECULAR_MAX_ITERS: ClassVar[int] = 200

    def __post_init__(self):
        center = as_vector(self.center, path="center")
        try:
            q = np.asarray(self.shape, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("shape", f"malformed matrix: {exc}") from None
        n = center.shape[0]
        if q.shape != (n, n):
            raise InputError("shape", f"must be {n}x{n}, got {q.shape}")
        # The symmetrization below adds q to its transpose, which overflows
        # for entries above half the largest float.
        peak, limit = float(np.abs(q).max(initial=0.0)), 0.5 * sys.float_info.max
        if not peak <= limit:
            raise InputError("shape", f"entries must be finite and at most {limit:.3g}")
        # The test ||q - q^T|| <= 1e-12 max(||q||, 1), run on q / max(peak, 1):
        # its entries are at most 1 in magnitude, so its norms cannot overflow.
        s = max(peak, 1.0)
        qs = q / s
        scale = max(float(np.linalg.norm(qs)), 1.0 / s)
        if float(np.linalg.norm(qs - qs.T)) > 1e-12 * scale:
            raise InputError("shape", "must be symmetric")
        q = 0.5 * (q + q.T)
        vals, vecs = np.linalg.eigh(q)
        # Entries near the float limit overflow to NaN eigenvalues, which
        # compare false both ways: only a test that they are > 0 rejects them.
        if not np.all((0.0 < vals) & (vals < math.inf)):
            raise InputError("shape", f"must be positive definite, eigenvalues {vals}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", q)
        object.__setattr__(self, "_eigvals", vals)
        object.__setattr__(self, "_eigvecs", vecs)

    @classmethod
    def from_axes(cls, center, angle: float, semi_axes) -> "Ellipsoid":
        """Build a 2-D ellipsoid from semi-axes ``(a, b)`` and a rotation angle.

        The shape matrix is ``R(angle)^T diag(1/a^2, 1/b^2) R(angle)`` with
        ``R = [[cos, sin], [-sin, cos]]``.
        """
        center = as_vector(center, 2, "center")
        angle = _as_float(angle, "angle")
        if not math.isfinite(angle):
            raise InputError("angle", f"must be finite, got {angle}")
        a, b = as_vector(semi_axes, 2, "semi_axes").tolist()
        if not (a > 0.0 and b > 0.0):
            raise InputError("semi_axes", f"must be positive, got {(a, b)}")
        try:
            diag = [1.0 / a**2, 1.0 / b**2]
        except (OverflowError, ZeroDivisionError):  # a**2 or b**2 out of range
            diag = [0.0]
        if not all(0.0 < d < math.inf for d in diag):
            raise InputError(
                "semi_axes", f"1/a^2 and 1/b^2 must be finite and positive, got {(a, b)}"
            )
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, s], [-s, c]])
        try:
            return cls(center=center, shape=rot.T @ np.diag(diag) @ rot)
        except InputError as exc:  # the axes give no usable shape matrix
            raise InputError("semi_axes", f"{exc.message}, got {(a, b)}") from None

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def violation(self, z) -> float:
        return self._frame_violation(self._to_frame(as_vector(z, self.dim)))

    # The frame is the eigenbasis, centred: u = V^T (x - center), in which
    # the body is {u : sum lam_i u_i^2 <= 1}.
    def _to_frame(self, x: Vector) -> Vector:
        return self._eigvecs.T @ (x - self.center)

    def _frame_violation(self, u: Vector) -> float:
        return max(0.0, float(self._eigvals @ (u * u)) - 1.0)

    def _from_frame(self, u: Vector) -> Vector:
        return self.center + self._eigvecs @ u

    def _frame_lo(self, g: Vector) -> Vector:
        w = g / self._eigvals
        s = float(g @ w)
        if s == 0.0:
            return np.zeros_like(g)
        return w * (-1.0 / math.sqrt(s))

    def lo_minimize(self, c) -> tuple[Vector, float]:
        c = as_vector(c, self.dim)
        z = self._from_frame(self._frame_lo(self._eigvecs.T @ c))
        return z, float(c @ z)

    def support(self, c) -> float:
        c = as_vector(c, self.dim)
        b = self._eigvecs.T @ c
        return float(c @ self.center) + math.sqrt(float(np.sum(b * b / self._eigvals)))

    def boundary_point(self, direction) -> Vector:
        """Boundary point in unit-quadratic coordinates along ``direction``."""
        u = as_vector(direction, self.dim)
        return self.center + self._eigvecs @ (
            (self._eigvecs.T @ u) / np.sqrt(self._eigvals)
        )

    def project(self, v) -> Vector:
        v = as_vector(v, self.dim)
        # In the eigenbasis the projection is z(mu) with coordinates
        # z_i = b_i e_i, e_i = 1 / (1 + mu lam_i), and mu > 0 solves the
        # secular equation s2(mu) = sum lam_i b_i^2 e_i^2 = 1. As Moré and
        # Sorensen do for trust-region steps, solve h(mu) = 1/sqrt(s2) = 1
        # instead: h is concave and increasing, so Newton from mu = 0 rises
        # monotonically to the root, with no bracket or safeguard. With
        # s3 = sum lam_i^2 b_i^2 e_i^3 = -s2'/2, the step is
        # (1 - h)/h' = (sqrt(s2) - 1) s2 / s3.
        solve = self._newton_planar if self.dim == 2 else self._newton_frame
        return solve(v)[0]

    # Both Newton loops stop once s2 - 1 <= MEMBER_TOL (that test also ends
    # a rounding overshoot past the root, where the step would be negative),
    # when a step no longer increases mu, or at SECULAR_MAX_ITERS, a safety
    # cap. At mu = 0, s2 - 1 is the violation, so a member returns as itself.
    # Each returns the projection and its number of Newton steps.

    def _newton_frame(self, v: Vector) -> tuple[Vector, int]:
        """The Newton solve with numpy vectors, for any dimension."""
        lam = self._eigvals
        b = self._to_frame(v)
        t = lam * b * b
        mu, steps = 0.0, 0
        while steps < self.SECULAR_MAX_ITERS:
            e = 1.0 / (1.0 + mu * lam)
            q = t * e * e
            s2 = float(q.sum())
            if s2 - 1.0 <= MEMBER_TOL:
                break
            nxt = mu + (math.sqrt(s2) - 1.0) * s2 / float((q * lam * e).sum())
            if not nxt > mu:
                break
            mu, steps = nxt, steps + 1
        if steps == 0:
            return v.copy(), 0
        return self.center + self._eigvecs @ (b / (1.0 + mu * lam)), steps

    def _newton_planar(self, v: Vector) -> tuple[Vector, int]:
        """``_newton_frame`` for ``dim == 2``, unrolled over Python floats."""
        (v00, v01), (v10, v11) = self._eigvecs.tolist()
        l0, l1 = self._eigvals.tolist()
        c0, c1 = self.center.tolist()
        p0, p1 = v.tolist()
        d0, d1 = p0 - c0, p1 - c1
        b0, b1 = v00 * d0 + v10 * d1, v01 * d0 + v11 * d1
        t0, t1 = l0 * b0 * b0, l1 * b1 * b1
        mu, steps = 0.0, 0
        while steps < self.SECULAR_MAX_ITERS:
            e0, e1 = 1.0 / (1.0 + mu * l0), 1.0 / (1.0 + mu * l1)
            q0, q1 = t0 * e0 * e0, t1 * e1 * e1
            s2 = q0 + q1
            if s2 - 1.0 <= MEMBER_TOL:
                break
            nxt = mu + (math.sqrt(s2) - 1.0) * s2 / (q0 * l0 * e0 + q1 * l1 * e1)
            if not nxt > mu:
                break
            mu, steps = nxt, steps + 1
        if steps == 0:
            return v.copy(), 0
        z0, z1 = b0 / (1.0 + mu * l0), b1 / (1.0 + mu * l1)
        point = np.array([c0 + (v00 * z0 + v01 * z1), c1 + (v10 * z0 + v11 * z1)])
        return point, steps
