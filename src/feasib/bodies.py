"""Closed convex sets with violation measures, linear oracles, and projections.

Every body is an immutable value. The operations exposed per body are:

* ``violation(z)``   -- max over defining constraints of ``max(0, g_i(z))``,
  zero exactly on members,
* ``lo_minimize(c)`` -- linear minimization oracle, compact bodies only,
* ``support(c)``     -- support function ``max_z <c, z>``, compact bodies only,
* ``project(v)``     -- exact Euclidean projection.

``ConvexBody`` states the four once, the checked layer: each checks its
argument with ``as_vector``, whose InputError names it (``z``, ``v`` or
``c``), then calls what a kind defines: ``_violation``,
``_violation_project`` and, when compact, the frame methods below,
``_support`` and, for an ellipsoid, ``_frame_direction``.

An ellipsoid measures violation and projects in its eigenbasis frame (see
below), where a point ``u`` has violation ``sum lam_i u_i^2 - 1`` and the
projection of an outside point solves a scalar secular equation by monotone
Newton steps (Moré and Sorensen's form, see
``Ellipsoid._violation_project``), over Python floats in 2-D and numpy
vectors otherwise.

Each compact body has a private frame, an isometry ``u = R^T (x - o)``
in which its linear oracle costs O(n): ``_to_frame`` and ``_from_frame`` map
points in and out, ``_frame_lo(g)`` minimizes ``<g, u>`` over the body in
frame coordinates, and ``_frame_violation(u)`` is the membership formula
there. Distances and inner products are the same in the frame, so the
Frank-Wolfe loop of :mod:`feasib.condg` runs there, tests its anchor with
``_frame_violation`` and maps only its result back. Where a call's
iterates stay in a plane, ``_fw_plane(anchor, point)`` gives that plane
instead, as Python floats, and tests the anchor there: a 2-D ellipsoid's
cached frame, or a ball's plane through its centre, anchor and point,
built per call where the plane's floats can hold the ball's disk. Every
other body gives None. The public ``lo_minimize`` is the frame oracle
between the two maps, on ``c`` scaled by a power of two (``_scaled``).
Each kind's one unchecked exact projection is ``_violation_project(v)``,
which returns ``(violation, projection)``, the violation bit for bit that of
``_violation(v)``, from one frame map: a halfspace computes one excess, a
ball one norm, an ellipsoid one Newton solve on the frame point its
violation reads, and a box its violation and one clip. The public
``project`` returns its second entry. The solvers
measure and project each iterate with it on every side they project
exactly, and call ``_violation`` on the others.
A point whose offset from a compact body overflows gets the violation
``inf``: the frame formula would read ``0 * inf`` or ``inf - inf`` as nan,
which ``max(0, .)`` turns into 0.

A 2-D ellipsoid, the body of every instance in the paper's tables, caches
its frame as Python floats at construction (``_planar``: the entries of
``V``, the eigenvalues and the centre), and every operation of it on the
solvers' paths runs over Python floats from that tuple: ``_violation``,
the Newton solve of ``_violation_project``, and both maps of
``_fw_plane``. One method, ``_to_plane``, maps a point into that frame,
``b = V^T (p - c)``, and gives the terms ``l_i b_i^2`` of the membership
formula; each caller sums them as ``t0 + t1 - 1``, so the three agree
bitwise, and ``_from_planar`` is the one map back, ``c + V u``. numpy's
form rounds ``b`` differently, in the last bits. In the Newton solve that
sum is also the residual at mu = 0, so the solve returns it as the
violation.

Code on the solvers' paths, here (``_violation``, ``_violation_project``
and the frame methods) and in :mod:`feasib.condg`, takes products as
``ndarray.dot``: it makes the same BLAS call as ``@``, so it gives the same
bits, with less dispatch.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, ClassVar, TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]
# A Frank-Wolfe call's plane (see ``ConvexBody._fw_plane``): the anchor's and
# the point's coordinates ``(ua0, ua1, up0, up1)``, ``|point - anchor|^2``,
# the disk's or ellipse's ``l0, l1``, and the map of plane coordinates back.
Plane: TypeAlias = tuple[float, float, float, float, float, float, float,
                         Callable[[float, float], Vector]]

# Points with violation at or below MEMBER_TOL are members to the library
# itself; experiment-level feasibility uses its own eps_feas. A start point
# or warm-start anchor may sit up to START_TOL outside its set. At condition
# number 1e8 ellipsoid projections read up to about 6e-12 outside, so a
# start test at 1e-12 would refuse them, and a member test at 1e-10 would
# let ``project`` return points that far outside unchanged.
MEMBER_TOL = 1e-12
START_TOL = 1e-10
_SECULAR_MAX_ITERS = 200  # the safety cap of Ellipsoid's Newton loops
# ``_all_finite`` and ``_inf_norm`` read vectors of at most _SHORT entries as
# Python floats (timeit, n = 2: 0.3 against 0.8 us; the forms cross near
# n = 20); nd_pairs' n >= 16 stay numpy.
_SHORT = 8

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
    "as_float",
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


def _number_problem(x) -> str | None:
    """Why ``x`` is no number, or None; a bool is none."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return f"expected a number, got {type(x).__name__}"
    return None


def as_float(x, path: str) -> float:
    """``x`` as a finite float, or InputError at ``path``; an integer beyond
    the float range is not finite."""
    if (problem := _number_problem(x)) is not None:
        raise InputError(path, f"malformed number: {problem}")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise InputError(path, "must be finite")
    return v


def _entry_problem(x) -> str | None:
    """Why ``x`` holds no numbers, or None: it must be an integer or float
    ndarray, or a list or tuple of numbers. The entries are tested before
    ``np.asarray``, which converts bools and numeric strings."""
    if isinstance(x, np.ndarray):
        return None if x.dtype.kind in "iuf" else f"expected numbers, got dtype {x.dtype}"
    if not isinstance(x, (list, tuple)):
        return f"expected a list of numbers, got {type(x).__name__}"
    for i, e in enumerate(x):
        if (problem := _number_problem(e)) is not None:
            return f"entry {i}: {problem}"
    return None


def _all_finite(v: Vector) -> bool:
    """Whether every entry of the 1-D float64 ``v`` is finite."""
    if v.shape[0] <= _SHORT:
        return all(map(math.isfinite, v.tolist()))
    return np.count_nonzero(np.isfinite(v)) == v.shape[0]


def _inf_norm(d: Vector) -> float:
    """``max |d_i|``, selected by length as in ``_all_finite``. ``d``, a
    difference of finite vectors, holds finite or +-inf entries, so either
    form of the max is exact."""
    if d.shape[0] <= _SHORT:
        return max(map(abs, d.tolist()))
    return float(np.maximum.reduce(np.abs(d)))


def as_vector(x, dim: int | None, path: str) -> Vector:
    """Validate and convert ``x`` (see :func:`_entry_problem`) to a finite
    1-D float64 array of ``dim`` entries (any number when ``dim`` is None);
    a bad ``x`` raises InputError at ``path``."""
    if (problem := _entry_problem(x)) is not None:
        problem = f"malformed vector: {problem}"
    else:
        try:
            v = np.asarray(x, dtype=np.float64)
        except OverflowError:  # an integer entry beyond the float range
            v = np.array([math.inf])
        if v.ndim != 1:
            problem = f"expected a 1-D vector, got shape {v.shape}"
        elif v.shape[0] == 0:
            problem = "expected at least one entry"
        elif not _all_finite(v):
            problem = "vector entries must be finite"
        elif dim is not None and v.shape[0] != dim:
            problem = f"dimension mismatch: expected {dim}, got {v.shape[0]}"
        else:
            return v
    raise InputError(path, problem)


def check_member(violation: float, path: str) -> None:
    """Raise InputError unless ``violation`` is at most ``START_TOL``; a nan
    is no member."""
    if not violation <= START_TOL:
        raise InputError(path, f"must belong to its set (violation <= {START_TOL:g})")


def member_vector(body: ConvexBody, x, path: str) -> Vector:
    """``x`` as a vector in ``body`` to within ``START_TOL``, or InputError."""
    v = as_vector(x, body.dim, path)
    check_member(body._violation(v), path)
    return v


def _norm(d: Vector) -> float:
    """``|d|`` as numpy's norm computes it, ``sqrt(d . d)``; only when the
    sum of squares overflows, or falls below the normal range and so loses
    bits or reads 0, is it recomputed as ``m |d / m|`` with ``m = max |d_i|``."""
    with np.errstate(over="ignore"):
        s = float(d.dot(d))
    if not sys.float_info.min <= s < math.inf:
        m = float(np.abs(d).max())
        if m in (0.0, math.inf):  # d / m would hold 0 / 0 or inf / inf
            return m
        d = d / m
        return m * math.sqrt(float(d.dot(d)))
    return math.sqrt(s)


def _excess(r: float) -> float:
    """``max(0, r)``, except that a nan ``r`` reads ``inf``. A violation is
    nan only when a point's offset from a compact body overflowed (``0 * inf``
    or ``inf - inf``), so the point lies far outside; ``max`` would read the
    nan as 0, a member."""
    if r > 0.0:
        return r
    return 0.0 if r <= 0.0 else math.inf


def _scaled(c: Vector) -> tuple[Vector, int]:
    """``(c 2^-e, e)`` with ``max |c_i 2^-e|`` in [1/2, 1) where ``|c|^2`` could
    overflow or underflow, else ``(c, 0)``: the oracles square ``c``, though
    their minimizer reads only its direction and their support scales with
    it. The scale keeps the bits of every entry that stays a normal float."""
    e = math.frexp(_inf_norm(c))[1]
    return (c, 0) if abs(e) < 500 else (np.ldexp(c, -e), e)


class ConvexBody:
    """Base class for closed convex sets, and their checked layer. A kind
    sets ``is_compact`` (whether it has a linear oracle, and so a
    conditional-gradient projection; if not, both oracles refuse) and
    defines ``dim``, ``_violation`` (here the frame formula),
    ``_violation_project`` and, when compact, the frame methods, ``_support``
    and, for an ellipsoid, ``_frame_direction``. Instances are immutable."""

    is_compact: ClassVar[bool]
    _diameter: float  # compact bodies: the diameter once grown by START_TOL

    def violation(self, z) -> float:
        """Max over the defining constraints of ``max(0, g_i(z))``."""
        return self._violation(as_vector(z, self.dim, "z"))

    def project(self, v) -> Vector:
        """The exact Euclidean projection of ``v`` onto the body."""
        return self._violation_project(as_vector(v, self.dim, "v"))[1]

    def lo_minimize(self, c) -> tuple[Vector, float]:
        """Return ``(z_star, value)`` minimizing ``<c, z>`` over the body."""
        if not self.is_compact:
            raise self._no_oracle()
        c = as_vector(c, self.dim, "c")
        z = self._from_frame(self._frame_lo(self._frame_direction(_scaled(c)[0])))
        return z, float(c @ z)

    def support(self, c) -> float:
        """Support function ``max_z <c, z>`` over the body."""
        if not self.is_compact:
            raise self._no_oracle()
        g, e = _scaled(as_vector(c, self.dim, "c"))
        return math.ldexp(self._support(g), e)

    def _no_oracle(self) -> UnsupportedOracleError:
        """The one refusal of an oracle call on a body that is not compact."""
        return UnsupportedOracleError(f"{type(self).__name__} is not compact: no oracle")

    def _violation(self, z: Vector) -> float:
        return self._frame_violation(self._to_frame(z))

    def _frame_direction(self, c: Vector) -> Vector:
        """A direction's frame coordinates; the frame's shift leaves it as is."""
        return c

    def _fw_plane(self, anchor: Vector, point: Vector) -> Plane | None:
        """The plane in which a Frank-Wolfe call from ``anchor`` towards
        ``point`` runs, or None where it runs in the body's frame (see the
        module docstring)."""
        return None


# perfbench's tracer wraps each kind's own ``__dict__`` entries, so each
# compact kind binds these three by name, and a halfspace the first two.
_TRACED = ConvexBody.violation, ConvexBody.project, ConvexBody.lo_minimize


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexBody):
    """Halfspace ``{z : <normal, z> <= offset}``.

    The violation is the raw constraint value ``max(0, <normal, z> - offset)``,
    not the Euclidean distance (they agree for unit normals).
    """

    normal: Vector
    offset: float
    _normal_sq: float = field(init=False, repr=False)  # |normal|^2

    is_compact: ClassVar[bool] = False

    def __post_init__(self):
        a = as_vector(self.normal, None, "normal")
        with np.errstate(over="ignore"):  # ``project`` divides by the squared norm
            normal_sq = float(a.dot(a))
        if not 0.0 < normal_sq < math.inf:
            raise InputError("normal", "must have a nonzero, finite squared norm")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "_normal_sq", normal_sq)
        object.__setattr__(self, "offset", as_float(self.offset, "offset"))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    violation, project = _TRACED[:2]

    def _violation(self, z: Vector) -> float:
        return max(0.0, float(self.normal.dot(z)) - self.offset)

    def _violation_project(self, v: Vector) -> tuple[float, Vector]:
        excess = float(self.normal.dot(v)) - self.offset
        violation = max(0.0, excess)
        if excess <= 0.0:
            return violation, v.copy()
        return violation, v - (excess / self._normal_sq) * self.normal


@dataclass(frozen=True, eq=False)
class Ball(ConvexBody):
    """Euclidean ball ``{z : ||z - center|| <= radius}``."""

    center: Vector
    radius: float

    is_compact: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, None, "center"))
        r = as_float(self.radius, "radius")
        if r <= 0.0:
            raise InputError("radius", f"must be positive, got {r}")
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "_diameter", 2.0 * (r + START_TOL))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    violation, project, lo_minimize = _TRACED

    def _to_frame(self, x: Vector) -> Vector:
        return x - self.center

    def _frame_violation(self, u: Vector) -> float:
        return _excess(_norm(u) - self.radius)

    def _from_frame(self, u: Vector) -> Vector:
        return self.center + u

    def _frame_lo(self, g: Vector) -> Vector:
        ng = math.sqrt(float(g.dot(g)))
        if ng == 0.0:
            return np.zeros_like(g)
        return (-self.radius / ng) * g

    def _fw_plane(self, anchor: Vector, point: Vector) -> Plane | None:
        # The disk of radius r in the plane through the centre spanned by
        # the offsets of the anchor and the point: e1 along the point's (the
        # anchor's when the point is the centre), e2 along what of the
        # anchor's is left, zero when the two are collinear with the centre.
        # The kernel divides by l = 1/r^2 and forms |g|^2 r^2, so the call
        # runs in the frame unless r^2 is a normal float and, with
        # |g| <= D + |p - a| over the call, |g| r < 2^510.
        r = self.radius
        rr = r * r
        if not sys.float_info.min <= rr < math.inf:
            return None
        c = self.center
        a = anchor - c
        na = _norm(a)
        check_member(_excess(na - r), "anchor")
        p = point - c
        up0 = _norm(p)
        e1, n1 = (p, up0) if up0 > 0.0 else (a, na)
        if n1 > 0.0:
            e1 = e1 / n1
        ua0 = float(a.dot(e1))
        e2 = a - ua0 * e1
        first = _norm(e2)
        # Twice is enough (Kahan and Parlett): a second pass keeps e2
        # orthogonal to e1, unless it takes half of e2 away, in which case
        # what was left of the anchor's offset was rounding along e1.
        e2 -= float(e2.dot(e1)) * e1
        n2 = _norm(e2)
        e2 = e2 / n2 if n2 > 0.5 * first else np.zeros_like(e2)
        ua1 = float(a.dot(e2))
        d0 = up0 - ua0
        pa_sq = d0 * d0 + ua1 * ua1
        if not (self._diameter + math.sqrt(pa_sq)) * r < 2.0**510:
            return None
        lam = 1.0 / rr

        def from_plane(u0: float, u1: float) -> Vector:
            return c + u0 * e1 + u1 * e2

        return ua0, ua1, up0, 0.0, pa_sq, lam, lam, from_plane

    def _support(self, c: Vector) -> float:
        return float(c @ self.center) + self.radius * _norm(c)

    def _violation_project(self, v: Vector) -> tuple[float, Vector]:
        d = v - self.center
        nd = _norm(d)
        violation = _excess(nd - self.radius)
        if nd <= self.radius:
            return violation, v.copy()
        if nd == math.inf:  # the offset overflows; its halves give its direction
            nd = _norm(d := 0.5 * v - 0.5 * self.center)
        return violation, self.center + (self.radius / nd) * d


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """Axis-aligned box ``{z : lower <= z <= upper}`` (componentwise)."""

    lower: Vector
    upper: Vector

    is_compact: ClassVar[bool] = True

    def __post_init__(self):
        lo = as_vector(self.lower, None, "lower")
        hi = as_vector(self.upper, lo.shape[0], "upper")
        if np.any(lo > hi):
            raise InputError("upper", "must be >= lower componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # From half-widths, which cannot overflow; the diameter may read inf.
        object.__setattr__(self, "_diameter", 2.0 * _norm(0.5 * hi - 0.5 * lo + START_TOL))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    violation, project, lo_minimize = _TRACED

    # The frame is the identity.
    def _to_frame(self, x: Vector) -> Vector:
        return x

    def _frame_violation(self, u: Vector) -> float:
        under = (self.lower - u).max(initial=0.0)
        over = (u - self.upper).max(initial=0.0)
        return float(max(0.0, under, over))

    def _from_frame(self, u: Vector) -> Vector:
        return u.copy()  # the frame loop updates its iterate in place

    def _frame_lo(self, g: Vector) -> Vector:
        # g_i > 0 picks the lower bound, g_i < 0 the upper; ties go to lower.
        return np.where(g < 0.0, self.upper, self.lower)

    def _support(self, c: Vector) -> float:
        return float(np.sum(np.where(c > 0.0, c * self.upper, c * self.lower)))

    def _violation_project(self, v: Vector) -> tuple[float, Vector]:
        return self._violation(v), np.clip(v, self.lower, self.upper)


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
    # In 2-D, the frame as Python floats (v00, v01, v10, v11, l0, l1, c0, c1):
    # V = [[v00, v01], [v10, v11]], the eigenvalues and the centre. None
    # in any other dimension.
    _planar: tuple[float, ...] | None = field(init=False, repr=False)

    is_compact: ClassVar[bool] = True

    def __post_init__(self):
        center = as_vector(self.center, None, "center")
        n = center.shape[0]
        if isinstance(self.shape, (list, tuple)):  # a list of rows, each a vector
            q = np.array([as_vector(row, n, "shape") for row in self.shape])
        elif (problem := _entry_problem(self.shape)) is not None:
            raise InputError("shape", f"malformed matrix: {problem}")
        else:
            q = np.asarray(self.shape, dtype=np.float64)
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
        d = 2.0 * math.sqrt((1.0 + START_TOL) / float(vals[0]))  # eigh sorts ascending
        object.__setattr__(self, "_diameter", d)
        planar = None
        if n == 2:
            planar = (*vecs.ravel().tolist(), *vals.tolist(), *center.tolist())
        object.__setattr__(self, "_planar", planar)

    @classmethod
    def from_axes(cls, center, angle: float, semi_axes) -> "Ellipsoid":
        """Build a 2-D ellipsoid from semi-axes ``(a, b)`` and a rotation angle.

        The shape matrix is ``R(angle)^T diag(1/a^2, 1/b^2) R(angle)`` with
        ``R = [[cos, sin], [-sin, cos]]``.
        """
        center = as_vector(center, 2, "center")
        angle = as_float(angle, "angle")
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

    violation, project, lo_minimize = _TRACED

    def _violation(self, z: Vector) -> float:
        if self._planar is None:
            return self._frame_violation(self._to_frame(z))
        p0, p1 = z.tolist()
        _, _, t0, t1 = self._to_plane(p0, p1)
        return _excess(t0 + t1 - 1.0)

    # The frame is the eigenbasis, centred: u = V^T (x - center), in which
    # the body is {u : sum lam_i u_i^2 <= 1}.
    def _to_frame(self, x: Vector) -> Vector:
        return self._eigvecs.T.dot(x - self.center)

    def _frame_violation(self, u: Vector) -> float:
        return _excess(float(self._eigvals.dot(u * u)) - 1.0)

    def _from_frame(self, u: Vector) -> Vector:
        return self.center + self._eigvecs.dot(u)

    def _frame_direction(self, c: Vector) -> Vector:
        return self._eigvecs.T @ c

    def _frame_lo(self, g: Vector) -> Vector:
        w = g / self._eigvals
        s = float(g.dot(w))
        if s == 0.0:
            return np.zeros_like(g)
        w *= -1.0 / math.sqrt(s)
        return w

    def _fw_plane(self, anchor: Vector, point: Vector) -> Plane | None:
        if self._planar is None:
            return None
        # The frame itself; the anchor test is ``_violation``'s.
        a0, a1 = anchor.tolist()
        p0, p1 = point.tolist()
        ua0, ua1, t0, t1 = self._to_plane(a0, a1)
        check_member(t0 + t1 - 1.0, "anchor")
        up0, up1, _, _ = self._to_plane(p0, p1)
        pa_sq = (p0 - a0) * (p0 - a0) + (p1 - a1) * (p1 - a1)
        _, _, _, _, l0, l1, _, _ = self._planar
        return ua0, ua1, up0, up1, pa_sq, l0, l1, self._from_planar

    # A 2-D ellipsoid's one frame map over Python floats, and its inverse:
    # ``b = V^T (x - c)`` with the terms ``l_i b_i^2`` of the membership
    # formula, whose sum ``t0 + t1 - 1`` every planar caller forms alike.
    def _to_plane(self, x0: float, x1: float) -> tuple[float, float, float, float]:
        v00, v01, v10, v11, l0, l1, c0, c1 = self._planar
        d0, d1 = x0 - c0, x1 - c1
        b0, b1 = v00 * d0 + v10 * d1, v01 * d0 + v11 * d1
        return b0, b1, l0 * b0 * b0, l1 * b1 * b1

    def _from_planar(self, u0: float, u1: float) -> Vector:
        v00, v01, v10, v11, _, _, c0, c1 = self._planar
        return np.array([c0 + (v00 * u0 + v01 * u1), c1 + (v10 * u0 + v11 * u1)])

    def _support(self, c: Vector) -> float:
        # Not the cached frame: ``oracles`` certifies ``project``, which reads it.
        lam, vecs = np.linalg.eigh(self.shape)
        b = vecs.T @ c
        return float(c @ self.center) + math.sqrt(float(np.sum(b * b / lam)))

    def _violation_project(self, v: Vector) -> tuple[float, Vector]:
        # In the eigenbasis the projection is z(mu) with coordinates
        # z_i = b_i e_i, e_i = 1 / (1 + mu lam_i), and mu > 0 solves the
        # secular equation s2(mu) = sum lam_i b_i^2 e_i^2 = 1. As Moré and
        # Sorensen do for trust-region steps, solve h(mu) = 1/sqrt(s2) = 1
        # instead: h is concave and increasing, so Newton from mu = 0 rises
        # monotonically to the root, with no bracket or safeguard. With
        # s3 = sum lam_i^2 b_i^2 e_i^3 = -s2'/2, the step is
        # (1 - h)/h' = (sqrt(s2) - 1) s2 / s3.
        if self._planar is None:
            return self._newton_frame(v)[:2]
        return self._newton_planar(v)[:2]

    # Both Newton loops peel their mu = 0 iteration, where e = 1 exactly and
    # s2 - 1 is the membership formula: in 2-D ``_violation``'s expression,
    # returned as the violation; in n-D the sum rounds apart from
    # ``_frame_violation``'s dot, which gives the violation instead. Both stop
    # once s2 - 1 <= MEMBER_TOL (so a member returns as itself, and a rounding
    # overshoot past the root, where the step would be negative, ends), when
    # a step no longer increases mu, or at _SECULAR_MAX_ITERS, a safety cap.
    # Each returns the violation, the projection and its Newton steps. A far
    # point overflows: past s2 ~ 1e205 the first step is inf and the result
    # would be the centre, and once s2 is inf it is nan and no step is taken
    # from outside. Both raise ValueError, as the solvers' ``_finite`` does.

    def _newton_frame(self, v: Vector) -> tuple[float, Vector, int]:
        """The Newton solve with numpy vectors, for any dimension."""
        lam = self._eigvals
        b = self._to_frame(v)
        q = t = lam * b * b
        e, s2, mu, steps = 1.0, float(t.sum()), 0.0, 0
        while not s2 - 1.0 <= MEMBER_TOL:
            nxt = mu + (math.sqrt(s2) - 1.0) * s2 / float((q * lam * e).sum())
            if not nxt > mu:
                break
            mu, steps = nxt, steps + 1
            if steps == _SECULAR_MAX_ITERS:
                break
            e = 1.0 / (1.0 + mu * lam)
            q = t * e * e
            s2 = float(q.sum())
        if mu == math.inf or (steps == 0 and not s2 - 1.0 <= MEMBER_TOL):
            raise ValueError(f"the projection of {v} overflowed")
        violation = self._frame_violation(b)
        if steps == 0:
            return violation, v.copy(), 0
        return violation, self._from_frame(b / (1.0 + mu * lam)), steps

    def _newton_planar(self, v: Vector) -> tuple[float, Vector, int]:
        """``_newton_frame`` for ``dim == 2``, unrolled over Python floats."""
        _, _, _, _, l0, l1, _, _ = self._planar
        p0, p1 = v.tolist()
        b0, b1, t0, t1 = self._to_plane(p0, p1)
        q0, q1, e0, e1, s2 = t0, t1, 1.0, 1.0, t0 + t1
        violation = _excess(s2 - 1.0)
        mu, steps = 0.0, 0
        while not s2 - 1.0 <= MEMBER_TOL:
            nxt = mu + (math.sqrt(s2) - 1.0) * s2 / (q0 * l0 * e0 + q1 * l1 * e1)
            if not nxt > mu:
                break
            mu, steps = nxt, steps + 1
            if steps == _SECULAR_MAX_ITERS:
                break
            e0, e1 = 1.0 / (1.0 + mu * l0), 1.0 / (1.0 + mu * l1)
            q0, q1 = t0 * e0 * e0, t1 * e1 * e1
            s2 = q0 + q1
        if mu == math.inf or (steps == 0 and not s2 - 1.0 <= MEMBER_TOL):
            raise ValueError(f"the projection of {v} overflowed")
        if steps == 0:
            return violation, v.copy(), 0
        point = self._from_planar(b0 / (1.0 + mu * l0), b1 / (1.0 + mu * l1))
        return violation, point, steps
