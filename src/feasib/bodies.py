"""Closed convex sets with violation measures, linear oracles, and projections.

Every body is an immutable value: its constructor copies the vectors it is
given (``_own_vector``) and marks them, and the arrays it computes,
read-only, so a write such as ``h.normal[0] = 2.0`` raises ``ValueError``;
the arrays a body returns are new and writeable. Its operations are:

* ``violation(z)``   -- max over defining constraints of ``max(0, g_i(z))``,
  zero exactly on members,
* ``lo_minimize(c)`` -- linear minimization oracle, compact bodies only,
* ``support(c)``     -- support function ``max_z <c, z>``, compact bodies only,
* ``project(v)``     -- exact Euclidean projection.

``ConvexBody`` states the four once, the checked layer: each checks its
argument with ``as_vector``, whose InputError names it (``z``, ``v`` or
``c``), then calls what a kind defines: ``_violation``,
``_violation_project`` and, when compact, the frame methods below,
``_support`` and, for an ellipsoid, ``_frame_direction``. ``as_float``,
``check_count`` and ``as_vector`` are the package's one rule for each kind
of input value, which every layer applies once, where the value enters.

Each compact body has a private frame, an isometry ``u = R^T (x - o)``
in which its linear oracle costs O(n): the centre for a ball, the identity
for a box, and the eigenbasis for an ellipsoid, where ``u`` has violation
``sum lam_i u_i^2 - 1`` and an outside point projects by monotone Newton
steps on a secular equation (``Ellipsoid._violation_project``).
``_to_frame`` and ``_from_frame`` map points in and out, ``_frame_lo(g)``
minimizes ``<g, u>`` over the body in frame coordinates, and
``_frame_violation(u)`` is the membership formula there, which
``_violation`` reads and an ellipsoid's Newton solve starts from, so its
violation agrees with its projection and its oracle (``MEMBER_TOL`` states
how far). ``_fw_plane(anchor, point)`` gives the plane of a Frank-Wolfe
call whose iterates stay in one, as Python floats, led by the anchor's
membership value for the kernel to test: a 2-D ellipsoid's cached frame,
or a ball's plane (``Ball._fw_plane``), built per call. Every other body
gives None. The public ``lo_minimize`` is the frame oracle between the two
maps, on ``c`` scaled by a power of two where it is tiny (``_scaled``).
Each kind's one unchecked exact projection is ``_violation_project(v)``,
which returns ``(violation, projection)``, the violation bit for bit that of
``_violation(v)``, from one frame map: a halfspace computes one excess, a
ball one norm, an ellipsoid one Newton solve on the frame point its
violation reads, and a box its violation and one clip. The public
``project`` returns its second entry.

Every number a body holds or reads lies in the range ``RANGE`` states (see
its comment): ``as_vector`` and the constructors refuse the rest, so no
formula here overflows, no violation is nan, and none needs a far-point
rescue.

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
violation. The solve is a float core, ``_newton_planar(p0, p1) ->
(violation, q0, q1, steps)``, the one unrolled copy of the math; it writes
both maps out in place, and a test holds that copy to the two methods bit
for bit. Its one array wrapper is the 2-D branch of
``_violation_project``; ``solvers.exact_alternating`` calls the core
itself when both sets are 2-D ellipsoids, so its iterates stay floats.

Code on the solvers' paths (``_violation``, ``_violation_project`` and the
frame methods) takes products as ``ndarray.dot``, not ``@``: it makes the
same BLAS call with about half the per-call dispatch, which on short
vectors costs more than the arithmetic, and gives the same bits.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, ClassVar, TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]
# A Frank-Wolfe call's plane (see ``ConvexBody._fw_plane``): the anchor's
# membership value and coordinates, the point's, ``(m, ua0, ua1, up0, up1)``,
# ``|point - anchor|^2``, the ellipse's ``l0, l1``, and the map back.
Plane: TypeAlias = tuple[float, float, float, float, float, float, float, float,
                         Callable[[float, float], Vector]]

# Points with violation at or below MEMBER_TOL are members to the library
# itself; experiment-level feasibility uses its own eps_feas. A start point
# or warm-start anchor may sit up to START_TOL outside its set. At condition
# number 1e8 an ellipsoid's oracle outputs read up to a few 1e-13 outside and
# its projections 6e-12, so a start test at 1e-12 would refuse them, and a
# member test at 1e-10 would let ``project`` return points that far outside
# unchanged.
MEMBER_TOL = 1e-12
START_TOL = 1e-10
_SECULAR_MAX_ITERS = 200  # the safety cap of Ellipsoid's Newton loops
# ``_in_range`` and ``_inf_dist``, on the solvers' paths, read vectors of at
# most _SHORT entries as Python floats (timeit, n = 2: 0.3 against 0.8 us;
# the forms cross near n = 20); nd_pairs' n >= 16 stay numpy.
_SHORT = 8

# The float range. Every coordinate (of a point, a centre, a box bound or a
# direction), shape entry and halfspace offset lies within +-RANGE, and every
# length (a radius, a semi-axis, |normal|) in [RANGE**-0.5, RANGE**0.5] =
# [2^-64, 2^64]; ``as_vector`` and the constructors refuse the rest. Then no
# intermediate overflows in any dimension n. A halfspace projection moves a
# point v by at most |v| + |offset|/|normal| <= |v| + 2^192, so the solvers'
# points lie within 2^194 sqrt(n) of any centre (ACondG1 passes such a point,
# which may leave +-RANGE, to ``condg_project``, whose ``point`` may lie
# within +-_POINT_RANGE). An ellipsoid's eigenvalues lie in [2^-128, 2^128],
# so its Newton gauge s2 = sum l_i b_i^2 is at most n 2^516, and the largest
# intermediate, the first step's s2^(3/2), at most n^1.5 2^774, far below the
# float maximum 2^1024; a Frank-Wolfe step's |g|^2 / l is at most n 2^642.
# Only tiny numbers still need a rescue (``_norm``, ``_scaled``). A length at
# a bound may read a few roundings past it once computed (a rotated shape
# entry, an eigenvalue from ``eigh``), so the length and shape-entry tests
# allow a relative _SLACK, far more than that rounding, far less than the
# derivation's margin.
RANGE = 2.0**128
_POINT_RANGE = RANGE**2
_SLACK = 2.0**-32
_LENGTHS = RANGE**-0.5 * (1.0 - _SLACK), RANGE**0.5 * (1.0 + _SLACK)

__all__ = [
    "Ball",
    "Box",
    "ConvexBody",
    "Ellipsoid",
    "Halfspace",
    "InputError",
    "MEMBER_TOL",
    "RANGE",
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


def _check_type(value, cls: type, path: str) -> None:
    """Refuse a config object that is no ``cls`` before it fails mid-run."""
    if not isinstance(value, cls):
        raise InputError(path, f"expected a {cls.__name__}, got {type(value).__name__}")


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


def _in_range(v: Vector, bound: float) -> bool:
    """Whether every entry of the 1-D float64 ``v`` lies within +-``bound``;
    a nan does not."""
    if v.shape[0] <= _SHORT:
        return all(map(bound.__ge__, map(abs, v.tolist())))
    return bool(np.abs(v).max() <= bound)


def _inf_norm(d: Vector) -> float:
    """``max |d_i|``, exact on the finite entries of a difference of vectors
    in range. Numpy only: its short callers, ``_norm``'s rescue and
    ``_scaled`` (the public oracles), are off the solvers' paths."""
    return float(np.maximum.reduce(np.abs(d)))


def _inf_dist(a: Vector, b: Vector) -> float:
    """``_inf_norm(a - b)``, over Python floats up to _SHORT entries: IEEE
    subtraction and ``abs`` give the same bits there as numpy's."""
    if a.shape[0] <= _SHORT:
        return max(map(abs, map(operator.sub, a.tolist(), b.tolist())))
    return _inf_norm(a - b)


def _span(lo: float, hi: float) -> str:
    """``[lo, hi]`` as every range refusal writes it, each bound as its nearest +-2^k."""
    return "[%s]" % ", ".join(f"{'-' * (b < 0)}2^{round(math.log2(abs(b)))}" for b in (lo, hi))


def _check_length(x: float, path: str, name: str = "") -> None:
    """Raise InputError at ``path`` unless the length ``x`` lies in
    [RANGE**-0.5, RANGE**0.5] (see ``RANGE``); ``name`` starts the message."""
    if not _LENGTHS[0] <= x <= _LENGTHS[1]:
        raise InputError(path, f"{name}must lie in {_span(*_LENGTHS)}, got {x}")


def as_vector(x, dim: int | None, path: str) -> Vector:
    """Validate and convert ``x`` (see :func:`_entry_problem`) to a 1-D
    float64 array of ``dim`` entries (any number >= 1 when ``dim`` is None),
    each within +-``RANGE``; a bad ``x`` raises InputError at ``path``."""
    return _vector(x, dim, path, RANGE)


def _vector(x, dim: int | None, path: str, bound: float) -> Vector:
    """``as_vector`` with the entries within +-``bound``."""
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
        elif not _in_range(v, bound):
            problem = f"vector entries must lie in {_span(-bound, bound)}"
        elif dim is not None and v.shape[0] != dim:
            problem = f"dimension mismatch: expected {dim}, got {v.shape[0]}"
        else:
            return v
    raise InputError(path, problem)


def check_member(violation: float, path: str) -> None:
    """The one start-point and anchor test: raise InputError unless
    ``violation`` is at most ``START_TOL``; a nan is no member."""
    if not violation <= START_TOL:
        raise InputError(path, f"must belong to its set (violation <= {START_TOL:g})")


def member_vector(body: ConvexBody, x, path: str) -> Vector:
    """``x`` as a vector in ``body`` to within ``START_TOL``, or InputError."""
    v = as_vector(x, body.dim, path)
    check_member(body._violation(v), path)
    return v


def _own_vector(x, dim: int | None, path: str) -> Vector:
    """``as_vector(x, dim, path)`` as a body's own read-only copy: a body
    keeps only read-only arrays, never the caller's, so nothing it caches
    from them (``_normal_sq``, ``_planar``, ``_diameter``) can go stale."""
    v = as_vector(x, dim, path).copy()
    v.setflags(write=False)
    return v


def _norm(d: Vector) -> float:
    """``|d|`` as numpy's norm computes it, ``sqrt(d . d)``, recomputed on
    ``d / max |d_i|`` where the sum of squares loses bits below the normal
    floats (a ball's plane reads points 1e-160 from its centre)."""
    s = float(d.dot(d))
    if s >= sys.float_info.min:
        return math.sqrt(s)
    m = _inf_norm(d)
    return m * _norm(d / m) if m > 0.0 else 0.0


def _scaled(c: Vector) -> tuple[Vector, int]:
    """``(c 2^-e, e)`` with ``max |c_i 2^-e|`` in [1/2, 1) where ``|c|^2`` could
    underflow, else ``(c, 0)``: the oracles square ``c``, though their
    minimizer reads only its direction and their support scales with it.
    The scale keeps the bits of every entry that stays a normal float."""
    e = math.frexp(_inf_norm(c))[1]
    return (c, 0) if e > -500 else (np.ldexp(c, -e), e)


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
        """The exact Euclidean projection of ``v`` onto the body; ``v`` comes
        back unchanged exactly when its violation is 0 (halfspace, ball, box)
        or at most ``MEMBER_TOL`` (ellipsoid, whose Newton solve stops there)."""
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
        a = _own_vector(self.normal, None, "normal")
        normal_sq = float(a.dot(a))
        _check_length(math.sqrt(normal_sq), "normal", "|normal| ")
        if not abs(offset := as_float(self.offset, "offset")) <= RANGE:
            raise InputError("offset", f"must lie in {_span(-RANGE, RANGE)}")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "_normal_sq", normal_sq)
        object.__setattr__(self, "offset", offset)

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
        object.__setattr__(self, "center", _own_vector(self.center, None, "center"))
        r = as_float(self.radius, "radius")
        if r <= 0.0:
            raise InputError("radius", f"must be positive, got {r}")
        _check_length(r, "radius")
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "_diameter", 2.0 * (r + START_TOL))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    violation, project, lo_minimize = _TRACED

    def _to_frame(self, x: Vector) -> Vector:
        return x - self.center

    def _frame_violation(self, u: Vector) -> float:
        return max(0.0, _norm(u) - self.radius)

    def _from_frame(self, u: Vector) -> Vector:
        return self.center + u

    def _frame_lo(self, g: Vector) -> Vector:
        ng = _norm(g)
        if ng == 0.0:
            return np.zeros_like(g)
        return (-self.radius / ng) * g

    def _fw_plane(self, anchor: Vector, point: Vector) -> Plane:
        # The disk of radius r in the plane through the centre spanned by
        # the offsets of the anchor and the point: e1 along the point's (the
        # anchor's when the point is the centre), e2 along what of the
        # anchor's is left, zero when the two are collinear with the centre.
        # The oracle ``c - r g/|g|`` moves along ``g = u - u_p``, which starts
        # in this plane, so every Frank-Wolfe iterate stays in it; there the
        # ball is the ellipse l0 = l1 = 1/r^2, which floats hold for every
        # radius in range.
        r, c = self.radius, self.center
        a = anchor - c
        na = _norm(a)
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
        lam = 1.0 / (r * r)

        def from_plane(u0: float, u1: float) -> Vector:
            return c + u0 * e1 + u1 * e2

        return na - r, ua0, ua1, up0, 0.0, pa_sq, lam, lam, from_plane

    def _support(self, c: Vector) -> float:
        return float(c @ self.center) + self.radius * _norm(c)

    def _violation_project(self, v: Vector) -> tuple[float, Vector]:
        d = v - self.center
        nd = _norm(d)
        violation = max(0.0, nd - self.radius)
        if nd <= self.radius:
            return violation, v.copy()
        return violation, self.center + (self.radius / nd) * d


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """Axis-aligned box ``{z : lower <= z <= upper}`` (componentwise)."""

    lower: Vector
    upper: Vector

    is_compact: ClassVar[bool] = True

    def __post_init__(self):
        lo = _own_vector(self.lower, None, "lower")
        hi = _own_vector(self.upper, lo.shape[0], "upper")
        if np.any(lo > hi):
            raise InputError("upper", "must be >= lower componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "_diameter", _norm(hi - lo + 2.0 * START_TOL))

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
        center = _own_vector(self.center, None, "center")
        n = center.shape[0]
        if isinstance(self.shape, (list, tuple)):  # a list of rows, each a vector
            q = np.array([as_vector(row, n, "shape") for row in self.shape])
        elif (problem := _entry_problem(self.shape)) is not None:
            raise InputError("shape", f"malformed matrix: {problem}")
        else:
            q = np.asarray(self.shape, dtype=np.float64)
        if q.shape != (n, n):
            raise InputError("shape", f"must be {n}x{n}, got {q.shape}")
        if not np.abs(q).max(initial=0.0) <= RANGE * (1.0 + _SLACK):
            raise InputError("shape", f"entries must lie in {_span(-RANGE, RANGE)}")
        if float(np.linalg.norm(q - q.T)) > 1e-12 * max(float(np.linalg.norm(q)), 1.0):
            raise InputError("shape", "must be symmetric")
        q = 0.5 * (q + q.T)
        vals, vecs = np.linalg.eigh(q)  # ascending
        for own in (q, vals, vecs):  # new arrays, so frozen without a copy
            own.setflags(write=False)
        if not vals[0] > 0.0:
            raise InputError("shape", f"must be positive definite, eigenvalues {vals}")
        for lam in (vals[0], vals[-1]):
            _check_length(1.0 / math.sqrt(lam), "shape", "semi-axes ")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", q)
        object.__setattr__(self, "_eigvals", vals)
        object.__setattr__(self, "_eigvecs", vecs)
        d = 2.0 * math.sqrt((1.0 + START_TOL) / float(vals[0]))
        object.__setattr__(self, "_diameter", d)
        planar = None
        if n == 2:
            planar = (*vecs.ravel().tolist(), *vals.tolist(), *center.tolist())
        object.__setattr__(self, "_planar", planar)

    @classmethod
    def from_axes(cls, center, angle: float, semi_axes) -> "Ellipsoid":
        """Build a 2-D ellipsoid from semi-axes ``(a, b)`` and a rotation angle.

        The shape matrix is ``R(angle)^T diag(1/a^2, 1/b^2) R(angle)`` with
        ``R = [[cos, sin], [-sin, cos]]``. Its eigenvalues must give back
        ``(a, b)`` to 1e-6 relative: past a condition ``(a/b)^2`` of about
        1e10, ``eigh`` of the rotated shape loses the long axis (the worst
        error over 37 angles read 1.8e-7 at 1e10, 2.8e-6 at 1e11 and 0.34
        at 1e16), and such an ellipse is refused at ``semi_axes``.
        """
        center = as_vector(center, 2, "center")
        angle = as_float(angle, "angle")
        a, b = as_vector(semi_axes, 2, "semi_axes").tolist()
        if not (a > 0.0 and b > 0.0):
            raise InputError("semi_axes", f"must be positive, got {(a, b)}")
        for x in (a, b):
            _check_length(x, "semi_axes")
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, s], [-s, c]])
        try:
            body = cls(center=center, shape=rot.T @ np.diag([1.0 / a**2, 1.0 / b**2]) @ rot)
        except InputError as exc:  # eigh lost the long axis (condition past 1e16)
            raise InputError("semi_axes", f"{exc.message}, got {(a, b)}") from None
        built = tuple(1.0 / math.sqrt(lam) for lam in body._eigvals.tolist())  # long first
        if any(abs(x - y) > 1e-6 * y for x, y in zip(built, sorted((a, b), reverse=True))):
            raise InputError(
                "semi_axes",
                f"eigh gives semi-axes {built}, over 1e-6 relative off, got {(a, b)}",
            )
        return body

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    violation, project, lo_minimize = _TRACED

    def _violation(self, z: Vector) -> float:
        if self._planar is None:
            return ConvexBody._violation(self, z)
        p0, p1 = z.tolist()
        _, _, t0, t1 = self._to_plane(p0, p1)
        return max(0.0, t0 + t1 - 1.0)

    # The frame is the eigenbasis, centred: u = V^T (x - center), in which
    # the body is {u : sum lam_i u_i^2 <= 1}.
    def _to_frame(self, x: Vector) -> Vector:
        return self._eigvecs.T.dot(x - self.center)

    def _frame_violation(self, u: Vector) -> float:
        return max(0.0, float(self._eigvals.dot(u * u)) - 1.0)

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
        # The frame itself; the anchor's value is ``_violation``'s.
        a0, a1 = anchor.tolist()
        p0, p1 = point.tolist()
        ua0, ua1, t0, t1 = self._to_plane(a0, a1)
        up0, up1, _, _ = self._to_plane(p0, p1)
        pa_sq = (p0 - a0) * (p0 - a0) + (p1 - a1) * (p1 - a1)
        _, _, _, _, l0, l1, _, _ = self._planar
        return t0 + t1 - 1.0, ua0, ua1, up0, up1, pa_sq, l0, l1, self._from_planar

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
        return np.array((c0 + (v00 * u0 + v01 * u1), c1 + (v10 * u0 + v11 * u1)))

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
        # monotonically to the root, with no bracket or safeguard, in at most
        # about 15 steps up to condition number 1e8. With s3 = sum lam_i^2
        # b_i^2 e_i^3 = -s2'/2, the step is (1 - h)/h' = (sqrt(s2) - 1) s2 / s3.
        if self._planar is None:
            return self._newton_frame(v)[:2]
        violation, q0, q1, steps = self._newton_planar(*v.tolist())
        if steps == 0:
            return violation, v.copy()
        return violation, np.array((q0, q1))

    # Both Newton loops peel their mu = 0 iteration, where e = 1 exactly and
    # s2 - 1 is the membership formula as ``_violation`` computes it (the terms
    # of ``_to_plane`` in 2-D, the dot of ``_frame_violation`` in n-D), and
    # return max(0, s2 - 1) as the violation. Both stop once s2 - 1 <=
    # MEMBER_TOL (so a member returns as itself, and a rounding overshoot past
    # the root, where the step would be negative, ends), when a step no longer
    # increases mu, or at _SECULAR_MAX_ITERS, a safety cap. Each returns the
    # violation, the projection and its steps; ``RANGE`` bounds all else.

    def _newton_frame(self, v: Vector) -> tuple[float, Vector, int]:
        """The Newton solve with numpy vectors, for any dimension."""
        lam = self._eigvals
        b = self._to_frame(v)
        bb = b * b
        s2 = float(lam.dot(bb))
        q = t = lam * bb
        e, violation, mu, steps = 1.0, max(0.0, s2 - 1.0), 0.0, 0
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
        if steps == 0:
            return violation, v.copy(), 0
        return violation, self._from_frame(b / (1.0 + mu * lam)), steps

    def _newton_planar(self, p0: float, p1: float) -> tuple[float, float, float, int]:
        """``_newton_frame`` for ``dim == 2``, unrolled over Python floats,
        with ``_to_plane`` and ``_from_planar`` written out in place: the
        violation, the projection ``(q0, q1)`` (``(p0, p1)`` itself when no
        step was taken) and the steps."""
        v00, v01, v10, v11, l0, l1, c0, c1 = self._planar
        d0, d1 = p0 - c0, p1 - c1
        b0, b1 = v00 * d0 + v10 * d1, v01 * d0 + v11 * d1
        t0, t1 = l0 * b0 * b0, l1 * b1 * b1
        q0, q1, e0, e1, s2 = t0, t1, 1.0, 1.0, t0 + t1
        violation = max(0.0, s2 - 1.0)
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
        if steps == 0:
            return violation, p0, p1, 0
        u0, u1 = b0 / (1.0 + mu * l0), b1 / (1.0 + mu * l1)
        return violation, c0 + (v00 * u0 + v01 * u1), c1 + (v10 * u0 + v11 * u1), steps
