"""Frank-Wolfe inner loop computing feasible inexact projections.

``condg_project(body, params, anchor, point)`` returns a member ``w`` of the
body satisfying ``<point - w, z - w> <= phi(params, anchor, point, w)`` for
every member ``z``. With zero forcing parameters the tolerance collapses and
the output is the exact projection of ``point`` up to the degenerate-gap
tolerance. The loop never leaves the body: iterates are convex combinations
of members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bodies import START_TOL, ConvexBody, UnsupportedOracleError, Vector, as_vector

__all__ = [
    "CondGLimits",
    "CondGResult",
    "CondGStop",
    "ForcingParams",
    "condg_project",
    "phi",
]

# Steps with squared length at or below this would divide by ~0 in the
# line-search formula; the gap is then numerically zero and we stop.
_DEGENERATE_STEP_SQ = 1e-24


@dataclass(frozen=True)
class ForcingParams:
    """Nonnegative coefficients of the projection error tolerance."""

    gamma: float
    theta: float
    lam: float

    def __post_init__(self):
        for name in ("gamma", "theta", "lam"):
            v = float(getattr(self, name))
            if not (v >= 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    def scaled(self, factor: float) -> "ForcingParams":
        return ForcingParams(
            self.gamma * factor, self.theta * factor, self.lam * factor
        )


@dataclass(frozen=True)
class CondGLimits:
    """Iteration cap and degenerate-gap cutoff for the inner loop.

    The cutoff ends the loop once the optimality gap certifies the iterate
    is the exact projection to ~1e-11, which matters only when the
    tolerance function has collapsed toward zero.
    """

    max_inner_iters: int = 10_000
    degenerate_gap_tol: float = 1e-11

    def __post_init__(self):
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be >= 1")
        if self.degenerate_gap_tol < 0.0:
            raise ValueError("degenerate_gap_tol must be >= 0")


class CondGStop(enum.Enum):
    TOLERANCE_MET = "tolerance_met"
    DEGENERATE_GAP = "degenerate_gap"
    ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True, eq=False)
class CondGResult:
    """Outcome of one inexact projection.

    ``final_gap`` is the last linear-optimality gap, the certified bound on
    ``<point - w_plus, z - w_plus>`` over members ``z``. ``trace`` holds the
    inner iterates when requested.
    """

    w_plus: Vector
    inner_iters: int
    final_gap: float
    stop_reason: CondGStop
    trace: list[Vector] | None = None


def phi(params: ForcingParams, anchor, point, candidate) -> float:
    """Error tolerance ``gamma*|point-anchor|^2 + theta*|candidate-point|^2
    + lam*|candidate-anchor|^2``."""
    anchor = np.asarray(anchor, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    d_pa = point - anchor
    d_cp = candidate - point
    d_ca = candidate - anchor
    return float(
        params.gamma * (d_pa @ d_pa)
        + params.theta * (d_cp @ d_cp)
        + params.lam * (d_ca @ d_ca)
    )


def condg_project(
    body: ConvexBody,
    params: ForcingParams,
    anchor,
    point,
    limits: CondGLimits = CondGLimits(),
    keep_trace: bool = False,
) -> CondGResult:
    """Project ``point`` onto ``body`` inexactly, warm-started at ``anchor``.

    Parameters
    ----------
    body : compact ConvexBody with a linear minimization oracle.
    params : forcing coefficients; all zero yields the exact projection.
    anchor : member of the body (violation <= ``START_TOL``), the warm start
        and the reference point of the tolerance.
    point : the point being projected.
    limits : inner iteration cap and degenerate-gap cutoff.
    keep_trace : record every inner iterate in the result.

    Returns
    -------
    CondGResult with ``w_plus`` a member of the body. ``ITERATION_CAP``
    signals that the tolerance was not certified within the cap; the point
    is still feasible.
    """
    if not body.is_compact:
        raise UnsupportedOracleError(
            f"{type(body).__name__} is not compact; no linear oracle available"
        )
    anchor = as_vector(anchor, body.dim)
    point = as_vector(point, body.dim)
    if body.violation(anchor) > START_TOL:
        raise ValueError(
            f"anchor must belong to the body (violation <= {START_TOL:g})"
        )

    w = anchor.copy()
    trace = [w.copy()] if keep_trace else None
    ell = 0
    while True:
        grad = w - point
        z, value = body.lo_minimize(grad)
        gap = float(grad @ w) - value
        if gap <= phi(params, anchor, point, w):
            return CondGResult(w, ell, gap, CondGStop.TOLERANCE_MET, trace)
        if gap <= limits.degenerate_gap_tol:
            return CondGResult(w, ell, gap, CondGStop.DEGENERATE_GAP, trace)
        d = z - w
        dd = float(d @ d)
        if dd <= _DEGENERATE_STEP_SQ:
            return CondGResult(w, ell, gap, CondGStop.DEGENERATE_GAP, trace)
        if ell >= limits.max_inner_iters:
            return CondGResult(w, ell, gap, CondGStop.ITERATION_CAP, trace)
        w = w + min(1.0, gap / dd) * d
        ell += 1
        if trace is not None:
            trace.append(w.copy())
