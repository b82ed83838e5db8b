"""Convex feasibility solvers built on feasible inexact projections.

The package pairs alternating (and averaged) projection schemes with a
Frank-Wolfe inner loop that computes projections inexactly but without ever
leaving the set, plus exact-projection baselines, independent test oracles
and an experiment CLI. A setting that only tests change, such as an
iteration cap, is a private module constant, not an option.
"""

from .bodies import (
    Ball,
    Box,
    ConvexBody,
    Ellipsoid,
    Halfspace,
    InputError,
    MEMBER_TOL,
    RANGE,
    START_TOL,
    UnsupportedOracleError,
    as_vector,
)
from .condg import (
    CondGResult,
    CondGStop,
    ForcingParams,
    condg_project,
    phi,
)
from .oracles import (
    dist_ellipse_halfspace,
    dist_two_bodies,
    projection_error_bound,
)
from .solvers import (
    ForcingSchedule,
    SolveReport,
    StopCode,
    StoppingConfig,
    acondg1,
    acondg2,
    averaged_projection,
    exact_alternating,
)

__all__ = [
    "Ball",
    "Box",
    "CondGResult",
    "CondGStop",
    "ConvexBody",
    "Ellipsoid",
    "ForcingParams",
    "ForcingSchedule",
    "Halfspace",
    "InputError",
    "MEMBER_TOL",
    "RANGE",
    "START_TOL",
    "SolveReport",
    "StopCode",
    "StoppingConfig",
    "UnsupportedOracleError",
    "acondg1",
    "acondg2",
    "as_vector",
    "averaged_projection",
    "condg_project",
    "dist_ellipse_halfspace",
    "dist_two_bodies",
    "exact_alternating",
    "phi",
    "projection_error_bound",
]

__version__ = "0.1.0"
