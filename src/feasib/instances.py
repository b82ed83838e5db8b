"""Problem-instance configuration: JSON schema, validation, and the built-in
experiment tables.

A config file is a single JSON object with a ``schema`` version field. Body
descriptions are tagged by ``kind``: ``ellipse`` (center / angle /
semi_axes, 2-D), ``halfspace`` (normal / offset), ``ball`` (center /
radius), ``box`` (lower / upper); ``_KINDS`` states each kind's constructor
and fields once, for parsing and building alike. The ``schedule`` and
``stopping`` objects are the solvers' own
:class:`~feasib.solvers.ForcingSchedule` and
:class:`~feasib.solvers.StoppingConfig`: their fields are the keys, their
defaults fill missing keys, and any other key is refused. Validation errors
carry the path of the offending field.

Parsing checks only the JSON structure: objects, body ``kind`` and keys
(a body's keys are ``kind`` and its kind's fields), and that
an ellipse needs dimension 2. Numbers, counts and vectors follow the API's
one rule for each (``as_float``, ``check_count`` and ``as_vector`` of
:mod:`feasib.bodies`), and the range rules are the API's: the body
constructors (re-pathed under ``set_a`` / ``set_b``), ``ForcingSchedule``
and ``StoppingConfig``, for every solver. :func:`validate_config` then
runs the solvers' own input check, :func:`~feasib.solvers.check_pair`, on
the start points and the schedule, so a config fails with the same path
and message as the call. One ``_SOLVERS`` row per solver is its whole
contract, which :func:`validate_config` and :func:`solve_config` both
read: the :mod:`feasib.solvers` function that runs it, the sets it
projects inexactly (``check_pair`` derives the forcing regime from them,
so it is no config field) and whether it reads ``y0``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

from . import solvers
from .bodies import Ball, Box, ConvexBody, Ellipsoid, Halfspace, InputError
from .bodies import as_float, as_vector, check_count
from .solvers import ForcingSchedule, SolveReport, StoppingConfig, check_pair

__all__ = [
    "InstanceConfig",
    "SCHEMA_VERSION",
    "build_bodies",
    "load_config",
    "parse_config",
    "save_config",
    "serialize_config",
    "solve_config",
    "table1_config",
    "table2_config",
    "table_config",
    "table_reference",
    "validate_config",
]

SCHEMA_VERSION = 1

# Each solver's ``solvers`` function, looked up by name at call time (so a
# wrapper set on that module sees the call), whether it projects set A and
# set B inexactly (see ``check_pair``), and whether its run reads ``y0``.
_SOLVERS = {
    "ACondG1": ("acondg1", (True, False), False),
    "ACondG2": ("acondg2", (True, True), True),
    "Averaged": ("averaged_projection", (True, True), True),
    "ExactAlt1": ("exact_alternating", (False, False), False),
    "ExactAlt2": ("exact_alternating", (False, False), True),
}
_SOLVER_LOOKUP = {n.lower().replace("_", ""): n for n in _SOLVERS}


@dataclass(frozen=True)
class BodySpec:
    kind: str
    params: dict = field(hash=False)


@dataclass(frozen=True)
class InstanceConfig:
    dimension: int
    set_a: BodySpec
    set_b: BodySpec
    x0: tuple[float, ...]
    solver: str
    y0: tuple[float, ...] | None = None
    schedule: ForcingSchedule = ForcingSchedule()
    stopping: StoppingConfig = StoppingConfig()

    @cached_property
    def bodies(self) -> tuple[ConvexBody, ConvexBody]:
        """``(set_a, set_b)``, built on first use; the cache is no field, so
        it changes neither equality nor hashing."""
        return _build_body(self.set_a, "set_a"), _build_body(self.set_b, "set_b")


def _vector(obj, path: str, dim: int) -> tuple[float, ...]:
    return tuple(as_vector(obj, dim, path).tolist())


# Each body kind: its constructor, called by keyword, and its fields in
# parse order. A ``float`` field is a number, a ``tuple`` field a vector of
# ``dimension`` entries (an ellipse requires dimension 2).
_KINDS = {
    "ellipse": (
        Ellipsoid.from_axes, {"center": tuple, "angle": float, "semi_axes": tuple}
    ),
    "halfspace": (Halfspace, {"normal": tuple, "offset": float}),
    "ball": (Ball, {"center": tuple, "radius": float}),
    "box": (Box, {"lower": tuple, "upper": tuple}),
}


def _kind(kind, path: str):
    """The ``_KINDS`` row of ``kind``, or InputError at ``path.kind``."""
    # The type test comes first: a list or object kind is unhashable.
    if not (isinstance(kind, str) and kind in _KINDS):
        *rest, last = _KINDS
        raise InputError(
            f"{path}.kind",
            f"unknown body kind {kind!r}; expected {', '.join(rest)} or {last}",
        )
    return _KINDS[kind]


def _refuse_unknown(obj: dict, path: str, names) -> None:
    """Raise InputError at ``path.<key>`` for the first key of ``obj`` that
    is not in ``names``, so a misspelled key cannot silently be dropped."""
    if (key := next((k for k in obj if k not in names), None)) is not None:
        *rest, last = names
        expected = f"{', '.join(rest)} or {last}"
        raise InputError(f"{path}.{key}", f"unknown field; expected {expected}")


def _parse_body(obj, path: str, dim: int) -> BodySpec:
    if not isinstance(obj, dict):
        raise InputError(path, "expected an object")
    kind = obj.get("kind")
    _, shapes = _kind(kind, path)
    _refuse_unknown(obj, path, ("kind", *shapes))
    if kind == "ellipse" and dim != 2:
        raise InputError(f"{path}.kind", "ellipse requires dimension 2")
    params = {}
    for name, shape in shapes.items():
        value, at = obj.get(name), f"{path}.{name}"
        params[name] = _vector(value, at, dim) if shape is tuple else as_float(value, at)
    return BodySpec(kind=kind, params=params)


def _section(obj: dict, name: str, cls):
    """The config's ``name`` object read into ``cls``, which checks each of
    its fields at ``name.<field>``; a missing field takes its default, and
    a key that is no field raises InputError at ``name.<key>``."""
    section = obj.get(name, {})
    if not isinstance(section, dict):
        raise InputError(name, "expected an object")
    _refuse_unknown(section, name, [f.name for f in fields(cls)])
    return cls(**section)


def parse_config(obj) -> InstanceConfig:
    """Parse and validate a config dict into an :class:`InstanceConfig`."""
    if not isinstance(obj, dict):
        raise InputError("$", "config must be a JSON object")
    schema = obj.get("schema")
    if schema != SCHEMA_VERSION:
        raise InputError("schema", f"expected version {SCHEMA_VERSION}, got {schema}")
    dim = obj.get("dimension")
    check_count(dim, "dimension")

    solver_raw = obj.get("solver")
    if not isinstance(solver_raw, str):
        raise InputError("solver", "expected a string")
    key = solver_raw.lower().replace("_", "").replace("-", "")
    solver = _SOLVER_LOOKUP.get(key, solver_raw)
    _solver_rule(solver)

    set_a = _parse_body(obj.get("set_a"), "set_a", dim)
    set_b = _parse_body(obj.get("set_b"), "set_b", dim)
    x0 = _vector(obj.get("x0"), "x0", dim)
    y0 = None if obj.get("y0") is None else _vector(obj.get("y0"), "y0", dim)

    schedule = _section(obj, "schedule", ForcingSchedule)
    stopping = _section(obj, "stopping", StoppingConfig)

    config = InstanceConfig(
        dimension=dim,
        set_a=set_a,
        set_b=set_b,
        x0=x0,
        y0=y0,
        solver=solver,
        schedule=schedule,
        stopping=stopping,
    )
    validate_config(config)
    return config


def _build_body(spec: BodySpec, path: str) -> ConvexBody:
    """The body of ``spec``; a constructor's range error is named under
    ``path``, as in ``set_b.radius``."""
    constructor, _ = _kind(spec.kind, path)
    try:
        return constructor(**spec.params)
    except InputError as exc:
        raise InputError(f"{path}.{exc.path}", exc.message) from None


def build_bodies(config: InstanceConfig) -> tuple[ConvexBody, ConvexBody]:
    """The config's two bodies, built once (see ``InstanceConfig.bodies``)."""
    return config.bodies


def _solver_rule(solver: str) -> tuple[str, tuple[bool, bool], bool]:
    if solver not in _SOLVERS:
        expected = f"expected one of {tuple(_SOLVERS)}"
        raise InputError("solver", f"unknown solver {solver!r}; {expected}")
    return _SOLVERS[solver]


def _solver_call(config: InstanceConfig) -> tuple[str, tuple[bool, bool], dict]:
    """The solver's function name, inexact pair and keyword arguments: the
    schedule only if it projects a set inexactly, ``y0`` only if it reads it."""
    name, inexact, reads_y0 = _solver_rule(config.solver)
    kwargs = {"stop": config.stopping}
    if any(inexact):
        kwargs["schedule"] = config.schedule
    if reads_y0:
        kwargs["y0"] = config.y0
    return name, inexact, kwargs


def validate_config(config: InstanceConfig) -> tuple[ConvexBody, ConvexBody]:
    """Hold the config to its solver's input rules, as the solver would.

    Only the start points the solver reads are checked, and the schedule
    only against the regime of a solver that projects inexactly. Returns
    the config's bodies, ``(set_a, set_b)``.
    """
    a, b = build_bodies(config)
    _, inexact, kwargs = _solver_call(config)
    check_pair(a, b, config.x0, kwargs.get("y0"), inexact, kwargs.get("schedule"))
    return a, b


def solve_config(config: InstanceConfig) -> SolveReport:
    """Build the instance and run its solver, whose ``check_pair`` holds
    the config to the same input rules as ``validate_config``."""
    a, b = build_bodies(config)
    name, _, kwargs = _solver_call(config)
    return getattr(solvers, name)(a, b, config.x0, **kwargs)


def serialize_config(config: InstanceConfig) -> dict:
    """Inverse of :func:`parse_config`: a JSON-ready dict (``json`` writes
    its tuples as lists)."""
    obj = {
        "schema": SCHEMA_VERSION,
        "dimension": config.dimension,
        "set_a": {"kind": config.set_a.kind, **config.set_a.params},
        "set_b": {"kind": config.set_b.kind, **config.set_b.params},
        "x0": config.x0,
        "solver": config.solver,
        "schedule": asdict(config.schedule),
        "stopping": asdict(config.stopping),
    }
    if config.y0 is not None:
        obj["y0"] = config.y0
    return obj


def load_config(path) -> InstanceConfig:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("$", f"invalid JSON: {exc}") from exc
    return parse_config(obj)


def save_config(config: InstanceConfig, path) -> None:
    Path(path).write_text(json.dumps(serialize_config(config), indent=2) + "\n")


# --- built-in experiment tables -------------------------------------------
#
# Both tables run the slim rotated ellipse A, started at the origin, against
# a set B that slides along x1: table 1's halfspace x1 >= label, table 2's
# second rotated ellipse centred at (label, 0.5). Reference stop codes and
# final violations are transcribed constants the runs are compared against.

_REFERENCE = {
    1: {
        "1.30": {"ACondG1": ("C", "0.00e+00"), "ExactAlt1": ("L", "1.47e-08")},
        "1.35": {"ACondG1": ("C", "0.00e+00"), "ExactAlt1": ("L", "1.44e-08")},
        "1.40": {"ACondG1": ("C", "0.00e+00"), "ExactAlt1": ("L", "2.11e-08")},
        "1.42": {"ACondG1": ("C", "0.00e+00"), "ExactAlt1": ("L", "5.67e-08")},
        "1.43": {"ACondG1": ("L", "8.73e-03"), "ExactAlt1": ("L", "8.73e-03")},
        "1.45": {"ACondG1": ("L", "2.87e-02"), "ExactAlt1": ("L", "2.87e-02")},
        "1.50": {"ACondG1": ("L", "7.87e-02"), "ExactAlt1": ("L", "7.87e-02")},
        "1.60": {"ACondG1": ("L", "1.79e-01"), "ExactAlt1": ("L", "1.79e-01")},
    },
    2: {
        "2.30": {"ACondG2": ("C", "0.00e+00"), "ExactAlt2": ("L", "2.71e-08")},
        "2.35": {"ACondG2": ("C", "0.00e+00"), "ExactAlt2": ("L", "4.60e-08")},
        "2.357": {"ACondG2": ("C", "0.00e+00"), "ExactAlt2": ("L", "7.63e-08")},
        "2.358": {"ACondG2": ("C", "0.00e+00"), "ExactAlt2": ("L", "1.06e-07")},
        "2.359": {"ACondG2": ("L", "1.50e-04"), "ExactAlt2": ("L", "7.31e-05")},
        "2.36": {"ACondG2": ("L", "1.01e-03"), "ExactAlt2": ("L", "1.00e-03")},
        "2.40": {"ACondG2": ("L", "4.01e-02"), "ExactAlt2": ("L", "4.01e-02")},
        "2.50": {"ACondG2": ("L", "1.59e-01"), "ExactAlt2": ("L", "1.59e-01")},
    },
}


def table_config(which: int, label: str, solver: str) -> InstanceConfig:
    """Run ``label`` of table ``which`` by ``solver``. B is table 1's
    halfspace ``x1 >= label``, or table 2's ellipse centred at ``(label,
    0.5)`` with angle pi/3 and semi-axes (2, 0.4), where ``y0`` starts."""
    runs = table_reference(which)
    if label not in runs:
        raise InputError("instance", f"unknown table-{which} instance {label!r}")
    if solver not in runs[label]:
        uses = "/".join(runs[label])
        raise InputError("solver", f"table {which} uses {uses}, got {solver!r}")
    t = float(label)
    if which == 1:
        set_b, y0 = BodySpec("halfspace", {"normal": (-1.0, 0.0), "offset": -t}), None
    else:
        second = {"center": (t, 0.5), "angle": math.pi / 3.0, "semi_axes": (2.0, 0.4)}
        set_b, y0 = BodySpec("ellipse", second), (t, 0.5)
    slim = {"center": (0.0, 0.0), "angle": -math.pi / 4.0, "semi_axes": (2.0, 0.2)}
    return InstanceConfig(
        dimension=2, set_a=BodySpec("ellipse", slim), set_b=set_b,
        x0=(0.0, 0.0), solver=solver, y0=y0,
    )


def table1_config(offset: str, solver: str) -> InstanceConfig:
    """Instance of table 1: ellipse vs halfspace ``x1 >= offset``."""
    return table_config(1, offset, solver)


def table2_config(center1: str, solver: str) -> InstanceConfig:
    """Instance of table 2: ellipse vs a second ellipse centred at
    ``(center1, 0.5)``."""
    return table_config(2, center1, solver)


def table_reference(which: int) -> dict:
    """Reference (stop code, final violation) per instance and solver of
    table ``which``, the integer 1 or 2; a bool is none."""
    integer = isinstance(which, numbers.Integral) and not isinstance(which, bool)
    if not (integer and which in _REFERENCE):
        raise InputError("which", f"no table {which!r}; expected 1 or 2")
    return _REFERENCE[which]
