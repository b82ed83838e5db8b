"""Problem-instance configuration: JSON schema, validation, and the built-in
experiment tables.

A config file is a single JSON object with a ``schema`` version field. An
:class:`InstanceConfig` holds only what the file holds: its bodies are their
JSON objects, tagged by ``kind`` (``_KINDS`` states each kind's constructor
and fields once, for parsing and building alike), and ``dimension`` is the
length of ``x0``; a config built in Python is held to the parse rules as it
is built. The ``schedule`` and ``stopping`` objects are the solvers' own
:class:`~feasib.solvers.ForcingSchedule` and
:class:`~feasib.solvers.StoppingConfig`. One key rule, ``_refuse_unknown``,
refuses a key that is no field (at top level, other than ``schema``,
``dimension`` and the retired ``seed``) and a key repeated within one
object. Validation errors carry the path of the offending field.

Each rule runs in one place, in this order, and a file with several
errors fails at the first. :func:`load_config` decodes the file.
:func:`parse_config` reads what a file alone holds: ``schema``, the
top-level keys, ``dimension``, ``x0`` against it, and the ``schedule`` and
``stopping`` sections into their classes. ``InstanceConfig.__post_init__``
applies the parse rules to ``solver``, ``set_a``, ``set_b`` and ``y0``, for
a file and a config built in Python alike. :func:`validate_config` comes
last.

Parsing checks only the JSON structure: objects, body ``kind``, keys and
that an ellipse needs dimension 2. Numbers, counts and vectors follow the
API's one rule for each (``as_float``, ``check_count`` and ``as_vector`` of
:mod:`feasib.bodies`), and the range rules are the API's: the body
constructors (re-pathed under ``set_a`` / ``set_b``), ``ForcingSchedule``
and ``StoppingConfig``, for every solver. :func:`validate_config` then
runs the solvers' own input check, :func:`~feasib.solvers.check_pair`, on
the start points and the schedule, so a config fails with the same path
and message as the call. One ``_SOLVERS`` row per config solver, which
:func:`validate_config` and :func:`solve_config` both read, names the
:mod:`feasib.solvers` function that runs it and whether its run reads
``y0``; which sets that function projects inexactly is its
:data:`~feasib.solvers.INEXACT` entry, so it is no config field.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from . import solvers
from .bodies import Ball, Box, ConvexBody, Ellipsoid, Halfspace, InputError
from .bodies import _check_type, as_float, as_vector, check_count
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

# Each config solver's ``solvers`` function, looked up by name at call time
# (so a wrapper set on that module sees the call), and whether its run reads
# ``y0``.
_SOLVERS = {
    "ACondG1": ("acondg1", False),
    "ACondG2": ("acondg2", True),
    "Averaged": ("averaged_projection", True),
    "ExactAlt1": ("exact_alternating", False),
    "ExactAlt2": ("exact_alternating", True),
}
_SOLVER_LOOKUP = {n.lower().replace("_", ""): n for n in _SOLVERS}


@dataclass(frozen=True)
class InstanceConfig:
    """A config file's content, in file order; a body is its JSON object,
    held as a read-only mapping of tuples and floats, so the ``bodies``
    cache always matches it. The constructor holds a parsed file and a
    config built in Python alike to the parse rules, which leave parsed
    values as they are: the bodies against ``len(x0)``, the vector rule for
    ``x0`` and ``y0``, the solver's name looked up in ``_SOLVERS``, and
    ``schedule`` and ``stopping`` each an object of its section's class, for
    every solver."""

    set_a: MappingProxyType = field(hash=False)
    set_b: MappingProxyType = field(hash=False)
    x0: tuple[float, ...]
    solver: str
    schedule: ForcingSchedule = ForcingSchedule()
    stopping: StoppingConfig = StoppingConfig()
    y0: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_type(self.schedule, ForcingSchedule, "schedule")
        _check_type(self.stopping, StoppingConfig, "stopping")
        solver, x0 = _solver_name(self.solver), _vector(self.x0, "x0", None)
        held = {name: MappingProxyType(_parse_body(getattr(self, name), name, len(x0)))
                for name in ("set_a", "set_b")}
        y0 = None if self.y0 is None else _vector(self.y0, "y0", len(x0))
        for name, value in {**held, "x0": x0, "solver": solver, "y0": y0}.items():
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return len(self.x0)

    @cached_property
    def bodies(self) -> tuple[ConvexBody, ConvexBody]:
        """``(set_a, set_b)``, built on first use; the cache is no field, so
        it changes neither equality nor hashing."""
        return _build_body(self.set_a, "set_a"), _build_body(self.set_b, "set_b")


# A config file's top-level keys; the retired ``seed`` is read by nothing.
_TOP_KEYS = ("schema", "dimension", *(f.name for f in fields(InstanceConfig)), "seed")


def _vector(obj, path: str, dim: int | None) -> tuple[float, ...]:
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


class _Object(dict):
    """A JSON object as ``load_config`` reads it, with the keys it repeats:
    ``json`` keeps only the last value of a repeated key."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeated = {k for k, n in Counter(k for k, _ in pairs).items() if n > 1}


def _refuse_unknown(obj: dict, path: str, names) -> None:
    """Raise InputError at ``path.<key>`` (``<key>`` at top level) for the
    first key of ``obj`` not in ``names`` or repeated, so none is dropped."""
    for key in obj:
        at = f"{path}.{key}" if path else key
        if key in getattr(obj, "repeated", ()):
            raise InputError(at, "repeated key; each key may appear once")
        if key not in names:
            *rest, last = names
            raise InputError(at, f"unknown field; expected {', '.join(rest)} or {last}")


def _parse_body(obj, path: str, dim: int) -> dict:
    if not isinstance(obj, Mapping):
        raise InputError(path, "expected an object")
    kind = obj.get("kind")
    # The type test comes first: a list or object kind is unhashable.
    if not (isinstance(kind, str) and kind in _KINDS):
        *rest, last = _KINDS
        raise InputError(
            f"{path}.kind",
            f"unknown body kind {kind!r}; expected {', '.join(rest)} or {last}",
        )
    _, shapes = _KINDS[kind]
    _refuse_unknown(obj, path, ("kind", *shapes))
    if kind == "ellipse" and dim != 2:
        raise InputError(f"{path}.kind", "ellipse requires dimension 2")
    body = {"kind": kind}
    for name, shape in shapes.items():
        value, at = obj.get(name), f"{path}.{name}"
        body[name] = _vector(value, at, dim) if shape is tuple else as_float(value, at)
    return body


def _solver_name(raw) -> str:
    """The ``_SOLVERS`` name that ``raw`` spells in any case, with or without
    ``_`` and ``-``, or InputError at ``solver``."""
    if not isinstance(raw, str):
        raise InputError("solver", "expected a string")
    solver = _SOLVER_LOOKUP.get(raw.lower().replace("_", "").replace("-", ""), raw)
    if solver not in _SOLVERS:
        expected = f"expected one of {tuple(_SOLVERS)}"
        raise InputError("solver", f"unknown solver {solver!r}; {expected}")
    return solver


def _section(obj: dict, name: str, cls):
    """The config's ``name`` object read into ``cls``, which checks each of
    its fields at ``name.<field>``; a missing field takes its default."""
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
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise InputError("schema", f"expected version {SCHEMA_VERSION}, got {schema!r}")
    _refuse_unknown(obj, "", _TOP_KEYS)
    dim = obj.get("dimension")
    check_count(dim, "dimension")

    config = InstanceConfig(
        x0=_vector(obj.get("x0"), "x0", dim),
        schedule=_section(obj, "schedule", ForcingSchedule),
        stopping=_section(obj, "stopping", StoppingConfig),
        solver=obj.get("solver"),
        set_a=obj.get("set_a"),
        set_b=obj.get("set_b"),
        y0=obj.get("y0"),
    )
    validate_config(config)
    return config


def _build_body(body: dict, path: str) -> ConvexBody:
    """The body of the JSON object ``body``; a constructor's range error is
    named under ``path``, as in ``set_b.radius``."""
    constructor, _ = _KINDS[body["kind"]]
    try:
        return constructor(**{k: v for k, v in body.items() if k != "kind"})
    except InputError as exc:
        raise InputError(f"{path}.{exc.path}", exc.message) from None


def build_bodies(config: InstanceConfig) -> tuple[ConvexBody, ConvexBody]:
    """The config's two bodies, built once (see ``InstanceConfig.bodies``)."""
    return config.bodies


def _solver_call(config: InstanceConfig) -> tuple[str, tuple[bool, bool], dict]:
    """The solver's function name, ``INEXACT`` entry and keyword arguments:
    the schedule only if it projects a set inexactly, ``y0`` if it reads it."""
    name, reads_y0 = _SOLVERS[config.solver]
    inexact = solvers.INEXACT[name]
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
    _, inexact, kw = _solver_call(config)
    check_pair(a, b, config.x0, kw.get("y0"), inexact, kw.get("schedule"), kw["stop"])
    return a, b


def solve_config(config: InstanceConfig) -> SolveReport:
    """Build the instance and run its solver, whose ``check_pair`` holds
    the config to the same input rules as ``validate_config``."""
    a, b = build_bodies(config)
    name, _, kwargs = _solver_call(config)
    return getattr(solvers, name)(a, b, config.x0, **kwargs)


def serialize_config(config: InstanceConfig) -> dict:
    """Inverse of :func:`parse_config`: ``schema``, ``dimension`` and the
    fields in field order, ready for ``json``, which writes tuples as lists."""
    obj = {"schema": SCHEMA_VERSION, "dimension": config.dimension}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, MappingProxyType):
            value = dict(value)
        if value is not None:
            obj[f.name] = asdict(value) if is_dataclass(value) else value
    return obj


def load_config(path) -> InstanceConfig:
    """The config in the UTF-8 JSON file ``path``; a file that cannot be
    decoded, or nests deeper than the recursion limit, fails at ``$``."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_Object)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
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
        set_b, y0 = {"kind": "halfspace", "normal": (-1.0, 0.0), "offset": -t}, None
    else:
        set_b = {"kind": "ellipse", "center": (t, 0.5), "angle": math.pi / 3.0,
                 "semi_axes": (2.0, 0.4)}
        y0 = (t, 0.5)
    slim = {"kind": "ellipse", "center": (0.0, 0.0), "angle": -math.pi / 4.0,
            "semi_axes": (2.0, 0.2)}
    return InstanceConfig(set_a=slim, set_b=set_b, x0=(0.0, 0.0), solver=solver, y0=y0)


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
