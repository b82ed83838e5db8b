import json
import math
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from feasib import (
    Ball,
    Box,
    Ellipsoid,
    ForcingSchedule,
    Halfspace,
    InputError,
    StoppingConfig,
    acondg1,
    acondg2,
    averaged_projection,
    exact_alternating,
)
from feasib.bodies import check_count
from feasib.instances import (
    InstanceConfig,
    SCHEMA_VERSION,
    build_bodies,
    load_config,
    parse_config,
    save_config,
    serialize_config,
    table1_config,
    table2_config,
    table_config,
    table_reference,
    validate_config,
)
from feasib.runner import solve_config

from _helpers import slim_ellipse


def base_config(**overrides):
    obj = {
        "schema": SCHEMA_VERSION,
        "dimension": 2,
        "set_a": {
            "kind": "ellipse",
            "center": [0.0, 0.0],
            "angle": -math.pi / 4.0,
            "semi_axes": [2.0, 0.2],
        },
        "set_b": {"kind": "halfspace", "normal": [-1.0, 0.0], "offset": -1.3},
        "x0": [0.0, 0.0],
        "solver": "ACondG1",
    }
    obj.update(overrides)
    return obj


class TestParsing:
    def test_minimal_config_parses_with_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.solver == "ACondG1"
        assert cfg.schedule.tau == 0.9
        assert cfg.stopping.eps_feas == 1e-8
        assert cfg.stopping.max_outer_iters == 100_000

    def test_solver_name_is_canonicalized(self):
        for raw in ("acondg1", "ACONDG1", "ACondG1", "a-cond-g1".replace("-", "")):
            assert parse_config(base_config(solver=raw)).solver == "ACondG1"

    def test_unknown_solver_rejected(self):
        with pytest.raises(InputError) as err:
            parse_config(base_config(solver="newton"))
        assert err.value.path == "solver"

    def test_schema_version_required(self):
        with pytest.raises(InputError) as err:
            parse_config(base_config(schema=99))
        assert err.value.path == "schema"

    def test_bad_body_kind_path(self):
        for body in ({"kind": "torus"}, {}, {"kind": ["ellipse"]}, {"kind": {"a": 1}}):
            with pytest.raises(InputError) as err:
                parse_config(base_config(set_a=body))
            assert err.value.path == "set_a.kind"
            assert err.value.message.startswith(f"unknown body kind {body.get('kind')!r}")

    def test_vector_length_mismatch_path(self):
        with pytest.raises(InputError) as err:
            parse_config(base_config(x0=[0.0, 0.0, 0.0]))
        assert err.value.path == "x0"

    def test_semi_axes_positive(self):
        bad = base_config()
        bad["set_a"]["semi_axes"] = [2.0, -0.2]
        with pytest.raises(InputError) as err:
            parse_config(bad)
        assert "semi_axes" in err.value.path

    def test_x0_membership_validated(self):
        with pytest.raises(InputError) as err:
            parse_config(base_config(x0=[5.0, 5.0]))
        assert err.value.path == "x0"

    def test_solver_body_compatibility(self):
        with pytest.raises(InputError) as err:
            parse_config(base_config(solver="ACondG2", y0=[2.0, 0.0]))
        assert err.value.path == "set_b"

    def test_y0_required_for_two_set_solvers(self):
        obj = base_config(solver="ACondG2")
        obj["set_b"] = {"kind": "ball", "center": [3.0, 0.0], "radius": 1.0}
        with pytest.raises(InputError) as err:
            parse_config(obj)
        assert err.value.path == "y0"

    def test_schedule_regime_validated_per_solver(self):
        # theta0 = 0.3 violates the two-set condition (< 1/4) but is legal
        # in the one-set regime (< 1/2).
        obj = base_config(solver="ACondG2", y0=[3.0, 0.0])
        obj["set_b"] = {"kind": "ball", "center": [3.0, 0.0], "radius": 1.0}
        obj["schedule"] = {"theta0": 0.3}
        with pytest.raises(InputError) as err:
            parse_config(obj)
        assert err.value.path == "schedule"

        one_set = base_config(schedule={"theta0": 0.3})
        cfg = parse_config(one_set)
        assert solve_config(cfg).schedule_trace[0].theta == 0.3

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            load_config(p)


HALFSPACE_A = {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0}
HALFSPACE_B = {"kind": "halfspace", "normal": [-1.0, 0.0], "offset": -1.3}
BALL_B = {"kind": "ball", "center": [3.0, 0.0], "radius": 1.0}


@pytest.mark.parametrize(
    "obj, path",
    [
        pytest.param(
            base_config(set_b={**HALFSPACE_B, "offset": "-1.3"}), "set_b.offset",
            id="non-number",
        ),
        pytest.param(base_config(dimension=2.0), "dimension", id="non-integer-dimension"),
        pytest.param(base_config(dimension=0), "dimension", id="zero-dimension"),
        pytest.param(base_config(x0="00"), "x0", id="non-list-x0"),
        pytest.param(base_config(set_a=[HALFSPACE_A]), "set_a", id="non-object-set_a"),
        pytest.param(
            base_config(dimension=3, x0=[0.0, 0.0, 0.0]), "set_a.kind",
            id="ellipse-in-3d",
        ),
        pytest.param(base_config(schedule=[0.1]), "schedule", id="non-object-schedule"),
        pytest.param([base_config()], "$", id="non-object-config"),
        pytest.param(base_config(solver=1), "solver", id="non-string-solver"),
    ],
)
def test_malformed_config_names_the_field(obj, path):
    with pytest.raises(InputError) as err:
        parse_config(obj)
    assert err.value.path == path


def halfspace(spec):
    return Halfspace(normal=spec["normal"], offset=spec["offset"])


def ball(spec):
    return Ball(center=spec["center"], radius=spec["radius"])


# Each case: config overrides, the matching direct solver call, and the path
# both must name.
PARITY_CASES = [
    pytest.param(
        {"set_a": HALFSPACE_A},
        lambda: acondg1(halfspace(HALFSPACE_A), halfspace(HALFSPACE_B), [0.0, 0.0]),
        "set_a",
        id="acondg1-halfspace-set_a",
    ),
    pytest.param(
        {"solver": "ACondG2", "y0": [2.0, 0.0]},
        lambda: acondg2(slim_ellipse(), halfspace(HALFSPACE_B), [0.0, 0.0], [2.0, 0.0]),
        "set_b",
        id="acondg2-halfspace-set_b",
    ),
    pytest.param(
        {"x0": [5.0, 5.0]},
        lambda: acondg1(slim_ellipse(), halfspace(HALFSPACE_B), [5.0, 5.0]),
        "x0",
        id="x0-outside",
    ),
    pytest.param(
        {"solver": "ACondG2", "set_b": BALL_B, "y0": [9.0, 0.0]},
        lambda: acondg2(slim_ellipse(), ball(BALL_B), [0.0, 0.0], [9.0, 0.0]),
        "y0",
        id="y0-outside",
    ),
    pytest.param(
        {"solver": "ACondG2", "set_b": BALL_B},
        lambda: acondg2(slim_ellipse(), ball(BALL_B), [0.0, 0.0], None),
        "y0",
        id="y0-missing",
    ),
    pytest.param(
        {"solver": "ACondG2", "set_b": BALL_B, "y0": [3.0, 0.0],
         "schedule": {"theta0": 0.3}},
        lambda: acondg2(
            slim_ellipse(), ball(BALL_B), [0.0, 0.0], [3.0, 0.0],
            schedule=ForcingSchedule(0.1 - 1e-8, 0.3, 0.2 - 1e-8),
        ),
        "schedule",
        id="two-set-schedule",
    ),
    pytest.param(
        {"stopping": {"eps_feas": 0.0}},
        lambda: acondg1(
            slim_ellipse(), halfspace(HALFSPACE_B), [0.0, 0.0],
            stop=StoppingConfig(eps_feas=0.0),
        ),
        "stopping.eps_feas",
        id="stopping-eps_feas",
    ),
]


@pytest.mark.parametrize("overrides, call, path", PARITY_CASES)
def test_config_and_solver_reject_alike(overrides, call, path):
    with pytest.raises(InputError) as from_config:
        parse_config(base_config(**overrides))
    with pytest.raises(InputError) as from_call:
        call()
    assert from_config.value.path == from_call.value.path == path
    assert str(from_config.value) == str(from_call.value)


# Each case: the set it replaces, the body's config entry, the matching
# constructor call, and the constructor's path for the broken rule.
BODY_CASES = [
    pytest.param(
        "set_a",
        {"kind": "ellipse", "center": [0.0, 0.0], "angle": 0.0, "semi_axes": [2.0, -0.2]},
        lambda: Ellipsoid.from_axes([0.0, 0.0], 0.0, (2.0, -0.2)),
        "semi_axes",
        id="ellipse-semi_axes",
    ),
    pytest.param(
        "set_a",
        {"kind": "ellipse", "center": [0.0, 0.0], "angle": 0.0, "semi_axes": [1e-200, 0.2]},
        lambda: Ellipsoid.from_axes([0.0, 0.0], 0.0, (1e-200, 0.2)),
        "semi_axes",
        id="ellipse-semi_axes-tiny",
    ),
    pytest.param(
        "set_a",
        {"kind": "ellipse", "center": [0.0, 0.0], "angle": 0.0, "semi_axes": [2.0, 1e200]},
        lambda: Ellipsoid.from_axes([0.0, 0.0], 0.0, (2.0, 1e200)),
        "semi_axes",
        id="ellipse-semi_axes-huge",
    ),
    pytest.param(
        "set_a",
        {"kind": "ellipse", "center": [0.0, 0.0], "angle": 0.0, "semi_axes": [1e-154, 0.2]},
        lambda: Ellipsoid.from_axes([0.0, 0.0], 0.0, (1e-154, 0.2)),
        "semi_axes",
        id="ellipse-semi_axes-nan-eigvals",
    ),
    pytest.param(
        "set_a",
        {"kind": "ellipse", "center": [0.0, 0.0], "angle": 0.3, "semi_axes": [1e-150, 0.2]},
        lambda: Ellipsoid.from_axes([0.0, 0.0], 0.3, (1e-150, 0.2)),
        "semi_axes",
        id="ellipse-semi_axes-indefinite",
    ),
    pytest.param(
        "set_b",
        {"kind": "halfspace", "normal": [0.0, 0.0], "offset": -1.3},
        lambda: Halfspace(normal=[0.0, 0.0], offset=-1.3),
        "normal",
        id="halfspace-normal",
    ),
    # A squared norm that overflows or underflows: ``project`` divides by it.
    pytest.param(
        "set_b",
        {"kind": "halfspace", "normal": [1e200, 0.0], "offset": -1e200},
        lambda: Halfspace(normal=[1e200, 0.0], offset=-1e200),
        "normal",
        id="halfspace-normal-huge",
    ),
    pytest.param(
        "set_b",
        {"kind": "halfspace", "normal": [1e-200, 0.0], "offset": 0.0},
        lambda: Halfspace(normal=[1e-200, 0.0], offset=0.0),
        "normal",
        id="halfspace-normal-tiny",
    ),
    pytest.param(
        "set_b",
        {"kind": "ball", "center": [3.0, 0.0], "radius": 0.0},
        lambda: Ball(center=[3.0, 0.0], radius=0.0),
        "radius",
        id="ball-radius",
    ),
    pytest.param(
        "set_a",
        {"kind": "box", "lower": [0.0, 1.0], "upper": [1.0, 0.0]},
        lambda: Box(lower=[0.0, 1.0], upper=[1.0, 0.0]),
        "upper",
        id="box-ordering",
    ),
]


@pytest.mark.parametrize("which, body, call, path", BODY_CASES)
def test_config_and_constructor_reject_bodies_alike(which, body, call, path):
    with pytest.raises(InputError) as from_config:
        parse_config(base_config(**{which: body}))
    with pytest.raises(InputError) as from_call:
        call()
    assert from_call.value.path == path
    assert from_config.value.path == f"{which}.{path}"
    assert from_config.value.message == from_call.value.message


@pytest.mark.parametrize(
    "schedule, path",
    [
        ({"gamma0": -0.1}, "schedule.gamma0"),
        ({"lambda0": -1.0}, "schedule.lambda0"),
        ({"tau": 1.0}, "schedule.tau"),
        ({"delta": 0.0}, "schedule.delta"),
    ],
)
def test_schedule_range_rules_name_the_config_field(schedule, path):
    with pytest.raises(InputError) as err:
        parse_config(base_config(schedule=schedule))
    assert err.value.path == path


def test_schedule_range_rules_hold_for_every_solver():
    # ExactAlt1 projects nothing inexactly and so never reads its schedule,
    # but the schedule's own range rules still hold at parse time.
    obj = serialize_config(table1_config("1.30", "ExactAlt1"))
    obj["schedule"]["tau"] = 1.0
    with pytest.raises(InputError) as err:
        parse_config(obj)
    assert err.value.path == "schedule.tau"
    assert err.value.message == "must lie in (0, 1), got 1.0"


def test_unread_y0_is_not_checked():
    # ExactAlt1 never reads y0, so a y0 outside set B does not reject it.
    cfg = table1_config("1.30", "ExactAlt1")
    with_y0 = parse_config({**serialize_config(cfg), "y0": [0.0, 0.0]})
    assert with_y0.y0 == (0.0, 0.0)
    ran, plain = solve_config(with_y0), solve_config(cfg)
    assert ran.stop_code is plain.stop_code
    assert ran.outer_iters == plain.outer_iters
    assert np.array_equal(ran.x_trace, plain.x_trace)
    assert ran.violations == plain.violations


# Each config solver, an instance for it and the direct public call that
# the config stands for: ``(config, (a, b))`` to a report.
DIRECT_CALLS = {
    "ACondG1": (
        table1_config("1.42", "ACondG1"),
        lambda c, a, b: acondg1(a, b, c.x0, c.schedule, c.stopping),
    ),
    "ACondG2": (
        table2_config("2.358", "ACondG2"),
        lambda c, a, b: acondg2(a, b, c.x0, c.y0, c.schedule, c.stopping),
    ),
    "Averaged": (
        replace(table2_config("2.30", "ACondG2"), solver="Averaged"),
        lambda c, a, b: averaged_projection(a, b, c.x0, c.y0, c.schedule, c.stopping),
    ),
    # y0 lies in B, so a run that read it would start with a y row.
    "ExactAlt1": (
        replace(table1_config("1.42", "ExactAlt1"), y0=(2.0, 0.0)),
        lambda c, a, b: exact_alternating(a, b, c.x0, c.stopping),
    ),
    "ExactAlt2": (
        table2_config("2.358", "ExactAlt2"),
        lambda c, a, b: exact_alternating(a, b, c.x0, c.stopping, y0=c.y0),
    ),
}


@pytest.mark.parametrize("solver", list(DIRECT_CALLS))
def test_solve_config_is_the_direct_call(solver):
    # A schedule other than the default, valid in both regimes, shows that
    # it reaches each solver that reads one.
    table_config, call = DIRECT_CALLS[solver]
    config = replace(
        table_config,
        schedule=ForcingSchedule(theta0=0.15),
        stopping=StoppingConfig(max_outer_iters=5),
    )
    ran, direct = solve_config(config), call(config, *build_bodies(config))
    assert ran.stop_code is direct.stop_code
    assert ran.outer_iters == direct.outer_iters
    assert np.array_equal(ran.x_trace, direct.x_trace)
    assert np.array_equal(ran.y_trace, direct.y_trace)
    assert ran.violations == direct.violations
    assert ran.schedule_trace == direct.schedule_trace


# One body of each kind, as set B of an ExactAlt1 config whose set A is the
# unit ball at the origin, and the matching constructor call. Ball, box and
# halfspace are 3-D.
KIND_CASES = [
    pytest.param(
        {"kind": "ellipse", "center": [0.5, -0.25], "angle": 0.3, "semi_axes": [2.0, 0.4]},
        lambda: Ellipsoid.from_axes(center=[0.5, -0.25], angle=0.3, semi_axes=(2.0, 0.4)),
        id="ellipse",
    ),
    pytest.param(
        {"kind": "halfspace", "normal": [1.0, -2.0, 0.5], "offset": 0.75},
        lambda: Halfspace(normal=[1.0, -2.0, 0.5], offset=0.75),
        id="halfspace",
    ),
    pytest.param(
        {"kind": "ball", "center": [1.5, 0.0, -0.5], "radius": 0.8},
        lambda: Ball(center=[1.5, 0.0, -0.5], radius=0.8),
        id="ball",
    ),
    pytest.param(
        {"kind": "box", "lower": [0.5, -1.0, -2.0], "upper": [2.0, 1.0, 0.0]},
        lambda: Box(lower=[0.5, -1.0, -2.0], upper=[2.0, 1.0, 0.0]),
        id="box",
    ),
]


@pytest.mark.parametrize("body, make", KIND_CASES)
def test_every_body_kind_round_trips_and_builds(body, make, tmp_path):
    dim = 2 if body["kind"] == "ellipse" else 3
    cfg = parse_config(base_config(
        dimension=dim, x0=[0.0] * dim, solver="ExactAlt1",
        set_a={"kind": "ball", "center": [0.0] * dim, "radius": 1.0}, set_b=body,
    ))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_config(cfg, first)
    assert load_config(first) == cfg
    save_config(load_config(first), second)
    assert second.read_bytes() == first.read_bytes()

    built, direct = build_bodies(cfg)[1], make()
    for z in np.random.default_rng(5).normal(scale=2.0, size=(6, dim)):
        assert built.violation(z) == direct.violation(z)


def test_readme_config_example_is_table1():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Instance config format", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = parse_config(example)
    expected = table1_config("1.30", "ACondG1")
    assert replace(cfg, schedule=expected.schedule) == expected
    # The schedule is shown as the defaults rounded to 8 digits.
    for f in fields(ForcingSchedule):
        shown, default = getattr(cfg.schedule, f.name), getattr(expected.schedule, f.name)
        assert math.isclose(shown, default, rel_tol=1e-9)


# The top-level keys a config file may hold, in the order a file is saved;
# ``seed`` is retired, read by nothing and never written.
TOP_KEYS = ["schema", "dimension", "set_a", "set_b", "x0", "solver", "schedule",
            "stopping", "y0", "seed"]
EXPECTED_TOP_KEYS = f"{', '.join(TOP_KEYS[:-1])} or seed"


def exactalt2_with_yo():
    """An ExactAlt2 config whose ``y0`` is misspelled ``yo``."""
    obj = serialize_config(table2_config("2.358", "ExactAlt2"))
    obj["yo"] = obj.pop("y0")
    return obj


@pytest.mark.parametrize(
    "obj, path, expected",
    [
        (base_config(stopping={"max_outer_iter": 3}), "stopping.max_outer_iter",
         "eps_feas, eps_lack or max_outer_iters"),
        (base_config(schedule={"gama0": 3}), "schedule.gama0",
         "gamma0, theta0, lambda0, tau or delta"),
        (base_config(set_b={**HALFSPACE_B, "offst": 3}), "set_b.offst",
         "kind, normal or offset"),
        (base_config(stoping={"max_outer_iters": 3}), "stoping", EXPECTED_TOP_KEYS),
        (exactalt2_with_yo(), "yo", EXPECTED_TOP_KEYS),
    ],
    ids=["stopping", "schedule", "set_b", "top-level", "exactalt2-yo"],
)
def test_a_misspelled_section_key_is_refused(obj, path, expected):
    # Dropped, it would be ignored: a section's run would take the default
    # in its place, and ExactAlt2 would run without its y0.
    with pytest.raises(InputError) as err:
        parse_config(obj)
    assert err.value.path == path
    assert err.value.message == f"unknown field; expected {expected}"


def with_repeat(obj, key, repeat):
    """``obj`` as JSON text in which ``"key": <value>`` is followed by the
    same key once more, with ``repeat`` as its value."""
    text = json.dumps(obj)
    pattern = re.compile(rf'"{key}": ([^,}}]+)')
    return pattern.sub(lambda m: f'{m[0]}, "{key}": {json.dumps(repeat)}', text, count=1)


# Each case: a file whose object repeats a key, and the path of that key.
# ``json`` keeps the last value, so each file would run with it: ExactAlt1
# in place of ACondG1, an eps_feas of 0.5 and a halfspace offset of -9.
REPEATED_KEYS = [
    pytest.param(with_repeat(base_config(), "solver", "ExactAlt1"), "solver",
                 id="top-level"),
    pytest.param(
        with_repeat(base_config(stopping={"eps_feas": 1e-8}), "eps_feas", 0.5),
        "stopping.eps_feas", id="section",
    ),
    pytest.param(with_repeat(base_config(), "offset", -9.0), "set_b.offset", id="body"),
]


@pytest.mark.parametrize("text, path", REPEATED_KEYS)
def test_a_key_repeated_within_one_object_is_refused(text, path, tmp_path):
    cfg_path = tmp_path / "repeated.json"
    cfg_path.write_text(text)
    assert text.count(f'"{path.rsplit(".", 1)[-1]}"') == 2
    with pytest.raises(InputError) as err:
        load_config(cfg_path)
    assert err.value.path == path
    assert err.value.message == "repeated key; each key may appear once"


def test_a_config_carrying_the_retired_seed_loads(tmp_path):
    cfg_path = tmp_path / "seeded.json"
    cfg_path.write_text(json.dumps(base_config(seed=7)))
    assert load_config(cfg_path) == parse_config(base_config())


def test_another_schema_version_fails_at_schema_before_any_key():
    with pytest.raises(InputError) as err:
        parse_config(base_config(schema=2, stoping={}))
    assert err.value.path == "schema"
    assert err.value.message == "expected version 1, got 2"


def test_a_saved_config_holds_exactly_the_keys_a_config_may_hold():
    configs = [
        table_config(which, label, solver)
        for which in (1, 2)
        for label, row in table_reference(which).items()
        for solver in row
    ]
    configs.append(replace(table2_config("2.30", "ACondG2"), solver="Averaged"))
    for cfg in configs:
        saved = [k for k in TOP_KEYS if k != "seed" and (k != "y0" or cfg.y0 is not None)]
        assert list(serialize_config(cfg)) == saved, cfg.solver
    # And parse_config accepts every one of them.
    with pytest.raises(InputError) as err:
        parse_config(base_config(unknown=1))
    assert err.value.message == f"unknown field; expected {EXPECTED_TOP_KEYS}"


def test_dimension_is_the_length_of_x0_and_no_field():
    cfg = table_config(1, "1.42", "ACondG1")
    assert "dimension" not in {f.name for f in fields(InstanceConfig)}
    assert cfg.dimension == len(cfg.x0) == 2
    # A stored dimension could disagree with x0 and the bodies.
    with pytest.raises(TypeError):
        replace(cfg, dimension=3)


def test_a_config_body_is_read_only_once_built():
    # An editable body dict was saved but not solved: ``bodies`` is cached.
    cfg = table_config(1, "1.30", "ExactAlt1")
    build_bodies(cfg)
    with pytest.raises(TypeError):
        cfg.set_b["offset"] = -9.0
    assert serialize_config(cfg)["set_b"]["offset"] == build_bodies(cfg)[1].offset == -1.3
    # A config built directly keeps its own copy of the caller's dict, with
    # a list value as a tuple.
    normal = [-1.0, 0.0]
    body = {**cfg.set_b, "normal": normal}
    built = replace(cfg, set_b=body)
    body["offset"] = -9.0
    normal[0] = 5.0
    assert built.set_b["offset"] == -1.3
    assert built.set_b["normal"] == (-1.0, 0.0)


def test_a_config_built_in_python_holds_what_a_parsed_file_holds(tmp_path):
    # Construction applies the parse rules, so a built config hashes, saves
    # and solves as the file it saves to would parse.
    cfg = table_config(1, "1.30", "ExactAlt1")
    listed = replace(cfg, x0=[0.0, 0.0])
    assert listed == cfg and hash(listed) == hash(cfg)
    arrays = replace(cfg, x0=np.zeros(2), set_b={**cfg.set_b, "normal": np.array([-1, 0])})
    assert arrays == cfg and type(arrays.set_b["normal"][0]) is float
    integer = replace(cfg, set_b={**cfg.set_b, "offset": -1})
    save_config(integer, tmp_path / "integer.json")
    assert json.loads((tmp_path / "integer.json").read_text())["set_b"]["offset"] == -1.0
    assert load_config(tmp_path / "integer.json") == integer
    assert replace(cfg, solver="exactalt1").solver == "ExactAlt1"
    with pytest.raises(InputError) as err:
        replace(cfg, solver="Nope")
    assert err.value.path == "solver"
    assert err.value.message.startswith("unknown solver 'Nope'")
    # The parse rules refuse at the same paths as the file: a vector of
    # the wrong length, a body field the kind does not have.
    for changes, path in (
        ({"y0": [1.0, 2.0, 3.0]}, "y0"),
        ({"set_a": {**cfg.set_a, "radius": 1.0}}, "set_a.radius"),
        ({"set_b": {**cfg.set_b, "normal": [1.0, 0.0, 0.0]}}, "set_b.normal"),
    ):
        with pytest.raises(InputError) as err:
            replace(cfg, **changes)
        assert err.value.path == path


@pytest.mark.parametrize("which", [1, 2])
def test_every_table_config_round_trips_through_a_file(which, tmp_path):
    path = tmp_path / "cfg.json"
    for label, row in table_reference(which).items():
        for solver in row:
            cfg = table_config(which, label, solver)
            save_config(cfg, path)
            assert load_config(path) == cfg


def test_the_committed_table_record_has_the_papers_stop_codes(table_reports):
    # scripts/bench_tables.py writes the record. A fresh run must keep its
    # stable quantities (README, "Rounding-sensitive results"): the stop
    # codes, the ExactAlt outer counts, the exact 0 of an inexact C run's
    # min_violation and the first four digits of an L run's. The inexact
    # counts, CPU times and digests may round apart under another BLAS
    # build; CI prints their diff, not checked here.
    path = Path(__file__).resolve().parent.parent / "BENCH_tables.json"
    runs = json.loads(path.read_text())["runs"]
    recorded = {(r["table"], r["instance"], r["solver"]): r["stop"] for r in runs}
    paper = {
        (which, label, solver): code
        for which in (1, 2)
        for label, row in table_reference(which).items()
        for solver, (code, _) in row.items()
    }
    assert len(runs) == len(paper) == 32
    assert recorded == paper
    for run in runs:
        at = (run["table"], run["instance"], run["solver"])
        report, violation = table_reports[at], float(run["min_violation"])
        assert report.stop_code.letter == run["stop"], at
        if run["solver"].startswith("ExactAlt"):
            assert report.outer_iters == run["outer_iters"], at
        if run["stop"] == "C":
            assert report.min_violation == violation == 0.0, at
        else:
            assert report.min_violation == pytest.approx(violation, rel=1e-4), at


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config(base_config(seed=7))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = table2_config("2.30", "ACondG2")
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert load_config(p) == cfg
        # byte-determinism of the serialization itself
        text = p.read_text()
        save_config(load_config(p), p)
        assert p.read_text() == text

    def test_serialized_is_plain_json(self):
        cfg = table1_config("1.50", "ExactAlt1")
        json.dumps(serialize_config(cfg))


class TestTables:
    def test_table1_instances_build(self):
        for label in table_reference(1):
            for solver in ("ACondG1", "ExactAlt1"):
                cfg = table1_config(label, solver)
                a, b = build_bodies(cfg)
                assert a.is_compact

    def test_bodies_built_once_per_config(self):
        cfg = table2_config("2.30", "ACondG2")
        assert build_bodies(cfg) is build_bodies(cfg) == validate_config(cfg)
        fresh = replace(cfg)
        assert fresh == cfg and hash(fresh) == hash(cfg)
        assert build_bodies(fresh)[0] is not build_bodies(cfg)[0]

    def test_table2_instances_build(self):
        for label in table_reference(2):
            for solver in ("ACondG2", "ExactAlt2"):
                cfg = table2_config(label, solver)
                a, b = build_bodies(cfg)
                assert a.is_compact and b.is_compact
                assert cfg.y0 is not None

    def test_references_cover_all_instances(self):
        # The instances of the paper's two tables, each run by both solvers.
        ref1 = table_reference(1)
        assert list(ref1) == ["1.30", "1.35", "1.40", "1.42", "1.43", "1.45", "1.50", "1.60"]
        assert all(set(v) == {"ACondG1", "ExactAlt1"} for v in ref1.values())
        ref2 = table_reference(2)
        assert list(ref2) == ["2.30", "2.35", "2.357", "2.358", "2.359", "2.36", "2.40", "2.50"]
        assert all(set(v) == {"ACondG2", "ExactAlt2"} for v in ref2.values())

    def test_unknown_table_rejected(self):
        with pytest.raises(InputError) as err:
            table_reference(3)
        assert err.value.path == "which"
        with pytest.raises(InputError):
            table1_config("9.99", "ACondG1")
        with pytest.raises(InputError) as err:
            table1_config("1.30", "ACondG2")
        assert err.value.path == "solver"
        assert err.value.message == "table 1 uses ACondG1/ExactAlt1, got 'ACondG2'"

    @pytest.mark.parametrize("which", [0, 3, True, "1"])
    def test_only_the_integers_1_and_2_name_a_table(self, which):
        # True == 1, but a bool is no table number.
        with pytest.raises(InputError) as err:
            table_reference(which)
        assert err.value.path == "which"
        assert err.value.message == f"no table {which!r}; expected 1 or 2"

    # Each table's runs, written out: A is the slim ellipse, started at the
    # origin, and B slides along x1 by the run's label t.
    SET_A = {"kind": "ellipse", "center": [0.0, 0.0], "angle": -math.pi / 4.0,
             "semi_axes": [2.0, 0.2]}
    SET_B = {
        1: lambda t: ({"kind": "halfspace", "normal": [-1.0, 0.0], "offset": -t}, None),
        2: lambda t: (
            {"kind": "ellipse", "center": [t, 0.5], "angle": math.pi / 3.0,
             "semi_axes": [2.0, 0.4]},
            [t, 0.5],
        ),
    }

    @pytest.mark.parametrize("which", [1, 2])
    def test_table_config_builds_each_run_of_the_table(self, which):
        runs = [(label, solver) for label, codes in table_reference(which).items()
                for solver in codes]
        assert len(runs) == 16
        for label, solver in runs:
            set_b, y0 = self.SET_B[which](float(label))
            expected = {
                "schema": SCHEMA_VERSION,
                "dimension": 2,
                "set_a": self.SET_A,
                "set_b": set_b,
                "x0": [0.0, 0.0],
                "solver": solver,
                "schedule": asdict(ForcingSchedule()),
                "stopping": asdict(StoppingConfig()),
                **({} if y0 is None else {"y0": y0}),
            }
            got = json.loads(json.dumps(serialize_config(table_config(which, label, solver))))
            assert got == expected, (which, label, solver)

    def test_unknown_kind_in_a_built_config_names_the_set(self):
        # A config built directly is held to the parse rules, so it is
        # refused where it is built, as parse_config refuses the file.
        cfg = table1_config("1.30", "ExactAlt1")
        with pytest.raises(InputError) as err:
            replace(cfg, set_a={"kind": "torus"})
        assert err.value.path == "set_a.kind"
        assert str(err.value) == (
            "set_a.kind: unknown body kind 'torus'; expected ellipse, halfspace, ball or box"
        )


# Every numeric field a config can reach: the config that carries ``bad`` in
# that field, the direct API call that takes the same value, and the path
# that call names (the config names it under the set, as ``set_b.radius``).
BALL_SET_B = {"set_b": BALL_B}
BOX_SET_B = {"set_b": {"kind": "box", "lower": [1.3, -1.0], "upper": [2.0, 1.0]}}


def body_field(which, base, name):
    def config(bad):
        obj = base_config(**base)
        obj[which] = {**obj[which], name: bad}
        return obj
    return config


def section_field(section, name):
    return lambda bad: base_config(**{section: {name: bad}})


ELLIPSE = dict(center=[0.0, 0.0], angle=-math.pi / 4.0, semi_axes=(2.0, 0.2))
NUMBER_FIELDS = {
    "set_a.angle": (
        body_field("set_a", {}, "angle"),
        lambda bad: Ellipsoid.from_axes(**{**ELLIPSE, "angle": bad}),
    ),
    "set_b.offset": (
        body_field("set_b", {}, "offset"),
        lambda bad: Halfspace(normal=[-1.0, 0.0], offset=bad),
    ),
    "set_b.radius": (
        body_field("set_b", BALL_SET_B, "radius"),
        lambda bad: Ball(center=[3.0, 0.0], radius=bad),
    ),
    **{
        f"schedule.{name}": (
            section_field("schedule", name),
            lambda bad, name=name: ForcingSchedule(**{name: bad}),
        )
        for name in ("gamma0", "theta0", "lambda0", "tau", "delta")
    },
    **{
        f"stopping.{name}": (
            section_field("stopping", name),
            lambda bad, name=name: StoppingConfig(**{name: bad}),
        )
        for name in ("eps_feas", "eps_lack")
    },
}
VECTOR_FIELDS = {
    "set_a.center": (
        body_field("set_a", {}, "center"),
        lambda bad: Ellipsoid.from_axes(**{**ELLIPSE, "center": bad}),
    ),
    "set_a.semi_axes": (
        body_field("set_a", {}, "semi_axes"),
        lambda bad: Ellipsoid.from_axes(**{**ELLIPSE, "semi_axes": bad}),
    ),
    "set_b.normal": (
        body_field("set_b", {}, "normal"),
        lambda bad: Halfspace(normal=bad, offset=-1.3),
    ),
    "set_b.center": (
        body_field("set_b", BALL_SET_B, "center"),
        lambda bad: Ball(center=bad, radius=1.0),
    ),
    "set_b.lower": (
        body_field("set_b", BOX_SET_B, "lower"),
        lambda bad: Box(lower=bad, upper=[2.0, 1.0]),
    ),
    "set_b.upper": (
        body_field("set_b", BOX_SET_B, "upper"),
        lambda bad: Box(lower=[1.3, -1.0], upper=bad),
    ),
    "x0": (
        lambda bad: base_config(x0=bad),
        lambda bad: acondg1(slim_ellipse(), halfspace(HALFSPACE_B), bad),
    ),
    "y0": (
        lambda bad: base_config(solver="ACondG2", y0=bad, **BALL_SET_B),
        lambda bad: acondg2(slim_ellipse(), ball(BALL_B), [0.0, 0.0], bad),
    ),
}
COUNT_FIELDS = {
    "dimension": (
        lambda bad: base_config(dimension=bad),
        lambda bad: check_count(bad, "dimension"),
    ),
    "stopping.max_outer_iters": (
        lambda bad: base_config(stopping={"max_outer_iters": bad}),
        lambda bad: StoppingConfig(max_outer_iters=bad),
    ),
}
BAD_NUMBERS = {
    "bool": True, "str": "1", "none": None, "list": [1.0], "nan": math.nan,
    "inf": math.inf, "huge-int": 10**400,
}
BAD_VECTORS = {
    "str": "00", "bool-entry": [True, 0.0], "str-entry": [0.0, "1"],
    "nan-entry": [math.nan, 0.0], "huge-int-entry": [10**400, 0.0],
    "list-entry": [[0.0], 0.0], "none": None, "empty": [],
}
# A count is an integer >= 1; 10**400 is one.
BAD_COUNTS = {**BAD_NUMBERS, "fraction": 2.5, "float": 2.0, "zero": 0}
del BAD_COUNTS["huge-int"]

NUMERIC_CASES = [
    pytest.param(path, config, call, bad, id=f"{path}-{label}")
    for table, values in (
        (NUMBER_FIELDS, BAD_NUMBERS),
        (VECTOR_FIELDS, BAD_VECTORS),
        (COUNT_FIELDS, BAD_COUNTS),
    )
    for path, (config, call) in table.items()
    for label, bad in values.items()
]


@pytest.mark.parametrize("path, config, call, bad", NUMERIC_CASES)
def test_config_and_api_refuse_bad_numbers_alike(path, config, call, bad):
    # The config and the call share one rule per number, count and vector,
    # so both refuse the value with the same message.
    with pytest.raises(InputError) as from_config:
        parse_config(config(bad))
    with pytest.raises(InputError) as from_call:
        call(bad)
    assert from_config.value.path == path
    assert path.endswith(from_call.value.path)
    assert from_config.value.message == from_call.value.message


# Each error example in README's config section, and a config that raises it.
README_ERRORS = {
    "set_b.radius: must be positive, got 0.0":
        {"set_b": {**BALL_B, "radius": 0.0}},
    "set_b.radius: malformed number: expected a number, got bool":
        {"set_b": {**BALL_B, "radius": True}},
    "set_b.offset: must be finite": {"set_b": {**HALFSPACE_B, "offset": 10**400}},
    "x0: malformed vector: entry 1: expected a number, got str":
        {"x0": [0.0, "0"]},
    "schedule.tau: must lie in (0, 1), got 1.0": {"schedule": {"tau": 1.0}},
    "stopping.eps_feas: must be positive": {"stopping": {"eps_feas": 0.0}},
    "stopping.max_outer_iter: unknown field; expected eps_feas, eps_lack or max_outer_iters":
        {"stopping": {"max_outer_iter": 3}},
    "set_b.offst: unknown field; expected kind, normal or offset":
        {"set_b": {**HALFSPACE_B, "offst": 3}},
    "stoping: unknown field; expected schema, dimension, set_a, set_b, x0, solver, "
    "schedule, stopping, y0 or seed": {"stoping": {"max_outer_iters": 3}},
    # A repeated key cannot be written as a dict, so this one is a file's text.
    "solver: repeated key; each key may appear once":
        with_repeat(base_config(), "solver", "ExactAlt1"),
    "x0: must belong to its set (violation <= 1e-10)": {"x0": [5.0, 5.0]},
    "y0: is required when set_b is projected inexactly":
        {"solver": "ACondG2", "set_b": BALL_B},
}


def readme_error_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Instance config format", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose))
    return [span for span in spans if re.fullmatch(r"[\w.\[\]]+: .+", span)]


@pytest.mark.parametrize("example", readme_error_examples())
def test_readme_error_examples_are_raised(example, tmp_path):
    assert example in README_ERRORS, "add the config that raises it to README_ERRORS"
    config, path = README_ERRORS[example], tmp_path / "example.json"
    with pytest.raises(InputError) as err:
        if isinstance(config, str):
            path.write_text(config)
            load_config(path)
        else:
            parse_config(base_config(**config))
    assert str(err.value) == example
