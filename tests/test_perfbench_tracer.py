"""The benchmark's layer tracer wraps feasib functions and methods by name.

This keeps a rename in the package from silently breaking the tracer: it
installs the tracer, runs one instance of each solver, and checks that the
outer steps (and, for the inexact solvers, the inner projections) were
counted and that uninstalling restores every original.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from feasib import Ball, Box, Ellipsoid, Halfspace
from feasib.instances import table1_config, table2_config
from feasib.runner import run_instance

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def feasib_bindings():
    """Every attribute of every loaded feasib module and of each body class,
    so a patch left behind on either shows."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "feasib" or name.startswith("feasib."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in (Ball, Box, Ellipsoid, Halfspace):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


@pytest.mark.parametrize(
    "config",
    [
        table1_config("1.42", "ACondG1"),
        table2_config("2.30", "ACondG2"),
        table1_config("1.30", "ExactAlt1"),
        dataclasses.replace(table2_config("2.30", "ACondG2"), solver="Averaged"),
    ],
    ids=["ACondG1", "ACondG2", "ExactAlt1", "Averaged"],
)
def test_tracer_counts_a_table_run_and_restores_the_package(tmp_path, config):
    before = feasib_bindings()
    tracer = load_tracer().LayerTracer()
    tracer.install()
    try:
        report, _ = run_instance(config, tmp_path)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    if config.solver != "ExactAlt1":
        assert m["condg.project.calls"] > 0
    assert m["solvers.outer_iters"] == report.outer_iters
    after = feasib_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
