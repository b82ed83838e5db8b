"""Every warning raised by a test of this directory fails it.

The filter is added as each test's first ``filterwarnings`` mark, the one
of lowest precedence, so a mark the test carries still overrides it. Tests
outside this directory keep their own settings.

Where the ``CI`` environment variable is set, as GitHub Actions sets it,
hypothesis runs its ``ci`` profile: examples are drawn from a fixed seed, so
a failure there repeats on every rerun, and a failing example is printed
with the blob that reproduces it. Local runs draw new examples each time.

``table_reports`` solves the paper's 32 table runs once per session, for
the tests that only read their reports.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

from feasib.instances import solve_config, table_config, table_reference

HERE = Path(__file__).resolve().parent

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def table_reports():
    """Fresh ``solve_config`` reports of the 32 table runs, keyed by ``(table,
    instance, solver)`` in the tables' order. Tests must not change them."""
    return {
        (which, label, solver): solve_config(table_config(which, label, solver))
        for which in (1, 2)
        for label, row in table_reference(which).items()
        for solver in row
    }


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
