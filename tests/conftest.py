"""Every warning raised by a test of this directory fails it.

The filter is added as each test's first ``filterwarnings`` mark, the one
of lowest precedence, so a mark the test carries still overrides it. Tests
outside this directory keep their own settings.

Where the ``CI`` environment variable is set, as GitHub Actions sets it,
hypothesis runs its ``ci`` profile: examples are drawn from a fixed seed, so
a failure there repeats on every rerun, and a failing example is printed
with the blob that reproduces it. Local runs draw new examples each time.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

HERE = Path(__file__).resolve().parent

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
