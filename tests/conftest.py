"""Every warning raised by a test of this directory fails it.

The filter is added as each test's first ``filterwarnings`` mark, the one
of lowest precedence, so a mark the test carries still overrides it. Tests
outside this directory keep their own settings.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
