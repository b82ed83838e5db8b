"""Every exported name resolves: each name in the ``__all__`` of ``feasib``
and of each of its modules is an attribute of that module."""

import importlib
import pkgutil

import pytest

import feasib

SUBMODULES = [f"feasib.{m.name}" for m in pkgutil.iter_modules(feasib.__path__)]


@pytest.mark.parametrize("name", ["feasib", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
