"""Every name in the package's __all__ and in each module's __all__ resolves:
tooling that wraps the public functions looks each one up by name."""

import importlib
import pkgutil

import pytest

import zetalab

MODULES = [
    name
    for name in ["zetalab"] + [f"zetalab.{m.name}" for m in pkgutil.iter_modules(zetalab.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [e for e in module.__all__ if not hasattr(module, e)] == []
