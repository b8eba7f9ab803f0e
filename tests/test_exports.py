"""Every exported name resolves: no export outlives its definition."""
import importlib
import pkgutil

import pytest

import swingquant

MODULES = ["swingquant", *(f"swingquant.{m.name}"
                           for m in pkgutil.iter_modules(swingquant.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
