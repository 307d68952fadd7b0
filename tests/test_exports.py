"""Public names: every name a module exports resolves, so a deleted
function cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import rgess

MODULES = ["rgess"] + [f"rgess.{m.name}" for m in pkgutil.iter_modules(rgess.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from rgess import *", namespace)
    assert set(rgess.__all__) <= namespace.keys()
