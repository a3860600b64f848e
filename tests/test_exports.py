"""Every name a module exports must exist in it."""

import importlib
import pkgutil

import pytest

import cuq

MODULES = ["cuq"] + [f"cuq.{m.name}"
                     for m in pkgutil.iter_modules(cuq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
