"""Every name a module exports exists: a deletion cannot leave an export behind."""

import importlib
import pkgutil

import pytest

import halfcos

MODULES = [info.name for info in pkgutil.iter_modules(halfcos.__path__, "halfcos.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
