"""Every name a module exports exists, and every name the package imports
from a module is exported by it: a deletion cannot leave an export behind."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import halfcos

MODULES = [info.name for info in pkgutil.iter_modules(halfcos.__path__, "halfcos.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_corpus_submodule_is_not_shadowed_by_a_function():
    import halfcos.corpus as c

    assert c.get_member("kink1").name == "kink1"


def test_every_package_import_is_exported_by_its_submodule():
    tree = ast.parse(inspect.getsource(halfcos))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"halfcos.{node.module}")
            exported = getattr(module, "__all__", ())
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert not missing, f"halfcos/__init__.py imports names outside their module's __all__: {missing}"


def test_library_stays_within_its_line_budget():
    # ROADMAP item 8 caps src/halfcos at 3,300 lines, counted as wc -l does
    lines = sum(path.read_bytes().count(b"\n") for path in Path(halfcos.__file__).parent.glob("*.py"))
    assert lines <= 3300, f"src/halfcos holds {lines} lines, over the 3,300 of ROADMAP item 8"
