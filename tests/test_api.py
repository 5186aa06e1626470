"""The public names: every __all__ entry and every package export resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import diskfold

MODULES = sorted(m.name for m in pkgutil.iter_modules(diskfold.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"diskfold.{name}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), "duplicate __all__ entries"
    missing = [n for n in names if not hasattr(mod, n)]
    assert not missing, f"diskfold.{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from diskfold.{name} import *", {})


def test_package_imports_are_public_names():
    """Every name diskfold/__init__.py takes from a module is in its __all__."""
    tree = ast.parse(Path(diskfold.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"diskfold.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{alias.name} is not in diskfold.{node.module}.__all__"
            assert getattr(diskfold, alias.name) is getattr(mod, alias.name)
