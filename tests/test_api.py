"""The public names: every __all__ entry and every package export resolves."""

import ast
import dataclasses
import importlib
import inspect
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


#: (module, function, removed keyword, constant, value): each setting that
#: had one value in use is a module constant with that value
_CONSTANTS = [
    ("layout", "layout_disk", "flat_tol", "FLAT_TOL", 1e-8),
    ("layout", "layout_augmented", "flat_tol", "FLAT_TOL", 1e-8),
    ("layout", "verify_boundary_condition", "tol", "BOUNDARY_TOL", 1e-9),
    ("measures", "layout_point_multiplicity", "tol", "POINT_TOL", 1e-9),
    ("svg", "render_svg", "margin", "MARGIN", 0.06),
    ("presets", "random_admissible", "max_tries", "MAX_TRIES", 1000),
    ("solver", "newton_flat", "max_backtracks", "MAX_BACKTRACKS", 40),
]


@pytest.mark.parametrize("module, function, keyword, constant, value", _CONSTANTS)
def test_one_value_settings_are_constants(module, function, keyword, constant, value):
    mod = importlib.import_module(f"diskfold.{module}")
    assert keyword not in inspect.signature(getattr(mod, function)).parameters
    assert getattr(mod, constant) == value


def test_one_name_per_thing():
    from diskfold.layout import BoundaryReport

    aug, cs = diskfold.build("hex_tangent")
    assert not hasattr(aug, "vertex_order") and not hasattr(cs.system, "vertex_order")
    assert "tol" not in {f.name for f in dataclasses.fields(BoundaryReport)}


def test_readme_library_example_runs():
    """The first python block of README.md, the Library snippet, runs as written."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
