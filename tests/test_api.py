"""The public names: every __all__ entry and every package export resolves."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import diskfold

from conftest import HEX_FLAT

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
    ("solver", "curvature_flow", "max_halvings", "MAX_HALVINGS", 30),
]


@pytest.mark.parametrize("module, function, keyword, constant, value", _CONSTANTS)
def test_one_value_settings_are_constants(module, function, keyword, constant, value):
    mod = importlib.import_module(f"diskfold.{module}")
    assert keyword not in inspect.signature(getattr(mod, function)).parameters
    assert getattr(mod, constant) == value


def test_one_name_per_thing():
    from diskfold.layout import BoundaryReport

    cs = diskfold.build("hex_tangent")
    aug = cs.complex
    assert not hasattr(aug, "vertex_order") and not hasattr(cs.system, "vertex_order")
    assert "tol" not in {f.name for f in dataclasses.fields(BoundaryReport)}


#: Every entry that takes a structure, with its parameters: the structure
#: comes first and carries the complex, so none takes a complex beside it
_STRUCTURE_ENTRIES = {
    "default_start": ["cs"],
    "newton_flat": ["cs", "f0", "tol", "max_iter", "svd_cutoff"],
    "curvature_flow": ["cs", "f0", "t_end", "dt"],
    "layout_disk": ["cs", "f", "traversal"],
    "layout_augmented": ["cs", "f", "traversal"],
    "measure_equivalence_check": ["cs", "f"],
    "AngleSystem": ["cs"],
}

#: Every entry of the output stage, with its parameters: the layout comes
#: first and carries its structure, label and realization, so none takes
#: them beside it
_LAYOUT_ENTRIES = {
    "realize_mpoints": ["layout"],
    "normalize_to_unit_disk": ["layout"],
    "render_svg": ["layout", "size"],
    "mobius_orbit_check": ["layout", "generator", "eps"],
    "constraint_matrix": ["layout"],
    "row_rank_certificate": ["layout", "cutoff"],
    "layout_edge_error": ["layout"],
    "layout_point_multiplicity": ["layout", "mu", "point"],
}

#: Every entry of the multiplicity layer, with its parameters: the
#: assignment comes first and carries its complex, so none takes one
#: beside it
_MULTIPLICITY_ENTRIES = {
    "measure_curvatures": ["mu", "angles"],
    "measure_curvature": ["mu", "angles", "vertex"],
    "valuation_defect": ["mu", "angles", "vertex", "A", "B"],
    "pointwise_multiplicity": ["mu", "simplex"],
}


@pytest.mark.parametrize("name", sorted(_STRUCTURE_ENTRIES))
def test_structure_entries_take_no_complex(name):
    params = inspect.signature(getattr(diskfold, name)).parameters.values()
    assert [p.name for p in params] == _STRUCTURE_ENTRIES[name]
    assert not any("Disk" in str(p.annotation) for p in params)


@pytest.mark.parametrize("name", sorted(_LAYOUT_ENTRIES))
def test_layout_entries_take_the_layout_alone(name):
    params = list(inspect.signature(getattr(diskfold, name)).parameters.values())
    assert [p.name for p in params] == _LAYOUT_ENTRIES[name]
    assert params[0].annotation == "PlaneLayout"


@pytest.mark.parametrize("name", sorted(_MULTIPLICITY_ENTRIES))
def test_multiplicity_entries_take_the_assignment_alone(name):
    params = list(inspect.signature(getattr(diskfold, name)).parameters.values())
    assert [p.name for p in params] == _MULTIPLICITY_ENTRIES[name]
    assert params[0].annotation == "MultiplicityAssignment"
    assert not any("Disk" in str(p.annotation) for p in params)


def test_an_assignment_carries_its_complex():
    assert not hasattr(diskfold.complexes, "_require_on") and not hasattr(diskfold.measures, "_require_on")
    aug = diskfold.build("hex_tangent").complex
    mu = diskfold.standard_multiplicities(aug)
    assert mu.complex is aug
    with pytest.raises(TypeError):
        diskfold.pointwise_multiplicity(aug, mu, (0,))  # the old form: one argument too many


def test_a_layout_carries_its_label():
    assert not hasattr(diskfold, "normalize_layout") and not hasattr(diskfold.layout, "normalize_layout")
    assert not hasattr(diskfold, "UnitDiskRealization") and not hasattr(diskfold.layout, "UnitDiskRealization")
    assert not hasattr(diskfold.PlaneLayout, "diameter")
    fields = [f.name for f in dataclasses.fields(diskfold.PlaneLayout)]
    assert fields[:2] == ["cs", "label"]
    cs = diskfold.build("hex_tangent")
    lay = diskfold.layout_augmented(cs, HEX_FLAT["hex_tangent"])
    assert lay.cs is cs
    for name in ("label", "positions", "mpoints"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(lay, name)[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lay, name, None)


def test_the_minkowski_layer_is_in_rows():
    m = diskfold.minkowski
    assert sorted(m.__all__) == sorted(
        ["MPoint", "ImproperVectorError", "InfinitesimalMobius", "mprod", "canonical_lift", "project",
         "infinitesimal_generator", "induced_label_variation"]
    )
    for gone in ("WeightedPoint", "LorentzMap", "apply_lorentz", "intersection_angle", "UNIT_CIRCLE", "METRIC_SIGNS"):
        assert not hasattr(m, gone) and not hasattr(diskfold, gone)
    assert not any(hasattr(m.MPoint, name) for name in ("is_proper", "scaled"))
    assert m.MPoint.__eq__ is object.__eq__ and m.MPoint.__hash__ is object.__hash__
    xi = m.canonical_lift(np.zeros((3, 2)), np.ones(3))
    assert xi.shape == (3, 4) and m.mprod(xi, xi).shape == (3,)
    P, W = m.project(xi)
    assert P.shape == (3, 2) and W.shape == (3,)
    assert m.infinitesimal_generator(m.InfinitesimalMobius(), 0.1).shape == (4, 4)


def test_the_structure_is_the_problem():
    from diskfold.complexes import _Indexed

    assert not hasattr(diskfold.ConformalStructure, "system_for")
    assert not hasattr(diskfold.ConformalStructure, "validate_for")
    assert not hasattr(_Indexed, "label_dict")
    assert [f.name for f in dataclasses.fields(diskfold.Problem)] == ["cs", "f_init"]
    prob = diskfold.parse_problem(diskfold.preset("hex_tangent"))
    assert prob.aug is prob.cs.complex and isinstance(prob.aug, diskfold.AugmentedDisk)
    with pytest.raises(AttributeError):
        prob.aug = prob.aug


def test_readme_library_example_runs():
    """The first python block of README.md, the Library snippet, runs as written."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
