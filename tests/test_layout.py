"""Plane development, M-point realization and boundary verification."""

import numpy as np
import pytest

from diskfold import (
    AngleSystem,
    LayoutError,
    attach_boundary_data,
    augment,
    layout_augmented,
    layout_disk,
    layout_edge_error,
    mprod,
    normalize_to_unit_disk,
    project,
    realize_mpoints,
    verify_boundary_condition,
)
from diskfold.complexes import edge_key
from diskfold.presets import build, hex_flower, scenario_data, triangle_disk

from conftest import HEX_FLAT


def _signed_area(p, q, r):
    return 0.5 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


def test_layout_reproduces_lengths():
    aug, cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"]
    lay = layout_augmented(aug, cs, f)
    assert lay.consistency_residual <= 1e-12
    assert layout_edge_error(aug, lay) <= 1e-12


def test_fold_orientation():
    """Disk faces develop with positive area, apex faces with negative."""
    aug, cs = build("hex_tangent")
    lay = layout_augmented(aug, cs, HEX_FLAT["hex_tangent"])
    pos = lay.positions
    for i, face in enumerate(aug.faces):
        area = _signed_area(pos[face[0]], pos[face[1]], pos[face[2]])
        if i < aug.n_disk_faces:
            assert area > 0
        else:
            assert area < 0


def test_bfs_and_dfs_agree():
    aug, cs = build("hex_orthogonal")
    f = HEX_FLAT["hex_orthogonal"]
    a = layout_augmented(aug, cs, f, traversal="bfs")
    b = layout_augmented(aug, cs, f, traversal="dfs")
    assert a.traversal == "bfs" and b.traversal == "dfs"
    dev = max(
        float(np.hypot(*(np.asarray(a.positions[v]) - b.positions[v])))
        for v in aug.vertex_order
    )
    assert dev <= 1e-9 * max(1.0, a.diameter())


def test_unknown_traversal_rejected():
    aug, cs = build("hex_tangent")
    with pytest.raises(ValueError):
        layout_augmented(aug, cs, HEX_FLAT["hex_tangent"], traversal="walk")


def test_non_flat_label_rejected():
    aug, cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"].copy()
    f[0] += 0.05
    with pytest.raises(LayoutError):
        layout_augmented(aug, cs, f)


def test_disk_only_layout():
    """The disk sheet can be developed alone when its interior is flat."""
    disk = hex_flower()
    aug = augment(disk)
    alpha, eta, mu = scenario_data(disk, "tangent")
    cs = attach_boundary_data(aug, alpha, eta, mu)
    f_disk = {v: np.log(1.0 / 3.0) for v in disk.vertices}
    lay = layout_disk(disk, cs, f_disk)
    assert lay.consistency_residual <= 1e-12
    assert layout_edge_error(disk, lay) <= 1e-12
    # regular hexagon around the center circle
    center = np.asarray(lay.positions[0])
    for v in disk.boundary_cycle:
        d = np.hypot(*(np.asarray(lay.positions[v]) - center))
        assert d == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_realized_products_reproduce_structure():
    aug, cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"]
    lay = layout_augmented(aug, cs, f)
    mp = realize_mpoints(aug, cs, f, lay)
    for v in aug.vertex_order:
        got = mprod(mp[v].xi, mp[v].xi)
        assert got == pytest.approx(cs.alpha[v], abs=1e-12)
    for e in aug.edges:
        got = -mprod(mp[e[0]].xi, mp[e[1]].xi)
        assert got == pytest.approx(cs.eta[edge_key(*e)], abs=1e-12)


def test_normalization_sends_apex_to_unit_circle():
    aug, cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"] + 0.37  # arbitrary global scale
    lay = layout_augmented(aug, cs, f)
    reali = normalize_to_unit_disk(aug, cs, f, lay)
    assert layout_edge_error(aug, reali.layout) <= 1e-12
    apex_wp = project(reali.mpoints[aug.apex])
    assert apex_wp.x == pytest.approx(0.0, abs=1e-12)
    assert apex_wp.y == pytest.approx(0.0, abs=1e-12)
    assert apex_wp.W == pytest.approx(1.0, abs=1e-12)
    assert reali.label[-1] == pytest.approx(0.0, abs=1e-14)


def test_boundary_reports():
    cases = {
        "hex_tangent": "tangent",
        "hex_orthogonal": "orthogonal",
        "hex_inscribed": "inscribed",
    }
    reals = {}
    for name, scenario in cases.items():
        aug, cs = build(name)
        f = HEX_FLAT[name]
        lay = layout_augmented(aug, cs, f)
        reali = normalize_to_unit_disk(aug, cs, f, lay)
        reals[scenario] = (aug, reali)
        rep = verify_boundary_condition(aug, reali.mpoints, scenario)
        assert rep.scenario == scenario
        assert rep.passed
        assert rep.max_residual <= 1e-12
        assert set(rep.residuals) == set(aug.disk.boundary_cycle)


def test_boundary_report_true_negatives():
    # inscribed realizations satisfy tangency and orthogonality
    # degenerately (a point on the circle is a radius-0 tangent circle),
    # so only these four cross pairs are genuine mismatches
    mismatches = [
        ("hex_tangent", "orthogonal"),
        ("hex_tangent", "inscribed"),
        ("hex_orthogonal", "tangent"),
        ("hex_orthogonal", "inscribed"),
    ]
    for name, wrong in mismatches:
        aug, cs = build(name)
        f = HEX_FLAT[name]
        lay = layout_augmented(aug, cs, f)
        reali = normalize_to_unit_disk(aug, cs, f, lay)
        rep = verify_boundary_condition(aug, reali.mpoints, wrong)
        assert not rep.passed
        assert rep.max_residual > 0.1


def test_boundary_geometry_tangent():
    """Boundary circles touch the unit circle from inside."""
    aug, cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"]
    lay = layout_augmented(aug, cs, f)
    reali = normalize_to_unit_disk(aug, cs, f, lay)
    for v in aug.disk.boundary_cycle:
        wp = project(reali.mpoints[v])
        assert np.hypot(wp.x, wp.y) + wp.radius == pytest.approx(1.0, abs=1e-12)


def test_boundary_geometry_inscribed():
    aug, cs = build("hex_inscribed")
    f = HEX_FLAT["hex_inscribed"]
    lay = layout_augmented(aug, cs, f)
    reali = normalize_to_unit_disk(aug, cs, f, lay)
    for v in aug.disk.boundary_cycle:
        wp = project(reali.mpoints[v])
        assert np.hypot(wp.x, wp.y) == pytest.approx(1.0, abs=1e-12)
        assert wp.W == pytest.approx(0.0, abs=1e-12)


def test_triangle_apex_realization():
    disk = triangle_disk()
    aug = augment(disk)
    cs = attach_boundary_data(aug, *scenario_data(disk, "inscribed"))
    f = np.array([0.5 * np.log(3.0)] * 3 + [0.0])
    lay = layout_augmented(aug, cs, f)
    reali = normalize_to_unit_disk(aug, cs, f, lay)
    rep = verify_boundary_condition(aug, reali.mpoints, "inscribed")
    assert rep.passed
    # boundary points form an equilateral triangle of side sqrt(3)
    pts = [project(reali.mpoints[v]).p for v in disk.boundary_cycle]
    for i in range(3):
        d = np.hypot(*(pts[i] - pts[(i + 1) % 3]))
        assert d == pytest.approx(np.sqrt(3.0), abs=1e-12)
