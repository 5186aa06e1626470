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
    newton_flat,
    normalize_to_unit_disk,
    project,
    realize_mpoints,
    verify_boundary_condition,
)
from diskfold.complexes import edge_key
from diskfold.layout import _develop, _third_point, normalize_layout
from diskfold.minkowski import canonical_lift
from diskfold.presets import SCENARIOS, build, hex_flower, scenario_data, triangle_disk

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


# -- array passes against the per-element code they replaced -----------


def _realize_per_vertex(aug, cs, f, layout):
    """realize_mpoints as a loop over vertices: the reference."""
    farr = aug.label_array(f)
    out = {}
    for i, v in enumerate(aug.vertices):
        w = cs.alpha[v] * np.exp(2.0 * farr[i])
        out[v] = canonical_lift(layout.positions[v], w).scaled(float(np.exp(-farr[i])))
    return out


def _residual_per_corner(ix, lengths, positions):
    """The consistency residual as one _third_point call per corner."""
    F, FE = ix.F.tolist(), ix.FE.tolist()
    area_sign = (-ix.fold_sign).tolist()
    residual = 0.0
    for fi, f in enumerate(F):
        for c in range(3):
            a, b = (c + 1) % 3, (c + 2) % 3
            la, lb = lengths[FE[fi][b]], lengths[FE[fi][a]]
            p = _third_point(positions[f[a]], positions[f[b]], la, lb, area_sign[fi])
            residual = max(residual, float(np.linalg.norm(p - positions[f[c]])))
    return residual


_FLAT_CASES = [(f"hex_{s}", 2, s) for s in SCENARIOS]
_FLAT_CASES += [("ring_lattice", n, s) for n in (2, 4) for s in SCENARIOS]


@pytest.fixture(scope="module", params=_FLAT_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def flat_case(request):
    name, rings, scenario = request.param
    aug, cs = build(name, n_rings=rings, scenario=scenario)
    if name.startswith("hex_"):
        return aug, cs, HEX_FLAT[name]
    res = newton_flat(aug, cs)
    assert res.converged
    return aug, cs, res.f


def _same_bits(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(a[v].xi.tobytes() == b[v].xi.tobytes() for v in a)


@pytest.mark.parametrize("shift", [0.0, 0.37, -2.5])
def test_realize_mpoints_matches_per_vertex_lift(flat_case, shift):
    aug, cs, f = flat_case
    f = f + shift
    for traversal in ("bfs", "dfs"):
        lay = layout_augmented(aug, cs, f, traversal=traversal)
        assert _same_bits(realize_mpoints(aug, cs, f, lay), _realize_per_vertex(aug, cs, f, lay))
        norm = normalize_to_unit_disk(aug, cs, f, lay)
        assert _same_bits(norm.mpoints, _realize_per_vertex(aug, cs, norm.label, norm.layout))
        nlay, nf = normalize_layout(aug, f, lay)
        assert nlay.positions.keys() == norm.layout.positions.keys()
        assert all(np.array_equal(nlay.positions[v], norm.layout.positions[v]) for v in nlay.positions)
        assert np.array_equal(nf, norm.label)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("shift", [400.0, 750.0, -750.0])
def test_realize_mpoints_raises_the_per_vertex_error(shift):
    # exp overflows or underflows at these labels; the first vertex the
    # loop rejects decides the message
    aug, cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"]
    lay = layout_augmented(aug, cs, f)
    f = f + shift
    with pytest.raises(ValueError) as want:
        _realize_per_vertex(aug, cs, f, lay)
    with pytest.raises(ValueError) as got:
        realize_mpoints(aug, cs, f, lay)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_realized_mpoints_are_read_only(flat_case):
    aug, cs, f = flat_case
    mp = realize_mpoints(aug, cs, f, layout_augmented(aug, cs, f))
    with pytest.raises(ValueError):
        mp[aug.apex].xi[0] = 1.0


@pytest.mark.parametrize("traversal", ["bfs", "dfs"])
def test_residual_matches_per_corner_loop(flat_case, traversal):
    aug, cs, f = flat_case
    lengths = AngleSystem(aug, cs).evaluate(f).lengths.tolist()
    for start in (0, aug.n_disk_faces):
        positions, residual = _develop(aug.compiled, lengths, start, traversal)
        assert residual == _residual_per_corner(aug.compiled, lengths, positions)
    # off the flat label the faces disagree and the residual is large
    lengths = AngleSystem(aug, cs).evaluate(f + 0.01 * np.arange(len(f)) / len(f)).lengths.tolist()
    positions, residual = _develop(aug.compiled, lengths, 0, traversal)
    assert residual == _residual_per_corner(aug.compiled, lengths, positions)
