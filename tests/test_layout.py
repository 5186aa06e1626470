"""Plane development, M-point realization and boundary verification."""

import dataclasses
from collections import deque

import numpy as np
import pytest

from diskfold import (
    AngleSystem,
    ConformalStructure,
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
from diskfold.layout import _develop
from diskfold.minkowski import ImproperVectorError, MPoint
from diskfold.presets import SCENARIOS, build, hex_flower, scenario_data, triangle_disk

from conftest import HEX_FLAT


def _signed_area(p, q, r):
    return 0.5 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


def test_layout_reproduces_lengths():
    cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"]
    lay = layout_augmented(cs, f)
    assert lay.consistency_residual <= 1e-12
    assert layout_edge_error(lay) <= 1e-12


def test_fold_orientation():
    """Disk faces develop with positive area, apex faces with negative."""
    cs = build("hex_tangent")
    aug = cs.complex
    lay = layout_augmented(cs, HEX_FLAT["hex_tangent"])
    ix = aug.vertex_index
    for i, face in enumerate(aug.faces):
        area = _signed_area(*(lay.positions[ix[v]] for v in face))
        if i < aug.n_disk_faces:
            assert area > 0
        else:
            assert area < 0


def test_bfs_and_dfs_agree():
    cs = build("hex_orthogonal")
    f = HEX_FLAT["hex_orthogonal"]
    a = layout_augmented(cs, f, traversal="bfs")
    b = layout_augmented(cs, f, traversal="dfs")
    assert a.traversal == "bfs" and b.traversal == "dfs"
    dev = float(np.max(np.hypot(*(a.positions - b.positions).T)))
    P = a.positions
    diameter = float(np.max(np.hypot(*(P[:, None] - P[None]).T)))
    assert dev <= 1e-9 * max(1.0, diameter)


def test_unknown_traversal_rejected():
    cs = build("hex_tangent")
    with pytest.raises(ValueError):
        layout_augmented(cs, HEX_FLAT["hex_tangent"], traversal="walk")


def test_non_flat_label_rejected():
    cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"].copy()
    f[0] += 0.05
    with pytest.raises(LayoutError):
        layout_augmented(cs, f)


def test_disk_only_layout_rejects_a_curved_interior():
    # only the interior vertex counts: the boundary's curvature is not 0
    # on a plain disk, and the flat label below develops
    disk = hex_flower()
    aug = augment(disk)
    cs = attach_boundary_data(aug, *scenario_data(disk, "tangent"))
    f_disk = {v: np.log(1.0 / 3.0) for v in disk.vertices}
    f_disk[0] += 0.05
    with pytest.raises(LayoutError, match="^interior curvature"):
        layout_disk(ConformalStructure.on(disk, cs.alpha, cs.eta), f_disk)


def test_disk_only_layout():
    """The disk sheet can be developed alone when its interior is flat."""
    disk = hex_flower()
    aug = augment(disk)
    alpha, eta, mu = scenario_data(disk, "tangent")
    cs = attach_boundary_data(aug, alpha, eta, mu)
    f_disk = {v: np.log(1.0 / 3.0) for v in disk.vertices}
    # the augmented structure serves only aug; its values go to the disk by id
    lay = layout_disk(ConformalStructure.on(disk, cs.alpha, cs.eta), f_disk)
    assert lay.consistency_residual <= 1e-12
    assert layout_edge_error(lay) <= 1e-12
    # regular hexagon around the center circle
    ix = disk.vertex_index
    center = lay.positions[ix[0]]
    for v in disk.boundary_cycle:
        d = np.hypot(*(lay.positions[ix[v]] - center))
        assert d == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_realized_products_reproduce_structure():
    cs = build("hex_tangent")
    aug = cs.complex
    f = HEX_FLAT["hex_tangent"]
    mp, ix = realize_mpoints(layout_augmented(cs, f)), aug.vertex_index
    assert mp.shape == (len(aug.vertices), 4)
    for v in aug.vertices:
        got = mprod(mp[ix[v]], mp[ix[v]])
        assert got == pytest.approx(cs.alpha[v], abs=1e-12)
    for e in aug.edges:
        got = -mprod(mp[ix[e[0]]], mp[ix[e[1]]])
        assert got == pytest.approx(cs.eta[edge_key(*e)], abs=1e-12)


def test_normalization_sends_apex_to_unit_circle():
    cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"] + 0.37  # arbitrary global scale
    reali = normalize_to_unit_disk(layout_augmented(cs, f))
    assert layout_edge_error(reali) <= 1e-12
    P, W = project(reali.mpoints[-1])
    assert P[0] == pytest.approx(0.0, abs=1e-12)
    assert P[1] == pytest.approx(0.0, abs=1e-12)
    assert W == pytest.approx(1.0, abs=1e-12)
    assert reali.label[-1] == pytest.approx(0.0, abs=1e-14)


def test_boundary_reports():
    cases = {
        "hex_tangent": "tangent",
        "hex_orthogonal": "orthogonal",
        "hex_inscribed": "inscribed",
    }
    reals = {}
    for name, scenario in cases.items():
        cs = build(name)
        aug = cs.complex
        f = HEX_FLAT[name]
        reali = normalize_to_unit_disk(layout_augmented(cs, f))
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
        cs = build(name)
        aug = cs.complex
        f = HEX_FLAT[name]
        reali = normalize_to_unit_disk(layout_augmented(cs, f))
        rep = verify_boundary_condition(aug, reali.mpoints, wrong)
        assert not rep.passed
        assert rep.max_residual > 0.1


def test_boundary_geometry_tangent():
    """Boundary circles touch the unit circle from inside."""
    cs = build("hex_tangent")
    aug = cs.complex
    f = HEX_FLAT["hex_tangent"]
    reali = normalize_to_unit_disk(layout_augmented(cs, f))
    P, W = project(reali.mpoints[[aug.vertex_index[v] for v in aug.disk.boundary_cycle]])
    assert np.hypot(*P.T) + np.sqrt(W) == pytest.approx(np.ones(len(W)), abs=1e-12)


def test_boundary_geometry_inscribed():
    cs = build("hex_inscribed")
    aug = cs.complex
    f = HEX_FLAT["hex_inscribed"]
    reali = normalize_to_unit_disk(layout_augmented(cs, f))
    P, W = project(reali.mpoints[[aug.vertex_index[v] for v in aug.disk.boundary_cycle]])
    assert np.hypot(*P.T) == pytest.approx(np.ones(len(W)), abs=1e-12)
    assert W == pytest.approx(np.zeros(len(W)), abs=1e-12)


def test_triangle_apex_realization():
    disk = triangle_disk()
    aug = augment(disk)
    cs = attach_boundary_data(aug, *scenario_data(disk, "inscribed"))
    f = np.array([0.5 * np.log(3.0)] * 3 + [0.0])
    reali = normalize_to_unit_disk(layout_augmented(cs, f))
    rep = verify_boundary_condition(aug, reali.mpoints, "inscribed")
    assert rep.passed
    # boundary points form an equilateral triangle of side sqrt(3)
    pts, _ = project(reali.mpoints[[aug.vertex_index[v] for v in disk.boundary_cycle]])
    for i in range(3):
        d = np.hypot(*(pts[i] - pts[(i + 1) % 3]))
        assert d == pytest.approx(np.sqrt(3.0), abs=1e-12)


# -- array passes against the per-element code they replaced -----------


def _realize_per_vertex(aug, cs, f, layout):
    """realize_mpoints as a loop over vertices, each lift checked by
    MPoint before and after its scaling: the reference."""
    farr = aug.label_array(f)
    out = []
    for i, v in enumerate(aug.vertices):
        p, w = layout.positions[i], cs.alpha[v] * np.exp(2.0 * farr[i])
        q = float(p @ p)
        lift = MPoint([p[0], p[1], (q - w - 1.0) / 2.0, (q - w + 1.0) / 2.0])
        s = float(np.exp(-farr[i]))
        if s <= 0:
            raise ValueError("scale factor must be positive")
        out.append(MPoint(s * lift.xi).xi)
    return np.array(out)


def _third_point(pa, pb, la, lb, orient):
    """Point at distance la from pa and lb from pb, on the side ``orient``."""
    ab = pb - pa
    d2 = float(ab @ ab)
    d = np.sqrt(d2)
    x = (d2 + la * la - lb * lb) / (2.0 * d)
    h2 = la * la - x * x
    h = np.sqrt(max(h2, 0.0))
    u = ab / d
    perp = np.array([-u[1], u[0]])
    return pa + x * u + orient * h * perp


#: For a corner c: the other two corners a, b in face order, and +1 when
#: (a, b, c) is an even permutation of the face.
_OTHER_CORNERS = ((1, 2, 1.0), (0, 2, -1.0), (0, 1, 1.0))


def _develop_sequential(ix, lengths, start, traversal):
    """The development as one _third_point call per new vertex, placed
    as the walk reaches it: the reference for layout._develop.  Returns
    the (n, 2) positions."""
    F, FE, faces_of = ix.F.tolist(), ix.FE.tolist(), ix.edge_faces.tolist()
    area_sign = (-ix.fold_sign).tolist()

    P = np.zeros((len(ix.const), 2))
    placed = [False] * len(P)
    i0, i1, i2 = F[start]
    se = FE[start]
    P[i1, 0] = lengths[se[2]]
    P[i2] = _third_point(P[i0], P[i1], lengths[se[1]], lengths[se[0]], area_sign[start])
    placed[i0] = placed[i1] = placed[i2] = True
    queue = deque([start])
    visited = {start}
    while queue:
        fi = queue.popleft() if traversal == "bfs" else queue.pop()
        side = FE[fi]
        # the sides (f0, f1), (f1, f2), (f2, f0), opposite corners 2, 0, 1
        for e in (side[2], side[0], side[1]):
            for fj in faces_of[e]:
                if fj < 0 or fj in visited:
                    continue
                g = F[fj]
                missing = [c for c in range(3) if not placed[g[c]]]
                # the side fj shares with fi has both ends placed
                assert len(missing) <= 1
                visited.add(fj)
                if missing:
                    ca, cb, parity = _OTHER_CORNERS[missing[0]]
                    # the side from a to the new corner lies opposite b
                    la = lengths[FE[fj][cb]]
                    lb = lengths[FE[fj][ca]]
                    orient = area_sign[fj] * parity
                    P[g[missing[0]]] = _third_point(P[g[ca]], P[g[cb]], la, lb, orient)
                    placed[g[missing[0]]] = True
                queue.append(fj)
    assert len(visited) == len(F)
    return P


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
    cs = build(name, n_rings=rings, scenario=scenario)
    aug = cs.complex
    if name.startswith("hex_"):
        return aug, cs, HEX_FLAT[name]
    res = newton_flat(cs)
    assert res.converged
    return aug, cs, res.f


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # byte equality: np.array_equal would let -0.0 stand for 0.0
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shift", [0.0, 0.37, -2.5])
def test_realize_mpoints_matches_per_vertex_lift(flat_case, shift):
    aug, cs, f = flat_case
    f = f + shift
    for traversal in ("bfs", "dfs"):
        lay = layout_augmented(cs, f, traversal=traversal)
        assert _same_bits(lay.label, aug.label_array(f))
        assert _same_bits(realize_mpoints(lay), _realize_per_vertex(aug, cs, f, lay))
        norm = normalize_to_unit_disk(lay)
        assert _same_bits(norm.mpoints, _realize_per_vertex(aug, cs, norm.label, norm))
        # the apex to the origin, the plane scaled by e^{-f(apex)}, f(apex) to 0
        s = float(np.exp(-lay.label[-1]))
        assert _same_bits(norm.positions, s * (lay.positions - lay.positions[-1]))
        assert _same_bits(norm.lengths, s * lay.lengths)
        assert _same_bits(norm.label, lay.label - lay.label[-1])
        assert norm.consistency_residual == s * lay.consistency_residual
        assert (norm.cs, norm.traversal) == (lay.cs, lay.traversal)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("shift", [400.0, 744.0, 746.0, 750.0, -750.0])
def test_realize_mpoints_raises_the_per_vertex_error(shift):
    # exp overflows or underflows at these labels, which no development
    # reaches, so the layout gets its label by hand; the first vertex the
    # loop rejects decides the message.  At 744 and 746 the scale e^{-f}
    # is subnormal or 0, but alpha e^{2f} has already overflowed
    cs = build("hex_tangent")
    aug = cs.complex
    f = HEX_FLAT["hex_tangent"] + shift
    lay = dataclasses.replace(layout_augmented(cs, HEX_FLAT["hex_tangent"]), label=f)
    with pytest.raises(ValueError) as want:
        _realize_per_vertex(aug, cs, f, lay)
    with pytest.raises(ValueError) as got:
        realize_mpoints(lay)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_realized_mpoints_are_read_only(flat_case):
    aug, cs, f = flat_case
    lay = layout_augmented(cs, f)
    for a in (lay.label, lay.positions, lay.lengths, lay.mpoints, normalize_to_unit_disk(lay).label):
        with pytest.raises(ValueError):
            a[-1] = 1.0
    assert lay.mpoints is lay.mpoints


def _project_one(xi):
    """The center and weight of one vector, term for term."""
    d = xi[3] - xi[2]
    if d <= 0.0:
        raise ImproperVectorError(f"vector is not in R^4_perp: xi4 - xi3 = {float(d)!r} must be positive")
    return xi[:2] / d, (xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2] - xi[3] * xi[3]) / (d * d)


def _verify_per_vertex(aug, mpoints, scenario, tol=1e-9):
    """verify_boundary_condition's residuals, one projection per vertex
    of a mapping vertex -> MPoint: the reference."""
    p_hat, w_hat = _project_one(mpoints[aug.apex].xi)
    r_hat = float(np.sqrt(w_hat))
    residuals = {}
    for v in aug.disk.boundary_cycle:
        p, w = _project_one(mpoints[v].xi)
        dist = float(np.linalg.norm(p - p_hat))
        if scenario == "tangent":
            if w < -tol:
                residuals[v] = float("inf")
            else:
                residuals[v] = abs(dist + np.sqrt(max(w, 0.0)) - r_hat)
        elif scenario == "orthogonal":
            residuals[v] = abs(dist * dist - r_hat * r_hat - w)
        else:
            residuals[v] = abs(dist - r_hat)
    return residuals


_VERIFY_CASES = [(f"hex_{s}", 2, s) for s in SCENARIOS]
_VERIFY_CASES += [("ring_lattice", n, s) for n in (1, 2, 4, 8) for s in SCENARIOS]


@pytest.mark.parametrize("name, rings, scenario", _VERIFY_CASES)
def test_boundary_check_matches_per_vertex_loop(name, rings, scenario):
    cs = build(name, n_rings=rings, scenario=scenario)
    aug = cs.complex
    f = HEX_FLAT[name] if name.startswith("hex_") else newton_flat(cs).f
    lay = layout_augmented(cs, f)
    # the normalized realization and one whose apex circle is not the unit circle
    for xi in (normalize_to_unit_disk(lay).mpoints, layout_augmented(cs, f + 0.37).mpoints):
        mapping = {v: MPoint(xi[i]) for i, v in enumerate(aug.vertices)}
        for check in SCENARIOS:
            want = _verify_per_vertex(aug, mapping, check)
            for form in (xi, mapping):
                rep = verify_boundary_condition(aug, form, check)
                assert list(rep.residuals) == list(want)
                assert np.array(list(rep.residuals.values())).tobytes() == np.array(list(want.values())).tobytes()
                assert rep.max_residual == max(want.values())


@pytest.mark.parametrize("row", ["apex", "boundary"])
def test_boundary_check_rejects_an_improper_row(row):
    cs = build("hex_tangent")
    aug = cs.complex
    f = HEX_FLAT["hex_tangent"]
    xi = layout_augmented(cs, f).mpoints.copy()
    v = aug.apex if row == "apex" else aug.disk.boundary_cycle[2]
    xi[aug.vertex_index[v]] = [0.3, 0.1, 2.0, 1.5]  # xi4 - xi3 < 0
    mapping = {u: MPoint(xi[i]) for i, u in enumerate(aug.vertices)}
    with pytest.raises(ImproperVectorError) as want:
        _verify_per_vertex(aug, mapping, "tangent")
    for form in (xi, mapping):
        with pytest.raises(ImproperVectorError) as got:
            verify_boundary_condition(aug, form, "tangent")
        assert str(got.value) == str(want.value)


def test_boundary_check_rejects_an_imaginary_apex_circle():
    cs = build("hex_tangent")
    aug = cs.complex
    xi = layout_augmented(cs, HEX_FLAT["hex_tangent"]).mpoints.copy()
    xi[-1] = [0.0, 0.0, 0.0, 1.0]  # the origin with weight -1
    with pytest.raises(ValueError, match="^negative weight has no real radius$"):
        verify_boundary_condition(aug, xi, "tangent")


@pytest.mark.parametrize("traversal", ["bfs", "dfs"])
def test_residual_matches_per_corner_loop(flat_case, traversal):
    aug, cs, f = flat_case
    lengths = AngleSystem(cs).evaluate(f).lengths.tolist()
    for start in (0, aug.n_disk_faces):
        positions, residual = _develop(aug.compiled, lengths, start, traversal)
        assert residual == _residual_per_corner(aug.compiled, lengths, positions)
    # off the flat label the faces disagree and the residual is large
    lengths = AngleSystem(cs).evaluate(f + 0.01 * np.arange(len(f)) / len(f)).lengths.tolist()
    positions, residual = _develop(aug.compiled, lengths, 0, traversal)
    assert positions.tobytes() == _develop_sequential(aug.compiled, lengths, 0, traversal).tobytes()
    assert residual == _residual_per_corner(aug.compiled, lengths, positions)


_WALK_CASES = [(f"hex_{s}", 2, s) for s in SCENARIOS]
_WALK_CASES += [("ring_lattice", n, s) for n in (1, 2, 3, 4, 6, 8) for s in SCENARIOS]


def _flat_label(aug, cs, name):
    if name.startswith("hex_"):
        return HEX_FLAT[name]
    res = newton_flat(cs)
    assert res.converged
    return res.f


@pytest.mark.parametrize("case", _WALK_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_levels_place_like_the_sequential_walk(case):
    """Placing level by level gives the bits of one _third_point call per
    vertex in walk order."""
    name, rings, scenario = case
    cs = build(name, n_rings=rings, scenario=scenario)
    aug = cs.complex
    f = _flat_label(aug, cs, name)
    lengths = cs.system.evaluate(f).lengths.tolist()
    for traversal in ("bfs", "dfs"):
        lay = layout_augmented(cs, f, traversal=traversal)
        want = _develop_sequential(aug.compiled, lengths, aug.n_disk_faces, traversal)
        assert lay.positions.tobytes() == want.tobytes()
        assert lay.consistency_residual == _residual_per_corner(aug.compiled, lengths, want)


@pytest.mark.parametrize("name, rings", [("hex_tangent", 2), ("ring_lattice", 4)])
def test_disk_levels_place_like_the_sequential_walk(name, rings):
    cs = build(name, n_rings=rings)
    aug = cs.complex
    disk, f = aug.disk, _flat_label(aug, cs, name)[:-1]
    disk_cs = ConformalStructure.on(disk, cs.alpha, cs.eta)
    lengths = disk_cs.system.evaluate(f).lengths.tolist()
    for traversal in ("bfs", "dfs"):
        lay = layout_disk(disk_cs, f, traversal=traversal)
        want = _develop_sequential(disk.compiled, lengths, 0, traversal)
        assert lay.positions.tobytes() == want.tobytes()
        assert lay.consistency_residual == _residual_per_corner(disk.compiled, lengths, want)
