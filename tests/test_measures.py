"""Multiplicity curvature: equivalence, valuation property, layout counts."""

import numpy as np
import pytest

from diskfold import (
    AngleSystem,
    MultiplicityAssignment,
    augment,
    attach_boundary_data,
    closure,
    layout_augmented,
    layout_point_multiplicity,
    measure_curvature,
    measure_curvatures,
    measure_equivalence_check,
    standard_multiplicities,
    valuation_defect,
)
from diskfold.complexes import simplex_key
from diskfold.presets import hex_flower, ring_lattice, scenario_data, triangle_disk

from conftest import HEX_FLAT


def _hex_tangent():
    disk = hex_flower()
    aug = augment(disk)
    cs = attach_boundary_data(aug, *scenario_data(disk, "tangent"))
    return aug, cs


def test_measure_curvature_vanishes_at_flat_label():
    aug, cs = _hex_tangent()
    mu = standard_multiplicities(aug)
    th = AngleSystem(cs).angles(HEX_FLAT["hex_tangent"])
    for v in aug.vertices:
        assert measure_curvature(mu, th, v) == pytest.approx(0.0, abs=1e-13)


def test_equivalence_on_flat_and_perturbed_labels():
    aug, cs = _hex_tangent()
    assert measure_equivalence_check(cs, HEX_FLAT["hex_tangent"]) <= 1e-13
    rng = np.random.default_rng(21)
    for _ in range(20):
        f = HEX_FLAT["hex_tangent"] + rng.uniform(-0.08, 0.08, 8)
        assert measure_equivalence_check(cs, f) <= 1e-12


def test_equivalence_on_single_triangle():
    disk = triangle_disk()
    aug = augment(disk)
    cs = attach_boundary_data(aug, *scenario_data(disk, "inscribed"))
    f = np.array([0.5 * np.log(3.0)] * 3 + [0.0])
    assert measure_equivalence_check(cs, f) <= 1e-12


def test_equivalence_random_on_ring_lattice():
    from diskfold.presets import random_admissible

    disk = ring_lattice(2)
    rng = np.random.default_rng(33)
    for _ in range(50):
        aug, cs, f = random_admissible(disk, rng)
        assert measure_equivalence_check(cs, f) <= 1e-12


def test_closure_adds_all_faces_of_faces():
    got = closure([(0, 1, 2)])
    assert got == {
        (0,), (1,), (2,),
        (0, 1), (0, 2), (1, 2),
        (0, 1, 2),
    }


def test_valuation_property():
    """K is a valuation: K(A u B) + K(A n B) = K(A) + K(B)."""
    aug, cs = _hex_tangent()
    mu = standard_multiplicities(aug)
    rng = np.random.default_rng(4)
    f = HEX_FLAT["hex_tangent"] + rng.uniform(-0.05, 0.05, 8)
    th = AngleSystem(cs).angles(f)
    apex = aug.apex
    pairs = [
        (closure([(0, 1, 2), (0, 2, 3)]), closure([(0, 3, 4), (0, 2, 3)])),
        (closure([(0, 1, 2)]), closure([simplex_key((1, 2, apex))])),
        (closure([(0, 1, 2), (0, 1, 6)]), closure([(1, 2, apex), (1, 6, apex)])),
    ]
    for A, B in pairs:
        for v in (0, 1, 2):
            assert valuation_defect(mu, th, v, A, B) <= 1e-12


def test_valuation_rejects_non_subcomplexes():
    aug, cs = _hex_tangent()
    mu = standard_multiplicities(aug)
    th = AngleSystem(cs).angles(HEX_FLAT["hex_tangent"])
    open_set = frozenset({(0, 1, 2)})  # faces without their edges
    with pytest.raises(ValueError):
        valuation_defect(mu, th, 0, open_set, open_set)


def _loop_measure_curvature(aug, mu, th, vertex):
    """Reference: the contribution of every simplex containing the vertex."""
    total = 2.0 * np.pi * mu((vertex,))
    for e in aug.edges:
        if vertex in e:
            total += np.pi * mu(e)
    for fi, face in enumerate(aug.faces):
        if vertex in face:
            total += (np.pi - th[fi, face.index(vertex)]) * mu(face)
    return total


def test_measure_curvatures_matches_scalar_calls():
    aug, cs = _hex_tangent()
    rng = np.random.default_rng(8)
    f = HEX_FLAT["hex_tangent"] + rng.uniform(-0.05, 0.05, 8)
    th = AngleSystem(cs).angles(f)
    # the standard weights, then arbitrary integer weights on every simplex
    arbitrary = {s: int(rng.integers(-3, 4)) for s in sorted(closure(aug.faces))}
    for mu in (standard_multiplicities(aug), MultiplicityAssignment.on(aug, arbitrary)):
        allk = measure_curvatures(mu, th)
        assert allk.shape == (len(aug.vertices),)
        for i, v in enumerate(aug.vertices):
            assert allk[i] == measure_curvature(mu, th, v)
            assert allk[i] == pytest.approx(_loop_measure_curvature(aug, mu, th, v), abs=1e-12)


def test_layout_multiplicity_cancels_on_the_fold():
    """Each plane point is covered once per sheet with opposite signs."""
    aug, cs = _hex_tangent()
    mu = standard_multiplicities(aug)
    f = HEX_FLAT["hex_tangent"]
    lay = layout_augmented(cs, f)
    pos, ix = lay.positions, aug.vertex_index
    # generic points inside disk faces
    for face in aug.disk_faces[:3]:
        c = (pos[ix[face[0]]] + pos[ix[face[1]]] + pos[ix[face[2]]]) / 3.0
        assert layout_point_multiplicity(lay, mu, tuple(c)) == 0
    # far outside everything
    assert layout_point_multiplicity(lay, mu, (50.0, 0.0)) == 0


def _loop_layout_point_multiplicity(aug, mu, positions, q, tol=1e-9):
    """Scalar reference: test every simplex of the layout one by one."""
    pos = {v: np.asarray(positions[i], dtype=float) for i, v in enumerate(aug.vertices)}
    total = 0
    for v in aug.vertices:
        if np.linalg.norm(pos[v] - q) <= tol:
            total += mu((v,))
    for u, v in aug.edges:
        a, ab = pos[u], pos[v] - pos[u]
        t = min(max(float(np.dot(q - a, ab) / max(np.dot(ab, ab), 1e-300)), 0.0), 1.0)
        if np.linalg.norm(a + t * ab - q) <= tol:
            total += mu((u, v))
    for face in aug.faces:
        a, b, c = (pos[v] for v in face)
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        s = 1.0 if area2 > 0 else -1.0
        inside = area2 != 0.0 and all(
            ((p1 - p0)[0] * (q[1] - p0[1]) - (p1 - p0)[1] * (q[0] - p0[0])) * s >= -tol * np.linalg.norm(p1 - p0)
            for p0, p1 in ((a, b), (b, c), (c, a))
        )
        total += mu(face) if inside else 0
    return total


def test_layout_multiplicity_matches_a_scalar_count():
    # arbitrary weights, so that vertices, edges and faces all count
    aug, cs = _hex_tangent()
    rng = np.random.default_rng(5)
    mu = MultiplicityAssignment.on(aug, {s: int(rng.integers(-3, 4)) for s in sorted(closure(aug.faces))})
    lay = layout_augmented(cs, HEX_FLAT["hex_tangent"])
    pos, ix = lay.positions, aug.vertex_index
    points = list(pos)
    points += [(pos[ix[u]] + pos[ix[v]]) / 2 for u, v in aug.edges]
    points += [(pos[ix[a]] + pos[ix[b]] + pos[ix[c]]) / 3 for a, b, c in aug.faces]
    points += [np.array([50.0, 0.0]), np.array([0.013, -0.021])]
    counts = [layout_point_multiplicity(lay, mu, tuple(q)) for q in points]
    assert counts == [_loop_layout_point_multiplicity(aug, mu, pos, q) for q in points]
    assert any(counts)
