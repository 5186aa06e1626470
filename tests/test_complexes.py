"""Disk validation, augmentation, simplex classes and multiplicities."""

import numpy as np
import pytest

from diskfold import (
    DiskTopologyError,
    SimplexClass,
    augment,
    classify,
    pointwise_multiplicity,
    standard_multiplicities,
    validate_disk,
)
from diskfold.complexes import edge_key, simplex_key
from diskfold.presets import hex_flower, ring_lattice, triangle_disk


def test_single_triangle():
    disk = validate_disk([0, 1, 2], [(0, 1, 2)])
    assert disk.euler_characteristic() == 1
    assert disk.boundary_cycle == (0, 1, 2)
    assert disk.interior_vertices == frozenset()


def test_hex_flower_shape():
    disk = hex_flower()
    assert len(disk.vertices) == 7
    assert len(disk.faces) == 6
    assert len(disk.edges) == 12
    assert disk.interior_vertices == {0}
    assert set(disk.boundary_cycle) == {1, 2, 3, 4, 5, 6}


def test_ring_lattice_counts():
    # V = 1 + 3n(n+1) hexagonal numbers; all faces triangles
    for n, v, f, b in [(1, 7, 6, 6), (2, 19, 24, 12), (3, 37, 54, 18)]:
        disk = ring_lattice(n)
        assert len(disk.vertices) == v
        assert len(disk.faces) == f
        assert len(disk.boundary_cycle) == b
        assert len(disk.edges) == len(disk.vertices) + len(disk.faces) - 1


def _rotate_min_first(face):
    i = face.index(min(face))
    return face[i:] + face[:i]


def test_orientation_is_normalized():
    # same complex, one face handed in reversed
    a = validate_disk([0, 1, 2, 3], [(0, 1, 2), (1, 3, 2)])
    b = validate_disk([0, 1, 2, 3], [(0, 1, 2), (2, 3, 1)])
    assert {_rotate_min_first(f) for f in a.faces} == {
        _rotate_min_first(f) for f in b.faces
    }
    # coherent orientation: no directed edge appears twice
    for disk in (a, b):
        directed = [(f[i], f[(i + 1) % 3]) for f in disk.faces for i in range(3)]
        assert len(directed) == len(set(directed))


def test_bad_disks_rejected():
    bad = [
        ([0, 1, 2, 3], [(0, 1, 2), (2, 1, 0)], "duplicate face"),
        ([0, 1, 2], [(0, 1, 1)], "face is not a triangle"),
        ([0, 1, 2, 3, 4], [(0, 1, 2), (0, 1, 3), (0, 1, 4)], "edge lies in more than two faces"),
        ([0, 1, 2, 9], [(0, 1, 2)], "isolated vertices"),
        ([0, 1, 2, 3], [(0, 1, 2), (0, 3, 1), (1, 3, 2), (0, 2, 3)], "Euler characteristic is not 1"),  # sphere
        (
            list(range(6)),
            [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4), (2, 0, 5), (0, 3, 5)],
            "Euler characteristic is not 1",  # annulus
        ),
        ([0, 1, 2, 3, 4], [(0, 1, 2), (0, 3, 4)], "vertex link is not connected"),  # pinched vertex
        ([0, 1, 2, 3, 4, 5], [(0, 1, 2), (3, 4, 5)], "Euler characteristic is not 1"),  # disconnected
    ]
    for vertices, faces, reason in bad:
        with pytest.raises(DiskTopologyError, match=f"^{reason}"):
            validate_disk(vertices, faces)


def test_vertex_index_is_built_once():
    aug = augment(ring_lattice(2))
    idx = aug.vertex_index
    assert aug.vertex_index is idx
    assert [idx[v] for v in aug.vertex_order] == list(range(len(aug.vertices)))


def test_compiled_index_is_shared_and_read_only():
    aug = augment(hex_flower())
    ix = aug.compiled
    assert aug.compiled is ix
    assert aug.vertex_index is ix.vertex_index
    for a in (ix.E, ix.F, ix.FE, ix.edge_faces, ix.fold_sign, ix.const):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]


@pytest.mark.parametrize("make", [triangle_disk, hex_flower, lambda: ring_lattice(2)])
def test_compiled_index_matches_the_complex(make):
    disk = make()
    for cx in (disk, augment(disk)):
        ix = cx.compiled
        verts = cx.vertices
        assert [(verts[u], verts[v]) for u, v in ix.E] == list(cx.edges)
        assert [tuple(verts[i] for i in row) for row in ix.F] == list(cx.faces)
        for fi, face in enumerate(cx.faces):
            for c in range(3):
                side = edge_key(face[(c + 1) % 3], face[(c + 2) % 3])
                assert cx.edges[ix.FE[fi, c]] == side
        for e, edge in enumerate(cx.edges):
            in_face = [fi for fi, face in enumerate(cx.faces) if set(edge) <= set(face)]
            assert [fi for fi in ix.edge_faces[e] if fi >= 0] == in_face
    aug_ix = augment(disk).compiled
    assert np.array_equal(disk.compiled.fold_sign, -np.ones(len(disk.faces)))
    assert np.array_equal(disk.compiled.const, np.full(len(disk.vertices), 2 * np.pi))
    assert aug_ix.const[-1] == -2 * np.pi
    for v in disk.vertices:
        want = 2 * np.pi if v in disk.interior_vertices else 0.0
        assert aug_ix.const[disk.compiled.vertex_index[v]] == want


def test_fold_sign_is_minus_the_standard_face_multiplicity():
    aug = augment(ring_lattice(2))
    mu = standard_multiplicities(aug)
    fold = aug.compiled.fold_sign
    assert [mu(face) for face in aug.faces] == [int(-s) for s in fold]
    assert np.all(fold[: aug.n_disk_faces] == -1) and np.all(fold[aug.n_disk_faces:] == 1)


def test_augment_is_a_sphere():
    for disk in (triangle_disk(), hex_flower(), ring_lattice(2)):
        aug = augment(disk)
        assert aug.apex == max(disk.vertices) + 1
        nb = len(disk.boundary_cycle)
        assert len(aug.faces) == len(disk.faces) + nb
        v, e, f = len(aug.vertices), len(aug.edges), len(aug.faces)
        assert v - e + f == 2
        assert 3 * f == 2 * e
        # apex faces traverse the boundary against its disk orientation
        for face in aug.augmented_faces:
            assert aug.apex in face


def test_label_array_accepts_dicts_and_arrays():
    aug = augment(hex_flower())
    f = {v: 0.1 * i for i, v in enumerate(aug.vertex_order)}
    arr = aug.label_array(f)
    assert arr.shape == (8,)
    assert np.array_equal(aug.label_array(arr), arr)
    back = aug.label_dict(arr)
    assert back == f
    with pytest.raises(ValueError):
        aug.label_array(np.array([np.nan] * 8))


def test_classify_hex():
    aug = augment(hex_flower())
    cl = classify(aug)
    assert cl[(0,)] is SimplexClass.INTERIOR
    assert cl[(1,)] is SimplexClass.BOUNDARY
    assert cl[(aug.apex,)] is SimplexClass.AUGMENTED
    assert cl[edge_key(0, 1)] is SimplexClass.INTERIOR
    assert cl[edge_key(1, 2)] is SimplexClass.BOUNDARY
    assert cl[edge_key(1, aug.apex)] is SimplexClass.AUGMENTED
    assert cl[simplex_key((0, 1, 2))] is SimplexClass.INTERIOR
    assert cl[simplex_key((1, 2, aug.apex))] is SimplexClass.AUGMENTED
    # every simplex of the augmented complex is classified
    n_simplices = len(aug.vertices) + len(aug.edges) + len(aug.faces)
    assert len(cl) == n_simplices


def test_standard_multiplicities():
    aug = augment(hex_flower())
    mu = standard_multiplicities(aug)
    apex = aug.apex
    assert mu((0,)) == 1          # interior vertex
    assert mu((1,)) == 0          # boundary vertex
    assert mu((apex,)) == -1
    assert mu((0, 1)) == -1       # interior edge
    assert mu((1, 2)) == 0        # boundary edge
    assert mu((1, apex)) == 1
    assert mu((0, 1, 2)) == 1     # disk face
    assert mu((1, 2, apex)) == -1


def test_pointwise_multiplicity_by_class():
    """Summing mu over cofaces collapses to +1 / 0 / -1 by simplex class."""
    aug = augment(hex_flower())
    mu = standard_multiplicities(aug)
    apex = aug.apex
    cases = [
        ((0,), 1), ((1,), 0), ((apex,), -1),
        ((0, 1), 1), ((1, 2), 0), ((1, apex), -1),
        ((0, 1, 2), 1), ((1, 2, apex), -1),
    ]
    for simplex, expect in cases:
        assert pointwise_multiplicity(aug, mu, simplex) == expect


def test_pointwise_multiplicity_on_larger_disk():
    aug = augment(ring_lattice(2))
    mu = standard_multiplicities(aug)
    cl = classify(aug)
    expect = {
        SimplexClass.INTERIOR: 1,
        SimplexClass.BOUNDARY: 0,
        SimplexClass.AUGMENTED: -1,
    }
    for key, klass in cl.items():
        assert pointwise_multiplicity(aug, mu, key) == expect[klass]
