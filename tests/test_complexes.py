"""Disk validation, augmentation, simplex classes and multiplicities."""

import functools
import hashlib
import zlib

import numpy as np
import pytest

from diskfold import (
    DiskTopologyError,
    MultiplicityAssignment,
    SimplexClass,
    augment,
    classify,
    pointwise_multiplicity,
    standard_multiplicities,
    validate_disk,
)
from diskfold.complexes import edge_key, simplex_key
from diskfold.layout import BOUNDARY_TOL, verify_boundary_condition
from diskfold.minkowski import _dot2, canonical_lift, project
from diskfold.presets import hex_flower, ring_lattice, triangle_disk

from conftest import flipped_disk


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


def test_orientation_of_scrambled_faces():
    # ring 4 with faces rotated, half of them reversed, and shuffled: the
    # first face keeps its direction, every other face is its input face
    # or the reversal, no directed edge appears twice, and the boundary
    # cycle runs along the directed boundary edges
    rng = np.random.default_rng(11)
    faces = [tuple(f) for f in ring_lattice(4).faces]
    faces = [f[k:] + f[:k] for f, k in zip(faces, rng.integers(0, 3, len(faces)))]
    faces = [f if keep else f[::-1] for f, keep in zip(faces, rng.integers(0, 2, len(faces)))]
    faces = [faces[i] for i in rng.permutation(len(faces))]
    disk = validate_disk(range(61), faces)
    assert disk.faces[0] == faces[0]
    for f, g in zip(faces, disk.faces):
        assert g in (f, (f[0], f[2], f[1]))
    directed = [(f[i], f[(i + 1) % 3]) for f in disk.faces for i in range(3)]
    assert len(directed) == len(set(directed))
    cyc = disk.boundary_cycle
    assert set(zip(cyc, cyc[1:] + cyc[:1])) <= set(directed)
    assert len(disk.boundary_cycle) == len(set(disk.boundary_cycle)) == 24


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
    assert [idx[v] for v in aug.vertices] == list(range(len(aug.vertices)))


def test_compiled_index_is_shared_and_read_only():
    aug = augment(hex_flower())
    ix = aug.compiled
    assert aug.compiled is ix
    assert list(aug.vertex_index) == ix.ids.tolist()
    for a in (ix.E, ix.F, ix.FE, ix.edge_faces, ix.fold_sign, ix.const, ix.cycle):
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
        assert aug_ix.const[disk.vertex_index[v]] == want


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


_CYCLE_CASES = {"triangle": triangle_disk, "hex": hex_flower}
_CYCLE_CASES.update({f"ring{n}": functools.partial(ring_lattice, n) for n in range(1, 17)})
_CYCLE_CASES.update(
    {f"flipped{r}_{s}": functools.partial(flipped_disk, r, s) for r in (4, 8) for s in range(10)}
)


def _boundary_reference(aug, xi, scenario):
    """verify_boundary_condition's residuals, read along the last corners
    of the augmented faces (apex, w, v), which run along the cycle."""
    rows = aug.compiled.F[aug.n_disk_faces:, 2]
    P, W = project(xi[np.insert(rows, 0, -1)])
    r_hat, W = float(np.sqrt(W[0])), W[1:]
    dp = P[1:] - P[0]
    dist = np.sqrt(_dot2(dp, dp))
    if scenario == "tangent":
        res = np.where(W < -BOUNDARY_TOL, np.inf, np.abs(dist + np.sqrt(np.maximum(W, 0.0)) - r_hat))
    elif scenario == "orthogonal":
        res = np.abs(dist * dist - r_hat * r_hat - W)
    else:
        res = np.abs(dist - r_hat)
    return dict(zip((aug.vertices[i] for i in rows.tolist()), res.tolist()))


@pytest.mark.parametrize("case", sorted(_CYCLE_CASES))
def test_the_boundary_cycle_is_compiled(case):
    disk = _CYCLE_CASES[case]()
    aug = augment(disk)
    cycle = disk.compiled.cycle
    assert cycle.dtype == np.intp and not cycle.flags.writeable
    with pytest.raises(ValueError):
        cycle[0] = cycle[0]
    assert np.array_equal(aug.compiled.cycle, cycle)
    ids = disk.compiled.ids
    assert tuple(ids[cycle].tolist()) == disk.boundary_cycle == aug.boundary_cycle
    pairs = {edge_key(*ids[[u, v]].tolist()) for u, v in zip(cycle, np.roll(cycle, -1))}
    assert len(pairs) == len(cycle) and pairs == disk.boundary_edges
    assert disk.interior_vertices == set(disk.vertices) - set(disk.boundary_cycle)
    # random proper M-points: every residual is read at the vertex of its row
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    n = len(aug.vertices)
    xi = canonical_lift(rng.normal(size=(n, 2)), rng.uniform(0.1, 2.0, n))
    for scenario in ("tangent", "orthogonal", "inscribed"):
        rep = verify_boundary_condition(aug, xi, scenario)
        want = _boundary_reference(aug, xi, scenario)
        assert list(rep.residuals) == list(want)
        assert np.array(list(rep.residuals.values())).tobytes() == np.array(list(want.values())).tobytes()


def test_label_array_accepts_dicts_and_arrays():
    aug = augment(hex_flower())
    f = {v: 0.1 * i for i, v in enumerate(aug.vertices)}
    arr = aug.label_array(f)
    assert arr.shape == (8,)
    assert np.array_equal(aug.label_array(arr), arr)
    assert dict(zip(aug.vertices, arr.tolist())) == f
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
        assert pointwise_multiplicity(mu, simplex) == expect


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
        assert pointwise_multiplicity(mu, key) == expect[klass]



def test_pointwise_multiplicity_with_arbitrary_weights():
    # compare with the sum over every simplex whose vertex set holds the query
    aug = augment(ring_lattice(2))
    rng = np.random.default_rng(3)
    simplices = [(v,) for v in aug.vertices] + list(aug.edges) + [simplex_key(f) for f in aug.faces]
    mu = MultiplicityAssignment.on(aug, {s: int(rng.integers(-3, 4)) for s in simplices})
    for query in simplices + [(), (99,), (0, 99)]:
        want = sum(mu(s) for s in simplices if set(query) <= set(s))
        assert pointwise_multiplicity(mu, query) == want


def test_flipped_disks_are_irregular_lattices():
    lattice = ring_lattice(4)
    disk = flipped_disk(4, 0)
    assert disk.vertices == lattice.vertices and len(disk.faces) == len(lattice.faces)
    degree = np.bincount(disk.compiled.E.ravel())
    interior = [disk.vertex_index[v] for v in disk.interior_vertices]
    assert set(degree[interior].tolist()) != {6}
    assert flipped_disk(4, 0).faces == disk.faces


def test_ids_past_int64_validate_like_small_ids():
    # an order-preserving relabelling onto ids numpy cannot hold as int64
    disk = ring_lattice(2)
    big = {v: 2**64 + 3 * v for v in disk.vertices}
    back = {b: v for v, b in big.items()}
    small = validate_disk(disk.vertices[::-1], disk.faces)
    large = validate_disk([big[v] for v in disk.vertices[::-1]], [tuple(big[v] for v in f) for f in disk.faces])
    assert [tuple(back[v] for v in f) for f in large.faces] == list(small.faces)
    assert [tuple(back[v] for v in e) for e in large.edges] == list(small.edges)
    assert [back[v] for v in large.boundary_cycle] == list(small.boundary_cycle)
    for a, b in zip((augment(small), small), (augment(large), large)):
        for name in ("E", "F", "FE", "edge_faces", "fold_sign", "const", "cycle"):
            assert np.array_equal(getattr(a.compiled, name), getattr(b.compiled, name))
    assert augment(large).apex == big[max(disk.vertices)] + 1


def test_components_are_least_nodes_of_scipy_components():
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    from diskfold.complexes import _components

    rng = np.random.default_rng(8)
    graphs = [(np.arange(0), np.arange(0), 5)]
    for n in (2, 7, 50, 400, 3000):
        order = rng.permutation(n)
        graphs.append((order[:-1], order[1:], n))  # a path in random order
        graphs.append((np.zeros(n - 1, dtype=int), np.arange(1, n), n))  # a star
        for m in (n // 3, n, 3 * n):
            graphs.append((rng.integers(0, n, m), rng.integers(0, n, m), n))
    for u, v, n in graphs:
        label = _components(u, v, n)
        k, ref = connected_components(coo_array((np.ones(len(u)), (u, v)), shape=(n, n)), directed=False)
        least = np.full(k, n)
        np.minimum.at(least, ref, np.arange(n))
        assert np.array_equal(label, least[ref])

# -- every rejection, pinned with its full message ---------------------

_HEX = [(0, i, i % 6 + 1) for i in range(1, 7)]
# a second flower around 7 whose ring passes through vertex 1 of the first
_HEX_AT_1 = [(7, a, b) for a, b in zip((1, 9, 10, 11, 12, 13), (9, 10, 11, 12, 13, 1))]
_HEX_AT_1_VERTICES = [v for v in range(14) if v != 8]
# the minimal triangulation of the projective plane: closed, chi = 1
_RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
_MOBIUS = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]  # chi = 0
_ANNULUS = [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4), (2, 0, 5), (0, 3, 5)]  # chi = 0

REJECTIONS = {
    "duplicate vertex": ([0, 1, 1, 2], [(0, 1, 2)], "duplicate vertex ids"),
    "no faces": ([0, 1, 2], [], "a disk needs at least one face"),
    "two corners": ([0, 1, 2], [(0, 1)], "face is not a triangle (face=(0, 1))"),
    "four corners": ([0, 1, 2, 3], [(0, 1, 2, 3)], "face is not a triangle (face=(0, 1, 2, 3))"),
    "repeated corner": ([0, 1, 2], [(0, 1, 1)], "face is not a triangle (face=(0, 1, 1))"),
    "unknown vertex": ([0, 1, 2], [(0, 1, 5)], "face references unknown vertex (face=(0, 1, 5))"),
    "first offender": (
        [0, 1, 2, 3], [(0, 1, 2), (2, 3, 9), (2, 1, 0), (3, 3, 9)],
        "face references unknown vertex (face=(2, 3, 9))",
    ),
    "not a triangle before unknown": (
        [0, 1, 2], [(0, 1, 2), (9, 9, 1)], "face is not a triangle (face=(9, 9, 1))",
    ),
    "duplicate face": ([0, 1, 2, 3], [(0, 1, 2), (2, 1, 0)], "duplicate face (face=(2, 1, 0))"),
    "three faces on an edge": (
        [0, 1, 2, 3, 4], [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
        "edge lies in more than two faces (edge=(0, 1))",
    ),
    "first crowded edge met": (
        range(8), [(5, 3, 4), (0, 1, 2), (0, 1, 3), (0, 1, 4), (3, 4, 6), (4, 3, 7)],
        "edge lies in more than two faces (edge=(3, 4))",
    ),
    "isolated vertices": ([0, 1, 2, 9, 7], [(0, 1, 2)], "isolated vertices (vertices=[7, 9])"),
    "sphere": (
        [0, 1, 2, 3], [(0, 1, 2), (0, 3, 1), (1, 3, 2), (0, 2, 3)],
        "Euler characteristic is not 1 (chi=2)",
    ),
    "annulus": (range(6), _ANNULUS, "Euler characteristic is not 1 (chi=0)"),
    "two triangles": (range(6), [(0, 1, 2), (3, 4, 5)], "Euler characteristic is not 1 (chi=2)"),
    "closed": (range(1, 7), _RP2, "no boundary edges; the complex is closed"),
    "pinched vertex": ([0, 1, 2, 3, 4], [(0, 1, 2), (0, 3, 4)], "vertex link is not connected (vertex=0)"),
    "bow-tie boundary": (_HEX_AT_1_VERTICES, _HEX + _HEX_AT_1, "vertex link is not connected (vertex=1)"),
    "first pinch in vertex order": (
        [6, 5, 4, 3, 2, 1, 0], [(0, 1, 2), (2, 3, 4), (4, 5, 6)],
        "vertex link is not connected (vertex=4)",
    ),
    "mobius strip": (range(8), _MOBIUS + [(5, 6, 7)], "faces cannot be oriented consistently"),
    "triangle and mobius strip": (
        range(8), [(5, 6, 7)] + _MOBIUS, "faces are not edge-connected",
    ),
    "triangle and annulus": (
        range(9), [(6, 7, 8)] + _ANNULUS, "faces are not edge-connected",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_messages_are_pinned(case):
    vertices, faces, message = REJECTIONS[case]
    with pytest.raises(DiskTopologyError) as info:
        validate_disk(vertices, faces)
    assert str(info.value) == message


def test_rejection_details_are_python_ints():
    # details name the caller's own ids, never numpy scalars
    with pytest.raises(DiskTopologyError) as info:
        validate_disk(range(8), [(5, 3, 4), (0, 1, 2), (0, 1, 3), (0, 1, 4), (3, 4, 6), (4, 3, 7)])
    assert "np." not in str(info.value)
    with pytest.raises(DiskTopologyError) as info:
        validate_disk(_HEX_AT_1_VERTICES, _HEX + _HEX_AT_1)
    assert str(info.value).endswith("(vertex=1)")


# -- the validated complex and its compiled index, pinned by digest -----


def _scrambled(disk, seed):
    """The disk with permuted odd ids, listed in shuffled order, and its
    faces rotated, half reversed and shuffled."""
    rng = np.random.default_rng(seed)
    new = {v: 2 * int(p) + 1 for v, p in zip(disk.vertices, rng.permutation(len(disk.vertices)))}
    faces = [[new[v] for v in f] for f in disk.faces]
    faces = [f[k:] + f[:k] for f, k in zip(faces, rng.integers(0, 3, len(faces)))]
    faces = [f if keep else f[::-1] for f, keep in zip(faces, rng.integers(0, 2, len(faces)))]
    faces = [tuple(faces[i]) for i in rng.permutation(len(faces))]
    vertices = [new[v] for v in disk.vertices]
    return [vertices[i] for i in rng.permutation(len(vertices))], faces


def _digest(disk):
    aug = augment(disk)
    parts = [
        disk.vertices, disk.faces, disk.edges, disk.boundary_cycle,
        sorted(disk.interior_vertices), sorted(disk.boundary_edges),
        aug.apex, aug.vertices, aug.faces, aug.edges, aug.n_disk_faces,
    ]
    for cx in (disk, aug):
        ix = cx.compiled
        parts.append(sorted(cx.vertex_index.items()))
        parts += [a.tolist() for a in (ix.E, ix.F, ix.FE, ix.edge_faces, ix.fold_sign, ix.const)]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


_EQUIVALENCE_CASES = {"triangle": triangle_disk, "hex": hex_flower}
_EQUIVALENCE_CASES.update({f"ring{n}": functools.partial(ring_lattice, n) for n in range(1, 17)})

#: Digests of the validated, scrambled disks, recorded from the dict-based
#: validation that preceded the array passes.
EQUIVALENCE_DIGESTS = {
    "hex": "46852c619cb1c62c683b5f90c5b38ed37575e8de29c7bfd92ec78f36ed252911",
    "ring1": "d3405e3aad524f2ad83c0be02790b3ed2e662802a44a2a56943290a9862d95a3",
    "ring10": "3e4db67a3ed672354cc1aa80919d36f1487e09b84421e93abbfefec248b32c9f",
    "ring11": "e244ade370b22598753173876f31ff0f073d84305eb30d1fa716a1d2f0fac4c5",
    "ring12": "e96d845d8ce16189de2ca7b1223d2103c136d7484fba965c07371938a19f2446",
    "ring13": "f4d5792f0c2e4b270a1319b4f9c5c7500fe07dab55487ad034ec13096994b418",
    "ring14": "092538878c36b5845d5afff45bbfb4b34786647737b5e0e0a5e60caf0df27d81",
    "ring15": "cfcbd4a519cb39fc6c29128aaf819774cb39503a5a24dceb97398e70858c9c5e",
    "ring16": "922f26ddbf4a62a3903391565c85e9623d59ee11e938797c160809b3f92a4324",
    "ring2": "1f619136f02d16344afbf4afe450b7cbf06760902c2b0b638424595342edf49b",
    "ring3": "17d0ee8a32bedb042f762f391b4567550f2602a01cb61838d2278004748b734b",
    "ring4": "2c946cfa8e9cecb9ab31c6db32ede0a69c7777c5d250e8daff7a7702243fd16e",
    "ring5": "72a2e1e946c2ab9faa9cab440834c4b7d7e4d999f601ce27be9ec00fdbb259b1",
    "ring6": "bf9a23d09728cff229e9dd7671a03050ebbca9437509687c148d190b18f78e42",
    "ring7": "8ffcd39173fee7be86760ad70dfe761434cf87002d072e21d81c0f2692733162",
    "ring8": "325ab8d7f072632738b89770e3985a9a27085c8cb1419097b5abd36089d6dbf1",
    "ring9": "db7c2600afaafe77423369f28999bb49c5711e41e580184c8bd80cb79d06424c",
    "triangle": "bfcf9e017388745ee89ae7b95bc8c5bbc682d46c3942aa41420481204794fe89",
}


@pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
def test_validation_matches_recorded_digests(case):
    disk = _EQUIVALENCE_CASES[case]()
    seed = zlib.crc32(case.encode())
    scrambled = validate_disk(*_scrambled(disk, seed))
    assert (case, _digest(scrambled)) == (case, EQUIVALENCE_DIGESTS[case])
