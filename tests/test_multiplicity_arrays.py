"""The multiplicity layer's arrays against the id-walking references it
replaced: simplex classes by set membership, standard weights by a
class table, and curvature measures gathered one simplex key at a time."""

import numpy as np
import pytest

from diskfold import (
    MultiplicityAssignment,
    SimplexClass,
    augment,
    build,
    classify,
    closure,
    default_start,
    layout_augmented,
    layout_point_multiplicity,
    measure_curvatures,
    measure_equivalence_check,
    standard_multiplicities,
    valuation_defect,
)
from diskfold.complexes import simplex_key
from diskfold.presets import SCENARIOS, hex_flower, random_admissible, ring_lattice, triangle_disk

from conftest import HEX_FLAT

DISKS = {
    "triangle": triangle_disk,
    "hex": hex_flower,
    **{f"ring{n}": (lambda n=n: ring_lattice(n)) for n in (1, 2, 3, 4)},
}


def _reference_classify(aug):
    """Class of every simplex by membership in the disk's id sets."""
    disk = aug.disk
    out = {}
    for v in disk.interior_vertices:
        out[(v,)] = SimplexClass.INTERIOR
    for v in disk.boundary_cycle:
        out[(v,)] = SimplexClass.BOUNDARY
    out[(aug.apex,)] = SimplexClass.AUGMENTED
    for e in aug.edges:
        if aug.apex in e:
            out[e] = SimplexClass.AUGMENTED
        elif e in disk.boundary_edges:
            out[e] = SimplexClass.BOUNDARY
        else:
            out[e] = SimplexClass.INTERIOR
    for f in aug.disk_faces:
        out[simplex_key(f)] = SimplexClass.INTERIOR
    for f in aug.augmented_faces:
        out[simplex_key(f)] = SimplexClass.AUGMENTED
    return out


_REFERENCE_TABLE = {
    (1, SimplexClass.INTERIOR): 1,
    (1, SimplexClass.BOUNDARY): 0,
    (1, SimplexClass.AUGMENTED): -1,
    (2, SimplexClass.INTERIOR): -1,
    (2, SimplexClass.BOUNDARY): 0,
    (2, SimplexClass.AUGMENTED): 1,
    (3, SimplexClass.INTERIOR): 1,
    (3, SimplexClass.AUGMENTED): -1,
}


def _reference_standard(aug) -> dict:
    return {s: _REFERENCE_TABLE[(len(s), c)] for s, c in _reference_classify(aug).items()}


def _reference_measure_curvatures(aug, weights: dict, angles):
    """The weights gathered one simplex key at a time, the integer count
    of pi terms per vertex summed by np.add.at, then one scatter of pi
    times the count and the corner angles, in the angle curvature's order."""
    ix = aug.compiled
    n = len(aug.vertices)

    def mu(s):
        return weights.get(simplex_key(s), 0)

    mv = np.array([mu((v,)) for v in aug.vertices])
    me = np.array([mu(e) for e in aug.edges])
    mf = np.array([mu(f) for f in aug.faces])
    count = 2 * mv
    np.add.at(count, ix.E, me[:, None])
    np.add.at(count, ix.F, mf[:, None])
    index = np.concatenate([np.arange(n), ix.F.ravel()])
    w = np.concatenate([np.pi * count, (-angles * mf[:, None]).ravel()])
    return np.bincount(index, w, minlength=n)


@pytest.mark.parametrize("name", DISKS)
def test_classes_and_standard_weights_match_the_references(name):
    aug = augment(DISKS[name]())
    ref = _reference_classify(aug)
    assert classify(aug) == ref
    want = _reference_standard(aug)
    mu = standard_multiplicities(aug)
    assert {s: mu(s) for s in want} == want
    assert mu((aug.apex, aug.apex + 1)) == 0 and mu(()) == 0


@pytest.mark.parametrize("name", DISKS)
def test_measure_curvatures_are_bit_identical_to_the_reference(name):
    disk = DISKS[name]()
    rng = np.random.default_rng(sorted(DISKS).index(name))
    for _ in range(5):
        aug, cs, f = random_admissible(disk, rng)
        th = cs.system.angles(f)
        std = _reference_standard(aug)
        got = measure_curvatures(standard_multiplicities(aug), th)
        assert got.tobytes() == _reference_measure_curvatures(aug, std, th).tobytes()
        weights = {s: int(rng.integers(-3, 4)) for s in std}
        got = measure_curvatures(MultiplicityAssignment.on(aug, weights), th)
        assert got.tobytes() == _reference_measure_curvatures(aug, weights, th).tobytes()


def test_valuation_defect_is_bit_identical_to_the_reference():
    disk = hex_flower()
    rng = np.random.default_rng(12)
    aug, cs, f = random_admissible(disk, rng)
    th = cs.system.angles(f)
    weights = {s: int(rng.integers(-3, 4)) for s in _reference_standard(aug)}
    mu = MultiplicityAssignment.on(aug, weights)
    apex = aug.apex
    A, B = closure([(0, 1, 2), (0, 2, 3)]), closure([(0, 2, 3), (2, 3, apex)])

    def k(X, i):
        return _reference_measure_curvatures(aug, {s: weights[s] for s in X}, th)[i]

    for v in (0, 2, 3):
        i = aug.vertex_index[v]
        want = abs(k(A | B, i) - k(A, i) - k(B, i) + k(A & B, i))
        assert valuation_defect(mu, th, v, A, B) == want


def test_assignment_is_three_read_only_arrays():
    aug = augment(hex_flower())
    mu = MultiplicityAssignment.on(aug, {(0,): 2, (1, 0): -1, (2, 1, 0): 3})
    assert mu.complex is aug
    assert mu.vertex.shape == (8,) and mu.edge.shape == (18,) and mu.face.shape == (12,)
    assert mu((0,)) == 2 and mu((0, 1)) == -1 and mu((0, 1, 2)) == 3 and mu((1,)) == 0
    assert mu.total(np.ones(8, bool), np.ones(18, bool), np.ones(12, bool)) == 4
    for a in (mu.vertex, mu.edge, mu.face):
        with pytest.raises(ValueError):
            a[0] = 1


def test_assignment_rejects_keys_off_the_complex():
    aug = augment(hex_flower())
    for key in [(99,), (1, 3), (0, 1, 3), ()]:
        with pytest.raises(ValueError, match="not a simplex"):
            MultiplicityAssignment.on(aug, {key: 1})


@pytest.mark.parametrize(
    "weight", [0.5, 1.7, -2.5, float("nan"), float("inf"), 1e30, 2**63, -(2**63) - 1, "2", 1 + 0j, None]
)
def test_assignment_rejects_weights_that_are_not_int64(weight):
    aug = augment(hex_flower())
    with pytest.raises(ValueError, match=r"^the weight .* of \(1, 0\) is not an integer within int64$"):
        MultiplicityAssignment.on(aug, {(1, 0): weight})


def test_assignment_reads_integral_weights_exactly():
    aug = augment(hex_flower())
    big = 2**63 - 1
    weights = {(0,): 2.0, (1,): np.float64(-3.0), (0, 1): np.int32(5), (2,): big, (3,): -big - 1}
    mu = MultiplicityAssignment.on(aug, weights)
    assert (mu((0,)), mu((1,)), mu((0, 1)), mu((2,)), mu((3,))) == (2, -3, 5, big, -big - 1)
    assert all(a.dtype == np.int64 for a in (mu.vertex, mu.edge, mu.face))


@pytest.mark.parametrize("field", ["vertex", "edge", "face"])
def test_assignment_arrays_are_integer_and_sized_to_the_complex(field):
    aug = augment(hex_flower())
    std = standard_multiplicities(aug)
    arrays = {name: getattr(std, name) for name in ("vertex", "edge", "face")}
    n = len(arrays[field])
    bad_arrays = (arrays[field].astype(float), np.zeros(n + 1, dtype=int), np.zeros((n, 1), dtype=int), [0] * n)
    for bad in bad_arrays:
        with pytest.raises(ValueError, match=rf"^the {field} weights must be an integer array of shape \({n},\)$"):
            MultiplicityAssignment(aug, **{**arrays, field: bad})
    assert MultiplicityAssignment(aug, **arrays).complex is aug


@pytest.mark.parametrize("size", ["same", "other"])
def test_counts_reject_an_assignment_on_another_complex(size):
    # a second hexagon's weights were once used silently, and a ring-2
    # lattice's raised a raw IndexError; the layout and the assignment
    # each carry a complex, so the count checks that they are one
    cs = build("hex_tangent")
    aug = cs.complex
    other = build("hex_tangent").complex if size == "same" else augment(ring_lattice(2))
    mu = standard_multiplicities(other)
    lay = layout_augmented(cs, HEX_FLAT["hex_tangent"])
    with pytest.raises(ValueError, match="^the multiplicities are on another complex$"):
        layout_point_multiplicity(lay, mu, lay.positions[0])
    assert layout_point_multiplicity(lay, standard_multiplicities(aug), lay.positions[0]) == 0


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("rings", [8, 16, 32])
def test_measure_equivalence_at_the_default_start(rings, scenario):
    # the standard pi counts are the structure constants and the scatter
    # is the angle curvature's, so the two agree bit for bit
    cs = build("ring_lattice", n_rings=rings, scenario=scenario)
    assert measure_equivalence_check(cs, default_start(cs)) == 0.0
