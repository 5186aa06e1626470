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
    measure_curvatures,
    measure_equivalence_check,
    standard_multiplicities,
    valuation_defect,
)
from diskfold.complexes import simplex_key
from diskfold.presets import SCENARIOS, hex_flower, random_admissible, ring_lattice, triangle_disk

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
    """The weights gathered one simplex key at a time, then one scatter."""
    ix = aug.compiled
    n = len(aug.vertices)

    def mu(s):
        return weights.get(simplex_key(s), 0)

    mv = np.array([mu((v,)) for v in aug.vertices], dtype=float)
    me = np.array([mu(e) for e in aug.edges], dtype=float)
    mf = np.array([mu(f) for f in aug.faces], dtype=float)
    index = np.concatenate([np.arange(n), ix.E.ravel(), ix.F.ravel()])
    w = np.concatenate(
        [2.0 * np.pi * mv, np.repeat(np.pi * me, 2), ((np.pi - angles) * mf[:, None]).ravel()]
    )
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
        got = measure_curvatures(aug, standard_multiplicities(aug), th)
        assert got.tobytes() == _reference_measure_curvatures(aug, std, th).tobytes()
        weights = {s: int(rng.integers(-3, 4)) for s in std}
        got = measure_curvatures(aug, MultiplicityAssignment.on(aug, weights), th)
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
        assert valuation_defect(aug, mu, th, v, A, B) == want


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


def test_measures_reject_an_assignment_on_another_complex():
    aug, other = augment(hex_flower()), augment(hex_flower())
    th = np.zeros((len(aug.faces), 3))
    with pytest.raises(ValueError, match="another complex"):
        measure_curvatures(aug, standard_multiplicities(other), th)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("rings", [8, 16])
def test_measure_equivalence_at_the_default_start(rings, scenario):
    aug, cs = build("ring_lattice", n_rings=rings, scenario=scenario)
    assert measure_equivalence_check(aug, cs, default_start(aug, cs)) <= 1e-12
