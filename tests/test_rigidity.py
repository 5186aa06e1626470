"""Constraint-matrix rank experiment and Mobius orbit transport."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from diskfold import (
    InfinitesimalMobius,
    attach_boundary_data,
    augment,
    constraint_matrix,
    layout_augmented,
    mobius_orbit_check,
    newton_flat,
    normalize_to_unit_disk,
    numerical_rank,
    row_rank_certificate,
    validate_disk,
)
from diskfold.minkowski import induced_label_variation, infinitesimal_generator
from diskfold.presets import SCENARIOS, build, scenario_data

from conftest import HEX_FLAT, flipped_disk

GENERATORS = [
    InfinitesimalMobius(a=1.0),
    InfinitesimalMobius(b=1.0),
    InfinitesimalMobius(c=1.0),
    InfinitesimalMobius(d=1.0),
    InfinitesimalMobius(t=1.0),
    InfinitesimalMobius(r=1.0),
]


@pytest.fixture(scope="module")
def hex_layout():
    """The flat hexagon's layout: the argument of constraint_matrix, and
    of mobius_orbit_check before the generator."""
    cs = build("hex_tangent")
    return layout_augmented(cs, HEX_FLAT["hex_tangent"])


def test_constraint_matrix_shape(hex_layout):
    aug = hex_layout.cs.complex
    C = constraint_matrix(hex_layout)
    v, e = len(aug.vertices), len(aug.edges)
    assert C.shape == (v + e, 4 * v)
    assert C.shape == (26, 32)


def test_constraint_rows_encode_products(hex_layout):
    """Rows applied to the realization itself recover the products.

    Vertex rows carry no symmetrization factor, edge rows pick it up
    from the two blocks: C (G xi) = (alpha_v, ..., -2 eta_uv, ...).
    """
    cs, mp = hex_layout.cs, hex_layout.mpoints
    aug = cs.complex
    C = constraint_matrix(hex_layout)
    g = np.array([1.0, 1.0, 1.0, -1.0])
    want = [cs.alpha[v] for v in aug.vertices]
    want += [-2.0 * cs.eta[(u, w)] for (u, w) in aug.edges]
    xg = (g * mp).ravel()
    assert np.allclose(C @ xg, want, atol=1e-10)


def test_rank_is_reported(hex_layout, capsys):
    # experimental observation, printed rather than asserted: the
    # 26x32 matrix at the hexagonal solution shows full row rank
    C = constraint_matrix(hex_layout)
    rank, sv = numerical_rank(C)
    print(f"constraint matrix rank {rank} of min(26, 32), "
          f"sigma_max {sv[0]:.6f}, sigma_min kept {sv[rank - 1]:.6f}")
    assert len(sv) == 26
    assert sv[0] >= sv[-1] >= 0.0


def test_numerical_rank_on_simple_matrices():
    assert numerical_rank(np.zeros((3, 5)))[0] == 0
    assert numerical_rank(np.eye(4))[0] == 4
    m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert numerical_rank(m)[0] == 1


def _realized_layout(name, **kw):
    cs = build(name, **kw)
    res = newton_flat(cs)
    assert res.converged
    return layout_augmented(cs, res.f)


def _dense_reference(layout):
    """M written entry by entry into a dense array, without a sparse pass."""
    mp, E = layout.mpoints, layout.cs.complex.compiled.E
    n = len(mp)
    m = np.zeros((n + len(E), 4 * n))
    for v in range(n):
        m[v, 4 * v : 4 * v + 4] = mp[v]
    for k, (u, v) in enumerate(E):
        m[n + k, 4 * u : 4 * u + 4] = mp[v]
        m[n + k, 4 * v : 4 * v + 4] = mp[u]
    return m


CERTIFIED = [("hex_tangent", {}), ("hex_orthogonal", {}), ("hex_inscribed", {})] + [
    ("ring_lattice", {"n_rings": n, "scenario": sc}) for n in range(1, 9) for sc in SCENARIOS
]


@pytest.mark.parametrize(
    "name, kw", CERTIFIED, ids=[f"ring{kw['n_rings']}-{kw['scenario']}" if kw else n for n, kw in CERTIFIED]
)
def test_certificate_matches_dense_rank(name, kw):
    _assert_certified_as_dense(normalize_to_unit_disk(_realized_layout(name, **kw)))


@pytest.mark.parametrize("scenario", ["tangent", "inscribed"])
@pytest.mark.parametrize("seed", range(10))
def test_certificate_matches_dense_rank_on_flipped_disks(seed, scenario):
    disk = flipped_disk(4, seed)
    cs = attach_boundary_data(augment(disk), *scenario_data(disk, scenario))
    res = newton_flat(cs)
    assert res.converged
    _assert_certified_as_dense(normalize_to_unit_disk(layout_augmented(cs, res.f)))


def _assert_certified_as_dense(lay):
    m = constraint_matrix(lay)
    assert m.tobytes() == _dense_reference(lay).tobytes()
    cert = row_rank_certificate(lay, 1e-10)
    assert cert is not None
    rank, s_max, smallest = cert
    dense_rank = numerical_rank(m, 1e-10)[0]
    j_rank, s = numerical_rank(lay.cs.system.jacobian(lay.label), 1e-10)
    assert rank == dense_rank == m.shape[0]
    # the lemma: nullity(M) = nullity(J) + 3, and J's kernel is span{1, x, y}
    assert len(s) - j_rank == 3
    assert m.shape[1] - dense_rank == len(s) - j_rank + 3
    assert abs(s_max - s[0]) <= 1e-12 * s[0]
    assert np.all(np.diff(smallest) >= 0)
    assert np.allclose(smallest, s[::-1][3:7], rtol=1e-8, atol=0)
    again = row_rank_certificate(lay, 1e-10)
    assert again[1] == s_max and np.array_equal(again[2], smallest)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_certificate_holds_at_ring_12(scenario):
    raw = _realized_layout("ring_lattice", n_rings=12, scenario=scenario)
    rank, s_max, smallest = row_rank_certificate(normalize_to_unit_disk(raw), 1e-10)
    assert rank == 4 * len(raw.mpoints) - 6 == len(raw.mpoints) + len(raw.cs.complex.compiled.E)
    assert smallest[0] > 1e-10 * s_max
    assert row_rank_certificate(raw, 1e-10)[0] == rank


def test_raw_and_unit_disk_frames_certify_alike():
    # a similarity of the plane is a uniform label shift, which leaves J
    # as it is: at ring 64 the raw development certifies like its unit disk
    raw = _realized_layout("ring_lattice", n_rings=64, scenario="inscribed")
    rank, s_max, smallest = row_rank_certificate(raw, 1e-10)
    assert rank == 4 * len(raw.label) - 6
    assert smallest[0] > 1e-10 * s_max
    unit_rank, unit_s_max, unit_smallest = row_rank_certificate(normalize_to_unit_disk(raw), 1e-10)
    assert unit_rank == rank
    assert unit_s_max == pytest.approx(s_max, rel=1e-12)
    assert np.allclose(unit_smallest, smallest, rtol=1e-8, atol=0)


@pytest.mark.parametrize(
    "target, error",
    [
        ("splu", RuntimeError("Factor is exactly singular")),
        ("eigsh", ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))),
    ],
)
def test_certificate_refuses_a_failed_factor_or_lanczos(hex_layout, monkeypatch, target, error):
    import scipy.sparse.linalg

    def fail(*args, **kwargs):
        raise error

    assert row_rank_certificate(hex_layout) is not None
    monkeypatch.setattr(scipy.sparse.linalg, target, fail)
    assert row_rank_certificate(hex_layout) is None


def test_certificate_margin_follows_the_cutoff(hex_layout):
    # the error bound of the factor is about 1e-14 here, so the
    # certificate holds up to a cutoff just below sigma_4 / sigma_1 of J
    # (about 0.191) and fails just above it, where J's dense rank drops
    # below n - 3
    j = hex_layout.cs.system.jacobian(hex_layout.label)
    _, s = numerical_rank(j)
    ratio = s[-4] / s[0]
    assert row_rank_certificate(hex_layout, 0.999 * ratio) is not None
    assert row_rank_certificate(hex_layout, 1.001 * ratio) is None
    assert numerical_rank(j, 0.999 * ratio)[0] == len(s) - 3
    assert numerical_rank(j, 1.001 * ratio)[0] < len(s) - 3


def test_tiny_disks_report_every_value_off_span_z():
    # a disk of 3 to 6 vertices leaves 1 to 4 of J's values off span{1, x, y},
    # fewer than N_SMALLEST or all of them: the certificate reports each one
    for k in range(1, 5):
        disk = validate_disk(range(k + 2), [(0, i, i + 1) for i in range(1, k + 1)])
        cs = attach_boundary_data(augment(disk), *scenario_data(disk, "tangent"))
        lay = layout_augmented(cs, newton_flat(cs).f)
        rank, s_max, smallest = row_rank_certificate(lay, 1e-10)
        s = numerical_rank(cs.system.jacobian(lay.label))[1]
        assert rank == 4 * len(s) - 6 == numerical_rank(constraint_matrix(lay))[0]
        assert s_max == pytest.approx(s[0], rel=1e-12)
        assert np.allclose(smallest, s[::-1][3:], rtol=1e-8, atol=0) and len(smallest) == k


def test_orbit_transport_stays_flat(hex_layout):
    for g in GENERATORS:
        for eps in (1e-3, 1e-4):
            rep = mobius_orbit_check(hex_layout, g, eps)
            assert rep.eps == eps
            assert rep.max_abs_curvature <= 100.0 * eps * eps
            assert rep.max_variation_dev <= 10.0 * eps


def test_orbit_variation_matches_position_formula(hex_layout):
    g = InfinitesimalMobius(a=0.5, c=-0.3, t=0.2)
    rep = mobius_orbit_check(hex_layout, g, 1e-4)
    assert rep.max_variation_dev <= 1e-3
    assert rep.f_moved.shape == hex_layout.label.shape


def test_orbit_rejects_eps_leaving_proper_cone(hex_layout):
    with pytest.raises(ValueError, match="pushes vertex"):
        mobius_orbit_check(hex_layout, InfinitesimalMobius(b=1.0), 5.0)


def test_zero_generator_is_identity(hex_layout):
    f = hex_layout.label
    rep = mobius_orbit_check(hex_layout, InfinitesimalMobius(), 1e-3)
    assert np.max(np.abs(rep.f_moved - f)) <= 1e-12
    assert rep.max_abs_curvature <= 1e-12


def test_solved_label_transports_too():
    cs = build("hex_orthogonal")
    res = newton_flat(cs, tol=1e-12)
    rep = mobius_orbit_check(layout_augmented(cs, res.f), InfinitesimalMobius(b=0.7, r=0.4), 1e-3)
    assert rep.max_abs_curvature <= 1e-4


def _orbit_per_vertex(aug, layout, mpoints, generator, eps):
    """The moved label and predicted variation, one vertex at a time."""
    L = infinitesimal_generator(generator, eps)
    moved = np.empty(len(aug.vertices))
    for i in range(len(aug.vertices)):
        xi = L @ mpoints[i]
        moved[i] = -np.log(xi[3] - xi[2])
    predicted = np.array([induced_label_variation(generator, p) for p in layout.positions])
    return moved, predicted


@pytest.mark.parametrize("name", ["hex_tangent", "hex_orthogonal", "ring_lattice"])
def test_orbit_arrays_match_per_vertex_loop(name):
    cs = build(name, n_rings=3, scenario="orthogonal")
    aug = cs.complex
    f = HEX_FLAT[name] if name in HEX_FLAT else newton_flat(cs).f
    lay = layout_augmented(cs, f)
    mp = lay.mpoints
    rng = np.random.default_rng(3)
    for g in GENERATORS + [InfinitesimalMobius(*rng.standard_normal(6)) for _ in range(4)]:
        for eps in (1e-2, 1e-3, 1e-5):
            rep = mobius_orbit_check(lay, g, eps)
            moved, predicted = _orbit_per_vertex(aug, lay, mp, g, eps)
            assert rep.f_moved.tobytes() == moved.tobytes()
            assert rep.predicted_variation.tobytes() == predicted.tobytes()
            assert rep.variation_rate.tobytes() == ((moved - f) / eps).tobytes()
