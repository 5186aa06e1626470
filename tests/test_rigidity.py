"""Constraint-matrix rank experiment and Mobius orbit transport."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from diskfold import (
    AngleSystem,
    InfinitesimalMobius,
    constraint_matrix,
    layout_augmented,
    mobius_orbit_check,
    newton_flat,
    numerical_rank,
    realize_mpoints,
    row_rank_certificate,
)
from diskfold.minkowski import induced_label_variation, infinitesimal_generator
from diskfold.presets import SCENARIOS, build

from conftest import HEX_FLAT

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
    aug, cs = build("hex_tangent")
    f = HEX_FLAT["hex_tangent"]
    return aug, cs, f, layout_augmented(aug, cs, f)


@pytest.fixture(scope="module")
def hex_orbit(hex_layout):
    """The arguments mobius_orbit_check takes before the generator."""
    aug, cs, f, lay = hex_layout
    return AngleSystem(aug, cs), f, lay, realize_mpoints(aug, cs, f, lay)


@pytest.fixture(scope="module")
def hex_realized(hex_layout):
    aug, cs, f, lay = hex_layout
    return aug, cs, f, realize_mpoints(aug, cs, f, lay)


def test_constraint_matrix_shape(hex_realized):
    aug, _, _, mp = hex_realized
    C = constraint_matrix(aug, mp)
    v, e = len(aug.vertices), len(aug.edges)
    assert C.shape == (v + e, 4 * v)
    assert C.shape == (26, 32)


def test_constraint_rows_encode_products(hex_realized):
    """Rows applied to the realization itself recover the products.

    Vertex rows carry no symmetrization factor, edge rows pick it up
    from the two blocks: C (G xi) = (alpha_v, ..., -2 eta_uv, ...).
    """
    aug, cs, _, mp = hex_realized
    C = constraint_matrix(aug, mp)
    g = np.array([1.0, 1.0, 1.0, -1.0])
    want = [cs.alpha[v] for v in aug.vertex_order]
    want += [-2.0 * cs.eta[(u, w)] for (u, w) in aug.edges]
    xg = (g * mp).ravel()
    assert np.allclose(C @ xg, want, atol=1e-10)


def test_rank_is_reported(hex_realized, capsys):
    # experimental observation, printed rather than asserted: the
    # 26x32 matrix at the hexagonal solution shows full row rank
    aug, _, _, mp = hex_realized
    C = constraint_matrix(aug, mp)
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


def _realized_constraint_matrix(name, **kw):
    aug, cs = build(name, **kw)
    res = newton_flat(aug, cs)
    assert res.converged
    lay = layout_augmented(aug, cs, res.f)
    return constraint_matrix(aug, realize_mpoints(aug, cs, res.f, lay))


CERTIFIED = [("hex_tangent", {}), ("hex_orthogonal", {}), ("hex_inscribed", {})] + [
    ("ring_lattice", {"n_rings": n, "scenario": sc}) for n in range(1, 9) for sc in SCENARIOS
]


@pytest.mark.parametrize(
    "name, kw", CERTIFIED, ids=[f"ring{kw['n_rings']}-{kw['scenario']}" if kw else n for n, kw in CERTIFIED]
)
def test_certificate_matches_dense_rank(name, kw):
    m = _realized_constraint_matrix(name, **kw)
    cert = row_rank_certificate(m, 1e-10)
    assert cert is not None
    rank, s_max, smallest = cert
    dense_rank, s = numerical_rank(m, 1e-10)
    assert rank == dense_rank == m.shape[0]
    assert abs(s_max - s[0]) <= 1e-12 * s[0]
    assert np.all(np.diff(smallest) >= 0)
    # squaring M costs digits at the small end; the margin keeps them apart
    assert np.allclose(smallest, s[::-1][:4], rtol=1e-4, atol=0)
    again = row_rank_certificate(m, 1e-10)
    assert again[1] == s_max and np.array_equal(again[2], smallest)


@pytest.mark.parametrize(
    "target, error",
    [
        ("splu", RuntimeError("Factor is exactly singular")),
        ("eigsh", ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))),
    ],
)
def test_certificate_refuses_a_failed_factor_or_lanczos(hex_realized, monkeypatch, target, error):
    import scipy.sparse.linalg

    def fail(*args, **kwargs):
        raise error

    aug, _, _, mp = hex_realized
    m = constraint_matrix(aug, mp)
    assert row_rank_certificate(m) is not None
    monkeypatch.setattr(scipy.sparse.linalg, target, fail)
    assert row_rank_certificate(m) is None


def test_certificate_margin_follows_the_cutoff(hex_realized):
    # (s_min / s_max)**2 is about 5.4e-3 here: the margin 1e3 * cutoff**2
    # clears it at cutoff 1e-3 but not at 1e-2, where the dense rank
    # still counts every row
    aug, _, _, mp = hex_realized
    m = constraint_matrix(aug, mp)
    assert row_rank_certificate(m, 1e-3) is not None
    assert row_rank_certificate(m, 1e-2) is None
    assert numerical_rank(m, 1e-2)[0] == m.shape[0]


def test_certificate_needs_more_rows_than_eigenvalues():
    assert row_rank_certificate(np.eye(5)) is None
    assert row_rank_certificate(np.eye(6))[0] == 6


def test_orbit_transport_stays_flat(hex_orbit):
    for g in GENERATORS:
        for eps in (1e-3, 1e-4):
            rep = mobius_orbit_check(*hex_orbit, g, eps)
            assert rep.eps == eps
            assert rep.max_abs_curvature <= 100.0 * eps * eps
            assert rep.max_variation_dev <= 10.0 * eps


def test_orbit_variation_matches_position_formula(hex_orbit):
    g = InfinitesimalMobius(a=0.5, c=-0.3, t=0.2)
    rep = mobius_orbit_check(*hex_orbit, g, 1e-4)
    assert rep.max_variation_dev <= 1e-3
    assert rep.f_moved.shape == hex_orbit[1].shape


def test_orbit_rejects_eps_leaving_proper_cone(hex_orbit):
    with pytest.raises(ValueError, match="pushes vertex"):
        mobius_orbit_check(*hex_orbit, InfinitesimalMobius(b=1.0), 5.0)


def test_zero_generator_is_identity(hex_orbit):
    f = hex_orbit[1]
    rep = mobius_orbit_check(*hex_orbit, InfinitesimalMobius(), 1e-3)
    assert np.max(np.abs(rep.f_moved - f)) <= 1e-12
    assert rep.max_abs_curvature <= 1e-12


def test_solved_label_transports_too():
    aug, cs = build("hex_orthogonal")
    res = newton_flat(aug, cs, tol=1e-12)
    lay = layout_augmented(aug, cs, res.f)
    mp = realize_mpoints(aug, cs, res.f, lay)
    rep = mobius_orbit_check(AngleSystem(aug, cs), res.f, lay, mp, InfinitesimalMobius(b=0.7, r=0.4), 1e-3)
    assert rep.max_abs_curvature <= 1e-4


def _orbit_per_vertex(aug, layout, mpoints, generator, eps):
    """The moved label and predicted variation, one vertex at a time."""
    L = infinitesimal_generator(generator, eps)
    moved = np.empty(len(aug.vertices))
    for i in range(len(aug.vertices)):
        xi = L.m @ mpoints[i]
        moved[i] = -np.log(xi[3] - xi[2])
    predicted = np.array([induced_label_variation(generator, p) for p in layout.positions])
    return moved, predicted


@pytest.mark.parametrize("name", ["hex_tangent", "hex_orthogonal", "ring_lattice"])
def test_orbit_arrays_match_per_vertex_loop(name):
    aug, cs = build(name, n_rings=3, scenario="orthogonal")
    f = HEX_FLAT[name] if name in HEX_FLAT else newton_flat(aug, cs).f
    lay = layout_augmented(aug, cs, f)
    mp = realize_mpoints(aug, cs, f, lay)
    sys_ = AngleSystem(aug, cs)
    rng = np.random.default_rng(3)
    for g in GENERATORS + [InfinitesimalMobius(*rng.standard_normal(6)) for _ in range(4)]:
        for eps in (1e-2, 1e-3, 1e-5):
            rep = mobius_orbit_check(sys_, f, lay, mp, g, eps)
            moved, predicted = _orbit_per_vertex(aug, lay, mp, g, eps)
            assert rep.f_moved.tobytes() == moved.tobytes()
            assert rep.predicted_variation.tobytes() == predicted.tobytes()
            assert rep.variation_rate.tobytes() == ((moved - f) / eps).tobytes()
