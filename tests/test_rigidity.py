"""Constraint-matrix rank experiment and Mobius orbit transport."""

import numpy as np
import pytest

from diskfold import (
    InfinitesimalMobius,
    constraint_matrix,
    layout_augmented,
    mobius_orbit_check,
    newton_flat,
    numerical_rank,
    realize_mpoints,
)
from diskfold.presets import build

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
    xg = np.concatenate([g * mp[v].xi for v in aug.vertex_order])
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


def test_orbit_transport_stays_flat(hex_layout):
    aug, cs, f, lay = hex_layout
    for g in GENERATORS:
        for eps in (1e-3, 1e-4):
            rep = mobius_orbit_check(aug, cs, f, lay, g, eps)
            assert rep.eps == eps
            assert rep.max_abs_curvature <= 100.0 * eps * eps
            assert rep.max_variation_dev <= 10.0 * eps


def test_orbit_variation_matches_position_formula(hex_layout):
    aug, cs, f, lay = hex_layout
    g = InfinitesimalMobius(a=0.5, c=-0.3, t=0.2)
    rep = mobius_orbit_check(aug, cs, f, lay, g, 1e-4)
    assert rep.max_variation_dev <= 1e-3
    assert rep.f_moved.shape == f.shape


def test_orbit_rejects_eps_leaving_proper_cone(hex_layout):
    aug, cs, f, lay = hex_layout
    with pytest.raises(ValueError):
        mobius_orbit_check(aug, cs, f, lay, InfinitesimalMobius(b=1.0), 5.0)


def test_zero_generator_is_identity(hex_layout):
    aug, cs, f, lay = hex_layout
    rep = mobius_orbit_check(aug, cs, f, lay, InfinitesimalMobius(), 1e-3)
    assert np.max(np.abs(rep.f_moved - f)) <= 1e-12
    assert rep.max_abs_curvature <= 1e-12


def test_solved_label_transports_too():
    aug, cs = build("hex_orthogonal")
    res = newton_flat(aug, cs, tol=1e-12)
    lay = layout_augmented(aug, cs, res.f)
    rep = mobius_orbit_check(aug, cs, res.f, lay, InfinitesimalMobius(b=0.7, r=0.4), 1e-3)
    assert rep.max_abs_curvature <= 1e-4
