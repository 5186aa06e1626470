"""Minkowski-model circles: the product, the lift and the projection on
rows, and the infinitesimal Mobius generators."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from diskfold import (
    ImproperVectorError,
    InfinitesimalMobius,
    MPoint,
    canonical_lift,
    induced_label_variation,
    infinitesimal_generator,
    mprod,
    project,
)

_G = np.diag([1.0, 1.0, 1.0, -1.0])


def _circles(*xyr):
    """Lifts of circles (x, y, r), one row each."""
    x, y, r = np.array(xyr, dtype=float).T
    return canonical_lift(np.column_stack([x, y]), r * r)


def _exp(g, s):
    """The exact Lorentz map exp(s * M(g))."""
    return scipy.linalg.expm(s * (infinitesimal_generator(g, 1.0) - np.eye(4)))


coord = st.floats(min_value=-50.0, max_value=50.0)
weight = st.floats(min_value=-25.0, max_value=100.0)
rows = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*[st.tuples(coord, coord, weight)] * n)
)


def test_mprod_signature():
    e = np.eye(4)
    assert np.array_equal(mprod(e[:, None], e[None]), _G)
    for i in range(4):
        assert mprod(e[i], e[i]) == (1.0 if i < 3 else -1.0)


def test_mprod_rounds_term_for_term():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 50, 4)) * 10.0 ** rng.integers(-8, 8, (2, 50, 4))
    got = mprod(a, b)
    assert got.shape == (50,)
    for i in range(50):
        x, y = a[i].tolist(), b[i].tolist()
        assert got[i] == x[0] * y[0] + x[1] * y[1] + x[2] * y[2] - x[3] * y[3]


def test_unit_circle_lift():
    xi = canonical_lift(np.zeros((1, 2)), np.ones(1))
    assert np.array_equal(xi, [[0.0, 0.0, -1.0, 0.0]])
    P, W = project(xi)
    assert P.tolist() == [[0.0, 0.0]] and W.tolist() == [1.0]


def test_unit_disk_corepresentative_is_improper():
    # the negated unit circle has xi4 - xi3 = -1; the first improper row
    # is named
    xi = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 2.0, 0.0]])
    with pytest.raises(ImproperVectorError, match=r"^vector is not in R\^4_perp: xi4 - xi3 = -1\.0 must be positive$"):
        project(xi)
    with pytest.raises(ImproperVectorError, match=r"xi4 - xi3 = 0\.0 "):
        project([0.0, 0.0, -0.0, 0.0])


@given(rows)
def test_lift_project_round_trip(xyw):
    x, y, W = np.array(xyw).T
    xi = canonical_lift(np.column_stack([x, y]), W)
    assert xi.shape == (len(W), 4)
    assert np.allclose(xi[:, 3] - xi[:, 2], 1.0, rtol=0.0, atol=1e-12)
    P, Wp = project(xi)
    # recovering W from <xi, xi> cancels terms of size |p|^2
    scale = 1.0 + x * x + y * y + np.abs(W)
    assert np.all(np.abs(P[:, 0] - x) <= 1e-12 * scale)
    assert np.all(np.abs(P[:, 1] - y) <= 1e-12 * scale)
    assert np.all(np.abs(Wp - W) <= 1e-11 * scale)


@given(rows, st.floats(min_value=0.01, max_value=100.0))
def test_projection_scale_invariance(xyw, s):
    x, y, W = np.array(xyw).T
    P, Wp = project(s * canonical_lift(np.column_stack([x, y]), W))
    scale = 1.0 + x * x + y * y + np.abs(W)
    assert np.all(np.abs(P[:, 0] - x) <= 1e-10 * scale)
    assert np.all(np.abs(P[:, 1] - y) <= 1e-10 * scale)
    assert np.all(np.abs(Wp - W) <= 1e-10 * scale)


def test_lift_and_projection_round_like_one_row():
    rng = np.random.default_rng(1)
    p, W = rng.uniform(-50, 50, (40, 2)), rng.uniform(-25, 100, 40)
    xi = canonical_lift(p, W)
    P, Wp = project(3.0 * xi)
    for i in range(40):
        q = float(p[i] @ p[i])
        assert xi[i].tolist() == [p[i, 0], p[i, 1], (q - W[i] - 1.0) / 2.0, (q - W[i] + 1.0) / 2.0]
        v = 3.0 * xi[i]
        d = v[3] - v[2]
        assert P[i].tolist() == [v[0] / d, v[1] / d]
        assert Wp[i] == (v[0] * v[0] + v[1] * v[1] + v[2] * v[2] - v[3] * v[3]) / (d * d)


def test_mpoint_validates():
    m = MPoint([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="read-only"):
        m.xi[0] = 0.0
    with pytest.raises(ValueError, match="^MPoint entries must be finite$"):
        MPoint([np.nan, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="^MPoint must be nonzero$"):
        MPoint(np.zeros(4))


@given(coord, coord, weight, coord, coord, weight)
def test_point_separation_is_plane_distance(x1, y1, w1, x2, y2, w2):
    # the difference u of two lifts has u4 - u3 = 0, so <u, u> = |p1 - p2|^2
    a, b = canonical_lift([[x1, y1], [x2, y2]], [w1, w2])
    d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
    assert mprod(a - b, a - b) == pytest.approx(d2, abs=1e-8 + 1e-10 * d2)


def _normalized_product(a, b):
    return mprod(a, b) / np.sqrt(mprod(a, a) * mprod(b, b))


def test_intersection_angle_cases():
    # unit circles: the normalized product is the cosine of the angle,
    # pi at external tangency and 0 for coinciding circles
    ds = [0.0, 1.0, np.sqrt(2.0), 2.0]
    u = _circles(*[(0, 0, 1)] * 4)
    q = _normalized_product(u, _circles(*[(d, 0, 1) for d in ds]))
    assert np.arccos(np.clip(q, -1, 1)) == pytest.approx([0.0, np.pi / 3, np.pi / 2, np.pi], abs=1e-12)
    # internal tangency: circle of radius 1/2 touching the unit circle
    # from inside
    assert _normalized_product(*_circles((0, 0, 1), (0.5, 0, 0.5))) == pytest.approx(1.0, abs=1e-14)


def test_inversive_distance_cases():
    # two unit circles with centers sqrt(6) apart: cosh(delta) = 2, separated
    assert _normalized_product(*_circles((0, 0, 1), (np.sqrt(6.0), 0, 1))) == pytest.approx(-2.0, abs=1e-12)
    # concentric nested circles radii R > r: cosh(delta) = (R^2+r^2)/(2Rr)
    assert _normalized_product(*_circles((0, 0, 2), (0, 0, 0.5))) == pytest.approx(4.25 / 2.0, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_exactly_one_predicate_applies(d, r1, r2):
    """|q| < 1 exactly when the circles cross, |r1 - r2| < d < r1 + r2."""
    q = _normalized_product(*_circles((0, 0, r1), (d, 0, r2)))
    if abs(abs(q) - 1.0) < 1e-9:
        return  # tangency boundary
    assert (abs(q) < 1.0) == (abs(r1 - r2) < d < r1 + r2)


def test_power_of_point():
    # for depth-1 lifts -2 <a, b> = |p_a - p_b|^2 - W_a - W_b, so a point
    # (W = 0) against a circle gives its power
    points, circle = canonical_lift([[3.0, 0.0], [1.0, 0.0]], [0.0, 0.0]), _circles((0, 0, 1))
    # a point on the circle has power zero
    assert -2.0 * mprod(points, circle) == pytest.approx([8.0, 0.0], abs=1e-12)


def test_rotation_and_scaling_act_on_circles():
    # the r generator turns the plane clockwise, the t generator scales it by e^s
    xi = _circles((1, 0, 0.5))
    P, W = project(xi @ _exp(InfinitesimalMobius(r=1.0), -np.pi / 2).T)
    assert P[0] == pytest.approx((0.0, 1.0), abs=1e-12)
    assert np.sqrt(W[0]) == pytest.approx(0.5, abs=1e-12)

    P, W = project(xi @ _exp(InfinitesimalMobius(t=1.0), np.log(2.0)).T)
    assert P[0] == pytest.approx((2.0, 0.0), abs=1e-12)
    assert np.sqrt(W[0]) == pytest.approx(1.0, abs=1e-12)


def test_lorentz_defect_of_named_maps():
    # the identity, a rotation and a plane scaling, as exponentials of generators
    for L in (np.eye(4), _exp(InfinitesimalMobius(r=1.0), 0.3), _exp(InfinitesimalMobius(t=1.0), np.log(1.7))):
        assert np.max(np.abs(L.T @ _G @ L - _G)) <= 1e-12


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**9), coord, coord, weight, coord, coord, weight)
def test_products_preserved_under_lorentz(seed, x1, y1, w1, x2, y2, w2):
    rng = np.random.default_rng(seed)
    L = _exp(InfinitesimalMobius(*rng.uniform(-0.6, 0.6, 6)), 1.0)
    assert np.max(np.abs(L.T @ _G @ L - _G)) <= 1e-10 * max(1.0, np.max(np.abs(L)) ** 2)
    a, b = canonical_lift([[x1, y1], [x2, y2]], [w1, w2])
    before = mprod(a, b)
    scale = max(np.abs(a)) * max(np.abs(b)) * np.max(np.abs(L)) ** 2
    after = mprod(L @ a, L @ b)
    assert abs(after - before) <= 1e-10 * max(1.0, scale)


def test_large_plane_scalings_stay_constructible():
    # acting on a depth-1 lift cancels digits like s^2 * eps, so the
    # usable range is bounded by the representation, not by the map
    for s in (1e-3, 1e3):
        P, W = project(_circles((1, 0, 0.5)) @ _exp(InfinitesimalMobius(t=1.0), np.log(s)).T)
        assert P[0, 0] == pytest.approx(s, rel=1e-9)
        assert np.sqrt(W[0]) == pytest.approx(0.5 * s, rel=1e-9)


def test_mobius_orbit_leaves_the_proper_cone():
    # the b-generator rotates the (xi1, xi3) plane; far enough along the
    # orbit the unit circle passes through infinity and its depth flips
    moved = _exp(InfinitesimalMobius(b=1.0), 2.0) @ [0.0, 0.0, -1.0, 0.0]
    assert moved[3] - moved[2] <= 0
    with pytest.raises(ImproperVectorError):
        project(moved)


def test_infinitesimal_generator_is_lorentz_to_second_order():
    I = np.eye(4)
    for name in "abcdtr":
        M = infinitesimal_generator(InfinitesimalMobius(**{name: 1.0}), 1.0) - I
        # M is in the Lie algebra of the product: G M is antisymmetric
        assert np.array_equal(_G @ M, -(_G @ M).T)
        for eps in (1e-4, 1e-6):
            L = I + eps * M
            assert np.max(np.abs(L.T @ _G @ L - _G)) <= 10 * eps**2


def test_induced_label_variation_formula():
    g = InfinitesimalMobius(a=1.0, b=2.0, c=3.0, d=4.0, t=5.0, r=6.0)
    # delta f = (a+b) x + (c+d) y + t; rotation r contributes nothing
    assert induced_label_variation(g, (2.0, -1.0)) == pytest.approx(3 * 2 + 7 * (-1) + 5)
