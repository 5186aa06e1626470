"""Circles and weighted points encoded as vectors in Minkowski R^{3,1}.

The inner product used throughout is

    <xi, zeta> = xi1*zeta1 + xi2*zeta2 + xi3*zeta3 - xi4*zeta4.

A nonzero vector with xi4 - xi3 > 0 projects to a *weighted point*: a
center p = (xi1, xi2) / (xi4 - xi3) together with a weight
W = <xi, xi> / (xi4 - xi3)^2.  For W > 0 the weighted point is a circle
of radius sqrt(W), for W = 0 it is a plain point, and for W < 0 it is a
point with an imaginary radius.  Scaling xi by a positive factor does
not change the weighted point, so incidence predicates only depend on
the normalized product

    q = <xi, zeta> / sqrt(<xi, xi> <zeta, zeta>).

Circles intersect when |q| <= 1 (at angle arccos q) and are disjoint
when |q| > 1 (at inversive distance arccosh |q|); q > 1 corresponds to
nested circles, q < -1 to separated ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MPoint",
    "WeightedPoint",
    "LorentzMap",
    "InfinitesimalMobius",
    "ImproperVectorError",
    "PredicateDomainError",
    "NotLorentzError",
    "METRIC_SIGNS",
    "UNIT_CIRCLE",
    "UNIT_DISK_COREP",
    "mprod",
    "project",
    "canonical_lift",
    "point_separation_sq",
    "intersection_angle",
    "inversive_distance",
    "power_of_point",
    "apply_lorentz",
    "infinitesimal_generator",
    "induced_label_variation",
]

#: Signs of the inner product, as a vector: diag of the Gram matrix.
METRIC_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])

#: Gram matrix of the inner product.
_G = np.diag(METRIC_SIGNS)

#: Tolerance for the Lorentz defect |m^T G m - G|, relative to 1.
LORENTZ_TOL = 1e-12

#: Relative tolerance against max-norm squared when testing <xi,xi> = 0.
NULL_TOL = 1e-12


class ImproperVectorError(ValueError):
    """The vector has xi4 - xi3 <= 0 and does not represent a weighted point."""


class PredicateDomainError(ValueError):
    """A predicate was evaluated outside the configuration it is defined for."""


class NotLorentzError(ValueError):
    """The matrix does not preserve the inner product to tolerance."""


def _vec(x) -> np.ndarray:
    if isinstance(x, MPoint):
        return x.xi
    return np.asarray(x, dtype=float)


class MPoint:
    """A nonzero vector in R^{3,1}, up to positive scaling a circle or point.

    The vector is stored read-only.  ``is_proper`` reports whether the
    vector projects to a weighted point (xi4 - xi3 > 0); improper vectors
    such as the unit disk corepresentative are allowed but refuse
    projection.
    """

    __slots__ = ("xi",)

    def __init__(self, xi):
        xi = np.array(xi, dtype=float).reshape(4)
        if not np.all(np.isfinite(xi)):
            raise ValueError("MPoint entries must be finite")
        if not np.any(xi != 0.0):
            raise ValueError("MPoint must be nonzero")
        xi.setflags(write=False)
        self.xi = xi

    @property
    def is_proper(self) -> bool:
        return self.xi[3] - self.xi[2] > 0.0

    def scaled(self, s: float) -> "MPoint":
        """The same weighted point, represented by s*xi (s > 0)."""
        if s <= 0:
            raise ValueError("scale factor must be positive")
        return MPoint(s * self.xi)

    def __repr__(self):
        return f"MPoint({self.xi.tolist()})"

    def __eq__(self, other):
        return isinstance(other, MPoint) and bool(np.all(self.xi == other.xi))

    def __hash__(self):
        return hash(self.xi.tobytes())


#: Standard lift of the unit circle centered at the origin.
UNIT_CIRCLE = MPoint([0.0, 0.0, -1.0, 0.0])

#: Negation of UNIT_CIRCLE.  Improper; used only to orient incidence against
#: the unit circle so that a circle internally tangent to it has normalized
#: product -1.
UNIT_DISK_COREP = MPoint([0.0, 0.0, 1.0, 0.0])


@dataclass(frozen=True)
class WeightedPoint:
    """A plane point p with a weight W (W = r^2 when it is a circle)."""

    x: float
    y: float
    W: float

    @property
    def p(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def radius(self) -> float:
        if self.W < 0:
            raise ValueError("negative weight has no real radius")
        return float(np.sqrt(self.W))


def mprod(xi, zeta) -> float:
    """Inner product <xi, zeta> of signature (3, 1)."""
    a = _vec(xi)
    b = _vec(zeta)
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3])


def _depth(xi: np.ndarray) -> float:
    return float(xi[3] - xi[2])


def _require_proper(xi: np.ndarray) -> float:
    d = _depth(xi)
    if d <= 0.0:
        raise ImproperVectorError(
            f"vector is not in R^4_perp: xi4 - xi3 = {d!r} must be positive"
        )
    return d


def project(xi) -> WeightedPoint:
    """Weighted point represented by xi.  Requires xi4 - xi3 > 0."""
    v = _vec(xi)
    d = _require_proper(v)
    return WeightedPoint(v[0] / d, v[1] / d, mprod(v, v) / (d * d))


def canonical_lift(wp, W: float | None = None) -> MPoint:
    """The representative of a weighted point with xi4 - xi3 = 1.

    Accepts either a WeightedPoint or a center (2-vector) plus weight.
    """
    if W is None:
        p = np.array([wp.x, wp.y])
        W = wp.W
    else:
        p = np.asarray(wp, dtype=float).reshape(2)
    q = float(p @ p)
    return MPoint([p[0], p[1], (q - W - 1.0) / 2.0, (q - W + 1.0) / 2.0])


def point_separation_sq(xi, zeta) -> float:
    """Squared distance between the centers of two weighted points.

    Computed as <u, u> for u the difference of the canonical
    representatives, which equals |p(xi) - p(zeta)|^2.
    """
    a = _vec(xi)
    b = _vec(zeta)
    da = _require_proper(a)
    db = _require_proper(b)
    u = a / da - b / db
    return mprod(u, u)


def _normalized_product(xi, zeta) -> float:
    a = _vec(xi)
    b = _vec(zeta)
    na = mprod(a, a)
    nb = mprod(b, b)
    if na <= 0 or nb <= 0:
        raise PredicateDomainError(
            "both arguments must have positive self-product (real circles)"
        )
    return mprod(a, b) / float(np.sqrt(na) * np.sqrt(nb))


def intersection_angle(xi, zeta) -> float:
    """Angle between two intersecting circles, in [0, pi].

    Defined when the normalized product q has |q| <= 1.  Tangencies sit
    on the boundary: q = 1 for equal or internally tangent circles,
    q = -1 for externally tangent ones.
    """
    q = _normalized_product(xi, zeta)
    if abs(q) > 1.0 + 1e-12:
        raise PredicateDomainError(
            f"disjoint circles (normalized product {q!r}), use inversive_distance"
        )
    return float(np.arccos(np.clip(q, -1.0, 1.0)))


def inversive_distance(xi, zeta) -> float:
    """Inversive distance between two disjoint circles.

    Defined when the normalized product q has |q| > 1, as arccosh |q|.
    q > 1 for nested circles and q < -1 for separated ones; both agree
    with the classical formula |d^2 - r1^2 - r2^2| / (2 r1 r2).
    """
    q = _normalized_product(xi, zeta)
    if abs(q) <= 1.0:
        raise PredicateDomainError(
            f"circles intersect (normalized product {q!r}), use intersection_angle"
        )
    return float(np.arccosh(abs(q)))


def power_of_point(xi, zeta) -> float:
    """Power of the plain point p(xi) with respect to the circle zeta.

    Requires <xi, xi> = 0 so that xi represents a point.  Equals
    |p(xi) - p(zeta)|^2 - W(zeta).
    """
    a = _vec(xi)
    n = mprod(a, a)
    scale = float(np.max(np.abs(a))) ** 2
    if abs(n) > NULL_TOL * scale:
        raise PredicateDomainError(
            f"<xi, xi> = {n!r} is not null; power of a point needs a point"
        )
    w = project(zeta)
    return point_separation_sq(a, zeta) - w.W


def _defect_scale(m: np.ndarray) -> float:
    # roundoff in m^T G m grows with the square of the entries, so a
    # boost of large rapidity needs a proportionally looser bound
    return max(1.0, float(np.max(np.abs(m))) ** 2)


class LorentzMap:
    """A linear map of R^{3,1} preserving the inner product.

    The defect max|m^T G m - G| must not exceed ``tol`` (default 1e-12)
    relative to max(1, |m|_max^2).  Passing ``tol=None`` skips the
    check; this is how the first-order infinitesimal family is stored,
    whose defect is O(eps^2).
    """

    __slots__ = ("m",)

    def __init__(self, m, tol: float | None = LORENTZ_TOL):
        m = np.array(m, dtype=float).reshape(4, 4)
        if tol is not None:
            defect = np.max(np.abs(m.T @ _G @ m - _G))
            if defect > tol * _defect_scale(m):
                raise NotLorentzError(
                    f"matrix does not preserve the product: defect {defect!r} > {tol!r}"
                )
        m.setflags(write=False)
        self.m = m

    def lorentz_defect(self) -> float:
        return float(np.max(np.abs(self.m.T @ _G @ self.m - _G)))

    def __matmul__(self, other: "LorentzMap") -> "LorentzMap":
        return LorentzMap(self.m @ other.m, tol=None)

    @classmethod
    def identity(cls) -> "LorentzMap":
        return cls(np.eye(4))

    @classmethod
    def rotation(cls, angle: float) -> "LorentzMap":
        """Rotation of the plane by ``angle`` around the origin."""
        c, s = np.cos(angle), np.sin(angle)
        m = np.eye(4)
        m[0, 0] = c
        m[0, 1] = -s
        m[1, 0] = s
        m[1, 1] = c
        return cls(m)

    @classmethod
    def plane_scaling(cls, s: float) -> "LorentzMap":
        """Scaling of the plane by s > 0 about the origin.

        Realized as the boost of rapidity log(s) in the (xi3, xi4)
        plane: centers scale by s, weights by s^2.
        """
        if s <= 0:
            raise ValueError("scale factor must be positive")
        lam = np.log(s)
        m = np.eye(4)
        m[2, 2] = np.cosh(lam)
        m[2, 3] = np.sinh(lam)
        m[3, 2] = np.sinh(lam)
        m[3, 3] = np.cosh(lam)
        return cls(m)

    @classmethod
    def exp(cls, g: "InfinitesimalMobius", eps: float) -> "LorentzMap":
        """Exact Lorentz map exp(eps * M(g)) for a generator g."""
        import scipy.linalg

        m = infinitesimal_generator(g, 1.0).m - np.eye(4)
        return cls(scipy.linalg.expm(eps * m))

    def __repr__(self):
        return f"LorentzMap({self.m.tolist()})"


def apply_lorentz(L: LorentzMap, xi) -> MPoint:
    """Image of xi under L.  Rejects maps whose defect exceeds tolerance."""
    if L.lorentz_defect() > LORENTZ_TOL * _defect_scale(L.m):
        raise NotLorentzError(
            f"matrix does not preserve the product: defect {L.lorentz_defect()!r}"
        )
    return MPoint(L.m @ _vec(xi))


@dataclass(frozen=True)
class InfinitesimalMobius:
    """Parameters of an infinitesimal Mobius deformation.

    (a, b) and (c, d) drive the x and y directions, t the uniform
    scaling, r the rotation.  The induced first-order change of a
    logarithmic label at plane position p is
    (a + b) * p_x + (c + d) * p_y + t.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    t: float = 0.0
    r: float = 0.0


def infinitesimal_generator(g: InfinitesimalMobius, eps: float) -> LorentzMap:
    """First-order Mobius perturbation I + eps*M(g).

    The result preserves the product only to O(eps^2), so it is stored
    unchecked; use LorentzMap.exp for an exact map with the same
    derivative at eps = 0.
    """
    a, b, c, d, t, r = g.a, g.b, g.c, g.d, g.t, g.r
    m = np.array(
        [
            [1.0, eps * r, -eps * b, -eps * a],
            [-eps * r, 1.0, -eps * d, -eps * c],
            [eps * b, eps * d, 1.0, eps * t],
            [-eps * a, -eps * c, eps * t, 1.0],
        ]
    )
    return LorentzMap(m, tol=None)


def induced_label_variation(g: InfinitesimalMobius, p):
    """First-order change of the logarithmic label at plane position p.

    An (n, 2) array of positions gives the n changes as an array.
    """
    p = np.asarray(p, dtype=float)
    x, y = p.T if p.ndim == 2 else p.reshape(2)
    return (g.a + g.b) * x + (g.c + g.d) * y + g.t
