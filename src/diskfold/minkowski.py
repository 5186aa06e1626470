"""Circles and weighted points encoded as vectors in Minkowski R^{3,1}.

The inner product used throughout is

    <xi, zeta> = xi1*zeta1 + xi2*zeta2 + xi3*zeta3 - xi4*zeta4.

A nonzero vector with xi4 - xi3 > 0 projects to a *weighted point*: a
center p = (xi1, xi2) / (xi4 - xi3) together with a weight
W = <xi, xi> / (xi4 - xi3)^2.  For W > 0 the weighted point is a circle
of radius sqrt(W), for W = 0 it is a plain point, and for W < 0 it is a
point with an imaginary radius.  Scaling xi by a positive factor does
not change the weighted point.  Two circles meet at angle arccos q,
or lie at inversive distance arccosh |q|, for the normalized product
q = <xi, zeta> / sqrt(<xi, xi> <zeta, zeta>).

Vectors are rows of arrays: mprod, canonical_lift and project act on
all rows at once, each row rounding like the scalar formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MPoint",
    "ImproperVectorError",
    "InfinitesimalMobius",
    "mprod",
    "canonical_lift",
    "project",
    "infinitesimal_generator",
    "induced_label_variation",
]


class ImproperVectorError(ValueError):
    """The vector has xi4 - xi3 <= 0 and does not represent a weighted point."""


class MPoint:
    """A finite nonzero vector in R^{3,1}, stored read-only as ``xi``."""

    __slots__ = ("xi",)

    def __init__(self, xi):
        xi = np.array(xi, dtype=float).reshape(4)
        if not np.all(np.isfinite(xi)):
            raise ValueError("MPoint entries must be finite")
        if not np.any(xi != 0.0):
            raise ValueError("MPoint must be nonzero")
        xi.setflags(write=False)
        self.xi = xi


def _dot2(a, b):
    """Row-wise dot products of (n, 2) arrays, rounded as ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def mprod(a, b):
    """Inner products <a, b> of signature (3, 1) over the last axis of
    (..., 4) arrays, term for term a0*b0 + a1*b1 + a2*b2 - a3*b3."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3]


def canonical_lift(p, W) -> np.ndarray:
    """The (n, 4) representatives with xi4 - xi3 = 1 of the weighted
    points with (n, 2) centers p and (n,) weights W; |p|^2 rounds as
    ``p[i] @ p[i]``."""
    p, W = np.asarray(p, dtype=float), np.asarray(W, dtype=float)
    q = _dot2(p, p)
    return np.column_stack([p, (q - W - 1.0) / 2.0, (q - W + 1.0) / 2.0])


def project(xi):
    """Centers (..., 2) and weights (...) of the weighted points that the
    (..., 4) rows xi represent.  Requires xi4 - xi3 > 0 in every row; the
    first row without it raises ImproperVectorError."""
    xi = np.asarray(xi, dtype=float)
    d = xi[..., 3] - xi[..., 2]
    bad = (d <= 0.0).ravel()
    if bad.any():
        raise ImproperVectorError(
            f"vector is not in R^4_perp: xi4 - xi3 = {float(d.ravel()[np.argmax(bad)])!r} must be positive"
        )
    return xi[..., :2] / d[..., None], mprod(xi, xi) / (d * d)


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


def infinitesimal_generator(g: InfinitesimalMobius, eps: float) -> np.ndarray:
    """The (4, 4) first-order Mobius perturbation I + eps*M(g).

    M(g) is in the Lie algebra of the product (G M is antisymmetric for
    G = diag(1, 1, 1, -1)), so the matrix preserves the product only to
    O(eps^2); scipy.linalg.expm(eps * M(g)) is the exact map with the
    same derivative at eps = 0.
    """
    a, b, c, d, t, r = g.a, g.b, g.c, g.d, g.t, g.r
    return np.array(
        [
            [1.0, eps * r, -eps * b, -eps * a],
            [-eps * r, 1.0, -eps * d, -eps * c],
            [eps * b, eps * d, 1.0, eps * t],
            [-eps * a, -eps * c, eps * t, 1.0],
        ]
    )


def induced_label_variation(g: InfinitesimalMobius, p):
    """First-order change of the logarithmic label at plane position p.

    An (n, 2) array of positions gives the n changes as an array.
    """
    p = np.asarray(p, dtype=float)
    x, y = p.T if p.ndim == 2 else p.reshape(2)
    return (g.a + g.b) * x + (g.c + g.d) * y + g.t
