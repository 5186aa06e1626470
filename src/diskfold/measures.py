"""Curvature as a measure built from simplex multiplicities.

Every simplex contributes to the curvature at a vertex v it contains:
2*pi for v itself, pi per edge, (pi - theta) per face with theta the
angle at v.  Weighting the contributions by a multiplicity assignment
mu gives

    K_mu(v) = 2*pi*mu(v) + sum_e pi*mu(e) + sum_f (pi - theta_{v,f})*mu(f).

With the standard assignment this reproduces the angle curvature of
the folded disk exactly, and the map (subcomplex -> curvature) is a
valuation: K(A u B) = K(A) + K(B) - K(A n B).

The angles come as the (F, 3) array of AngleSystem.angles, the weights
as the assignment's arrays (masked by row to restrict to a subcomplex),
and the curvature of all vertices is one scatter over the complex's
compiled incidence (edge ends, face corners).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .complexes import (
    AugmentedDisk,
    MultiplicityAssignment,
    _require_on,
    simplex_key,
    standard_multiplicities,
)
from .conformal import ConformalStructure, _complex_of
from .layout import PlaneLayout

__all__ = [
    "measure_curvature",
    "measure_curvatures",
    "measure_equivalence_check",
    "closure",
    "valuation_defect",
    "layout_point_multiplicity",
]

#: Distance within which layout_point_multiplicity counts a point as covered.
POINT_TOL = 1e-9


def measure_curvatures(
    aug: AugmentedDisk, mu: MultiplicityAssignment, angles: np.ndarray
) -> np.ndarray:
    """Curvature of the weighted complex at every vertex, in vertex order.

    ``angles`` is AngleSystem.angles(f): a row per face, column c at
    the corner faces[i][c].  One scatter of every simplex's
    contribution over the compiled incidence; ValueError unless mu is on aug.
    """
    return _measure(aug, mu, angles, (True, True, True))


def _measure(aug: AugmentedDisk, mu: MultiplicityAssignment, angles: np.ndarray, keep) -> np.ndarray:
    """measure_curvatures with mu's vertex, edge and face weights masked by ``keep``."""
    _require_on(mu, aug)
    ix = aug.compiled
    n = len(aug.vertices)
    mv, me, mf = (w * k for w, k in zip((mu.vertex, mu.edge, mu.face), keep))
    index = np.concatenate([np.arange(n), ix.E.ravel(), ix.F.ravel()])
    w = np.concatenate(
        [2.0 * np.pi * mv, np.repeat(np.pi * me, 2), ((np.pi - angles) * mf[:, None]).ravel()]
    )
    return np.bincount(index, w, minlength=n)


def measure_curvature(
    aug: AugmentedDisk, mu: MultiplicityAssignment, angles: np.ndarray, vertex
) -> float:
    """Curvature of the weighted complex at one vertex."""
    return float(measure_curvatures(aug, mu, angles)[aug.vertex_index[vertex]])


def measure_equivalence_check(cs: ConformalStructure, f) -> float:
    """Max deviation between measure curvature and angle curvature.

    Uses the standard multiplicities; the two definitions agree up to
    summation order, so the deviation is pure roundoff.
    """
    aug = _complex_of(cs, AugmentedDisk)
    ev = cs.system.accept(cs.system.evaluate(f))
    K = measure_curvatures(aug, standard_multiplicities(aug), ev.angles)
    return float(np.max(np.abs(K - ev.curvature)))


def closure(simplices) -> frozenset:
    """Close a set of simplices under taking sub-simplices."""
    return frozenset(c for s in map(simplex_key, simplices) for d in range(1, len(s) + 1) for c in combinations(s, d))


def valuation_defect(
    aug: AugmentedDisk,
    mu: MultiplicityAssignment,
    angles: np.ndarray,
    vertex,
    A,
    B,
) -> float:
    """|K(A u B) - K(A) - K(B) + K(A n B)| at one vertex.

    A and B must be subcomplexes (closed under sub-simplices) of the
    augmented disk; exact up to roundoff for any multiplicities.  K(X)
    is the measure curvature with mu restricted to X.
    """
    index = aug.simplex_index
    A, B = (frozenset(map(simplex_key, X)) for X in (A, B))
    for name, X in (("A", A), ("B", B)):
        if not X <= index.keys():
            raise ValueError(f"{name} contains simplices outside the complex")
        if closure(X) != X:
            raise ValueError(f"{name} is not closed under sub-simplices")
    i = aug.vertex_index[vertex]

    def k(X):
        # mu restricted to X by row masks
        keep = [np.zeros(len(w), dtype=bool) for w in (mu.vertex, mu.edge, mu.face)]
        for s in X:
            keep[len(s) - 1][index[s]] = True
        return _measure(aug, mu, angles, keep)[i]

    return float(abs(k(A | B) - k(A) - k(B) + k(A & B)))


def layout_point_multiplicity(layout: PlaneLayout, mu: MultiplicityAssignment, point) -> int:
    """Signed count of layout simplices covering a plane point.

    Sums mu over every closed simplex whose image under the layout
    contains the point (within POINT_TOL); ValueError unless mu is on
    the layout's complex.  With the standard multiplicities the two
    sheets of the fold cancel: the count is 0 wherever the
    configuration covers the point an equal number of times with each
    sign, in particular at generic points of the folded image.  Every
    vertex, edge and face is tested at once over the compiled index.
    """
    _require_on(mu, layout.cs.complex)
    ix = layout.cs.complex.compiled
    q = np.asarray(point, dtype=float)
    P = layout.positions
    at_vertex = np.linalg.norm(P - q, axis=1) <= POINT_TOL

    a, ab = P[ix.E[:, 0]], P[ix.E[:, 1]] - P[ix.E[:, 0]]
    t = ((q - a) * ab).sum(axis=1) / np.maximum((ab * ab).sum(axis=1), 1e-300)
    on_edge = np.linalg.norm(a + np.clip(t, 0.0, 1.0)[:, None] * ab - q, axis=1) <= POINT_TOL

    A, B, C = P[ix.F[:, 0]], P[ix.F[:, 1]], P[ix.F[:, 2]]
    area2 = (B[:, 0] - A[:, 0]) * (C[:, 1] - A[:, 1]) - (B[:, 1] - A[:, 1]) * (C[:, 0] - A[:, 0])
    sign = np.where(area2 > 0, 1.0, -1.0)
    in_face = area2 != 0.0
    for p0, p1 in ((A, B), (B, C), (C, A)):
        e = p1 - p0
        cross = (e[:, 0] * (q[1] - p0[:, 1]) - e[:, 1] * (q[0] - p0[:, 0])) * sign
        in_face &= ~(cross < -POINT_TOL * np.linalg.norm(e, axis=1))
    return mu.total(at_vertex, on_edge, in_face)
