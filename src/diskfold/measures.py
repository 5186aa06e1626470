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
as the assignment's arrays (masked by row to restrict to a subcomplex);
an assignment carries its complex, so no entry takes one beside it.
The pi terms of a vertex are pi times one exact integer count, and the
curvature of all vertices is one scatter of that constant and the
corner angles, the scatter AngleSystem sums its curvature with.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .complexes import AugmentedDisk, MultiplicityAssignment, simplex_key, standard_multiplicities
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


def measure_curvatures(mu: MultiplicityAssignment, angles: np.ndarray) -> np.ndarray:
    """Curvature of the weighted complex at every vertex, in vertex order.

    ``angles`` is AngleSystem.angles(f): a row per face of mu's complex,
    column c at the corner faces[i][c].
    """
    return _measure(mu, angles, (True, True, True))


def _measure(mu: MultiplicityAssignment, angles: np.ndarray, keep) -> np.ndarray:
    """measure_curvatures with mu's vertex, edge and face weights masked by
    ``keep``: pi * (2 mu(v) + the mu of v's edge ends and face corners),
    an exact count, then minus theta * mu(f) at every corner."""
    ix = mu.complex.compiled
    mv, me, mf = (w * k for w, k in zip((mu.vertex, mu.edge, mu.face), keep))
    n = len(mv)
    ends = np.concatenate([ix.E.ravel(), ix.F.ravel()])
    count = 2 * mv + np.bincount(ends, np.concatenate([np.repeat(me, 2), np.repeat(mf, 3)]), minlength=n)
    index = np.concatenate([np.arange(n), ix.F.ravel()])
    return np.bincount(index, np.concatenate([np.pi * count, (-angles * mf[:, None]).ravel()]), minlength=n)


def measure_curvature(mu: MultiplicityAssignment, angles: np.ndarray, vertex) -> float:
    """Curvature of the weighted complex at one vertex."""
    return float(measure_curvatures(mu, angles)[mu.complex.vertex_index[vertex]])


def measure_equivalence_check(cs: ConformalStructure, f) -> float:
    """Max deviation between measure curvature and angle curvature.

    Uses the standard multiplicities, whose pi terms count to the
    structure constants 2 pi, 0 and -2 pi; the measure is then summed
    in the angle curvature's order, so the deviation is 0 exactly.
    """
    aug = _complex_of(cs, AugmentedDisk)
    ev = cs.system.accept(cs.system.evaluate(f))
    K = measure_curvatures(standard_multiplicities(aug), ev.angles)
    return float(np.max(np.abs(K - ev.curvature)))


def closure(simplices) -> frozenset:
    """Close a set of simplices under taking sub-simplices."""
    return frozenset(c for s in map(simplex_key, simplices) for d in range(1, len(s) + 1) for c in combinations(s, d))


def valuation_defect(mu: MultiplicityAssignment, angles: np.ndarray, vertex, A, B) -> float:
    """|K(A u B) - K(A) - K(B) + K(A n B)| at one vertex.

    A and B must be subcomplexes (closed under sub-simplices) of mu's
    complex; exact up to roundoff for any multiplicities.  K(X) is the
    measure curvature with mu restricted to X.
    """
    index = mu.complex.simplex_index
    A, B = (frozenset(map(simplex_key, X)) for X in (A, B))
    for name, X in (("A", A), ("B", B)):
        if not X <= index.keys():
            raise ValueError(f"{name} contains simplices outside the complex")
        if closure(X) != X:
            raise ValueError(f"{name} is not closed under sub-simplices")
    i = mu.complex.vertex_index[vertex]

    def k(X):
        # mu restricted to X by row masks
        keep = [np.zeros(len(w), dtype=bool) for w in (mu.vertex, mu.edge, mu.face)]
        for s in X:
            keep[len(s) - 1][index[s]] = True
        return _measure(mu, angles, keep)[i]

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
    if mu.complex is not layout.cs.complex:
        raise ValueError("the multiplicities are on another complex")
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
