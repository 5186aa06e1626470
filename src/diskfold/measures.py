"""Curvature as a measure built from simplex multiplicities.

Every simplex contributes to the curvature at a vertex v it contains:
2*pi for v itself, pi per edge, (pi - theta) per face with theta the
angle at v.  Weighting the contributions by a multiplicity assignment
mu gives

    K_mu(v) = 2*pi*mu(v) + sum_e pi*mu(e) + sum_f (pi - theta_{v,f})*mu(f).

With the standard assignment this reproduces the angle curvature of
the folded disk exactly, and the map (subcomplex -> curvature) is a
valuation: K(A u B) = K(A) + K(B) - K(A n B).

The angles come as the (F, 3) array of AngleSystem.angles, and the
curvature of all vertices is one scatter over the complex's compiled
incidence (edge ends, face corners).
"""

from __future__ import annotations

import numpy as np

from .complexes import (
    AugmentedDisk,
    MultiplicityAssignment,
    simplex_key,
    standard_multiplicities,
)
from .conformal import ConformalStructure

__all__ = [
    "measure_curvature",
    "measure_curvatures",
    "measure_equivalence_check",
    "closure",
    "valuation_defect",
    "layout_point_multiplicity",
]


def measure_curvatures(
    aug: AugmentedDisk, mu: MultiplicityAssignment, angles: np.ndarray
) -> np.ndarray:
    """Curvature of the weighted complex at every vertex, in vertex order.

    ``angles`` is AngleSystem.angles(f): a row per face, column c at
    the corner faces[i][c].  One scatter of every simplex's
    contribution over the compiled incidence.
    """
    ix = aug.compiled
    n = len(aug.vertices)
    mv = np.array([mu((v,)) for v in aug.vertices], dtype=float)
    me = np.array([mu(e) for e in aug.edges], dtype=float)
    mf = np.array([mu(f) for f in aug.faces], dtype=float)
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


def measure_equivalence_check(aug: AugmentedDisk, cs: ConformalStructure, f) -> float:
    """Max deviation between measure curvature and angle curvature.

    Uses the standard multiplicities; the two definitions agree up to
    summation order, so the deviation is pure roundoff.
    """
    sys = cs.system_for(aug)
    ev = sys.accept(sys.evaluate(f))
    K = measure_curvatures(aug, standard_multiplicities(aug), ev.angles)
    return float(np.max(np.abs(K - ev.curvature)))


def closure(simplices) -> frozenset:
    """Close a set of simplices under taking sub-simplices."""
    out = set()
    for s in simplices:
        s = simplex_key(s)
        out.add(s)
        if len(s) >= 2:
            for v in s:
                out.add((v,))
        if len(s) == 3:
            a, b, c = s
            out.update({(a, b), (b, c), (a, c)})
    return frozenset(out)


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
    allowed = closure(aug.faces) | {simplex_key(e) for e in aug.edges} | {
        (v,) for v in aug.vertices
    }
    A = frozenset(simplex_key(s) for s in A)
    B = frozenset(simplex_key(s) for s in B)
    for name, X in (("A", A), ("B", B)):
        if not X <= allowed:
            raise ValueError(f"{name} contains simplices outside the complex")
        if closure(X) != X:
            raise ValueError(f"{name} is not closed under sub-simplices")

    def k(X):
        return measure_curvature(aug, MultiplicityAssignment({s: mu(s) for s in X}), angles, vertex)

    return abs(k(A | B) - k(A) - k(B) + k(A & B))


def layout_point_multiplicity(
    aug: AugmentedDisk,
    mu: MultiplicityAssignment,
    positions,
    point,
    tol: float = 1e-9,
) -> int:
    """Signed count of layout simplices covering a plane point.

    ``positions`` is a layout's (n, 2) array, row i for aug.vertices[i].
    Sums mu over every closed simplex whose image under the layout
    contains the point (within tol).  With the standard multiplicities
    the two sheets of the fold cancel: the count is 0 wherever the
    configuration covers the point an equal number of times with each
    sign, in particular at generic points of the folded image.  Every
    vertex, edge and face is tested at once over the compiled index.
    """
    ix = aug.compiled
    q = np.asarray(point, dtype=float)
    P = np.asarray(positions, dtype=float)
    at_vertex = np.linalg.norm(P - q, axis=1) <= tol

    a, ab = P[ix.E[:, 0]], P[ix.E[:, 1]] - P[ix.E[:, 0]]
    t = ((q - a) * ab).sum(axis=1) / np.maximum((ab * ab).sum(axis=1), 1e-300)
    on_edge = np.linalg.norm(a + np.clip(t, 0.0, 1.0)[:, None] * ab - q, axis=1) <= tol

    A, B, C = P[ix.F[:, 0]], P[ix.F[:, 1]], P[ix.F[:, 2]]
    area2 = (B[:, 0] - A[:, 0]) * (C[:, 1] - A[:, 1]) - (B[:, 1] - A[:, 1]) * (C[:, 0] - A[:, 0])
    sign = np.where(area2 > 0, 1.0, -1.0)
    in_face = area2 != 0.0
    for p0, p1 in ((A, B), (B, C), (C, A)):
        e = p1 - p0
        cross = (e[:, 0] * (q[1] - p0[:, 1]) - e[:, 1] * (q[0] - p0[:, 0])) * sign
        in_face &= ~(cross < -tol * np.linalg.norm(e, axis=1))
    return mu.total(aug, at_vertex, on_edge, in_face)
