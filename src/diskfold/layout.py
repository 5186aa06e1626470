"""Developing a flat label into the plane and realizing it by circles.

A flat label assigns every face its Euclidean shape through the edge
lengths; zero curvature makes the development independent of the face
chain, so breadth-first and depth-first traversals agree up to
roundoff.  Disk faces are placed with positive orientation.  On an
augmented disk the apex goes to the origin and the augmented faces are
placed with negative orientation: the augmented sheet folds back over
the disk.  Both cases run one development over the complex's compiled
index: the faces of each edge, the side opposite each corner and the
fold sign, whose negative is the orientation of a face.  An integer
walk over the faces fixes which corners place a new vertex, one per
face at most; the vertices are then placed level by level, each level
in one array pass, as rows of one (n, 2) array: row i is the position
of ``complex_.vertices[i]``, the apex the last row on an augmented
disk.  Every later layer reads that array as it is.  The consistency
residual re-derives all 3F corners in one array pass.

Every entry develops the complex of its structure: a plain disk in
layout_disk, an augmented one elsewhere (StructureError otherwise).
The flatness check compares max |K| with FLAT_TOL.  A PlaneLayout
carries the structure and the label it was developed from, so every
later stage (realize, normalize, render, rank, the Mobius check) takes
the layout alone and cannot pair it with another label.

The layout lifts to Minkowski vectors

    xi_v = e^{-f_v} * lift(P_v, alpha_v e^{2 f_v})

which reproduce the structure constants: <xi_v, xi_v> = alpha_v and
-<xi_v, xi_w> = eta_vw on edges.  realize_mpoints computes them for
all vertices at once through minkowski.canonical_lift, as one
read-only (n, 4) array with the rows of the positions;
PlaneLayout.mpoints builds it on first read, and every later layer
reads it as it is.  verify_boundary_condition reads it back through
minkowski.project.  The array passes round exactly like the
per-element formulas (one third point, lift or projection per vertex):
a 2-vector dot product is taken as a stacked matmul, which rounds as
``a @ b`` does and differs from ``x*x + y*y``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import AugmentedDisk, CombinatorialDisk
from .conformal import ConformalStructure, _complex_of
from .minkowski import _dot2, canonical_lift, project

__all__ = [
    "LayoutError",
    "PlaneLayout",
    "BoundaryReport",
    "layout_disk",
    "layout_augmented",
    "layout_edge_error",
    "realize_mpoints",
    "normalize_to_unit_disk",
    "verify_boundary_condition",
]

#: Bound on max |K| for a label to count as flat.
FLAT_TOL = 1e-8
#: Bound on each boundary residual of verify_boundary_condition.
BOUNDARY_TOL = 1e-9


class LayoutError(RuntimeError):
    """The label cannot be developed into the plane."""


@dataclass(frozen=True, eq=False)
class PlaneLayout:
    """A flat label developed into the plane, with what it was developed
    from and the self-consistency of the development.

    ``cs`` is the structure and ``label`` the label in vertex order.
    ``positions`` is an (n, 2) array whose row i is the position of
    ``cs.complex.vertices[i]``; on an augmented disk the apex is the
    last row.  consistency_residual is the largest distance between a
    placed vertex and its re-derivation from any single face, so it
    bounds the monodromy deviation along arbitrary face chains.
    ``lengths`` holds the edge lengths the layout reproduces, in the
    complex's edge order.  The arrays are read-only, and ``mpoints``,
    the realization of realize_mpoints, is built once, on first read.
    """

    cs: ConformalStructure
    label: np.ndarray
    positions: np.ndarray
    consistency_residual: float
    traversal: str
    lengths: np.ndarray

    def __post_init__(self):
        for a in (self.label, self.positions, self.lengths):
            a.flags.writeable = False

    @cached_property
    def mpoints(self) -> np.ndarray:
        return realize_mpoints(self)


#: For a corner c: the other two corners a, b in face order, and +1 when
#: (a, b, c) is an even permutation of the face.
_CA, _CB, _PARITY = np.array([1, 0, 0]), np.array([2, 2, 1]), np.array([1.0, -1.0, 1.0])


def _walk(ix, start, traversal):
    """The corners 3 * face + c that a development from face ``start``
    places, in walk order, the seed's third corner first.  A face reached
    across a side of a visited face has both ends of that side placed,
    so only its corner opposite that side can be new."""
    if traversal not in ("bfs", "dfs"):
        raise ValueError(f"traversal must be 'bfs' or 'dfs', got {traversal!r}")
    # per face side (f0, f1), (f1, f2), (f2, f0): the face across it (-1
    # across the boundary) and that face's corner opposite it
    side = ix.FE[:, [2, 0, 1]]
    across = ix.edge_faces[side]
    fj = np.where(across[:, :, 0] == np.arange(len(side))[:, None], across[:, :, 1], across[:, :, 0])
    opposite = (3 * fj + (ix.FE[fj] == side[:, :, None]).argmax(axis=2)).ravel().tolist()
    fj, corner_vertex = fj.ravel().tolist(), ix.F.ravel().tolist()

    placed, visited = [False] * len(ix.const), [False] * len(side)
    for i in ix.F[start].tolist():
        placed[i] = True
    visited[start], corners = True, [3 * start + 2]
    queue = deque([start])
    pop = queue.popleft if traversal == "bfs" else queue.pop
    while queue:
        t = 3 * pop()
        for s in range(t, t + 3):
            g, k = fj[s], opposite[s]
            if g < 0 or visited[g]:
                continue
            visited[g] = True
            queue.append(g)
            if not placed[corner_vertex[k]]:
                placed[corner_vertex[k]] = True
                corners.append(k)
    if not all(visited):
        raise LayoutError("face graph is not edge-connected")
    return np.array(corners)


def _develop(ix, lengths, start, traversal):
    """Positions (n, 2), row i for vertex index i, and the consistency
    residual of the development from face ``start``.

    Its first corner goes to the origin and its second on the positive x
    axis.  A new corner c is placed from corners a, b = _CA[c], _CB[c]
    of its face at the lengths of the sides opposite b and a, on the
    side -fold_sign * _PARITY[c].  Its level is 1 + the larger level of
    a and b (the pinned pair has level 0); each level is one array pass.
    """
    f, c = np.divmod(_walk(ix, start, traversal), 3)
    v, a, b = ix.F[f, c], ix.F[f, _CA[c]], ix.F[f, _CB[c]]
    level = [0] * len(ix.const)
    for vi, ai, bi in zip(v.tolist(), a.tolist(), b.tolist()):
        level[vi] = 1 + max(level[ai], level[bi])
    level = np.array(level)[v]
    order = np.argsort(level, kind="stable")
    f, c, v, a, b, level = f[order], c[order], v[order], a[order], b[order], level[order]
    L2 = np.square(lengths)
    la2, lb2 = L2[ix.FE[f, _CB[c]], None], L2[ix.FE[f, _CA[c]], None]
    orient = (-ix.fold_sign[f] * _PARITY[c])[:, None]

    P = np.zeros((len(ix.const), 2))
    P[ix.F[start, 1], 0] = lengths[ix.FE[start, 2]]
    cuts = [0, *(np.flatnonzero(np.diff(level)) + 1).tolist(), len(v)]
    for i, j in zip(cuts[:-1], cuts[1:]):
        P[v[i:j]] = _third_points(P[a[i:j]], P[b[i:j]], la2[i:j], lb2[i:j], orient[i:j])
    return P, _residual(ix, lengths, P)


def _third_points(pa, pb, la2, lb2, orient):
    """Row i: the point at distance la from pa[i] and lb from pb[i], on
    the side orient[i] of the line through them, for (k, 1) columns
    la2 = la * la, lb2 = lb * lb and orient.  Each row rounds like the
    scalar construction: ``ab @ ab``, then term for term."""
    ab = pb - pa
    d2 = _dot2(ab, ab)[:, None]
    d = np.sqrt(d2)
    x = (d2 + la2 - lb2) / (2.0 * d)
    h = np.sqrt(np.maximum(la2 - x * x, 0.0))
    u = ab / d
    # the unit normal (-u_y, u_x), by an exact negation
    return pa + x * u + (orient * h) * (u[:, ::-1] * np.array([-1.0, 1.0]))


def _residual(ix, lengths, P):
    """Largest distance between a corner and its re-derivation from the
    other two corners of its face, over all 3F corners at once.

    Each corner c is rebuilt from a = c+1 and b = c+2 at the lengths of
    the sides opposite b and a, on the side -fold_sign of its face.
    """
    a, b = [1, 2, 0], [2, 0, 1]
    L2 = np.square(lengths)[ix.FE]
    pa, pb = P[ix.F[:, a]].reshape(-1, 2), P[ix.F[:, b]].reshape(-1, 2)
    orient = np.repeat(-ix.fold_sign, 3)[:, None]
    dev = _third_points(pa, pb, L2[:, b].reshape(-1, 1), L2[:, a].reshape(-1, 1), orient) - P[ix.F].reshape(-1, 2)
    # fmax skips NaN as the running max(residual, r) of a scalar loop does
    return float(np.fmax.reduce(np.sqrt(_dot2(dev, dev)), initial=0.0))


def _layout(cs, kind, f, traversal) -> PlaneLayout:
    """Check that cs is on a ``kind`` and f is flat, then develop from
    the pinned face: the body of layout_disk and layout_augmented."""
    complex_ = _complex_of(cs, kind)
    sys = cs.system
    ev = sys.accept(sys.evaluate(f))
    K = np.abs(ev.curvature)
    start = 0
    if isinstance(complex_, AugmentedDisk):
        start = complex_.n_disk_faces
        worst = float(np.max(K))
        if worst > FLAT_TOL:
            raise LayoutError(
                f"label is not flat: max |K| = {worst!r}, |K(apex)| = {float(K[-1])!r}"
            )
    else:
        worst = float(np.max(np.delete(K, complex_.compiled.cycle), initial=0.0))
        if worst > FLAT_TOL:
            raise LayoutError(f"interior curvature max |K| = {worst!r} is not flat")

    positions, residual = _develop(complex_.compiled, ev.lengths, start, traversal)
    return PlaneLayout(cs, ev.f, positions, residual, traversal, ev.lengths)


def layout_disk(
    cs: ConformalStructure,
    f,
    *,
    traversal: str = "bfs",
) -> PlaneLayout:
    """Develop a disk whose interior curvature vanishes.

    The first face is pinned: first vertex at the origin, second on the
    positive x axis, third in the upper half plane.  All faces keep
    positive orientation.  cs must be on a plain disk: for one on aug,
    pass ConformalStructure.on(aug.disk, cs.alpha, cs.eta).
    """
    return _layout(cs, CombinatorialDisk, f, traversal)


def layout_augmented(
    cs: ConformalStructure,
    f,
    *,
    traversal: str = "bfs",
) -> PlaneLayout:
    """Develop the folded sphere of a flat label, apex at the origin.

    Augmented faces get negative orientation (the fold); the first
    augmented face is pinned with its boundary edge started along the
    positive x axis.  Requires max |K| <= FLAT_TOL at every vertex;
    a nonzero apex curvature would keep the boundary fan from closing.
    """
    return _layout(cs, AugmentedDisk, f, traversal)


def layout_edge_error(layout: PlaneLayout) -> float:
    """Largest relative deviation between layout distances and the edge
    lengths the layout was developed from."""
    E, P = layout.cs.complex.compiled.E, layout.positions
    d = np.linalg.norm(P[E[:, 0]] - P[E[:, 1]], axis=1)
    return float(np.max(np.abs(d - layout.lengths) / layout.lengths))


def realize_mpoints(layout: PlaneLayout) -> np.ndarray:
    """The Minkowski vectors of the vertices, e^{-f_v} times the
    canonical lift, as a read-only (n, 4) array: row i is
    ``cs.complex.vertices[i]``, the apex the last row.

    The prefactor makes the self-products equal alpha_v and the edge
    products equal -eta_vw, independent of the label gauge.  All
    vertices are lifted by canonical_lift and scaled at once; a
    non-finite vector raises ValueError.  A finite vector is never 0:
    e^{-f} underflows only where alpha e^{2f} has overflowed.  Read it
    as ``layout.mpoints``, which realizes once per layout.
    """
    _complex_of(layout.cs, AugmentedDisk)
    farr = layout.label
    xi = np.exp(-farr)[:, None] * canonical_lift(layout.positions, layout.cs.alpha_array * np.exp(2.0 * farr))
    if not np.isfinite(xi).all():
        raise ValueError("MPoint entries must be finite")
    xi.setflags(write=False)
    return xi


def normalize_to_unit_disk(layout: PlaneLayout) -> PlaneLayout:
    """The layout with the apex circle moved to the unit circle.

    The apex goes to the origin, the plane is scaled by e^{-f(apex)}
    and the label shifted so that f(apex) = 0.  Uniform label shifts
    and plane similarities are Lorentz moves of the realization, so the
    normalized layout represents the same solution.
    """
    _complex_of(layout.cs, AugmentedDisk)
    f, P = layout.label, layout.positions
    s = float(np.exp(-f[-1]))
    return PlaneLayout(
        layout.cs, f - f[-1], s * (P - P[-1]), layout.consistency_residual * s, layout.traversal, layout.lengths * s
    )


@dataclass
class BoundaryReport:
    scenario: str
    residuals: dict
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= BOUNDARY_TOL


SCENARIOS = ("tangent", "orthogonal", "inscribed")


def verify_boundary_condition(
    aug: AugmentedDisk, mpoints, scenario: str
) -> BoundaryReport:
    """Check each boundary circle against the apex circle.

    tangent:     internally tangent, |dist + r_v - r_apex| per vertex
    orthogonal:  |dist^2 - r_apex^2 - r_v^2|
    inscribed:   boundary points on the apex circle, ||p_v - p_apex| - r_apex|

    ``mpoints`` is realize_mpoints' array, or a mapping from every vertex
    to its MPoint.  The apex row and the boundary rows, those of
    aug.compiled.cycle, are projected at once by project, so an improper
    one raises its error, the apex first, then the boundary in cycle
    order.  Meant for normalized realizations (apex = unit circle); the
    checks are absolute, and pass at BOUNDARY_TOL.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    if isinstance(mpoints, dict):
        mpoints = [mpoints[v].xi for v in aug.vertices]
    # the apex, then the boundary in cycle order
    P, W = project(np.asarray(mpoints, dtype=float)[np.insert(aug.compiled.cycle, 0, -1)])
    if W[0] < 0:
        raise ValueError("negative weight has no real radius")
    r_hat, dp, W = float(np.sqrt(W[0])), P[1:] - P[0], W[1:]
    dist = np.sqrt(_dot2(dp, dp))
    if scenario == "tangent":
        # weight-0 points come back as W = -eps from roundoff; a
        # genuinely imaginary radius cannot be tangent to anything
        res = np.where(W < -BOUNDARY_TOL, np.inf, np.abs(dist + np.sqrt(np.maximum(W, 0.0)) - r_hat))
    elif scenario == "orthogonal":
        res = np.abs(dist * dist - r_hat * r_hat - W)
    else:
        res = np.abs(dist - r_hat)
    residuals = dict(zip(aug.boundary_cycle, res.tolist()))
    worst = max(residuals.values())
    return BoundaryReport(scenario, residuals, worst)
