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

The flatness check evaluates through ConformalStructure.system_for the
complex being developed: the structure's own system, or a fresh one of
another complex with the values gathered by id.

The layout lifts to Minkowski vectors

    xi_v = e^{-f_v} * lift(P_v, alpha_v e^{2 f_v})

which reproduce the structure constants: <xi_v, xi_v> = alpha_v and
-<xi_v, xi_w> = eta_vw on edges.  realize_mpoints computes them for
all vertices at once, as one read-only (n, 4) array with the rows of
the positions; every later layer reads it as it is.  The array passes
round exactly like the per-element formulas (one third point per
vertex, canonical_lift, project): a 2-vector dot product is taken as a
stacked matmul, which rounds as ``a @ b`` does and differs from
``x*x + y*y``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .complexes import AugmentedDisk, CombinatorialDisk
from .conformal import ConformalStructure
from .minkowski import canonical_lift, project

__all__ = [
    "LayoutError",
    "PlaneLayout",
    "UnitDiskRealization",
    "BoundaryReport",
    "layout_disk",
    "layout_augmented",
    "layout_edge_error",
    "realize_mpoints",
    "normalize_layout",
    "normalize_to_unit_disk",
    "verify_boundary_condition",
]

#: Default bound on max |K| for a label to count as flat.
FLAT_TOL = 1e-8


class LayoutError(RuntimeError):
    """The label cannot be developed into the plane."""


@dataclass
class PlaneLayout:
    """Vertex positions plus the self-consistency of the development.

    ``positions`` is an (n, 2) array whose row i is the position of
    ``complex_.vertices[i]``; on an augmented disk the apex is the last
    row.  consistency_residual is the largest distance between a placed
    vertex and its re-derivation from any single face, so it bounds the
    monodromy deviation along arbitrary face chains.  ``lengths`` holds
    the edge lengths the layout reproduces, in the complex's edge order.
    """

    positions: np.ndarray
    consistency_residual: float
    traversal: str
    lengths: np.ndarray

    def diameter(self) -> float:
        P = self.positions
        d = 0.0
        for i in range(len(P) - 1):
            d = max(d, float(np.max(np.linalg.norm(P[i + 1:] - P[i], axis=1))))
        return d


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


def _dot2(a, b):
    """Row-wise dot products of (n, 2) arrays, rounded as ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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


def _layout(complex_, cs, f, start, traversal, flat_tol) -> PlaneLayout:
    """Check flatness, then develop from face ``start``: the body of
    layout_disk and layout_augmented."""
    sys = cs.system_for(complex_)
    ev = sys.accept(sys.evaluate(f))
    K = np.abs(ev.curvature)
    if isinstance(complex_, AugmentedDisk):
        worst = float(np.max(K))
        if worst > flat_tol:
            raise LayoutError(
                f"label is not flat: max |K| = {worst!r}, |K(apex)| = {float(K[-1])!r}"
            )
    else:
        # the interior vertices are those on no boundary edge
        ix = complex_.compiled
        worst = float(np.max(np.delete(K, ix.E[ix.edge_faces[:, 1] < 0].ravel()), initial=0.0))
        if worst > flat_tol:
            raise LayoutError(f"interior curvature max |K| = {worst!r} is not flat")

    positions, residual = _develop(complex_.compiled, ev.lengths, start, traversal)
    return PlaneLayout(positions, residual, traversal, ev.lengths)


def layout_disk(
    disk: CombinatorialDisk,
    cs: ConformalStructure,
    f,
    *,
    traversal: str = "bfs",
    flat_tol: float = FLAT_TOL,
) -> PlaneLayout:
    """Develop a disk whose interior curvature vanishes.

    The first face is pinned: first vertex at the origin, second on the
    positive x axis, third in the upper half plane.  All faces keep
    positive orientation.  A structure of the augmented disk works too:
    its values are gathered by id onto the disk.
    """
    return _layout(disk, cs, f, 0, traversal, flat_tol)


def layout_augmented(
    aug: AugmentedDisk,
    cs: ConformalStructure,
    f,
    *,
    traversal: str = "bfs",
    flat_tol: float = FLAT_TOL,
) -> PlaneLayout:
    """Develop the folded sphere of a flat label, apex at the origin.

    Augmented faces get negative orientation (the fold); the first
    augmented face is pinned with its boundary edge started along the
    positive x axis.  Requires max |K| <= flat_tol at every vertex;
    a nonzero apex curvature would keep the boundary fan from closing.
    """
    return _layout(aug, cs, f, aug.n_disk_faces, traversal, flat_tol)


def layout_edge_error(complex_, layout: PlaneLayout) -> float:
    """Largest relative deviation between layout distances and the edge
    lengths the layout was developed from."""
    E, P = complex_.compiled.E, layout.positions
    d = np.linalg.norm(P[E[:, 0]] - P[E[:, 1]], axis=1)
    return float(np.max(np.abs(d - layout.lengths) / layout.lengths))


def realize_mpoints(
    aug: AugmentedDisk, cs: ConformalStructure, f, layout: PlaneLayout
) -> np.ndarray:
    """The Minkowski vectors of the vertices, e^{-f_v} times the
    canonical lift, as a read-only (n, 4) array: row i is
    ``aug.vertices[i]``, the apex the last row.

    The prefactor makes the self-products equal alpha_v and the edge
    products equal -eta_vw, independent of the label gauge.  All
    vertices are lifted and scaled at once, with canonical_lift's and
    MPoint.scaled's arithmetic; a vertex that fails their checks (a
    non-finite lift, a scale that underflows to 0, a non-finite or zero
    vector) raises the error the per-vertex path raises for it.
    """
    farr = aug.label_array(f)
    P = layout.positions
    W = cs.validate_for(aug)[0] * np.exp(2.0 * farr)
    q = _dot2(P, P)
    lift = np.column_stack([P, (q - W - 1.0) / 2.0, (q - W + 1.0) / 2.0])
    s = np.exp(-farr)
    xi = s[:, None] * lift
    bad = ~np.isfinite(lift).all(1) | (s <= 0) | ~np.isfinite(xi).all(1) | ~xi.any(1)
    if bad.any():
        i = int(np.argmax(bad))
        canonical_lift(P[i], W[i]).scaled(float(s[i]))  # raises for the first offender
    xi.setflags(write=False)
    return xi


@dataclass
class UnitDiskRealization:
    """A layout rescaled so the apex circle is the unit circle, its
    label and its (n, 4) array of M-points."""

    layout: PlaneLayout
    label: np.ndarray
    mpoints: np.ndarray


def normalize_layout(aug: AugmentedDisk, f, layout: PlaneLayout):
    """(layout, label) with the apex circle moved to the unit circle.

    The apex goes to the origin, the plane is scaled by e^{-f(apex)}
    and the label shifted so that f(apex) = 0; no M-points are built.
    """
    farr = aug.label_array(f)
    s = float(np.exp(-farr[-1]))
    P = layout.positions
    new_layout = PlaneLayout(
        s * (P - P[-1]), layout.consistency_residual * s, layout.traversal, layout.lengths * s
    )
    return new_layout, farr - farr[-1]


def normalize_to_unit_disk(
    aug: AugmentedDisk, cs: ConformalStructure, f, layout: PlaneLayout
) -> UnitDiskRealization:
    """Translate the apex to the origin and rescale it to radius one.

    Uniform label shifts and plane similarities are Lorentz moves of
    the realization, so the normalized configuration represents the
    same solution with f(apex) = 0.
    """
    new_layout, new_f = normalize_layout(aug, f, layout)
    return UnitDiskRealization(new_layout, new_f, realize_mpoints(aug, cs, new_f, new_layout))


@dataclass
class BoundaryReport:
    scenario: str
    residuals: dict
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


_SCENARIOS = ("tangent", "orthogonal", "inscribed")


def verify_boundary_condition(
    aug: AugmentedDisk, mpoints, scenario: str, tol: float = 1e-9
) -> BoundaryReport:
    """Check each boundary circle against the apex circle.

    tangent:     internally tangent, |dist + r_v - r_apex| per vertex
    orthogonal:  |dist^2 - r_apex^2 - r_v^2|
    inscribed:   boundary points on the apex circle, ||p_v - p_apex| - r_apex|

    ``mpoints`` is realize_mpoints' array, or a mapping from every vertex
    to its MPoint.  The rows are projected at once; an improper one raises
    project's error, the apex first, then the boundary in cycle order.
    Meant for normalized realizations (apex = unit circle); the checks
    are absolute with the given tolerance.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"scenario must be one of {_SCENARIOS}")
    if isinstance(mpoints, dict):
        mpoints = [mpoints[v].xi for v in aug.vertices]
    # the last corners of the augmented faces (apex, w, v) run along the cycle
    X = np.asarray(mpoints, dtype=float)[np.append(aug.compiled.F[aug.n_disk_faces:, 2], -1)]
    B, hat = X[:-1], project(X[-1])
    r_hat = hat.radius
    d = B[:, 3] - B[:, 2]
    if (d <= 0.0).any():
        project(B[np.argmax(d <= 0.0)])  # raises for the first improper row
    dp = B[:, :2] / d[:, None] - hat.p
    dist = np.sqrt(_dot2(dp, dp))
    W = (B[:, 0] * B[:, 0] + B[:, 1] * B[:, 1] + B[:, 2] * B[:, 2] - B[:, 3] * B[:, 3]) / (d * d)
    if scenario == "tangent":
        # weight-0 points come back as W = -eps from roundoff; a
        # genuinely imaginary radius cannot be tangent to anything
        res = np.where(W < -tol, np.inf, np.abs(dist + np.sqrt(np.maximum(W, 0.0)) - r_hat))
    elif scenario == "orthogonal":
        res = np.abs(dist * dist - r_hat * r_hat - W)
    else:
        res = np.abs(dist - r_hat)
    residuals = dict(zip(aug.disk.boundary_cycle, res.tolist()))
    worst = max(residuals.values())
    return BoundaryReport(scenario, residuals, worst, tol)
