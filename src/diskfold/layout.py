"""Developing a flat label into the plane and realizing it by circles.

A flat label assigns every face its Euclidean shape through the edge
lengths; zero curvature makes the development independent of the face
chain, so breadth-first and depth-first traversals agree up to
roundoff.  Disk faces are placed with positive orientation.  On an
augmented disk the apex goes to the origin and the augmented faces are
placed with negative orientation: the augmented sheet folds back over
the disk.  Both cases run one development over the complex's compiled
index: the faces of each edge, the side opposite each corner and the
fold sign, whose negative is the orientation of a face.  Placement is
sequential, one new vertex per face; the consistency residual then
re-derives all 3F corners in one array pass.

The layout lifts to Minkowski vectors

    xi_v = e^{-f_v} * lift(P_v, alpha_v e^{2 f_v})

which reproduce the structure constants: <xi_v, xi_v> = alpha_v and
-<xi_v, xi_w> = eta_vw on edges.  realize_mpoints computes them for
all vertices at once.  The array passes round exactly like the
per-element formulas (_third_point, canonical_lift): a 2-vector dot
product is taken as a stacked matmul, which rounds as ``a @ b`` does
and differs from ``x*x + y*y``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .complexes import AugmentedDisk, CombinatorialDisk
from .conformal import AngleSystem, ConformalStructure
from .minkowski import MPoint, canonical_lift, project

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

    consistency_residual is the largest distance between a placed
    vertex and its re-derivation from any single face, so it bounds the
    monodromy deviation along arbitrary face chains.  ``lengths`` holds
    the edge lengths the layout reproduces, in the complex's edge order.
    """

    positions: dict
    consistency_residual: float
    traversal: str
    lengths: np.ndarray

    def diameter(self) -> float:
        pts = np.array([self.positions[v] for v in self.positions])
        d = 0.0
        for i in range(len(pts) - 1):
            d = max(d, float(np.max(np.linalg.norm(pts[i + 1:] - pts[i], axis=1))))
        return d


def _third_point(pa, pb, la, lb, orient):
    """Point at distance la from pa and lb from pb, on the side ``orient``."""
    ab = pb - pa
    d2 = float(ab @ ab)
    d = np.sqrt(d2)
    x = (d2 + la * la - lb * lb) / (2.0 * d)
    h2 = la * la - x * x
    h = np.sqrt(max(h2, 0.0))
    u = ab / d
    perp = np.array([-u[1], u[0]])
    return pa + x * u + orient * h * perp


#: For a corner c: the other two corners a, b in face order, and +1 when
#: (a, b, c) is an even permutation of the face.
_OTHER_CORNERS = ((1, 2, 1.0), (0, 2, -1.0), (0, 1, 1.0))


def _develop(ix, lengths, start, traversal):
    """Walk the face adjacency graph, placing one vertex per new face.

    ``ix`` is the complex's CompiledComplex and ``lengths`` a list indexed
    by edge.  The seed face ``start`` is pinned: its first corner at the
    origin, its second on the positive x axis.  Every face keeps the
    orientation -fold_sign.  Returns positions keyed by vertex index, in
    placement order, and the consistency residual.
    """
    if traversal not in ("bfs", "dfs"):
        raise ValueError(f"traversal must be 'bfs' or 'dfs', got {traversal!r}")
    F, FE, faces_of = ix.F.tolist(), ix.FE.tolist(), ix.edge_faces.tolist()
    area_sign = (-ix.fold_sign).tolist()

    i0, i1, i2 = F[start]
    se = FE[start]
    positions = {i0: np.zeros(2), i1: np.array([lengths[se[2]], 0.0])}
    positions[i2] = _third_point(
        positions[i0], positions[i1], lengths[se[1]], lengths[se[0]], area_sign[start]
    )
    queue = deque([start])
    visited = {start}
    while queue:
        fi = queue.popleft() if traversal == "bfs" else queue.pop()
        side = FE[fi]
        # the sides (f0, f1), (f1, f2), (f2, f0), opposite corners 2, 0, 1
        for e in (side[2], side[0], side[1]):
            for fj in faces_of[e]:
                if fj < 0 or fj in visited:
                    continue
                g = F[fj]
                missing = [c for c in range(3) if g[c] not in positions]
                if len(missing) > 1:
                    continue
                visited.add(fj)
                if missing:
                    ca, cb, parity = _OTHER_CORNERS[missing[0]]
                    # the side from a to the new corner lies opposite b
                    la = lengths[FE[fj][cb]]
                    lb = lengths[FE[fj][ca]]
                    orient = area_sign[fj] * parity
                    positions[g[missing[0]]] = _third_point(
                        positions[g[ca]], positions[g[cb]], la, lb, orient
                    )
                queue.append(fj)
    if len(visited) != len(F):
        raise LayoutError("face graph is not edge-connected")
    return positions, _residual(ix, lengths, positions)


def _dot2(a, b):
    """Row-wise dot products of (n, 2) arrays, rounded as ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _residual(ix, lengths, positions):
    """Largest distance between a corner and its re-derivation from the
    other two corners of its face, over all 3F corners at once.

    Each corner c is rebuilt with _third_point's arithmetic, term for
    term: from a = c+1 and b = c+2 at the lengths of the sides opposite
    b and a, on the side -fold_sign of its face.
    """
    P = np.array([positions[i] for i in range(len(positions))])
    a, b = [1, 2, 0], [2, 0, 1]
    pa, pb, pc = P[ix.F[:, a]].reshape(-1, 2), P[ix.F[:, b]].reshape(-1, 2), P[ix.F].reshape(-1, 2)
    L = np.asarray(lengths)[ix.FE]
    la, lb = L[:, b].ravel(), L[:, a].ravel()
    orient = np.repeat(-ix.fold_sign, 3)

    ab = pb - pa
    d2 = _dot2(ab, ab)
    d = np.sqrt(d2)
    x = (d2 + la * la - lb * lb) / (2.0 * d)
    h = np.sqrt(np.maximum(la * la - x * x, 0.0))
    u = ab / d[:, None]
    perp = np.stack([-u[:, 1], u[:, 0]], axis=1)
    p = pa + x[:, None] * u + (orient * h)[:, None] * perp
    dev = p - pc
    # fmax skips NaN as the running max(residual, r) of a scalar loop does
    return float(np.fmax.reduce(np.sqrt(_dot2(dev, dev)), initial=0.0))


def _layout(complex_, cs, f, start, traversal, flat_tol) -> PlaneLayout:
    """Check flatness, then develop from face ``start``: the body of
    layout_disk and layout_augmented."""
    sys = AngleSystem(complex_, cs)
    ev = sys.accept(sys.evaluate(f))
    K = np.abs(ev.curvature)
    if isinstance(complex_, AugmentedDisk):
        worst = float(np.max(K))
        if worst > flat_tol:
            raise LayoutError(
                f"label is not flat: max |K| = {worst!r}, |K(apex)| = {float(K[-1])!r}"
            )
    else:
        interior = [complex_.vertex_index[v] for v in complex_.interior_vertices]
        worst = float(np.max(K[interior], initial=0.0))
        if worst > flat_tol:
            raise LayoutError(f"interior curvature max |K| = {worst!r} is not flat")

    positions, residual = _develop(complex_.compiled, ev.lengths.tolist(), start, traversal)
    verts = complex_.vertices
    return PlaneLayout({verts[i]: p for i, p in positions.items()}, residual, traversal, ev.lengths)


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
    positive orientation.
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
    E = complex_.compiled.E
    P = np.array([layout.positions[v] for v in complex_.vertices])
    d = np.linalg.norm(P[E[:, 0]] - P[E[:, 1]], axis=1)
    return float(np.max(np.abs(d - layout.lengths) / layout.lengths))


def realize_mpoints(
    aug: AugmentedDisk, cs: ConformalStructure, f, layout: PlaneLayout
) -> dict:
    """Minkowski vector per vertex: e^{-f_v} times the canonical lift.

    The prefactor makes the self-products equal alpha_v and the edge
    products equal -eta_vw, independent of the label gauge.  All
    vertices are lifted and scaled at once, with canonical_lift's and
    MPoint.scaled's arithmetic; a vertex that fails their checks (a
    non-finite lift, a scale that underflows to 0, a non-finite or zero
    vector) raises the error the per-vertex path raises for it.
    """
    farr = aug.label_array(f)
    verts = aug.vertices
    P = np.array([layout.positions[v] for v in verts])
    W = np.array([cs.alpha[v] for v in verts]) * np.exp(2.0 * farr)
    q = _dot2(P, P)
    lift = np.column_stack([P, (q - W - 1.0) / 2.0, (q - W + 1.0) / 2.0])
    s = np.exp(-farr)
    xi = s[:, None] * lift
    bad = ~np.isfinite(lift).all(1) | (s <= 0) | ~np.isfinite(xi).all(1) | ~xi.any(1)
    if bad.any():
        i = int(np.argmax(bad))
        canonical_lift(P[i], W[i]).scaled(float(s[i]))  # raises for the first offender
    xi.setflags(write=False)
    return {v: MPoint._checked(xi[i]) for i, v in enumerate(verts)}


@dataclass
class UnitDiskRealization:
    """A layout rescaled so the apex circle is the unit circle."""

    layout: PlaneLayout
    label: np.ndarray
    mpoints: dict


def normalize_layout(aug: AugmentedDisk, f, layout: PlaneLayout):
    """(layout, label) with the apex circle moved to the unit circle.

    The apex goes to the origin, the plane is scaled by e^{-f(apex)}
    and the label shifted so that f(apex) = 0; no M-points are built.
    """
    farr = aug.label_array(f)
    s = float(np.exp(-farr[-1]))
    center = layout.positions[aug.apex]
    positions = {v: s * (p - center) for v, p in layout.positions.items()}
    new_layout = PlaneLayout(
        positions, layout.consistency_residual * s, layout.traversal, layout.lengths * s
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
    aug: AugmentedDisk, mpoints: dict, scenario: str, tol: float = 1e-9
) -> BoundaryReport:
    """Check each boundary circle against the apex circle.

    tangent:     internally tangent, |dist + r_v - r_apex| per vertex
    orthogonal:  |dist^2 - r_apex^2 - r_v^2|
    inscribed:   boundary points on the apex circle, ||p_v - p_apex| - r_apex|

    Meant for normalized realizations (apex = unit circle); the checks
    are absolute with the given tolerance.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"scenario must be one of {_SCENARIOS}")
    hat = project(mpoints[aug.apex])
    r_hat = hat.radius
    residuals = {}
    for v in aug.disk.boundary_cycle:
        wp = project(mpoints[v])
        dist = float(np.linalg.norm(wp.p - hat.p))
        if scenario == "tangent":
            # weight-0 points come back as W = -eps from roundoff; a
            # genuinely imaginary radius cannot be tangent to anything
            if wp.W < -tol:
                residuals[v] = float("inf")
            else:
                residuals[v] = abs(dist + np.sqrt(max(wp.W, 0.0)) - r_hat)
        elif scenario == "orthogonal":
            residuals[v] = abs(dist * dist - r_hat * r_hat - wp.W)
        else:
            residuals[v] = abs(dist - r_hat)
    worst = max(residuals.values())
    return BoundaryReport(scenario, residuals, worst, tol)
