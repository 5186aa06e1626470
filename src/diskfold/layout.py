"""Developing a flat label into the plane and realizing it by circles.

A flat label assigns every face its Euclidean shape through the edge
lengths; zero curvature makes the development independent of the face
chain, so breadth-first and depth-first traversals agree up to
roundoff.  Disk faces are placed with positive orientation.  On an
augmented disk the apex goes to the origin and the augmented faces are
placed with negative orientation: the augmented sheet folds back over
the disk.  Both cases run one development over the complex's compiled
index: the faces of each edge, the side opposite each corner and the
fold sign, whose negative is the orientation of a face.

The layout lifts to Minkowski vectors

    xi_v = e^{-f_v} * lift(P_v, alpha_v e^{2 f_v})

which reproduce the structure constants: <xi_v, xi_v> = alpha_v and
-<xi_v, xi_w> = eta_vw on edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .complexes import AugmentedDisk, CombinatorialDisk
from .conformal import AngleSystem, ConformalStructure
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

    residual = 0.0
    for fi, f in enumerate(F):
        for c in range(3):
            a, b = (c + 1) % 3, (c + 2) % 3
            la = lengths[FE[fi][b]]
            lb = lengths[FE[fi][a]]
            p = _third_point(positions[f[a]], positions[f[b]], la, lb, area_sign[fi])
            residual = max(residual, float(np.linalg.norm(p - positions[f[c]])))
    return positions, residual


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
    products equal -eta_vw, independent of the label gauge.
    """
    farr = aug.label_array(f)
    out = {}
    for i, v in enumerate(aug.vertices):
        p = layout.positions[v]
        w = cs.alpha[v] * np.exp(2.0 * farr[i])
        out[v] = canonical_lift(p, w).scaled(float(np.exp(-farr[i])))
    return out


@dataclass
class UnitDiskRealization:
    """A layout rescaled so the apex circle is the unit circle."""

    layout: PlaneLayout
    label: np.ndarray
    mpoints: dict


def normalize_to_unit_disk(
    aug: AugmentedDisk, cs: ConformalStructure, f, layout: PlaneLayout
) -> UnitDiskRealization:
    """Translate the apex to the origin and rescale it to radius one.

    Uniform label shifts and plane similarities are Lorentz moves of
    the realization, so the normalized configuration represents the
    same solution with f(apex) = 0.
    """
    farr = aug.label_array(f)
    s = float(np.exp(-farr[-1]))
    center = layout.positions[aug.apex]
    positions = {v: s * (p - center) for v, p in layout.positions.items()}
    new_layout = PlaneLayout(
        positions, layout.consistency_residual * s, layout.traversal, layout.lengths * s
    )
    new_f = farr - farr[-1]
    mpoints = realize_mpoints(aug, cs, new_f, new_layout)
    return UnitDiskRealization(new_layout, new_f, mpoints)


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
