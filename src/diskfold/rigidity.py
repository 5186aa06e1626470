"""Infinitesimal rigidity experiments on realized disks.

A realization fixes the self-products <xi_v, xi_v> and the edge
products <xi_v, xi_w>.  Differentiating both constraint families at a
realization gives a linear map on vertex velocities in R^{4V}; its rank
measures how large the space of product-preserving deformations is.
The expectation is that only the Lorentz moves remain, which makes the
(V + E) x 4V constraint matrix full rank whenever V + E <= 4V - 6.
The rank is reported, never asserted: it is experimental evidence.

The Mobius orbit check takes the caller's AngleSystem, layout and
realization, so checking many generators compiles, develops and
realizes once; each check moves every vertex with one stacked
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import AugmentedDisk
from .conformal import AngleSystem
from .layout import PlaneLayout
from .minkowski import InfinitesimalMobius, induced_label_variation, infinitesimal_generator

__all__ = [
    "constraint_matrix",
    "numerical_rank",
    "OrbitReport",
    "mobius_orbit_check",
]


def constraint_matrix(aug: AugmentedDisk, mpoints: dict) -> np.ndarray:
    """Derivative of the product constraints, one row per constraint.

    Velocities are stacked per vertex in aug.vertex_order.  The row of
    vertex v carries xi_v in the block of v; the row of edge (u, v)
    carries xi_v in the block of u and xi_u in the block of v.  Rows
    are written without the symmetrization factor 2, which leaves the
    rank unchanged.
    """
    E = aug.compiled.E
    n = len(aug.vertices)
    xi = np.array([mpoints[v].xi for v in aug.vertices])
    block = 4 * np.arange(n)[:, None] + np.arange(4)  # the 4 columns of each vertex
    rows = n + np.arange(len(E))[:, None]
    m = np.zeros((n + len(E), 4 * n))
    m[np.arange(n)[:, None], block] = xi
    m[rows, block[E[:, 0]]] = xi[E[:, 1]]
    m[rows, block[E[:, 1]]] = xi[E[:, 0]]
    return m


def numerical_rank(matrix, cutoff: float = 1e-10):
    """(rank, singular values) with the rank counted above cutoff * s_max."""
    matrix = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, s
    return int(np.sum(s > cutoff * s[0])), s


@dataclass
class OrbitReport:
    """Behaviour of a flat label under one infinitesimal Mobius move."""

    generator: InfinitesimalMobius
    eps: float
    f_moved: np.ndarray
    max_abs_curvature: float
    variation_rate: np.ndarray
    predicted_variation: np.ndarray
    max_variation_dev: float


def mobius_orbit_check(
    system: AngleSystem,
    f,
    layout: PlaneLayout,
    mpoints: dict,
    generator: InfinitesimalMobius,
    eps: float,
) -> OrbitReport:
    """Push a flat realization along I + eps*M(g) and recover the label.

    ``system`` is the AngleSystem of the augmented disk and its
    structure, ``layout`` the development of the flat label f (as from
    layout_augmented) and ``mpoints`` its realization (as from
    realize_mpoints); a caller checking several generators builds each
    once.  The moved label is f'_v = -log(xi'_4 - xi'_3).  For a flat f
    the report shows max |K(f')| of order eps^2 and the finite-difference
    rate (f' - f)/eps close to the predicted variation
    (a + b, c + d) . P_v + t.  The perturbation matrix is applied
    directly: it is Lorentz only to first order, which is the point.
    """
    verts = system.vertex_order
    farr = system.complex.label_array(f)
    L = infinitesimal_generator(generator, eps)
    X = np.array([mpoints[v].xi for v in verts])
    # a stacked product rounds like the per-vertex L.m @ xi
    xi = (L.m[None] @ X[:, :, None])[:, :, 0]
    depth = xi[:, 3] - xi[:, 2]
    if np.any(depth <= 0):
        v = verts[int(np.argmax(depth <= 0))]
        raise ValueError(f"eps={eps!r} pushes vertex {v} outside the representable range")
    moved = -np.log(depth)

    K = system.curvature(moved)
    rate = (moved - farr) / eps
    predicted = induced_label_variation(generator, np.array([layout.positions[v] for v in verts]))
    return OrbitReport(
        generator=generator,
        eps=eps,
        f_moved=moved,
        max_abs_curvature=float(np.max(np.abs(K))),
        variation_rate=rate,
        predicted_variation=predicted,
        max_variation_dev=float(np.max(np.abs(rate - predicted))),
    )
