"""Infinitesimal rigidity experiments on realized disks.

A realization fixes the self-products <xi_v, xi_v> and the edge
products <xi_v, xi_w>.  Their derivative is the (V + E) x 4V constraint
matrix M on vertex velocities, whose rank, reported and never asserted,
is experimental evidence of how few product-preserving deformations
there are.  An augmented disk triangulates a sphere, so V + E = 4V - 6,
and M's kernel holds the six Lorentz motions: full rank is full row
rank.  It is read off the curvature Jacobian J = dK/df at the flat label:

1. A velocity dxi that keeps every product to first order varies the
   label f_v = -log(xi_v4 - xi_v3) by df_v = -(dxi_v4 - dxi_v3) / (xi_v4 - xi_v3).
2. The moved points realize the same structure, so their label stays
   flat to first order: J df = 0.
3. Every df in ker J is reached: develop the varied flat label, and its
   realization varies with the same products.
4. df = 0 fixes every radius and, with the products, every edge length,
   so the plane moves rigidly: the three Euclidean motions give df = 0.

So dim ker M = dim ker J + 3.  J 1 = J x = J y = 0 at a flat label
(acceptance criterion 7: the Mobius label moves of mobius_orbit_check),
so rank M = 4V - 6 exactly when ker J = span{1, x, y}: the flat label
is locally unique up to Mobius moves.  row_rank_certificate proves that
on the sparse J, which a similarity of the plane leaves unchanged;
numerical_rank is the dense SVD, of M for rank --spectrum and of J for
rank --jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import AugmentedDisk
from .conformal import _complex_of
from .layout import PlaneLayout
from .minkowski import InfinitesimalMobius, induced_label_variation, infinitesimal_generator
from .solver import _SPLU_OPTIONS

__all__ = [
    "constraint_matrix",
    "numerical_rank",
    "row_rank_certificate",
    "OrbitReport",
    "mobius_orbit_check",
]


def constraint_matrix(layout: PlaneLayout) -> np.ndarray:
    """Derivative of the product constraints at the layout's realization,
    one row per constraint, as a dense array.

    Velocities are stacked per vertex in the complex's vertex order.
    The row of vertex v carries xi_v in the block of v; the row of edge
    (u, v) carries xi_v in the block of u and xi_u in the block of v.
    Rows are written without the symmetrization factor 2, which leaves
    the rank unchanged.
    """
    mpoints, E = layout.mpoints, layout.cs.complex.compiled.E
    n = len(mpoints)
    block = 4 * np.arange(n)[:, None] + np.arange(4)  # the 4 columns of each vertex
    m = np.zeros((n + len(E), 4 * n))
    m[np.arange(n)[:, None], block] = mpoints
    rows = n + np.arange(len(E))[:, None]
    m[rows, np.hstack([block[E[:, 0]], block[E[:, 1]]])] = np.hstack([mpoints[E[:, 1]], mpoints[E[:, 0]]])
    return m


def numerical_rank(matrix, cutoff: float = 1e-10):
    """(rank, singular values) with the rank counted above cutoff * s_max."""
    matrix = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, s
    return int(np.sum(s > cutoff * s[0])), s


#: How many of the smallest singular values a rank report carries.
N_SMALLEST = 4


def row_rank_certificate(layout: PlaneLayout, cutoff: float = 1e-10):
    """(rank, s_max, smallest) when M = constraint_matrix(layout) has
    certified full row rank, its row count 4V - 6, else None ("not
    certified", not "rank deficient").  By the lemma above this is read
    off J = dK/df at the layout's label; neither M nor the realization
    is formed.  s_max is J's largest singular value and ``smallest`` its
    min(N_SMALLEST, n - 3) smallest off span Z, Z = [1, x, y], ascending.

    The apex and the two vertices that a pivoted QR of the positions
    relative to it picks are pinned (P): the apex alone leaves J_SS
    singular on exact flat labels, and its dense row kept out keeps the
    factor sparse.  J on the rest (S) is factored with Newton's splu
    settings.  As J Z = 0, J = T^T J_SS T with T = [I, -W] and
    W = Z_S Z_P^-1, so x = [J_SS^-1 b_S; 0] solves J x = b exactly for
    b orthogonal to Z: projected off span Z, the OPinv of shift-invert
    Lanczos.  Both Lanczos runs start from a fixed vector, so repeated
    calls give the same bits.

    Certified when |J Q_Z| <= cutoff * s_max (Q_Z orthonormal on span Z:
    criterion 7) and (1 - delta) * sigma_4 > cutoff * s_max, where
    delta = n * eps * rho * (1 + |W|^2) * s_max / sigma_4 bounds the
    error to first order: a solve is exact for some J_SS + D, |D| of
    order n * eps * rho * |J_SS| (Wilkinson; rho is the factor's growth),
    that is for J + T^T D T, with |T|^2 = 1 + |W|^2 and |J_SS| <= s_max.
    """
    from scipy.linalg import qr
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    n = len(_complex_of(layout.cs, AugmentedDisk).vertices)  # the apex is the last vertex
    J = layout.cs.system.sparse_jacobian(layout.label)
    Z = np.column_stack([np.ones(n), layout.positions])
    q = np.linalg.qr(Z)[0]
    pinned = np.append(qr((Z[:, 1:] - Z[-1, 1:]).T, pivoting=True, mode="r")[1][:2], n - 1)
    rest = np.setdiff1d(np.arange(n), pinned)
    j_ss = J[rest][:, rest]

    def solve(b):  # off span Z
        x = np.zeros(n)
        x[rest] = lu.solve((b - q @ (q.T @ b))[rest])
        return x - q @ (q.T @ x)

    v0 = np.cos(0.7 * np.arange(n)) + 2.0  # fixed: ARPACK's default start is random
    try:
        w = np.linalg.norm(np.linalg.solve(Z[pinned].T, Z[rest].T), 2)  # |W|
        lu = splu(j_ss, **_SPLU_OPTIONS)
        s_max = float(np.abs(eigsh(J, k=1, v0=v0, return_eigenvectors=False)[0]))
        inv = LinearOperator((n, n), matvec=solve, dtype=float)
        small = eigsh(J, k=min(N_SMALLEST, n - 3), sigma=0.0, OPinv=inv, v0=v0 - q @ (q.T @ v0), return_eigenvectors=False)
    except (RuntimeError, np.linalg.LinAlgError):  # a singular factor, or no convergence
        return None
    smallest = np.sort(np.abs(small))
    if not (smallest[0] > 0 and np.linalg.norm(J @ q, 2) <= cutoff * s_max):
        return None
    growth = np.max(np.abs(lu.U.data)) / np.max(np.abs(j_ss.data))
    delta = n * np.finfo(float).eps * growth * (1.0 + w * w) * s_max / smallest[0]
    return (4 * n - 6, s_max, smallest) if (1.0 - delta) * smallest[0] > cutoff * s_max else None


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


def mobius_orbit_check(layout: PlaneLayout, generator: InfinitesimalMobius, eps: float) -> OrbitReport:
    """Push a flat realization along I + eps*M(g) and recover the label.

    ``layout`` is the development of a flat label f on an augmented
    disk, as from layout_augmented; its realization is built once and
    shared by every check on it.  The moved label is
    f'_v = -log(xi'_4 - xi'_3).  For a flat f the report shows
    max |K(f')| of order eps^2 and the finite-difference rate
    (f' - f)/eps close to the predicted variation
    (a + b, c + d) . P_v + t.  The (4, 4) matrix of
    infinitesimal_generator is applied directly to the rows of
    ``layout.mpoints``: it is Lorentz only to first order, which is the
    point.
    """
    L = infinitesimal_generator(generator, eps)
    # a stacked product rounds like the per-vertex L @ xi
    xi = (L[None] @ layout.mpoints[:, :, None])[:, :, 0]
    depth = xi[:, 3] - xi[:, 2]
    if np.any(depth <= 0):
        v = layout.cs.complex.vertices[int(np.argmax(depth <= 0))]
        raise ValueError(f"eps={eps!r} pushes vertex {v} outside the representable range")
    moved = -np.log(depth)

    K = layout.cs.system.curvature(moved)
    rate = (moved - layout.label) / eps
    predicted = induced_label_variation(generator, layout.positions)
    return OrbitReport(
        generator=generator,
        eps=eps,
        f_moved=moved,
        max_abs_curvature=float(np.max(np.abs(K))),
        variation_rate=rate,
        predicted_variation=predicted,
        max_variation_dev=float(np.max(np.abs(rate - predicted))),
    )
