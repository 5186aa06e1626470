"""Infinitesimal rigidity experiments on realized disks.

A realization fixes the self-products <xi_v, xi_v> and the edge
products <xi_v, xi_w>.  Differentiating both constraint families at a
realization gives a linear map on vertex velocities in R^{4V}; its rank
measures how large the space of product-preserving deformations is.
The expectation is that only the Lorentz moves remain, which makes the
(V + E) x 4V constraint matrix full rank whenever V + E <= 4V - 6.
The rank is reported, never asserted: it is experimental evidence.

An augmented disk triangulates a sphere, so V + E = 4V - 6 and full
rank is full row rank.  With columns read as the velocities J dxi
(J = diag(1, 1, 1, -1)), M's kernel is {(A xi_v)_v : A a 4 x 4
antisymmetric matrix}: the six Lorentz motions.  row_rank_certificate
factors M with six columns pinned, never M M^T, so cond(M) is not
squared.  On the unit-disk frame of normalize_to_unit_disk, a Lorentz
move that keeps the rank, it certifies ring_lattice to 64 rings in
every scenario and at 128 rings; numerical_rank is the dense SVD.

Both experiments take a layout alone: it carries its structure,
label and realization, so checking many generators on one layout
compiles, develops and realizes once; each Mobius check moves every
row of the realization's (n, 4) array with one stacked product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .layout import PlaneLayout
from .minkowski import InfinitesimalMobius, induced_label_variation, infinitesimal_generator

__all__ = [
    "constraint_matrix",
    "numerical_rank",
    "row_rank_certificate",
    "OrbitReport",
    "mobius_orbit_check",
]


def _constraint_csr(layout: PlaneLayout):
    """M as CSR, each entry written once: the vertex rows, then the edge rows."""
    from scipy import sparse

    mpoints, E = layout.mpoints, layout.cs.complex.compiled.E
    n, e = len(mpoints), len(E)
    block = 4 * np.arange(n)[:, None] + np.arange(4)  # the 4 columns of each vertex
    indices = np.concatenate([block.ravel(), np.hstack([block[E[:, 0]], block[E[:, 1]]]).ravel()])
    data = np.concatenate([mpoints.ravel(), np.hstack([mpoints[E[:, 1]], mpoints[E[:, 0]]]).ravel()])
    indptr = np.concatenate([4 * np.arange(n), 4 * n + 8 * np.arange(e + 1)])
    return sparse.csr_array((data, indices, indptr), shape=(n + e, 4 * n))


def constraint_matrix(layout: PlaneLayout) -> np.ndarray:
    """Derivative of the product constraints at the layout's realization,
    one row per constraint, as a dense array.

    Velocities are stacked per vertex in the complex's vertex order.
    The row of vertex v carries xi_v in the block of v; the row of edge
    (u, v) carries xi_v in the block of u and xi_u in the block of v.
    Rows are written without the symmetrization factor 2, which leaves
    the rank unchanged.
    """
    return _constraint_csr(layout).toarray()


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
    certified full row rank, else None; ``rank`` is M's row count and
    ``smallest`` its N_SMALLEST smallest singular values, ascending.

    M stays sparse.  Pinning the six columns M_R that a pivoted QR of
    the kernel basis picks leaves a square M_S, factored by splu; with
    W = M_S^-1 M_R = Q diag(w) V^T (thin SVD), M M^T = M_S (I + W W^T)
    M_S^T is inverted by two solves and the 6 x 6 capacitance step
    (I + W W^T)^-1 = I - Q diag(w^2 / (1 + w^2)) Q^T: the OPinv of
    shift-invert Lanczos.  s_max comes from Lanczos on x -> M (M^T x).
    Both start from a fixed vector, so repeated calls give the same bits.

    The margin is a first-order backward-error bound.  With partial
    pivoting each solve is exact for some M_S + D with ||D|| of order
    rows * eps * rho * ||M_S|| (Wilkinson), rho = max|U| / max|M_S|
    being the factor's growth; the capacitance step is a contraction,
    and cond(M_S) <= sqrt(1 + w_max^2) * s_max / s_min since M = M_S
    [I W] up to the column order.  So the computed s_min is within
    delta = rows * eps * rho * cond(M_S) of s_min, relatively, and the
    rank is certified when delta < 1 and (1 - delta) * s_min > cutoff *
    s_max.  None means "not certified", not "rank deficient" (a singular
    factor, no Lanczos convergence, a failed bound, or too few rows).
    """
    from scipy.linalg import qr
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    m = _constraint_csr(layout)
    rows, cols = m.shape
    if rows <= N_SMALLEST + 1:
        return None
    xi = layout.mpoints
    kernel = np.zeros((6, len(xi), 4))  # (A xi_v)_v for the six A = E_ij - E_ji
    for k, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        kernel[k, :, i], kernel[k, :, j] = xi[:, j], -xi[:, i]
    pinned = qr(kernel.reshape(6, cols), pivoting=True, mode="r")[1][:6]
    m_s = m[:, np.setdiff1d(np.arange(cols), pinned)].tocsc()
    gram = LinearOperator((rows, rows), matvec=lambda x: m @ (m.T @ x), dtype=float)
    v0 = np.cos(0.7 * np.arange(rows)) + 2.0  # fixed: ARPACK's default start is random
    try:
        lam_max = eigsh(gram, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
        lu = splu(m_s)
        q, sw, _ = np.linalg.svd(lu.solve(m[:, pinned].toarray()), full_matrices=False)
        damp = sw * sw / (1.0 + sw * sw)

        def solve_gram(x):
            y = lu.solve(x)
            return lu.solve(y - q @ (damp * (q.T @ y)), trans="T")

        inv = LinearOperator((rows, rows), matvec=solve_gram, dtype=float)
        small = np.sort(eigsh(gram, k=N_SMALLEST, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False))
    except (RuntimeError, np.linalg.LinAlgError):  # a singular factor, or no convergence
        return None
    if not (lam_max > 0 and small[0] > 0):
        return None
    s_max, smallest = float(np.sqrt(lam_max)), np.sqrt(small)
    growth = np.max(np.abs(lu.U.data)) / np.max(np.abs(m_s.data))
    delta = rows * np.finfo(float).eps * growth * np.sqrt(1.0 + sw[0] ** 2) * s_max / smallest[0]
    if not (delta < 1.0 and (1.0 - delta) * smallest[0] > cutoff * s_max):
        return None
    return rows, s_max, smallest


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
