"""Infinitesimal rigidity experiments on realized disks.

A realization fixes the self-products <xi_v, xi_v> and the edge
products <xi_v, xi_w>.  Differentiating both constraint families at a
realization gives a linear map on vertex velocities in R^{4V}; its rank
measures how large the space of product-preserving deformations is.
The expectation is that only the Lorentz moves remain, which makes the
(V + E) x 4V constraint matrix full rank whenever V + E <= 4V - 6.
The rank is reported, never asserted: it is experimental evidence.

An augmented disk triangulates a sphere, so V + E = 4V - 6 and full
rank is full row rank, which holds exactly when the Gram matrix
G = M M^T is nonsingular.  row_rank_certificate proves it from a
sparse factor: the largest eigenvalue of G by Lanczos, the four
smallest by shift-invert Lanczos on an splu factor of G, both from a
fixed start vector so that repeated calls give the same bits.  Forming
and factoring G instead of M squares the condition number: an
eigenvalue of G carries an error of order eps * lambda_max(G), which
hides singular values of M below about sqrt(eps) * s_max.  So the
certificate holds only with a margin,

    lambda_min(G) >= 1e3 * max(eps, cutoff**2) * lambda_max(G),

which puts s_min well above both that noise and cutoff * s_max; the
rank is then the row count.  Otherwise (a singular factor, no Lanczos
convergence, or an eigenvalue inside the margin) it returns None and
the caller falls back to the dense SVD of numerical_rank, which also
reports the full spectrum.  The margin holds on ring_lattice up to 8
rings in every scenario; from about 12 rings on, the tangent and
orthogonal scenarios fall back.

Both experiments take a layout alone: it carries its structure,
label and realization, so checking many generators on one layout
compiles, develops and realizes once; each Mobius check moves every
row of the realization's (n, 4) array with one stacked product.
"""

from __future__ import annotations

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


def constraint_matrix(layout: PlaneLayout) -> np.ndarray:
    """Derivative of the product constraints at the layout's realization,
    one row per constraint, as a dense array.

    Velocities are stacked per vertex in the complex's vertex order.
    The row of vertex v carries xi_v in the block of v; the row of edge
    (u, v) carries xi_v in the block of u and xi_u in the block of v.
    Rows are written without the symmetrization factor 2, which leaves
    the rank unchanged.
    """
    mpoints = layout.mpoints
    E = layout.cs.complex.compiled.E
    n = len(mpoints)
    block = 4 * np.arange(n)[:, None] + np.arange(4)  # the 4 columns of each vertex
    rows = n + np.arange(len(E))[:, None]
    m = np.zeros((n + len(E), 4 * n))
    m[np.arange(n)[:, None], block] = mpoints
    m[rows, block[E[:, 0]]] = mpoints[E[:, 1]]
    m[rows, block[E[:, 1]]] = mpoints[E[:, 0]]
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
#: The factor by which lambda_min(G) must clear the noise of squaring M.
_GRAM_MARGIN = 1e3


def row_rank_certificate(m, cutoff: float = 1e-10):
    """(rank, s_max, smallest) when m has certified full row rank, else None.

    ``m`` is converted to CSR; ``rank`` is its row count and
    ``smallest`` its N_SMALLEST smallest singular values, ascending.
    The certificate holds only when lambda_min(G) >= 1e3 *
    max(eps, cutoff**2) * lambda_max(G) for G = m m^T (see the module
    docstring).  None means "not certified", not "rank deficient": a
    singular splu factor, an ArpackNoConvergence, an eigenvalue inside
    the margin, or too few rows for the Lanczos calls; numerical_rank
    then decides.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    m = sparse.csr_array(m, dtype=float)
    rows = m.shape[0]
    if rows <= N_SMALLEST + 1:
        return None
    g = (m @ m.T).tocsc()
    v0 = np.cos(0.7 * np.arange(rows)) + 2.0  # fixed: ARPACK's default start is random
    try:
        lam_max = eigsh(g, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
        lu = splu(g)
        inv = LinearOperator(g.shape, matvec=lu.solve, dtype=float)
        small = np.sort(eigsh(g, k=N_SMALLEST, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False))
    except RuntimeError:  # splu's exactly singular factor, or eigsh's ArpackNoConvergence
        return None
    margin = _GRAM_MARGIN * max(np.finfo(float).eps, cutoff * cutoff)
    if not (np.isfinite(lam_max) and lam_max > 0 and small[0] >= margin * lam_max):
        return None
    return rows, float(np.sqrt(lam_max)), np.sqrt(small)


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
    (a + b, c + d) . P_v + t.  The perturbation matrix is applied
    directly: it is Lorentz only to first order, which is the point.
    """
    L = infinitesimal_generator(generator, eps)
    # a stacked product rounds like the per-vertex L.m @ xi
    xi = (L.m[None] @ layout.mpoints[:, :, None])[:, :, 0]
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
