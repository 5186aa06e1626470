"""Edge lengths, angles, curvature and its Jacobian for labeled disks.

A conformal structure assigns a number alpha_v to each vertex and
eta_uv to each edge; a label f gives every vertex a logarithmic scale.
Squared edge lengths are

    l_uv^2 = alpha_u e^{2 f_u} + alpha_v e^{2 f_v} + 2 eta_uv e^{f_u + f_v}.

Adding a constant to f scales all lengths equally, so angles and
curvatures only depend on f up to a uniform shift.

Curvature on an augmented disk counts angles with a sign that folds the
augmented sheet over the disk: disk faces enter with -1, augmented
faces with +1, and the constant term is 2*pi at interior vertices, 0 at
boundary vertices and -2*pi at the apex.  The total curvature vanishes
identically.

AngleSystem binds a structure to a complex: it reads the complex's
compiled index (complexes.CompiledComplex: edge ends, face sides, fold
signs, curvature constants), gathers alpha and eta into arrays in the
complex's vertex and edge order as it checks them (validate_for), and
adds only the Jacobian's sparse pattern.  It evaluates each label in
one pass (Evaluation): squared lengths once, then the edge and triangle
checks, the angles and the curvature.  Every per-label quantity has
this one code path.  Public methods coerce and copy their label with the
complex's label_array; the solvers hand their own float iterates to
evaluate_iterate, which trusts the array and only keeps the finiteness
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import is_

import numpy as np
from scipy.sparse import csc_array

from .complexes import AugmentedDisk

__all__ = [
    "ConformalStructure",
    "StructureError",
    "InadmissibleLabelError",
    "AngleSystem",
    "Evaluation",
    "attach_boundary_data",
]

#: Slack allowed when clamping arccos arguments to [-1, 1].
COS_CLAMP_TOL = 1e-12


class StructureError(ValueError):
    """The conformal structure does not cover the complex."""


class InadmissibleLabelError(ValueError):
    """A label produces a nonpositive squared length or a failed triangle inequality."""

    def __init__(self, message, simplex=None):
        super().__init__(message)
        self.simplex = simplex


@dataclass(frozen=True)
class ConformalStructure:
    """Vertex weights alpha and edge weights eta.  Treat as immutable.

    For an augmented disk the dictionaries cover the apex and the
    augmented edges as well; attach_boundary_data builds that extension
    from boundary data mu.
    """

    alpha: dict = field(default_factory=dict)
    eta: dict = field(default_factory=dict)

    def validate_for(self, complex_):
        """(alpha, eta) as read-only arrays in the complex's vertex and edge order.

        Raises StructureError when an entry is missing or not finite.
        """
        a = _gather(self.alpha, complex_.vertices, "alpha misses vertices {}".format)
        h = _gather(self.eta, complex_.edges, "eta misses edges {}".format)
        _require_finite("alpha", self.alpha, np.fromiter(self.alpha.values(), float, len(self.alpha)))
        _require_finite("eta", self.eta, np.fromiter(self.eta.values(), float, len(self.eta)))
        return _frozen(a), _frozen(h)


_MISSING = object()


def _gather(values, keys, missing_message) -> np.ndarray:
    """A mapping's values at keys as a float array, or an aligned array as floats.

    ``missing_message`` makes the error text from the list of missing keys.
    """
    if not isinstance(values, np.ndarray):
        got = list(map(values.get, keys, repeat(_MISSING)))
        if any(map(is_, got, repeat(_MISSING))):
            raise StructureError(missing_message([k for k, x in zip(keys, got) if x is _MISSING]))
        values = got
    out = np.array(values, dtype=float)
    if out.shape != (len(keys),):
        raise StructureError(f"expected {len(keys)} values, got shape {out.shape}")
    return out


def _require_finite(name: str, keys, values: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        key = next(k for k, b in zip(keys, bad.tolist()) if b)
        raise StructureError(f"{name}[{key}] is not finite")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def attach_boundary_data(
    aug: AugmentedDisk, alpha, eta, mu, apex_alpha: float = 1.0
) -> ConformalStructure:
    """Extend disk data (alpha, eta) and boundary data mu over the apex.

    The boundary condition mu_v becomes the structure constant of the
    augmented edge (v, apex), and the apex gets weight ``apex_alpha``.
    alpha, eta and mu are mappings over the disk's vertices, edges and
    boundary vertices, or arrays in the disk's vertex, edge and
    boundary-cycle order.  The structure comes back checked.
    """
    disk = aug.disk
    a = np.append(_gather(alpha, disk.vertices, "alpha misses vertices {}".format), float(apex_alpha))
    h = _gather(eta, disk.edges, "eta misses edges {}".format)
    m = _gather(mu, disk.boundary_cycle, lambda missing: f"mu misses boundary vertex {missing[0]}")
    h = np.concatenate([h, m])
    # the dictionaries list the disk entries first, then the apex ones
    edges = disk.edges + tuple((v, aug.apex) for v in disk.boundary_cycle)
    _require_finite("alpha", aug.vertices, a)
    _require_finite("eta", edges, h)
    return ConformalStructure(alpha=dict(zip(aug.vertices, a.tolist())), eta=dict(zip(edges, h.tolist())))


@dataclass(slots=True, eq=False)
class Evaluation:
    """One pass of an AngleSystem over one label.

    ``violation`` is None for an admissible label, else the
    (kind, simplex, values) triple of AngleSystem.violation.  A label
    that passes the edge check keeps its ``lengths``; an admissible one
    also gets its ``angles`` (a row per face, as AngleSystem.angles)
    and its ``curvature``, unless ``degenerate`` holds the index of a
    face whose angle cosine left [-1, 1] by more than COS_CLAMP_TOL.
    AngleSystem.accept turns either failure into the error of angles().
    ``terms`` keeps alpha e^{2f} at both ends and e^{f_u + f_v} per
    edge for the Jacobian.
    """

    f: np.ndarray
    terms: tuple
    violation: tuple | None = None
    degenerate: int | None = None
    lengths: np.ndarray | None = None
    angles: np.ndarray | None = None
    curvature: np.ndarray | None = None


def _indptr(cols: np.ndarray, n: int) -> np.ndarray:
    """CSC column pointers of n columns from the sorted column of every entry."""
    return np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))]).astype(np.int32)


class AngleSystem:
    """Array-compiled evaluator for one (complex, structure) pair.

    Bind once and reuse when evaluating many labels.  For a plain disk
    only the interior entries of curvature() are meaningful.

    Every label goes through one pass, evaluate(): squared lengths once,
    then the edge and triangle checks, the angles and the curvature.
    violation, admissible, check_admissible, angles and curvature are
    views on that pass, and sparse_jacobian (J = dK/df in a CSC pattern
    compiled here) reuses the lengths and angles of the pass that
    accepted its label; jacobian is its dense copy.  grounded_pattern
    holds the pattern of J[:-1, :-1], J grounded at the apex (the data
    mask of its entries in J, its indices and indptr), from which
    Newton builds the matrix it factors.  The solvers call
    evaluate_iterate on their own iterates, which skips the coercion
    and copy of the complex's label_array but keeps its finiteness
    verdict.  Every pass writes its angle weights into one buffer of
    the system, so a system serves one thread at a time.
    """

    def __init__(self, complex_, cs: ConformalStructure):
        self.alpha, self.eta = cs.validate_for(complex_)
        self.complex = complex_
        self.cs = cs
        self.compiled = ix = complex_.compiled
        self.vertex_order = complex_.vertices
        self.edge_order = complex_.edges
        self.faces = complex_.faces
        n = self.n_vertices = len(self.vertex_order)

        # evaluation index arrays: both ends of every edge, the opposite
        # side of every corner and its two adjacent sides (each (F, 3)),
        # and a scatter index over the const entries, then the corners
        # in row-major order, so bincount sums K in np.add.at's order.
        # The weights it sums live in one buffer: const, then the signed
        # angles, which each evaluation writes over as an (F, 3) view
        self._ends = ix.E.T.copy()
        self._alpha_ends = self.alpha[self._ends]
        self._two_eta = 2 * self.eta
        self._sides = np.stack([ix.FE, ix.FE[:, [1, 2, 0]], ix.FE[:, [2, 0, 1]]])
        self._k_index = np.concatenate([np.arange(n), ix.F.ravel()])
        self._k_weights = np.concatenate([ix.const, np.zeros(ix.F.size)])
        self._k_angles = self._k_weights[n:].reshape(ix.F.shape)
        self._fold_col = ix.fold_sign[:, None]

        # CSC pattern of J = dK/df: every scatter entry (corner vertex
        # row, edge end column; the u ends, then the v ends) maps to its
        # data slot, so bincount sums each entry in scatter order.  An
        # entry pairs two corners of one face, so the nonzeros are the
        # diagonal and both directions of every edge.
        rows = np.repeat(ix.F[:, :, None], 3, axis=2).ravel()  # (F, corner, edge slot)
        self._j_edges = ix.FE[:, None, :].repeat(3, axis=1).ravel()  # global edge per slot
        cols = ix.E[self._j_edges]
        d, (u, v) = np.arange(n), ix.E.T
        keys = np.sort(np.concatenate([d * n + d, u * n + v, v * n + u]))
        self._j_slot = np.searchsorted(keys, np.concatenate([cols[:, 0] * n + rows, cols[:, 1] * n + rows]))
        self._j_indices = (keys % n).astype(np.int32)
        self._j_indptr = _indptr(keys // n, n)
        # the same pattern grounded at the apex, J[:-1, :-1]: the mask of
        # its entries in J's data, and its own indices and indptr
        g = (keys // n < n - 1) & (keys % n < n - 1)
        self.grounded_pattern = (g, self._j_indices[g], _indptr(keys[g] // n, n - 1))

    @classmethod
    def reuse(cls, system, complex_, cs: ConformalStructure) -> "AngleSystem":
        """``system`` when it binds (complex_, cs), a new system when it is None."""
        if system is None:
            return cls(complex_, cs)
        if system.complex is not complex_ or system.cs is not cs:
            raise ValueError("system was compiled for another complex or structure")
        return system

    # -- the one pass -------------------------------------------------

    def evaluate(self, f) -> Evaluation:
        """Evaluate a label (a mapping or an aligned array) in one pass."""
        return self._evaluate(self.complex.label_array(f))

    def evaluate_iterate(self, f: np.ndarray) -> Evaluation:
        """evaluate() for a float array in vertex order that a solver built.

        The array is neither coerced nor copied; non-finite entries
        still raise the ValueError of the complex's label_array.
        """
        if not np.isfinite(f).all():
            raise ValueError("label entries must be finite")
        return self._evaluate(f)

    def _length_terms(self, f: np.ndarray):
        """Squared lengths, their square roots (nan where l^2 < 0) and the
        terms alpha e^{2f} at both ends and e^{f_u + f_v}."""
        fe = f[self._ends]
        # wild labels overflow exp; the edge check treats non-finite as inadmissible
        with np.errstate(over="ignore", invalid="ignore"):
            ends = self._alpha_ends * np.exp(2 * fe)
            cross = np.exp(fe[0] + fe[1])
            l2 = ends[0] + ends[1] + self._two_eta * cross
            return l2, np.sqrt(l2), (ends, cross)

    def _evaluate(self, f: np.ndarray) -> Evaluation:
        l2, l, terms = self._length_terms(f)
        a, b, c = l[self._sides]
        closed = b + c > a
        # every edge is a side of some face, and a nan, infinite or zero
        # side never closes its face: one check covers edges and faces
        if not closed.all():
            bad = ~np.isfinite(l2)
            if not bad.any():
                bad = ~(l2 > 0)
            if bad.any():
                i = int(np.argmax(bad))
                return Evaluation(f, terms, violation=("edge", self.edge_order[i], float(l2[i])))
            i = int(np.argmin(closed.all(axis=1)))
            values = tuple(float(x) for x in a[i])
            return Evaluation(f, terms, violation=("face", self.faces[i], values), lengths=l)
        cosv = (b * b + c * c - a * a) / (2 * b * c)
        if np.abs(cosv).max() > 1.0 + COS_CLAMP_TOL:
            off = np.abs(cosv) > 1.0 + COS_CLAMP_TOL
            col = int(np.argmax(off.any(axis=0)))
            i = int(np.argmax(np.abs(cosv[:, col])))
            return Evaluation(f, terms, degenerate=i, lengths=l)
        np.maximum(cosv, -1.0, out=cosv)
        th = np.arccos(np.minimum(cosv, 1.0, out=cosv), out=cosv)
        np.multiply(self._fold_col, th, out=self._k_angles)
        K = np.bincount(self._k_index, self._k_weights)
        return Evaluation(f, terms, lengths=l, angles=th, curvature=K)

    def accept(self, ev: Evaluation) -> Evaluation:
        """ev when it carries angles and curvature, else raise as angles() does."""
        if ev.violation is not None:
            raise self._violation_error(ev.violation)
        if ev.degenerate is not None:
            face = self.faces[ev.degenerate]
            raise InadmissibleLabelError(f"degenerate angle in face {face}", simplex=face)
        return ev

    @staticmethod
    def _violation_error(v) -> InadmissibleLabelError:
        kind, simplex, values = v
        if kind == "edge":
            return InadmissibleLabelError(
                f"squared length {values!r} on edge {simplex} is not positive",
                simplex=simplex,
            )
        return InadmissibleLabelError(
            f"triangle inequality fails on face {simplex}: lengths {values}",
            simplex=simplex,
        )

    # -- lengths ------------------------------------------------------

    def lengths(self, f) -> np.ndarray:
        l2, l, _ = self._length_terms(self.complex.label_array(f))
        bad = np.nonzero(~(np.isfinite(l2) & (l2 > 0)))[0]
        if bad.size:
            e = self.edge_order[bad[0]]
            raise InadmissibleLabelError(
                f"squared length {l2[bad[0]]!r} on edge {e} is not positive", simplex=e
            )
        return l

    # -- views on evaluate ------------------------------------------------

    def violation(self, f):
        """None if the label is admissible, else (kind, simplex, values)."""
        return self.evaluate(f).violation

    def admissible(self, f) -> bool:
        return self.evaluate(f).violation is None

    def check_admissible(self, f) -> None:
        v = self.evaluate(f).violation
        if v is not None:
            raise self._violation_error(v)

    def angles(self, f) -> np.ndarray:
        """Interior angles per face, column c at the corner faces[i][c]."""
        return self.accept(self.evaluate(f)).angles

    def curvature(self, f) -> np.ndarray:
        return self.accept(self.evaluate(f)).curvature

    def jacobian(self, f) -> np.ndarray:
        """dK/df as a dense (n, n) array: sparse_jacobian densified."""
        return self.sparse_jacobian(f).toarray(order="C")

    def sparse_jacobian(self, f) -> csc_array:
        """J = dK/df as a sparse (n, n) CSC matrix.

        f is a label or an Evaluation of this system.  The nonzeros are
        the diagonal and both directions of every edge, so nnz is
        n + 2E.  J is assembled from exact angle derivatives.  In a face
        with angles th_i opposite sides a = l_jk, b = l_ik, c = l_ij and
        area A:

            d th_i / d a = a / (2 A)
            d th_i / d b = -a cos(th_k) / (2 A)
            d th_i / d c = -a cos(th_j) / (2 A)

        combined with d l_uv / d f_u = (alpha_u e^{2 f_u}
        + eta_uv e^{f_u + f_v}) / l_uv.  J 1 = 0 since curvature is
        shift-invariant, and on an augmented disk 1^T J = 0 as well,
        since the curvatures sum to zero identically.
        """
        ev = self.accept(f if isinstance(f, Evaluation) else self.evaluate(f))
        th, l = ev.angles, ev.lengths
        ends, cross = ev.terms
        cross = self.eta * cross
        dl_du = (ends[0] + cross) / l
        dl_dv = (ends[1] + cross) / l

        L = l[self.compiled.FE]
        a, b, c = L[:, 0], L[:, 1], L[:, 2]
        s = (a + b + c) / 2
        area = np.sqrt(np.maximum(s * (s - a) * (s - b) * (s - c), 0.0))
        cth = np.cos(th)

        # a face can pass the strict triangle inequality while Heron's
        # formula rounds its area to zero; entries then come out inf and
        # the caller decides what to do with a blown-up Jacobian
        dth = np.empty((len(self.faces), 3, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            for ci in range(3):
                aa = L[:, ci]
                dth[:, ci, ci] = aa / (2 * area)
                dth[:, ci, (ci + 1) % 3] = -aa * cth[:, (ci + 2) % 3] / (2 * area)
                dth[:, ci, (ci + 2) % 3] = -aa * cth[:, (ci + 1) % 3] / (2 * area)
        dth *= self.compiled.fold_sign[:, None, None]

        vals = dth.ravel()
        n = self.n_vertices
        with np.errstate(invalid="ignore"):
            w = np.concatenate([vals * dl_du[self._j_edges], vals * dl_dv[self._j_edges]])
            data = np.bincount(self._j_slot, w, minlength=len(self._j_indices))
        return csc_array((data, self._j_indices, self._j_indptr), shape=(n, n))
