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

A structure carries its complex, and every entry that takes one reads
the complex from it.  AngleSystem compiles a structure: it reads the compiled index
(complexes.CompiledComplex: edge ends, face sides, fold signs,
curvature constants) and its alpha and eta arrays, compiles one
Jacobian buffer at the first assembly, and looks up ids only to name
an offender.
It evaluates each label in one pass (Evaluation): squared lengths once,
then the edge, triangle and angle checks, the angles and the curvature.
Every per-label quantity has this one code path, and a label fails it
one way: with a violation, whose error accept raises.  Public methods
coerce and copy their label with the complex's label_array; the solvers
hand their own float iterates to evaluate_iterate, which trusts the
array and only keeps the finiteness check.  A structure compiles its
own system on first use (ConformalStructure.system), and every layer
evaluates through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    """A label produces a nonpositive squared length, a failed triangle
    inequality or a degenerate angle (a cosine outside [-1, 1])."""

    def __init__(self, message, simplex=None):
        super().__init__(message)
        self.simplex = simplex


@dataclass(frozen=True, eq=False)
class ConformalStructure:
    """Vertex weights alpha and edge weights eta on one complex, stored
    only as the read-only arrays ``alpha_array`` and ``eta_array`` in its
    vertex and edge order; ``alpha`` and ``eta`` are id-keyed views built
    on first use, and so is its compiled ``system``.  attach_boundary_data
    and ConformalStructure.on build checked structures, which compare by
    identity; an entry that takes one reads its complex from it."""

    complex: object = field(repr=False)
    alpha_array: np.ndarray
    eta_array: np.ndarray

    @classmethod
    def on(cls, complex_, alpha: dict, eta: dict) -> "ConformalStructure":
        """The structure of id-keyed mappings on complex_.  Raises
        StructureError when an entry is missing or a value is not finite."""
        vertices = complex_.vertices
        a = _gather(alpha, len(vertices), lambda: vertices, "alpha misses vertices {}".format)
        h = _gather(eta, len(complex_.compiled.E), lambda: complex_.edges, "eta misses edges {}".format)
        _require_finite("alpha", a if isinstance(alpha, np.ndarray) else alpha, lambda: vertices)
        _require_finite("eta", h if isinstance(eta, np.ndarray) else eta, lambda: complex_.edges)
        return cls(complex_, _frozen(a), _frozen(h))

    @cached_property
    def alpha(self) -> dict:
        return dict(zip(self.complex.vertices, self.alpha_array.tolist()))

    @cached_property
    def eta(self) -> dict:
        return dict(zip(self.complex.edges, self.eta_array.tolist()))

    @cached_property
    def system(self) -> "AngleSystem":
        """The AngleSystem of this structure, compiled on first use and
        shared by every later caller.  Its evaluations write into one
        weight buffer, so it serves one thread at a time: a caller that
        evaluates one structure from several threads builds one
        AngleSystem(cs) per thread."""
        return AngleSystem(self)


def _complex_of(cs: ConformalStructure, kind: type):
    """cs.complex, or StructureError unless it is a ``kind`` of complex.

    A non-structure, such as the complex that entries took before they
    read it from the structure, raises TypeError naming what came."""
    if not isinstance(cs, ConformalStructure):
        raise TypeError(f"expected a ConformalStructure, got {type(cs).__name__}")
    if not isinstance(cs.complex, kind):
        raise StructureError(f"the structure's complex is {type(cs.complex).__name__}, not {kind.__name__}")
    return cs.complex


def _gather(values, n: int, keys, missing_message) -> np.ndarray:
    """n floats: an aligned array, or a mapping read at the ids keys().

    ``missing_message`` makes the error text from the list of missing keys.
    """
    if not isinstance(values, np.ndarray):
        keys = keys()
        missing = [k for k in keys if k not in values]
        if missing:
            raise StructureError(missing_message(missing))
        values = list(map(values.__getitem__, keys))
    out = np.array(values, dtype=float)
    if out.shape != (n,):
        raise StructureError(f"expected {n} values, got shape {out.shape}")
    return out


def _require_finite(name: str, values, keys) -> None:
    """StructureError naming the first non-finite entry of an array, whose
    ids keys() lists, or of a mapping's values, extra keys included."""
    if not isinstance(values, np.ndarray):
        mapping = values
        values, keys = np.fromiter(mapping.values(), float, len(mapping)), lambda: list(mapping)
    bad = ~np.isfinite(values)
    if bad.any():
        raise StructureError(f"{name}[{keys()[int(np.argmax(bad))]}] is not finite")


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
    a = _gather(alpha, len(disk.vertices), lambda: disk.vertices, "alpha misses vertices {}".format)
    a = np.append(a, float(apex_alpha))
    h = _gather(eta, len(disk.compiled.E), lambda: disk.edges, "eta misses edges {}".format)
    cyc = disk.boundary_cycle
    m = _gather(mu, len(cyc), lambda: cyc, lambda missing: f"mu misses boundary vertex {missing[0]}")
    # the disk edges, then the apex edges in boundary-cycle order, which aug.source sorts
    h = np.concatenate([h, m])
    _require_finite("alpha", a, lambda: aug.vertices)
    _require_finite("eta", h, lambda: disk.edges + tuple((v, aug.apex) for v in cyc))
    return ConformalStructure(aug, _frozen(a), _frozen(h[aug.source]))


@dataclass(slots=True, eq=False)
class Evaluation:
    """One pass of an AngleSystem over one label.

    ``violation`` is None for an admissible label, else why it is not:
    ``("edge", edge row, l^2)`` for a squared length that is not positive
    and finite, ``("face", face row, lengths)`` for a failed triangle
    inequality, or ``("angle", face row, cos)`` for a face whose angle
    cosine left [-1, 1] by more than COS_CLAMP_TOL.  AngleSystem.accept
    raises its InadmissibleLabelError.
    A label that passes the edge check keeps its ``lengths``; an
    admissible one also gets its ``angles`` (a row per face, as
    AngleSystem.angles) and its ``curvature``.  ``terms`` keeps
    alpha e^{2f} at both ends and e^{f_u + f_v} per edge for the Jacobian.
    """

    f: np.ndarray
    terms: tuple
    violation: tuple | None = None
    lengths: np.ndarray | None = None
    angles: np.ndarray | None = None
    curvature: np.ndarray | None = None


class AngleSystem:
    """Array-compiled evaluator for one structure, on its complex.

    Bind once and reuse when evaluating many labels.  For a plain disk
    only the interior entries of curvature() are meaningful.

    Every label goes through one pass, evaluate(): squared lengths once,
    then the edge, triangle and angle checks, the angles and the
    curvature.  A label is admissible when its pass finds no violation;
    accept raises the error of the one it finds.  admissible, angles and
    curvature are views on that pass; sparse_jacobian (J = dK/df, CSC)
    reuses the lengths and angles of the pass that accepted its label,
    and jacobian is its dense copy.  J and its block G = J[:-1, :-1],
    which Newton factors, live in one buffer that the first assembly
    compiles and every assembly refills in place.  The solvers call
    evaluate_iterate on their own iterates, which skips the coercion and
    copy of label_array but keeps its finiteness verdict.
    A structure's shared system is ConformalStructure.system.
    """

    def __init__(self, cs: ConformalStructure):
        self.alpha, self.eta = cs.alpha_array, cs.eta_array
        self.complex = cs.complex
        self.compiled = ix = cs.complex.compiled
        n = self.n_vertices = len(cs.complex.vertices)

        # evaluation index arrays: both ends of every edge, the opposite
        # side of every corner and its two adjacent sides (each (F, 3)),
        # and a scatter index over the const entries, then the corners
        # in row-major order, so bincount sums K in np.add.at's order.
        # The weights it sums live in one buffer: const, then the signed
        # angles, which each evaluation writes over as an (F, 3) view,
        # times the fold sign of every corner (also (F, 3), so the
        # product needs no broadcast)
        self._ends = ix.E.T.copy()
        self._alpha_ends = self.alpha[self._ends]
        self._two_eta = 2 * self.eta
        self._sides = np.stack([ix.FE, ix.FE[:, [1, 2, 0]], ix.FE[:, [2, 0, 1]]])
        self._k_index = np.concatenate([np.arange(n), ix.F.ravel()])
        self._k_weights = np.concatenate([ix.const, np.zeros(ix.F.size)])
        self._k_angles = self._k_weights[n:].reshape(ix.F.shape)
        self._fold = np.repeat(ix.fold_sign[:, None], 3, axis=1)

    @cached_property
    def _jacobian_buffer(self) -> tuple:
        """(edges, slot, J, grounded, G), compiled at the first assembly.

        J is an (n, n) CSC matrix whose nonzeros, the pairs of corners of
        one face, are the diagonal and both directions of every edge.
        Every scatter entry (corner vertex row, edge end column; the u
        ends, then the v ends) maps to its data slot ``slot``, so bincount
        sums each entry in scatter order; ``edges`` is the global edge of
        each (face, corner, side) entry.  ``grounded`` masks J's entries
        in G = J[:-1, :-1], J grounded at the apex, a CSC matrix of its own.
        """
        from scipy.sparse import csc_array

        ix, n = self.compiled, self.n_vertices
        rows = np.repeat(ix.F[:, :, None], 3, axis=2).ravel()  # (F, corner, edge slot)
        edges = ix.FE[:, None, :].repeat(3, axis=1).ravel()  # global edge per slot
        cols = ix.E[edges]
        d, (u, v) = np.arange(n), ix.E.T
        keys = np.sort(np.concatenate([d * n + d, u * n + v, v * n + u]))  # column-major
        slot = np.searchsorted(keys, np.concatenate([cols[:, 0] * n + rows, cols[:, 1] * n + rows]))
        grounded = (keys // n < n - 1) & (keys % n < n - 1)

        def csc(k, m):  # zeros at the sorted keys k, all in the leading (m, m) block
            ptr = np.searchsorted(k, np.arange(m + 1) * n)
            return csc_array((np.zeros(len(k)), (k % n).astype(np.int32), ptr.astype(np.int32)), shape=(m, m))

        return edges, slot, csc(keys, n), grounded, csc(keys[grounded], n - 1)

    # -- the one pass -------------------------------------------------

    def evaluate(self, f) -> Evaluation:
        """Evaluate a label (a mapping or an aligned array) in one pass."""
        return self._evaluate(self.complex.label_array(f))

    def evaluate_iterate(self, f: np.ndarray) -> Evaluation:
        """evaluate() for a float array in vertex order that a solver built.

        The array is neither coerced nor copied; non-finite entries
        still raise the ValueError of the complex's label_array.
        """
        if not np.logical_and.reduce(np.isfinite(f)):
            raise ValueError("label entries must be finite")
        return self._evaluate(f)

    # wild labels overflow exp and give non-finite or negative squared
    # lengths, which the edge check reports: the pass runs under one errstate
    @np.errstate(over="ignore", invalid="ignore")
    def _evaluate(self, f: np.ndarray) -> Evaluation:
        # terms: alpha e^{2f} at both ends and e^{f_u + f_v}; x + x is 2 x
        # exactly, here and in the cosine's denominator
        fe = f[self._ends]
        ends = self._alpha_ends * np.exp(fe + fe)
        cross = np.exp(fe[0] + fe[1])
        terms = (ends, cross)
        l2 = ends[0] + ends[1] + self._two_eta * cross
        l = np.sqrt(l2)
        s = l[self._sides]
        a, b, c = s[0], s[1], s[2]
        closed = b + c > a
        # every edge is a side of some face, and a nan, infinite or zero
        # side never closes its face: one check covers edges and faces
        if not np.logical_and.reduce(closed, axis=None):
            bad = ~np.isfinite(l2)
            if not bad.any():
                bad = ~(l2 > 0)
            if bad.any():
                i = int(np.argmax(bad))
                return Evaluation(f, terms, violation=("edge", i, float(l2[i])))
            i = int(np.argmin(closed.all(axis=1)))
            values = tuple(float(x) for x in a[i])
            return Evaluation(f, terms, violation=("face", i, values), lengths=l)
        sq = s * s
        cosv = (sq[1] + sq[2] - sq[0]) / ((b + b) * c)
        if np.maximum.reduce(np.abs(cosv), axis=None) > 1.0 + COS_CLAMP_TOL:
            off = np.abs(cosv) > 1.0 + COS_CLAMP_TOL
            col = int(np.argmax(off.any(axis=0)))
            i = int(np.argmax(np.abs(cosv[:, col])))
            return Evaluation(f, terms, violation=("angle", i, float(cosv[i, col])), lengths=l)
        np.maximum(cosv, -1.0, out=cosv)
        th = np.arccos(np.minimum(cosv, 1.0, out=cosv), out=cosv)
        np.multiply(self._fold, th, out=self._k_angles)
        K = np.bincount(self._k_index, self._k_weights)
        # positional (violation, lengths, angles, curvature): half the keywords' cost
        return Evaluation(f, terms, None, l, th, K)

    def accept(self, ev: Evaluation) -> Evaluation:
        """ev when it is admissible, else raise the error of its violation."""
        if ev.violation is not None:
            raise self._violation_error(ev.violation)
        return ev

    def _violation_error(self, v) -> InadmissibleLabelError:
        kind, i, values = v
        simplex = (self.complex.edges if kind == "edge" else self.complex.faces)[i]
        if kind == "edge":
            verdict = "positive" if math.isfinite(values) else "finite"
            message = f"squared length {values!r} on edge {simplex} is not {verdict}"
        elif kind == "face":
            message = f"triangle inequality fails on face {simplex}: lengths {values}"
        else:
            message = f"degenerate angle in face {simplex}"
        return InadmissibleLabelError(message, simplex=simplex)

    # -- views on evaluate ------------------------------------------------

    def admissible(self, f) -> bool:
        """Whether the label has angles: False exactly when curvature(f) raises."""
        return self.evaluate(f).violation is None

    def angles(self, f) -> np.ndarray:
        """Interior angles per face, column c at the corner faces[i][c]."""
        return self.accept(self.evaluate(f)).angles

    def curvature(self, f) -> np.ndarray:
        return self.accept(self.evaluate(f)).curvature

    def jacobian(self, f) -> np.ndarray:
        """dK/df as a dense (n, n) array: sparse_jacobian densified."""
        return self._assemble(f)[0].toarray(order="C")

    def sparse_jacobian(self, f):
        """J = dK/df as a sparse (n, n) CSC matrix of its own.

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
        since the curvatures sum to zero identically.  The result is a
        copy of the system's buffer, which the next assembly refills.
        """
        return self._assemble(f)[0].copy()

    def _assemble(self, f) -> tuple:
        """(J, G): sparse_jacobian's J and J[:-1, :-1] at f, refilled in
        the system's buffer, which the next assembly overwrites."""
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
        dth = np.empty((len(L), 3, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            for ci in range(3):
                aa = L[:, ci]
                dth[:, ci, ci] = aa / (2 * area)
                dth[:, ci, (ci + 1) % 3] = -aa * cth[:, (ci + 2) % 3] / (2 * area)
                dth[:, ci, (ci + 2) % 3] = -aa * cth[:, (ci + 1) % 3] / (2 * area)
        dth *= self.compiled.fold_sign[:, None, None]

        vals = dth.ravel()
        edges, slot, J, grounded, G = self._jacobian_buffer
        with np.errstate(invalid="ignore"):
            w = np.concatenate([vals * dl_du[edges], vals * dl_dv[edges]])
            J.data[:] = np.bincount(slot, w, minlength=len(J.data))
        np.compress(grounded, J.data, out=G.data)
        return J, G
