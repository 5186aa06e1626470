"""Triangulated disks, their augmentation by an apex, and multiplicities.

A combinatorial disk is a simplicial triangulation of a closed disk:
oriented triangles glued so that every edge lies in at most two faces,
the boundary edges form one simple cycle, and every vertex link is a
single fan.  Augmenting joins a new apex vertex to every boundary edge,
producing a triangulated sphere whose extra faces carry the opposite
orientation (the fold).

Simplices are written as sorted vertex tuples: (v,) for vertices,
(u, v) for edges, (u, v, w) for faces.

Both kinds of complex store one CompiledComplex: the vertex ids, the
index arrays (edge ends, face corners, face sides, the faces of each
edge, the boundary cycle), the fold signs and the curvature's constant
term.  One pass, _number_sides, numbers the edges and sides of both:
validate_disk runs it on the disk's faces and then checks the topology
on its arrays, augment runs it on the oriented disk faces followed by
the apex faces, and every layer reads these shared, read-only arrays.
The id views (faces, edges, boundary_cycle, vertex_index,
simplex_index, ...) are built on first use.  Labels, a Mapping by id or
an aligned array, are coerced to vertex order by the one label_array.  A simplex's class is a code off the index: sign(const) of
a vertex, -fold_sign of a face, the mean of an edge's two faces.  A
MultiplicityAssignment carries its complex and three read-only integer
arrays over its vertices, edges and faces, so the functions of an
assignment take it alone; the standard one is (-1)^dim times the code.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

__all__ = [
    "DiskTopologyError",
    "SimplexClass",
    "CombinatorialDisk",
    "AugmentedDisk",
    "MultiplicityAssignment",
    "validate_disk",
    "augment",
    "classify",
    "standard_multiplicities",
    "pointwise_multiplicity",
]

Simplex = tuple
Edge = tuple


class DiskTopologyError(ValueError):
    """The face list does not describe a triangulated disk."""


class SimplexClass(enum.Enum):
    INTERIOR = 1
    BOUNDARY = 0
    AUGMENTED = -1


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def simplex_key(vertices) -> Simplex:
    return tuple(sorted(vertices))


@dataclass(frozen=True, eq=False)
class CompiledComplex:
    """The index arrays of one complex, shared read-only by every layer.

    Vertices, edges and faces are numbered in the complex's own order.
    ``ids`` holds the vertex ids (objects past int64), ``E`` (E, 2) the
    ends of each edge, ``F`` (F, 3) the corners of each face and ``FE``
    (F, 3) the side opposite each corner.
    ``edge_faces`` (E, 2) lists the faces of each edge in face order,
    -1 where an edge lies in one face only.  ``fold_sign`` is -1 on disk
    faces and +1 on augmented ones: the sign of a face's angles in the
    curvature; its negative is the orientation the development gives the
    face and the face's standard multiplicity.  ``const`` is the
    constant term of the curvature: 2*pi at interior vertices, 0 at
    boundary vertices and -2*pi at the apex; on a plain disk 2*pi at
    every vertex, of which only the interior entries are meaningful.
    ``cycle`` holds the positions of the boundary vertices along the
    boundary cycle, from its least id in the direction the faces induce
    on it; an augmented disk shares its disk's array.
    """

    ids: np.ndarray
    E: np.ndarray
    F: np.ndarray
    FE: np.ndarray
    edge_faces: np.ndarray
    fold_sign: np.ndarray
    const: np.ndarray
    cycle: np.ndarray

    def __post_init__(self):
        for a in (self.ids, self.E, self.F, self.FE, self.edge_faces, self.fold_sign, self.const, self.cycle):
            a.flags.writeable = False


def _id_rank(vertices: tuple):
    """(ids, rank): the ids as an array (of objects past int64) and the
    position of each vertex in increasing id order."""
    ids = np.array(vertices)
    if ids.dtype.kind != "i":
        ids = np.array(vertices, dtype=object)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[np.argsort(ids, kind="stable")] = np.arange(len(ids))
    return ids, rank


def _tuples(a: np.ndarray) -> tuple:
    """The rows of a 2-d array as tuples of Python scalars."""
    return tuple(zip(*a.T.tolist()))


class _Indexed:
    """What both complexes share: the compiled index, its id views and label coercion."""

    @cached_property
    def faces(self) -> tuple:
        """The faces as id triples, in the compiled order."""
        return _tuples(self.compiled.ids[self.compiled.F])

    @cached_property
    def edges(self) -> tuple:
        """The edges as sorted id pairs, in the compiled order."""
        return _tuples(self.compiled.ids[self.compiled.E])

    @cached_property
    def boundary_cycle(self) -> tuple:
        """The ids of the boundary vertices, in the order of compiled.cycle."""
        return tuple(self.compiled.ids[self.compiled.cycle].tolist())

    @cached_property
    def vertex_index(self) -> dict:
        """Position of each vertex in vertex order; shared, do not mutate."""
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def simplex_index(self) -> dict:
        """Row of each simplex (vertices, edges, then faces) in the compiled
        order of its dimension, keyed by simplex_key; shared, do not mutate."""
        ix = self.compiled
        keys = chain(zip(self.vertices), self.edges, _tuples(np.sort(ix.ids[ix.F], axis=1)))
        return dict(zip(keys, chain(range(len(ix.ids)), range(len(ix.E)), range(len(ix.F)))))

    def label_array(self, f) -> np.ndarray:
        """Coerce a label (mapping or aligned array) to a fresh array in vertex order."""
        if isinstance(f, Mapping):
            missing = [v for v in self.vertices if v not in f]
            if missing:
                raise ValueError(f"label misses vertices {missing}")
            arr = np.array([float(f[v]) for v in self.vertices])
        else:
            arr = np.asarray(f, dtype=float)
            if arr.shape != (len(self.vertices),):
                raise ValueError(
                    f"label must have shape ({len(self.vertices)},), got {arr.shape}"
                )
            arr = arr.copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("label entries must be finite")
        return arr


@dataclass(frozen=True, eq=False)
class CombinatorialDisk(_Indexed):
    """A validated triangulated disk with a consistent face orientation.

    Faces are stored with the orientation produced by validate_disk:
    all faces traverse shared edges in opposite directions, and the
    boundary cycle (compiled.cycle; boundary_cycle is its id view)
    follows the direction the faces induce on it.
    Immutable and compared by identity; build them through validate_disk.
    """

    vertices: tuple
    compiled: CompiledComplex = field(repr=False)

    @cached_property
    def boundary_edges(self) -> frozenset:
        """The edges that lie in one face only, as sorted id pairs."""
        return frozenset(e for e, (_, g) in zip(self.edges, self.compiled.edge_faces.tolist()) if g < 0)

    @cached_property
    def interior_vertices(self) -> frozenset:
        """The ids of the vertices off the boundary cycle."""
        return frozenset(np.delete(self.compiled.ids, self.compiled.cycle).tolist())

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.compiled.E) + len(self.compiled.F)


def _err(reason, **details):
    extra = ", ".join(f"{k}={v!r}" for k, v in details.items())
    return DiskTopologyError(f"{reason}" + (f" ({extra})" if extra else ""))


def _corners(vertex_index: dict, faces: list):
    """(F, 3) vertex positions of the faces, or None when some face is not
    a triangle of three known, distinct vertices."""
    if set(map(len, faces)) != {3}:
        return None
    flat = map(vertex_index.get, chain.from_iterable(faces), repeat(-1))
    F = np.fromiter(flat, dtype=np.intp, count=3 * len(faces)).reshape(-1, 3)
    a, b, c = F.T
    if F.min() < 0 or ((a == b) | (b == c) | (a == c)).any():
        return None
    return F


def _reject_face(vertices: tuple, faces: list):
    """Raise for the first face that is not a triangle of three known,
    distinct vertices or repeats an earlier face."""
    vset = set(vertices)
    seen = set()
    for f in faces:
        f = tuple(f)
        if len(f) != 3 or len(set(f)) != 3:
            raise _err("face is not a triangle", face=f)
        if not set(f) <= vset:
            raise _err("face references unknown vertex", face=f)
        k = simplex_key(f)
        if k in seen:
            raise _err("duplicate face", face=f)
        seen.add(k)


def _number_sides(F: np.ndarray, rank: np.ndarray):
    """(E, FE, sides, count): the edges of the faces F, numbered by their
    sides.

    Side c of face f, side 3f + c in all, joins corners c + 1 and c + 2.
    Edges are numbered by their keys in id rank (``rank`` gives each
    vertex's), so in sorted order of their id tuples, and each row of E
    lists its ends in id order.  FE (F, 3) holds the edge of each side,
    ``sides`` (E, 2) the first two sides of each edge in face order (-1
    for a lone side) and ``count`` the sides of each edge.
    """
    n, ns = len(rank), 3 * len(F)
    r0, r1 = rank[F[:, [1, 2, 0]]], rank[F[:, [2, 0, 1]]]
    side_keys = (np.minimum(r0, r1) * n + np.maximum(r0, r1)).ravel()
    # sorting the sides by key groups the sides of each edge
    order = np.argsort(side_keys)
    sorted_keys = side_keys[order]
    first = np.empty(ns, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    FE = np.empty(ns, dtype=np.intp)
    FE[order] = np.cumsum(first) - 1
    group = np.flatnonzero(first)
    keys = sorted_keys[group]
    count = np.diff(np.append(group, ns))
    lone = count == 1
    a, b = order[group], order[np.minimum(group + 1, ns - 1)]
    sides = np.stack([np.where(lone, a, np.minimum(a, b)), np.where(lone, -1, np.maximum(a, b))], axis=1)
    by_rank = np.empty(n, dtype=np.intp)
    by_rank[rank] = np.arange(n)
    return by_rank[np.stack([keys // n, keys % n], axis=1)], FE.reshape(-1, 3), sides, count


def validate_disk(vertices, faces) -> CombinatorialDisk:
    """Check that (vertices, faces) triangulates a disk and orient it.

    Raises DiskTopologyError when the complex is not a disk: duplicate
    or degenerate faces, edges in more than two faces, wrong Euler
    characteristic, no boundary, disconnected (pinched) vertex links,
    or faces that cannot be oriented consistently or are not
    edge-connected.  A complex that passes all of these is a connected,
    orientable surface with Euler characteristic 1: a disk, whose
    boundary is one cycle.

    Every check is a pass over integer arrays: the faces as an (F, 3)
    array of vertex positions, their edges and sides numbered by
    _number_sides (the pass augment runs too), and the orientation as
    the components of the two-sheeted cover of the face-adjacency graph.
    Vertex links (connected components of half-edges joined at face
    corners) need a pass of their own only when the orientation or the
    edge-connectivity check fails.  The arrays become the disk's
    compiled index.
    """
    vertices = tuple(vertices)
    n = len(vertices)
    vertex_index = dict(zip(vertices, range(n)))
    if len(vertex_index) != n:
        raise _err("duplicate vertex ids")
    faces = list(faces)
    if not faces:
        raise _err("a disk needs at least one face")
    F = _corners(vertex_index, faces)
    if F is None:
        _reject_face(vertices, faces)
    nf = len(F)
    ids, rank = _id_rank(vertices)
    E, FE, sides, count = _number_sides(F, rank)
    on_boundary = count == 1
    first_side, second_side = sides.T
    if count.max() > 2:
        _reject_face(vertices, faces)
        crowded = set(np.flatnonzero(count > 2).tolist())
        # the first crowded edge met, face by face, as the sides ab, bc, ac
        for f, row in zip(faces, FE[:, [2, 0, 1]].tolist()):
            for e, (u, v) in zip(row, ((f[0], f[1]), (f[1], f[2]), (f[0], f[2]))):
                if e in crowded:
                    raise _err("edge lies in more than two faces", edge=edge_key(u, v))
    # two triangles on two common edges have the same corners
    pairs = np.sort((first_side // 3 * nf + second_side // 3)[~on_boundary])
    if (pairs[1:] == pairs[:-1]).any():
        _reject_face(vertices, faces)

    used = np.zeros(n, dtype=bool)
    used[F.ravel()] = True
    if not used.all():
        raise _err("isolated vertices", vertices=sorted(vertices[i] for i in np.flatnonzero(~used).tolist()))

    ne = len(E)
    if n - ne + nf != 1:
        raise _err("Euler characteristic is not 1", chi=n - ne + nf)
    if not on_boundary.any():
        raise _err("no boundary edges; the complex is closed")

    # node 2f + t is face f, reversed when t = 1; two faces agree on an
    # edge when they run it in opposite directions, so a shared edge joins
    # (f, t) to (g, t) or to (g, 1 - t).  The faces orient consistently
    # when face 0 and its reversal (nodes 0 and 1) lie in different
    # components.
    forward = (E[FE, 0] == F[:, [1, 2, 0]]).ravel()
    fa, fb = first_side[~on_boundary], second_side[~on_boundary]
    same = (forward[fa] == forward[fb]).astype(np.intp)
    fa, fb = 2 * (fa // 3), 2 * (fb // 3)
    sheet = _components(np.concatenate([fa, fa + 1]), np.concatenate([fb + same, fb + 1 - same]), 2 * nf)
    flip = sheet[1::2] == 0
    if sheet[1] == 0 or not (flip | (sheet[0::2] == 0)).all():
        # An edge-connected, orientable complex with edges in at most two
        # faces, a boundary and chi = 1 has connected vertex links: cut
        # each vertex into one per piece of its link, and the connected,
        # orientable surface with boundary that results has chi at most
        # 1, so nothing was cut.  Links are checked only here, first.
        _reject_pinch(vertices, E, F, FE)
        if sheet[1] == 0:
            raise _err("faces cannot be oriented consistently")
        raise _err("faces are not edge-connected")
    # the first face keeps its direction; a reversed face (a, b, c)
    # becomes (a, c, b), whose sides opposite b and c trade places
    if flip.any():
        F = np.where(flip[:, None], F[:, [0, 2, 1]], F)
        FE = np.where(flip[:, None], FE[:, [0, 2, 1]], FE)

    # the boundary runs along the directed boundary sides, from its
    # least id; every boundary vertex has one outgoing boundary side
    side = on_boundary[FE]
    src, dst = F[:, [1, 2, 0]][side], F[:, [2, 0, 1]][side]
    succ = np.empty(n, dtype=np.intp)
    succ[src] = dst
    step = succ.tolist()
    cycle = [int(src[np.argmin(rank[src])])]
    for _ in range(len(src) - 1):
        cycle.append(step[cycle[-1]])
    cycle = np.array(cycle, dtype=np.intp)

    compiled = CompiledComplex(ids, E, F, FE, sides // 3, np.full(nf, -1.0), np.full(n, 2.0 * np.pi), cycle)
    disk = CombinatorialDisk(vertices, compiled)
    disk.__dict__["vertex_index"] = vertex_index  # hand over the view built above
    return disk


def _reject_pinch(vertices: tuple, E: np.ndarray, F: np.ndarray, FE: np.ndarray) -> None:
    """Raise for the first vertex, in vertex order, with a disconnected link.

    Half-edge 2e + s is the edge e seen from its end E[e, s]; corner c
    of a face joins its two sides through that corner, c + 1 and c + 2,
    so the components of a vertex's half-edges are the pieces of its link.
    """
    s1, s2 = FE[:, [1, 2, 0]], FE[:, [2, 0, 1]]
    h1 = (2 * s1 + (E[s1, 1] == F)).ravel()
    h2 = (2 * s2 + (E[s2, 1] == F)).ravel()
    comp = _components(h1, h2, 2 * len(E))
    roots = comp == np.arange(len(comp))
    pinched = np.bincount(E.ravel()[roots], minlength=len(vertices)) > 1
    if pinched.any():
        raise _err("vertex link is not connected", vertex=vertices[int(np.argmax(pinched))])


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The least node of each node's component in the undirected graph
    on n nodes with the edges (u, v).

    Each round hooks every root to the least root next to it, then jumps
    every node to its root.  A root that outlives two rounds took in all
    of its neighbours in the first, so the roots left after round t + 2
    number at most those hooked in round t: the rounds are logarithmic.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        lu, lv = lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


@dataclass(frozen=True, eq=False)
class AugmentedDisk(_Indexed):
    """A disk together with the apex joined to its boundary.

    ``faces`` lists the disk faces first, then one augmented face
    (apex, w, v) per boundary edge (v, w) of the cycle; the reversal
    folds the augmented sheet over the disk.  ``vertices`` fixes the
    index convention used by all array-valued callers: disk vertices in
    their original order, apex last.  Edge i is row ``source[i]`` of the
    disk's edges followed by the edges (v, apex) in cycle order.
    Instances compare by identity.
    """

    disk: CombinatorialDisk
    apex: int
    vertices: tuple
    n_disk_faces: int
    source: np.ndarray = field(repr=False)
    compiled: CompiledComplex = field(repr=False)

    @property
    def disk_faces(self) -> tuple:
        return self.faces[: self.n_disk_faces]

    @property
    def augmented_faces(self) -> tuple:
        return self.faces[self.n_disk_faces:]


def augment(disk: CombinatorialDisk) -> AugmentedDisk:
    """Join a new apex vertex to every boundary edge of the disk.

    The result is a combinatorial sphere: chi = 2 and 3F = 2E.  The apex
    is vertex n, the augmented faces (apex, w, v) follow the disk faces,
    and the boundary cycle is the disk's.  Its compiled index comes from
    the pass that numbers the disk's edges and sides, run on all faces.
    """
    ix = disk.compiled
    n, nf, ne = len(disk.vertices), len(ix.F), len(ix.E)
    apex = max(disk.vertices) + 1
    vertices = disk.vertices + (apex,)
    cyc = ix.cycle
    nb = len(cyc)
    ids, rank = _id_rank(vertices)
    F = np.concatenate([ix.F, np.stack([np.full(nb, n), np.roll(cyc, -1), cyc], axis=1)])
    E, FE, sides, _ = _number_sides(F, rank)
    # every disk edge is a side of a disk face; side 1 of the face over
    # the boundary edge out of cyc[k] is the apex edge of cyc[k]
    source = np.empty(len(E), dtype=np.intp)
    source[FE[:nf]] = ix.FE
    source[FE[nf:, 1]] = ne + np.arange(nb)
    source.flags.writeable = False
    const = np.full(n + 1, 2.0 * np.pi)
    const[cyc] = 0.0
    const[n] = -2.0 * np.pi
    compiled = CompiledComplex(ids, E, F, FE, sides // 3, np.concatenate([ix.fold_sign, np.ones(nb)]), const, cyc)
    assert n + 1 - len(E) + len(F) == 2 and 3 * len(F) == 2 * len(E)
    return AugmentedDisk(disk, apex, vertices, nf, source, compiled)


def _class_codes(aug: AugmentedDisk):
    """The (vertex, edge, face) class codes of aug, in compiled order."""
    ix = aug.compiled
    face = -ix.fold_sign.astype(int)
    return np.sign(ix.const).astype(int), face[ix.edge_faces].sum(axis=1) // 2, face


def classify(aug: AugmentedDisk):
    """Class of every simplex of the augmented disk, keyed by simplex_key."""
    return dict(zip(aug.simplex_index, map(SimplexClass, np.concatenate(_class_codes(aug)).tolist())))


@dataclass(frozen=True, eq=False)
class MultiplicityAssignment:
    """Integer weights on the simplices of an augmented disk: read-only
    arrays over its vertices, edges and faces in compiled order.
    ``mu(simplex)`` reads one weight by id, 0 off the complex."""

    complex: AugmentedDisk
    vertex: np.ndarray
    edge: np.ndarray
    face: np.ndarray

    def __post_init__(self):
        ix = self.complex.compiled
        for name, n in (("vertex", len(ix.ids)), ("edge", len(ix.E)), ("face", len(ix.F))):
            a = getattr(self, name)
            if not isinstance(a, np.ndarray) or a.dtype.kind != "i" or a.shape != (n,):
                raise ValueError(f"the {name} weights must be an integer array of shape ({n},)")
            a.flags.writeable = False

    @classmethod
    def on(cls, aug: AugmentedDisk, mapping) -> "MultiplicityAssignment":
        """The weights of a mapping simplex -> int, 0 where it has none;
        ValueError for a key that is not a simplex of aug or a weight
        that is not an integer within int64."""
        weights = [np.zeros(len(a), dtype=np.int64) for a in (aug.vertices, aug.compiled.E, aug.compiled.F)]
        for s, m in mapping.items():
            k = simplex_key(s)
            if k not in aug.simplex_index:
                raise ValueError(f"{s!r} is not a simplex of the complex")
            try:
                ok = np.int64(m) == m
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ValueError(f"the weight {m!r} of {s!r} is not an integer within int64")
            weights[len(k) - 1][aug.simplex_index[k]] = m
        return cls(aug, *weights)

    def __call__(self, simplex) -> int:
        k = simplex_key(simplex)
        i = self.complex.simplex_index.get(k)
        return 0 if i is None else int((self.vertex, self.edge, self.face)[len(k) - 1][i])

    def total(self, vertices, edges, faces) -> int:
        """Sum of mu over the vertices, edges and faces that the boolean
        masks (in the complex's own order) select."""
        return int(self.vertex[vertices].sum() + self.edge[edges].sum() + self.face[faces].sum())


def standard_multiplicities(aug: AugmentedDisk) -> MultiplicityAssignment:
    """The assignment whose curvature measure matches the angle curvature:
    (-1)^dim times the class code.

    Vertices: interior 1, boundary 0, apex -1.  Edges: interior -1,
    boundary 0, augmented 1.  Faces: disk 1, augmented -1.
    """
    vertex, edge, face = _class_codes(aug)
    return MultiplicityAssignment(aug, vertex, -edge, face)


def pointwise_multiplicity(mu: MultiplicityAssignment, simplex) -> int:
    """Sum of mu over all simplices whose closure contains the given one.

    For the standard assignment this is 1 on interior simplices, 0 on
    boundary ones and -1 on augmented ones: the two sheets of the fold
    counted with sign, as seen from the closed star of the simplex.
    The cofaces are the rows of mu's compiled complex that hold every
    vertex of the simplex (none, for an id off the complex).
    """
    aug = mu.complex
    idx = [aug.vertex_index.get(v, -1) for v in set(simplex)]
    rows = (np.arange(len(aug.vertices))[:, None], aug.compiled.E, aug.compiled.F)
    return mu.total(*(np.isin(r, idx).sum(axis=1) == len(idx) for r in rows))
