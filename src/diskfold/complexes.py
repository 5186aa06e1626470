"""Triangulated disks, their augmentation by an apex, and multiplicities.

A combinatorial disk is a simplicial triangulation of a closed disk:
oriented triangles glued so that every edge lies in at most two faces,
the boundary edges form one simple cycle, and every vertex link is a
single fan.  Augmenting joins a new apex vertex to every boundary edge,
producing a triangulated sphere whose extra faces carry the opposite
orientation (the fold).

Simplices are written as sorted vertex tuples: (v,) for vertices,
(u, v) for edges, (u, v, w) for faces.

Both kinds of complex carry one CompiledComplex, built on first use:
the index arrays (edge ends, face corners, face sides, the faces of each
edge), the fold sign of every face and the constant term of the
curvature.  Every layer reads these shared, read-only arrays; none
builds its own index.  Labels are coerced to vertex order by the one
label_array of both complexes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

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
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    AUGMENTED = "augmented"


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def simplex_key(vertices) -> Simplex:
    return tuple(sorted(vertices))


def _face_edges(face):
    a, b, c = face
    return (edge_key(a, b), edge_key(b, c), edge_key(a, c))


@dataclass(frozen=True, eq=False)
class CompiledComplex:
    """The index arrays of one complex, shared read-only by every layer.

    Vertices, edges and faces are numbered in the complex's own order.
    ``E`` (E, 2) holds the ends of each edge, ``F`` (F, 3) the corners
    of each face and ``FE`` (F, 3) the side opposite each corner.
    ``edge_faces`` (E, 2) lists the faces of each edge in face order,
    -1 where an edge lies in one face only.  ``fold_sign`` is -1 on disk
    faces and +1 on augmented ones: the sign of a face's angles in the
    curvature; its negative is the orientation the development gives the
    face and the face's standard multiplicity.  ``const`` is the
    constant term of the curvature: 2*pi at interior vertices, 0 at
    boundary vertices and -2*pi at the apex; on a plain disk 2*pi at
    every vertex, of which only the interior entries are meaningful.
    """

    vertex_index: dict
    E: np.ndarray
    F: np.ndarray
    FE: np.ndarray
    edge_faces: np.ndarray
    fold_sign: np.ndarray
    const: np.ndarray


def _compile(complex_) -> CompiledComplex:
    if isinstance(complex_, AugmentedDisk):
        n_disk = complex_.n_disk_faces
        const = dict.fromkeys(complex_.disk.interior_vertices, 2.0 * np.pi)
        const[complex_.apex] = -2.0 * np.pi
    else:
        n_disk = len(complex_.faces)
        const = dict.fromkeys(complex_.vertices, 2.0 * np.pi)
    vidx = {v: i for i, v in enumerate(complex_.vertices)}
    eidx = {e: i for i, e in enumerate(complex_.edges)}
    faces = complex_.faces
    E = np.array([[vidx[u], vidx[v]] for u, v in complex_.edges])
    F = np.array([[vidx[v] for v in f] for f in faces])
    FE = np.array(
        [[eidx[edge_key(f[(c + 1) % 3], f[(c + 2) % 3])] for c in range(3)] for f in faces]
    )
    # a stable sort of the face sides by edge keeps each edge's faces in
    # face order; the first side of an edge goes to column 0
    sides = FE.ravel()
    order = np.argsort(sides, kind="stable")
    by_edge = sides[order]
    second = np.concatenate([[False], by_edge[1:] == by_edge[:-1]])
    edge_faces = np.full((len(E), 2), -1)
    edge_faces[by_edge, second.astype(int)] = order // 3
    fold_sign = np.where(np.arange(len(faces)) < n_disk, -1.0, 1.0)
    const = np.array([const.get(v, 0.0) for v in complex_.vertices])
    arrays = (E, F, FE, edge_faces, fold_sign, const)
    for a in arrays:
        a.flags.writeable = False
    return CompiledComplex(vidx, *arrays)


class _Indexed:
    """What both complexes share: the compiled index and label coercion."""

    @cached_property
    def compiled(self) -> CompiledComplex:
        """The index arrays of this complex, built once on first use."""
        return _compile(self)

    @property
    def vertex_index(self) -> dict:
        """Position of each vertex in vertex order; shared, do not mutate."""
        return self.compiled.vertex_index

    def label_array(self, f) -> np.ndarray:
        """Coerce a label (mapping or aligned array) to a fresh array in vertex order."""
        if isinstance(f, dict):
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

    def label_dict(self, f) -> dict:
        arr = self.label_array(f)
        return {v: float(arr[i]) for i, v in enumerate(self.vertices)}


@dataclass(frozen=True)
class CombinatorialDisk(_Indexed):
    """A validated triangulated disk with a consistent face orientation.

    Faces are stored with the orientation produced by validate_disk:
    all faces traverse shared edges in opposite directions, and the
    boundary cycle follows the direction the faces induce on it.
    Instances are immutable; build them through validate_disk.
    """

    vertices: tuple
    faces: tuple
    edges: tuple
    boundary_edges: frozenset
    boundary_cycle: tuple
    interior_vertices: frozenset

    @property
    def boundary_vertices(self) -> frozenset:
        return frozenset(self.boundary_cycle)

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def directed_boundary(self):
        """Boundary edges (v, w) in cycle order, as their faces direct them."""
        cyc = self.boundary_cycle
        return tuple((cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))


def _err(reason, **details):
    extra = ", ".join(f"{k}={v!r}" for k, v in details.items())
    return DiskTopologyError(f"{reason}" + (f" ({extra})" if extra else ""))


def validate_disk(vertices, faces) -> CombinatorialDisk:
    """Check that (vertices, faces) triangulates a disk and orient it.

    Raises DiskTopologyError when the complex is not a disk: duplicate
    or degenerate faces, edges in more than two faces, wrong Euler
    characteristic, disconnected (pinched) vertex links, or a boundary
    that is not a single cycle.
    """
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise _err("duplicate vertex ids")
    vset = set(vertices)
    faces = [tuple(f) for f in faces]
    if not faces:
        raise _err("a disk needs at least one face")
    seen = set()
    for f in faces:
        if len(f) != 3 or len(set(f)) != 3:
            raise _err("face is not a triangle", face=f)
        if not set(f) <= vset:
            raise _err("face references unknown vertex", face=f)
        k = simplex_key(f)
        if k in seen:
            raise _err("duplicate face", face=f)
        seen.add(k)

    edge_faces: dict = {}
    for fi, f in enumerate(faces):
        for e in _face_edges(f):
            edge_faces.setdefault(e, []).append(fi)
    for e, fl in edge_faces.items():
        if len(fl) > 2:
            raise _err("edge lies in more than two faces", edge=e)

    used = {v for f in faces for v in f}
    if used != vset:
        raise _err("isolated vertices", vertices=sorted(vset - used))

    edges = tuple(sorted(edge_faces))
    if len(vertices) - len(edges) + len(faces) != 1:
        raise _err(
            "Euler characteristic is not 1",
            chi=len(vertices) - len(edges) + len(faces),
        )

    boundary_edges = frozenset(e for e, fl in edge_faces.items() if len(fl) == 1)
    if not boundary_edges:
        raise _err("no boundary edges; the complex is closed")

    # Each vertex link must be a single path (boundary) or cycle (interior).
    link: dict = {v: {} for v in vertices}
    for f in faces:
        for i in range(3):
            v = f[i]
            a, b = f[(i + 1) % 3], f[(i + 2) % 3]
            link[v].setdefault(a, set()).add(b)
            link[v].setdefault(b, set()).add(a)
    interior = set()
    for v in vertices:
        nbrs = link[v]
        # no edge lies in more than two faces, so link degrees are 1 or
        # 2: a connected link is a cycle (no ends) or a path (two ends)
        start = next(iter(nbrs))
        stack, comp = [start], {start}
        while stack:
            n = stack.pop()
            for w in nbrs[n]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        if comp != set(nbrs):
            raise _err("vertex link is not connected", vertex=v)
        if all(len(s) == 2 for s in nbrs.values()):
            interior.add(v)

    # Orient faces consistently: neighbors traverse shared edges oppositely.
    directed = [None] * len(faces)
    face_adj: dict = {fi: [] for fi in range(len(faces))}
    for e, fl in edge_faces.items():
        if len(fl) == 2:
            face_adj[fl[0]].append((fl[1], e))
            face_adj[fl[1]].append((fl[0], e))
    directed[0] = faces[0]
    queue = [0]
    placed = {0}
    while queue:
        fi = queue.pop()
        f = directed[fi]
        dir_edges = {(f[i], f[(i + 1) % 3]) for i in range(3)}
        for fj, e in face_adj[fi]:
            g = faces[fj]
            g_dirs = {(g[i], g[(i + 1) % 3]) for i in range(3)}
            same = any(d in g_dirs for d in dir_edges)
            oriented = (g[0], g[2], g[1]) if same else g
            if fj in placed:
                if directed[fj] != oriented and directed[fj] not in {
                    (oriented[1], oriented[2], oriented[0]),
                    (oriented[2], oriented[0], oriented[1]),
                }:
                    raise _err("faces cannot be oriented consistently")
                continue
            directed[fj] = oriented
            placed.add(fj)
            queue.append(fj)
    if len(placed) != len(faces):
        raise _err("faces are not edge-connected")

    # Boundary cycle, following the direction induced by the faces.
    succ: dict = {}
    for f in directed:
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            if edge_key(a, b) in boundary_edges:
                if a in succ:
                    raise _err("boundary is not a single cycle", vertex=a)
                succ[a] = b
    start = min(succ)
    cyc = [start]
    while True:
        nxt = succ[cyc[-1]]
        if nxt == start:
            break
        if nxt in cyc:
            raise _err("boundary is not a single cycle", vertex=nxt)
        cyc.append(nxt)
    if len(cyc) != len(boundary_edges):
        raise _err("boundary has more than one cycle")

    return CombinatorialDisk(
        vertices=vertices,
        faces=tuple(directed),
        edges=edges,
        boundary_edges=boundary_edges,
        boundary_cycle=tuple(cyc),
        interior_vertices=frozenset(interior),
    )


@dataclass(frozen=True)
class AugmentedDisk(_Indexed):
    """A disk together with the apex joined to its boundary.

    ``faces`` lists the disk faces first, then one augmented face
    (apex, w, v) per directed boundary edge (v, w); the reversal folds
    the augmented sheet over the disk.  ``vertex_order`` fixes the
    index convention used by all array-valued callers: disk vertices in
    their original order, apex last.
    """

    disk: CombinatorialDisk
    apex: int
    vertices: tuple
    faces: tuple
    edges: tuple
    n_disk_faces: int

    @property
    def vertex_order(self) -> tuple:
        return self.vertices

    @property
    def disk_faces(self) -> tuple:
        return self.faces[: self.n_disk_faces]

    @property
    def augmented_faces(self) -> tuple:
        return self.faces[self.n_disk_faces:]


def augment(disk: CombinatorialDisk) -> AugmentedDisk:
    """Join a new apex vertex to every boundary edge of the disk.

    The result is a combinatorial sphere: chi = 2 and 3F = 2E.
    """
    apex = max(disk.vertices) + 1
    aug_faces = tuple((apex, w, v) for (v, w) in disk.directed_boundary())
    faces = disk.faces + aug_faces
    edges = tuple(sorted(set(disk.edges) | {edge_key(v, apex) for v in disk.boundary_cycle}))
    aug = AugmentedDisk(
        disk=disk,
        apex=apex,
        vertices=disk.vertices + (apex,),
        faces=faces,
        edges=edges,
        n_disk_faces=len(disk.faces),
    )
    nv, ne, nf = len(aug.vertices), len(aug.edges), len(aug.faces)
    assert nv - ne + nf == 2 and 3 * nf == 2 * ne
    return aug


def classify(aug: AugmentedDisk):
    """Class of every simplex of the augmented disk, keyed by simplex_key."""
    disk = aug.disk
    out = {}
    for v in disk.interior_vertices:
        out[(v,)] = SimplexClass.INTERIOR
    for v in disk.boundary_cycle:
        out[(v,)] = SimplexClass.BOUNDARY
    out[(aug.apex,)] = SimplexClass.AUGMENTED
    for e in aug.edges:
        if aug.apex in e:
            out[e] = SimplexClass.AUGMENTED
        elif e in disk.boundary_edges:
            out[e] = SimplexClass.BOUNDARY
        else:
            out[e] = SimplexClass.INTERIOR
    for f in aug.disk_faces:
        out[simplex_key(f)] = SimplexClass.INTERIOR
    for f in aug.augmented_faces:
        out[simplex_key(f)] = SimplexClass.AUGMENTED
    return out


@dataclass(frozen=True)
class MultiplicityAssignment:
    """Integer weights on the simplices of an augmented disk."""

    mu: dict = field(default_factory=dict)

    def __call__(self, simplex) -> int:
        return self.mu.get(simplex_key(simplex), 0)

    def items(self):
        return self.mu.items()


#: Weight per (dimension, class) in the standard assignment.
_STANDARD_TABLE = {
    (1, SimplexClass.INTERIOR): 1,
    (1, SimplexClass.BOUNDARY): 0,
    (1, SimplexClass.AUGMENTED): -1,
    (2, SimplexClass.INTERIOR): -1,
    (2, SimplexClass.BOUNDARY): 0,
    (2, SimplexClass.AUGMENTED): 1,
    (3, SimplexClass.INTERIOR): 1,
    (3, SimplexClass.AUGMENTED): -1,
}


def standard_multiplicities(aug: AugmentedDisk) -> MultiplicityAssignment:
    """The assignment whose curvature measure matches the angle curvature.

    Vertices: interior 1, boundary 0, apex -1.  Edges: interior -1,
    boundary 0, augmented 1.  Faces: disk 1, augmented -1.
    """
    cls = classify(aug)
    return MultiplicityAssignment(
        {s: _STANDARD_TABLE[(len(s), c)] for s, c in cls.items()}
    )


def pointwise_multiplicity(aug: AugmentedDisk, mu: MultiplicityAssignment, simplex) -> int:
    """Sum of mu over all simplices whose closure contains the given one.

    For the standard assignment this is 1 on interior simplices, 0 on
    boundary ones and -1 on augmented ones: the two sheets of the fold
    counted with sign, as seen from the closed star of the simplex.
    """
    s = set(simplex)
    total = 0
    for v in aug.vertices:
        if s <= {v}:
            total += mu((v,))
    for e in aug.edges:
        if s <= set(e):
            total += mu(e)
    for f in aug.faces:
        if s <= set(f):
            total += mu(simplex_key(f))
    return total
