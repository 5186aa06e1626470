"""Problem files: parsing, validation and canonical serialization.

A problem is a JSON object with keys

    vertices  list of nonnegative integer ids
    faces     list of [i, j, k] triangles
    alpha     map id -> number, plus the key "hat" for the apex
    eta       map "i-j" -> number with i < j, one per disk edge
    mu        map id -> number, one per boundary vertex
    f_init    optional map id -> number including "hat"

The keys of a disk's vertices, edges and boundary cycle are made by one
function, _keys, for the reader and the writers alike: str(v) for a
vertex, the keys of its ends joined by "-" for an edge.  Each id-keyed
section is read by one exact-key array reader, and a section that it
does not take by the one per-key reader, which names the first offender.

Serialization is canonical: keys sorted, fixed separators, every
number written with 17 significant digits, so serialize(parse(s))
reproduces a canonically written file byte for byte.
"""

from __future__ import annotations

import json
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, starmap
from operator import itemgetter

import numpy as np

from .complexes import AugmentedDisk, CombinatorialDisk, DiskTopologyError, augment, validate_disk
from .conformal import ConformalStructure, attach_boundary_data

__all__ = [
    "ProblemFormatError",
    "Problem",
    "parse_problem",
    "serialize_problem",
    "canonical_json",
    "IdRows",
    "label_to_json",
    "label_from_json",
]


class ProblemFormatError(ValueError):
    """The problem object violates the schema."""


@dataclass
class Problem:
    """A structure, which carries its augmented disk, and an optional start label."""

    cs: ConformalStructure
    f_init: np.ndarray | None

    @property
    def aug(self) -> AugmentedDisk:
        return self.cs.complex


def _num(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ProblemFormatError(f"{where}: expected a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        raise ProblemFormatError(f"{where}: number out of float range") from None
    if not np.isfinite(v):
        raise ProblemFormatError(f"{where}: number must be finite")
    return v


def _vertex_id(key: str, where: str) -> int:
    try:
        v = int(key)
    except (TypeError, ValueError):
        raise ProblemFormatError(f"{where}: key {key!r} is not a vertex id") from None
    if str(v) != str(key):
        raise ProblemFormatError(f"{where}: key {key!r} is not a vertex id")
    return v


def _edge_id(key: str, where: str) -> tuple:
    """The ids (i, j) of an eta key "i-j" with i < j."""
    where = f"{where}/{key}"
    parts = str(key).split("-")
    if len(parts) != 2:
        raise ProblemFormatError(f"{where}: key must look like 'i-j'")
    u, v = _vertex_id(parts[0], where), _vertex_id(parts[1], where)
    if not u < v:
        raise ProblemFormatError(f"{where}: ids must satisfy i < j")
    return u, v


def _by_key(raw: Mapping, where: str, keys: list, key, unknown: str, what: str) -> np.ndarray:
    """raw's values in the order of keys, read key by key.

    key(k, where) raises unless k writes its id canonically, so that str(k)
    is one of keys when the id is known (an int key too), and returns the id.
    A ProblemFormatError names the first key that is not one of keys
    (``unknown``) or whose value is not a finite number, else the ids of
    the keys that raw misses (``what``).
    """
    index = dict(zip(keys, range(len(keys))))
    out, seen = np.empty(len(keys)), np.zeros(len(keys), dtype=bool)
    for k, val in raw.items():
        key(k, where)
        i = index.get(str(k))
        if i is None:
            raise ProblemFormatError(f"{where}/{k}: {unknown}")
        out[i], seen[i] = _num(val, f"{where}/{k}"), True
    if not seen.all():
        missing = [key(keys[i], where) for i in np.flatnonzero(~seen).tolist()]
        raise ProblemFormatError(f"{where}: missing {what} {missing}")
    return out


def _values(raw: Mapping, keys: list):
    """raw's values at keys as a float array in key order, or None unless
    raw holds exactly those keys with finite ints and floats, an int too
    large for a float counting as not finite.  None sends the caller to
    _by_key."""
    if len(raw) != len(keys):
        return None
    vals = list(map(raw.get, keys))
    if not set(map(type, vals)) <= {int, float}:
        return None
    try:
        out = np.array(vals, dtype=float)
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


#: Per disk: the keys of its vertices (then "hat"), edges and boundary cycle.
_KEYS = weakref.WeakKeyDictionary()


def _keys(disk: CombinatorialDisk) -> tuple:
    """(vertex, edge, cycle): the JSON keys of the disk's vertices in vertex
    order followed by the apex key "hat", of its edges in edge order, each
    the keys of its ends joined by "-", and of its boundary vertices in
    cycle order.  Made once per disk; shared, do not mutate."""
    if disk not in _KEYS:
        ix = disk.compiled
        vertex = [*map(str, disk.vertices), "hat"]
        v = np.array(vertex, dtype=object)
        u, w = v[ix.E.T]
        _KEYS[disk] = vertex, list(map("-".join, zip(u.tolist(), w.tolist()))), v[ix.cycle].tolist()
    return _KEYS[disk]


def _section(data: dict, name: str, keys: list, key=_vertex_id, unknown="unknown vertex", what="vertices"):
    """data[name] as an array in the order of keys: read whole by _values,
    else key by key by _by_key.  In a vertex map the keys end in "hat",
    the apex entry, which is checked first and comes last."""
    raw, where = data[name], f"/{name}"
    if not isinstance(raw, Mapping):
        raise ProblemFormatError(f"{where}: must be an object")
    out = _values(raw, keys)
    if out is not None:
        return out
    if keys[-1] != "hat":
        return _by_key(raw, where, keys, key, unknown, what)
    if "hat" not in raw:
        raise ProblemFormatError(f'{where}: missing the apex entry "hat"')
    hat = _num(raw["hat"], f"{where}/hat")
    rest = {k: x for k, x in raw.items() if k != "hat"}
    return np.append(_by_key(rest, where, keys[:-1], key, unknown, what), hat)


def parse_problem(source) -> Problem:
    """Parse a problem from JSON text (a str, never a path), a file object, or a dictionary.

    Each id-keyed section is read straight into an array in the compiled
    order of the disk's vertices, edges or boundary cycle when it holds
    exactly the keys that _keys makes, whatever the size of the ids,
    with finite numbers as values.  Any other section, such as one with
    a non-canonical key or a dictionary's int keys, is read by _by_key,
    the one per-key loop, which names the first offender of a bad section.
    """
    if isinstance(source, str) or hasattr(source, "read"):
        try:
            data = json.loads(source) if isinstance(source, str) else json.load(source)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested past the parser's depth
            hint = " (a str is read as JSON text: pass an open file to read a path)" if isinstance(source, str) else ""
            raise ProblemFormatError(f"invalid JSON: {exc}{hint}") from None
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"cannot decode the file: {exc}") from None
    else:
        data = source
    if not isinstance(data, dict):
        raise ProblemFormatError("problem must be a JSON object")

    required = {"vertices", "faces", "alpha", "eta", "mu"}
    missing = required - set(data)
    if missing:
        raise ProblemFormatError(f"missing keys {sorted(missing)}")
    unknown = set(data) - required - {"f_init"}
    if unknown:
        raise ProblemFormatError(f"unknown keys {sorted(unknown)}")

    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ProblemFormatError("/vertices: must be a nonempty list")
    if set(map(type, vertices)) != {int} or min(vertices) < 0:
        for i, v in enumerate(vertices):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ProblemFormatError(f"/vertices/{i}: must be a nonnegative integer")

    faces = data["faces"]
    if not isinstance(faces, list):
        raise ProblemFormatError("/faces: must be a list")
    if (
        set(map(type, faces)) != {list}
        or set(map(len, faces)) != {3}
        or set(map(type, chain.from_iterable(faces))) != {int}
    ):
        for i, f in enumerate(faces):
            if not isinstance(f, list) or len(f) != 3 or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in f
            ):
                raise ProblemFormatError(f"/faces/{i}: must be a list of three vertex ids")

    try:
        disk = validate_disk(vertices, faces)
    except DiskTopologyError as exc:
        raise ProblemFormatError(f"not a triangulated disk: {exc}") from None
    aug = augment(disk)

    vertex, edge, cycle = _keys(disk)
    alpha = _section(data, "alpha", vertex)
    eta = _section(data, "eta", edge, _edge_id, "not an edge of the disk", "edges")
    mu = _section(data, "mu", cycle, _vertex_id, "not a boundary vertex", "boundary vertices")
    f_init = _section(data, "f_init", vertex) if "f_init" in data else None

    cs = attach_boundary_data(aug, alpha[:-1], eta, mu, apex_alpha=alpha[-1])
    return Problem(cs, f_init)


#: Per augmented disk: IdRows' key index, sorted-key order and key heads.
_ID_KEYS = weakref.WeakKeyDictionary()


class IdRows(Mapping):
    """The rows of an array keyed by vertex, read-only: row i, a float or
    a list of floats, under the key str(v) of ``aug.vertices[i]`` ("hat"
    for the apex).  canonical_json writes it with one tolist() and one
    format per row, in the sorted-key order worked out once per disk,
    each key written once as '"key": '."""

    def __init__(self, aug: AugmentedDisk, rows):
        if aug not in _ID_KEYS:
            keys = _keys(aug.disk)[0]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            _ID_KEYS[aug] = dict(zip(keys, range(len(keys)))), order, [_encode(keys[i]) + ": " for i in order]
        self.rows = np.asarray(rows, dtype=float)
        self._index, self._order, self._heads = _ID_KEYS[aug]

    def __getitem__(self, key):
        return self.rows[self._index[key]].tolist()

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def _json(self) -> str:
        rows = self.rows.tolist()
        if self.rows.ndim == 1:
            cells = list(map(_float, rows))
        else:
            cells = list(starmap(("[" + ", ".join(["{:.17g}"] * self.rows.shape[1]) + "]").format, rows))
        return "{" + ", ".join([head + cells[i] for head, i in zip(self._heads, self._order)]) + "}"


def canonical_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit numbers.

    Each value is written by the writer in _WRITERS of its type or of the
    nearest base class that has one; IdRows row by row."""
    return _render(obj)


def _render(x) -> str:
    for kind in type(x).__mro__:
        write = _WRITERS.get(kind)
        if write is not None:
            return write(x)
    raise TypeError(f"cannot serialize {type(x)!r}")


#: The C encoder json.dumps uses for a str.
_encode = json.encoder.encode_basestring_ascii
_float = "{:.17g}".format


def _dict_json(x) -> str:
    items = sorted(zip(map(str, x), x.values()), key=itemgetter(0))
    return "{" + ", ".join([f"{_encode(k)}: {_render(v)}" for k, v in items]) + "}"


def _list_json(x) -> str:
    return "[" + ", ".join(map(_render, x)) + "]"


def _int_json(x) -> str:
    return str(int(x))


def _float_json(x) -> str:
    return _float(float(x))


_WRITERS = {
    IdRows: IdRows._json, dict: _dict_json, list: _list_json, tuple: _list_json, str: _encode,
    bool: lambda x: "true" if x else "false", type(None): lambda x: "null",
    int: _int_json, np.integer: _int_json, float: _float_json, np.floating: _float_json,
}


def problem_dict(disk: CombinatorialDisk, alpha, eta, mu, apex_alpha: float = 1.0) -> dict:
    """The JSON-ready problem object of disk data, without f_init."""
    vertex, edge, cycle = _keys(disk)
    return {
        "vertices": list(disk.vertices),
        "faces": [list(fc) for fc in disk.faces],
        "alpha": dict(zip(vertex, [*map(alpha.__getitem__, disk.vertices), apex_alpha])),
        "eta": dict(zip(edge, map(eta.__getitem__, disk.edges))),
        "mu": dict(zip(cycle, map(mu.__getitem__, disk.boundary_cycle))),
    }


def serialize_problem(problem: Problem, f=None) -> str:
    """Canonical text of a problem; optionally with a label as f_init."""
    cs, aug = problem.cs, problem.aug
    mu = {v: cs.eta[(v, aug.apex)] for v in aug.disk.boundary_cycle}
    data = problem_dict(aug.disk, cs.alpha, cs.eta, mu, cs.alpha[aug.apex])
    if f is None and problem.f_init is not None:
        f = problem.f_init
    if f is not None:
        data["f_init"] = label_to_json(aug, f)
    return canonical_json(data)


def label_to_json(aug: AugmentedDisk, f) -> IdRows:
    """The label as an id-keyed JSON section."""
    return IdRows(aug, aug.label_array(f))


def label_from_json(aug: AugmentedDisk, data: Mapping) -> np.ndarray:
    """A label from its id-keyed JSON section, read as parse_problem reads
    f_init; a ProblemFormatError names the offending key under /label."""
    return _section({"label": data}, "label", _keys(aug.disk)[0])
