"""Problem files: parsing, validation and canonical serialization.

A problem is a JSON object with keys

    vertices  list of nonnegative integer ids
    faces     list of [i, j, k] triangles
    alpha     map id -> number, plus the key "hat" for the apex
    eta       map "i-j" -> number with i < j, one per disk edge
    mu        map id -> number, one per boundary vertex
    f_init    optional map id -> number including "hat"

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
    disk: CombinatorialDisk
    aug: AugmentedDisk
    cs: ConformalStructure
    f_init: np.ndarray | None


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


def _values(raw: dict, keys: list, n_other: int = 0):
    """raw's values at keys as a float array in key order, or None unless
    raw holds exactly those keys (and n_other more) with finite ints and
    floats, an int too large for a float counting as not finite.  None
    sends the caller to its per-key loop, which names the first
    offender."""
    if len(raw) != len(keys) + n_other:
        return None
    return _numbers(list(map(raw.get, keys)))


def _numbers(vals: list):
    """vals as a float array, or None unless all are finite ints and floats."""
    if not set(map(type, vals)) <= {int, float}:
        return None
    try:
        out = np.array(vals, dtype=float)
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


def _object(data: dict, name: str) -> Mapping:
    raw = data[name]
    if not isinstance(raw, Mapping):
        raise ProblemFormatError(f"/{name}: must be an object")
    return raw


def _vertex_section(data: dict, name: str, disk: CombinatorialDisk, keys: list):
    """(values in vertex order, apex value) of a map over the vertices plus "hat"."""
    raw = _object(data, name)
    where = f"/{name}"
    if "hat" not in raw:
        raise ProblemFormatError(f'{where}: missing the apex entry "hat"')
    hat = _num(raw["hat"], f"{where}/hat")
    out = _values(raw, keys, 1)
    if out is not None:
        return out, hat
    known = disk.vertex_index
    got = {}
    for k, val in raw.items():
        if k == "hat":
            continue
        v = _vertex_id(k, where)
        if v not in known:
            raise ProblemFormatError(f"{where}/{k}: unknown vertex")
        got[v] = _num(val, f"{where}/{k}")
    missing = [v for v in disk.vertices if v not in got]
    if missing:
        raise ProblemFormatError(f"{where}: missing vertices {missing}")
    return np.array([got[v] for v in disk.vertices]), hat


#: The most digits of an id that an edge key may carry and still fit int64.
_ID_DIGITS = 18


def _key_pairs(raw: dict):
    """The ids (u, v) of raw's keys "u-v" as an (n, 2) int64 array in key
    order, or None unless every key is two decimal ids in canonical form
    (no sign, no leading zero, at most _ID_DIGITS digits) joined by one
    "-"."""
    try:
        text = np.frombuffer(",".join(raw).encode(), np.uint8)
    except (TypeError, UnicodeEncodeError):  # keys that are not text
        return None
    cut = np.flatnonzero((text < ord("0")) | (text > ord("9")))
    # the keys hold no "," of their own and one "-" each: the cuts alternate
    if len(cut) != 2 * len(raw) - 1 or (text[cut[::2]] != ord("-")).any() or (text[cut[1::2]] != ord(",")).any():
        return None
    starts = np.concatenate([[0], cut + 1])
    lengths = np.append(cut, len(text)) - starts
    if lengths.min() < 1 or lengths.max() > _ID_DIGITS or ((text[starts] == ord("0")) & (lengths > 1)).any():
        return None
    ids = np.zeros(len(starts), dtype=np.int64)
    for k in range(lengths.max()):
        # past its last digit an id reads its cut or the text's last byte
        digit = text[np.minimum(starts + k, len(text) - 1)].astype(np.int64) - ord("0")
        ids = np.where(lengths > k, 10 * ids + digit, ids)
    return ids.reshape(-1, 2)


def _eta_values(raw: dict, disk: CombinatorialDisk):
    """raw's values in the disk's edge order, or None unless its keys are
    exactly the disk's edges, written canonically, with finite ints and
    floats as values."""
    ix = disk.compiled
    pairs = _key_pairs(raw)
    if pairs is None or len(pairs) != len(ix.E) or ix.ids.dtype.kind != "i":
        return None
    m = int(ix.ids.max()) + 1
    if m * m > np.iinfo(np.int64).max or pairs.max() >= m:
        return None
    # edges are numbered in sorted order of their id pairs, so their codes
    # u * m + v ascend; distinct canonical keys give distinct codes
    codes = ix.ids[ix.E[:, 0]] * m + ix.ids[ix.E[:, 1]]
    keys = pairs[:, 0] * m + pairs[:, 1]
    at = np.minimum(np.searchsorted(codes, keys), len(codes) - 1)
    if (codes[at] != keys).any():
        return None
    vals = _numbers(list(raw.values()))
    if vals is None:
        return None
    out = np.empty(len(codes))
    out[at] = vals
    return out


def _eta_section(data: dict, disk: CombinatorialDisk) -> np.ndarray:
    """eta in the disk's edge order."""
    raw = _object(data, "eta")
    out = _eta_values(raw, disk)
    if out is not None:
        return out
    got = {}
    disk_edges = set(disk.edges)
    for k, val in raw.items():
        parts = str(k).split("-")
        if len(parts) != 2:
            raise ProblemFormatError(f"/eta/{k}: key must look like 'i-j'")
        u = _vertex_id(parts[0], f"/eta/{k}")
        v = _vertex_id(parts[1], f"/eta/{k}")
        if not u < v:
            raise ProblemFormatError(f"/eta/{k}: ids must satisfy i < j")
        if (u, v) not in disk_edges:
            raise ProblemFormatError(f"/eta/{k}: not an edge of the disk")
        got[(u, v)] = _num(val, f"/eta/{k}")
    missing = [e for e in disk.edges if e not in got]
    if missing:
        raise ProblemFormatError(f"/eta: missing edges {missing}")
    return np.array([got[e] for e in disk.edges])


def _mu_section(data: dict, disk: CombinatorialDisk) -> np.ndarray:
    """mu in boundary-cycle order."""
    raw = _object(data, "mu")
    out = _values(raw, list(map(str, disk.boundary_cycle)))
    if out is not None:
        return out
    got = {}
    boundary = set(disk.boundary_cycle)
    for k, val in raw.items():
        v = _vertex_id(k, "/mu")
        if v not in boundary:
            raise ProblemFormatError(f"/mu/{k}: not a boundary vertex")
        got[v] = _num(val, f"/mu/{k}")
    missing = [v for v in disk.boundary_cycle if v not in got]
    if missing:
        raise ProblemFormatError(f"/mu: missing boundary vertices {missing}")
    return np.array([got[v] for v in disk.boundary_cycle])


def parse_problem(source) -> Problem:
    """Parse a problem from JSON text, a file object, or a dictionary.

    Each section is read straight into an array in the compiled order
    of the disk, edges or boundary cycle.  Only a section that fails
    that one check is walked key by key, to name its first offender.
    """
    if isinstance(source, str) or hasattr(source, "read"):
        try:
            data = json.loads(source) if isinstance(source, str) else json.load(source)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested past the parser's depth
            raise ProblemFormatError(f"invalid JSON: {exc}") from None
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

    keys = list(map(str, disk.vertices))
    alpha, apex_alpha = _vertex_section(data, "alpha", disk, keys)
    eta = _eta_section(data, disk)
    mu = _mu_section(data, disk)
    f_init = None
    if "f_init" in data:
        f, hat = _vertex_section(data, "f_init", disk, keys)
        f_init = np.append(f, hat)

    cs = attach_boundary_data(aug, alpha, eta, mu, apex_alpha=apex_alpha)
    return Problem(disk=disk, aug=aug, cs=cs, f_init=f_init)


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
            keys = [*map(str, aug.disk.vertices), "hat"]
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
    data = {
        "vertices": list(disk.vertices),
        "faces": [list(fc) for fc in disk.faces],
        "alpha": {str(v): alpha[v] for v in disk.vertices},
        "eta": {f"{e[0]}-{e[1]}": eta[e] for e in disk.edges},
        "mu": {str(v): mu[v] for v in disk.boundary_cycle},
    }
    data["alpha"]["hat"] = apex_alpha
    return data


def serialize_problem(problem: Problem, f=None) -> str:
    """Canonical text of a problem; optionally with a label as f_init."""
    cs, apex = problem.cs, problem.aug.apex
    mu = {v: cs.eta[(v, apex)] for v in problem.disk.boundary_cycle}
    data = problem_dict(problem.disk, cs.alpha, cs.eta, mu, cs.alpha[apex])
    if f is None and problem.f_init is not None:
        f = problem.f_init
    if f is not None:
        data["f_init"] = label_to_json(problem.aug, f)
    return canonical_json(data)


def label_to_json(aug: AugmentedDisk, f) -> IdRows:
    """The label as an id-keyed JSON section."""
    return IdRows(aug, aug.label_array(f))


def label_from_json(aug: AugmentedDisk, data: Mapping) -> np.ndarray:
    """A label from its id-keyed JSON section, read as parse_problem reads
    f_init; a ProblemFormatError names the offending key under /label."""
    f, hat = _vertex_section({"label": data}, "label", aug.disk, list(map(str, aug.disk.vertices)))
    return np.append(f, hat)
