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
from dataclasses import dataclass

import numpy as np

from .complexes import AugmentedDisk, CombinatorialDisk, DiskTopologyError, augment, edge_key, validate_disk
from .conformal import ConformalStructure, attach_boundary_data

__all__ = [
    "ProblemFormatError",
    "Problem",
    "parse_problem",
    "serialize_problem",
    "canonical_json",
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
    alpha: dict
    eta: dict
    mu: dict
    apex_alpha: float
    f_init: np.ndarray | None


def _num(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ProblemFormatError(f"{where}: expected a number, got {x!r}")
    v = float(x)
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


def parse_problem(source) -> Problem:
    """Parse a problem from JSON text, a file object, or a dictionary."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from None
    elif hasattr(source, "read"):
        try:
            data = json.load(source)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from None
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
    for i, v in enumerate(vertices):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ProblemFormatError(f"/vertices/{i}: must be a nonnegative integer")

    faces = data["faces"]
    if not isinstance(faces, list):
        raise ProblemFormatError("/faces: must be a list")
    for i, f in enumerate(faces):
        if not isinstance(f, list) or len(f) != 3 or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in f
        ):
            raise ProblemFormatError(f"/faces/{i}: must be a list of three vertex ids")

    try:
        disk = validate_disk(vertices, [tuple(f) for f in faces])
    except DiskTopologyError as exc:
        raise ProblemFormatError(f"not a triangulated disk: {exc}") from None
    aug = augment(disk)
    known = set(disk.vertices)

    raw_alpha = data["alpha"]
    if not isinstance(raw_alpha, dict):
        raise ProblemFormatError("/alpha: must be an object")
    if "hat" not in raw_alpha:
        raise ProblemFormatError('/alpha: missing the apex entry "hat"')
    apex_alpha = _num(raw_alpha["hat"], "/alpha/hat")
    alpha = {}
    for k, val in raw_alpha.items():
        if k == "hat":
            continue
        v = _vertex_id(k, "/alpha")
        if v not in known:
            raise ProblemFormatError(f"/alpha/{k}: unknown vertex")
        alpha[v] = _num(val, f"/alpha/{k}")
    missing_a = [v for v in disk.vertices if v not in alpha]
    if missing_a:
        raise ProblemFormatError(f"/alpha: missing vertices {missing_a}")

    raw_eta = data["eta"]
    if not isinstance(raw_eta, dict):
        raise ProblemFormatError("/eta: must be an object")
    eta = {}
    disk_edges = set(disk.edges)
    for k, val in raw_eta.items():
        parts = str(k).split("-")
        if len(parts) != 2:
            raise ProblemFormatError(f"/eta/{k}: key must look like 'i-j'")
        u = _vertex_id(parts[0], f"/eta/{k}")
        v = _vertex_id(parts[1], f"/eta/{k}")
        if not u < v:
            raise ProblemFormatError(f"/eta/{k}: ids must satisfy i < j")
        e = edge_key(u, v)
        if e not in disk_edges:
            raise ProblemFormatError(f"/eta/{k}: not an edge of the disk")
        eta[e] = _num(val, f"/eta/{k}")
    missing_e = [e for e in disk.edges if e not in eta]
    if missing_e:
        raise ProblemFormatError(f"/eta: missing edges {missing_e}")

    raw_mu = data["mu"]
    if not isinstance(raw_mu, dict):
        raise ProblemFormatError("/mu: must be an object")
    mu = {}
    boundary = set(disk.boundary_cycle)
    for k, val in raw_mu.items():
        v = _vertex_id(k, "/mu")
        if v not in boundary:
            raise ProblemFormatError(f"/mu/{k}: not a boundary vertex")
        mu[v] = _num(val, f"/mu/{k}")
    missing_m = [v for v in disk.boundary_cycle if v not in mu]
    if missing_m:
        raise ProblemFormatError(f"/mu: missing boundary vertices {missing_m}")

    f_init = None
    if "f_init" in data:
        raw_f = data["f_init"]
        if not isinstance(raw_f, dict):
            raise ProblemFormatError("/f_init: must be an object")
        if "hat" not in raw_f:
            raise ProblemFormatError('/f_init: missing the apex entry "hat"')
        fd = {aug.apex: _num(raw_f["hat"], "/f_init/hat")}
        for k, val in raw_f.items():
            if k == "hat":
                continue
            v = _vertex_id(k, "/f_init")
            if v not in known:
                raise ProblemFormatError(f"/f_init/{k}: unknown vertex")
            fd[v] = _num(val, f"/f_init/{k}")
        missing_f = [v for v in disk.vertices if v not in fd]
        if missing_f:
            raise ProblemFormatError(f"/f_init: missing vertices {missing_f}")
        f_init = aug.label_array(fd)

    cs = attach_boundary_data(aug, alpha, eta, mu, apex_alpha=apex_alpha)
    return Problem(
        disk=disk,
        aug=aug,
        cs=cs,
        alpha=alpha,
        eta=eta,
        mu=mu,
        apex_alpha=apex_alpha,
        f_init=f_init,
    )


def _fmt(x: float) -> str:
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit numbers."""

    def render(x):
        if isinstance(x, dict):
            items = sorted(x.items(), key=lambda kv: str(kv[0]))
            inner = ", ".join(f"{json.dumps(str(k))}: {render(v)}" for k, v in items)
            return "{" + inner + "}"
        if isinstance(x, (list, tuple)):
            return "[" + ", ".join(render(v) for v in x) + "]"
        if isinstance(x, bool) or x is None:
            return json.dumps(x)
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return _fmt(float(x))
        if isinstance(x, str):
            return json.dumps(x)
        raise TypeError(f"cannot serialize {type(x)!r}")

    return render(obj)


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
    data = problem_dict(problem.disk, problem.alpha, problem.eta, problem.mu, problem.apex_alpha)
    if f is None and problem.f_init is not None:
        f = problem.f_init
    if f is not None:
        data["f_init"] = label_to_json(problem.aug, f)
    return canonical_json(data)


def label_to_json(aug: AugmentedDisk, f) -> dict:
    arr = aug.label_array(f)
    out = {str(v): float(arr[i]) for i, v in enumerate(aug.disk.vertices)}
    out["hat"] = float(arr[-1])
    return out


def label_from_json(aug: AugmentedDisk, data: dict) -> np.ndarray:
    fd = {}
    for k, v in data.items():
        fd[aug.apex if k == "hat" else int(k)] = float(v)
    return aug.label_array(fd)
