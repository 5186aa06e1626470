"""The two workloads: problem files made from the seed, and the ops run on them.

``newton`` is the Newton solver alone: dense SVD steps at V=818
(``lattice_newton``) and line search on a fixed random sample
(``random_newton``).  ``flow_realize`` never runs Newton: the RK4 flow
(``hex_flow``), then layout, render, rank and Mobius orbits on
pre-solved lattices (``realize_experiments``).

Every op is one ``diskfold`` command line, run in process through
``diskfold.cli.main`` with its output in a file.  The seed renumbers the
vertices and reorders the faces of the fixed lattices (same geometry,
different input files, so timings compare across seeds).  The random
sample of ``random_newton`` is the same for every seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from diskfold import cli
from diskfold.presets import SCENARIOS, preset, random_admissible, ring_lattice
from diskfold.problem_io import parse_problem

import checks

NEWTON_ARGS = ["--tol", "1e-10"]
FLOW_ARGS = ["--method", "flow", "--time", "50", "--dt", "0.01"]
LATTICE_RINGS = 16
REALIZE_RINGS = 8
RANDOM_RINGS = (3, 4)
RANDOM_PER_LATTICE = 30
#: The random sample is fixed, ids included, so that parent and change solve
#: the same 60 files whatever the seed.  Which of them fail depends on the
#: vertex numbering, so a fixed sample keeps the failure count constant and
#: one extra failure shows in ``ok_share``.
RANDOM_SAMPLE_SEED = 0

#: Closed-form flat labels of the hexagonal presets, apex normalized to 0.
HEX_FLAT = {
    "hex_tangent": [np.log(1.0 / 3.0)] * 7 + [0.0],
    "hex_orthogonal": [-0.5 * np.log(3.0)] * 7 + [0.0],
    "hex_inscribed": [0.0] * 8,
}


@dataclass
class Op:
    """One command; ``check(rc, text)`` returns 'ok', 'classified' or why it is wrong."""

    kind: str
    argv: list
    check: Callable


def _label_json(f) -> dict:
    out = {str(i): float(x) for i, x in enumerate(f[:-1])}
    out["hat"] = float(f[-1])
    return out


def _relabel(data: dict, rng: np.random.Generator) -> dict:
    """The same problem with permuted vertex ids, rotated faces in shuffled order."""
    verts = data["vertices"]
    new = {v: int(p) for v, p in zip(verts, rng.permutation(len(verts)))}
    faces = [[new[v] for v in f] for f in data["faces"]]
    faces = [f[k:] + f[:k] for f, k in zip(faces, rng.integers(0, 3, len(faces)))]
    faces = [faces[i] for i in rng.permutation(len(faces))]

    def vmap(d):
        return {k if k == "hat" else str(new[int(k)]): x for k, x in d.items()}

    def emap(k):
        a, b = sorted(new[int(x)] for x in k.split("-"))
        return f"{a}-{b}"

    out = {
        "vertices": sorted(new.values()),
        "faces": faces,
        "alpha": vmap(data["alpha"]),
        "eta": {emap(k): x for k, x in data["eta"].items()},
        "mu": vmap(data["mu"]),
    }
    if "f_init" in data:
        out["f_init"] = vmap(data["f_init"])
    return out


def _write(path: str, data: dict) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def _load(text):
    return None if text is None else json.loads(text)


def _newton_op(path, geo, classify=False):
    return Op("solve", ["solve", path, *NEWTON_ARGS], lambda rc, t: checks.newton(geo, rc, _load(t), classify))


def lattice_newton(seed: int, tmp: str) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for scen in rng.permutation(SCENARIOS):
        data = _relabel(preset("ring_lattice", n_rings=LATTICE_RINGS, scenario=str(scen)), rng)
        path = _write(os.path.join(tmp, f"lattice_{scen}.json"), data)
        ops.append(_newton_op(path, checks.Geometry(data)))
    return ops


def hex_flow(seed: int, tmp: str) -> list:
    """Criterion 12's start: the flat label plus 0.05 N(0, 1) noise from default_rng(12)."""
    f0 = np.array(HEX_FLAT["hex_tangent"]) + 0.05 * np.random.default_rng(12).standard_normal(8)
    data = preset("hex_tangent")
    data["f_init"] = _label_json(f0)
    data = _relabel(data, np.random.default_rng(seed))
    geo = checks.Geometry(data)
    start = geo.label(data["f_init"])
    path = _write(os.path.join(tmp, "hex_flow.json"), data)
    return [Op("solve", ["solve", path, *FLOW_ARGS], lambda rc, t: checks.flow(geo, start, rc, _load(t)))]


def random_newton(tmp: str) -> list:
    """Solved from default_start: no f_init in the files.

    The only input set whose reported Newton failures are classified, not wrong.
    """
    sample = np.random.default_rng(RANDOM_SAMPLE_SEED)
    ops = []
    for rings in RANDOM_RINGS:
        disk = ring_lattice(rings)
        for k in range(RANDOM_PER_LATTICE):
            aug, cs, _ = random_admissible(disk, sample)
            data = {
                "vertices": list(disk.vertices),
                "faces": [list(f) for f in disk.faces],
                "alpha": {**{str(v): cs.alpha[v] for v in disk.vertices}, "hat": cs.alpha[aug.apex]},
                "eta": {f"{u}-{v}": cs.eta[(u, v)] for u, v in disk.edges},
                "mu": {str(v): cs.eta[(v, aug.apex)] for v in disk.boundary_cycle},
            }
            path = _write(os.path.join(tmp, f"random_{rings}_{k}.json"), data)
            ops.append(_newton_op(path, checks.Geometry(data), classify=True))
    return ops


def _presolve(path: str, tmp: str) -> dict:
    out = os.path.join(tmp, "presolve.json")
    rc = cli.main(["solve", path, *NEWTON_ARGS, "--out", out])
    with open(out) as fh:
        res = json.load(fh)
    if rc != 0:
        raise RuntimeError(f"pre-solve of {path} failed: {res['status']}")
    return res["f"]


def realize_experiments(seed: int, tmp: str, golden_dir: str) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for scen in rng.permutation(SCENARIOS):
        scen = str(scen)
        data = _relabel(preset("ring_lattice", n_rings=REALIZE_RINGS, scenario=scen), rng)
        path = _write(os.path.join(tmp, f"realize_{scen}.json"), data)
        data["f_init"] = _presolve(path, tmp)
        _write(path, data)
        geo = checks.Geometry(data)
        aug = parse_problem(data).aug

        def check_layout(rc, t, geo=geo, aug=aug, scen=scen):
            return checks.layout(geo, aug, scen, rc, _load(t))

        ops += [
            Op("layout", ["layout", path, "--normalize"], check_layout),
            Op("render", ["render", path], lambda rc, t, geo=geo: checks.render(geo, rc, t)),
            Op("rank", ["rank", path], lambda rc, t, geo=geo: checks.rank(geo, rc, _load(t))),
            Op("mobius", ["mobius-check", path], lambda rc, t: checks.mobius(rc, _load(t))),
        ]
    for name, f in HEX_FLAT.items():
        data = preset(name)
        data["f_init"] = _label_json(f)
        path = _write(os.path.join(tmp, f"{name}.json"), data)
        with open(os.path.join(golden_dir, f"{name}.svg")) as fh:
            golden = fh.read()
        geo = checks.Geometry(data)
        ops.append(Op("render", ["render", path], lambda rc, t, geo=geo, g=golden: checks.render(geo, rc, t, g)))
    return ops


def warmup_ops(tmp: str) -> list:
    """Every command once on the hexagon, so lazy first-call costs land in set-up."""
    data = preset("hex_tangent")
    path = _write(os.path.join(tmp, "warmup.json"), data)
    data["f_init"] = _label_json(HEX_FLAT["hex_tangent"])
    solved = _write(os.path.join(tmp, "warmup_solved.json"), data)
    return [
        ["solve", path, *NEWTON_ARGS],
        ["solve", path, "--method", "flow", "--time", "0.1", "--dt", "0.01"],
        ["layout", solved, "--normalize"],
        ["render", solved],
        ["rank", solved],
        ["mobius-check", solved],
    ]


def prepare(name: str, seed: int, tmp: str, golden_dir: str) -> list:
    """``newton`` runs Newton only; ``flow_realize`` runs everything but Newton."""
    if name == "newton":
        return lattice_newton(seed, tmp) + random_newton(tmp)
    if name == "flow_realize":
        return hex_flow(seed, tmp) + realize_experiments(seed, tmp, golden_dir)
    raise ValueError(f"unknown workload {name!r}")
