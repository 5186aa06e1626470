"""Built-in instances: hexagonal flowers, lattice disks, one triangle.

Scenarios fix the structure constants:

    tangent      alpha = 1, eta = 1 on the disk, mu = -1
    orthogonal   alpha = 1, eta = 1 on the disk, mu = 0
    inscribed    alpha = 0, eta = 1/2 on the disk, mu = 0

and alpha = 1 at the apex in all three.  The preset() function returns
the JSON-ready problem dictionary; build() returns its parsed structure.
"""

from __future__ import annotations

import numpy as np

from .complexes import CombinatorialDisk, augment, validate_disk
from .conformal import ConformalStructure, attach_boundary_data
from .layout import SCENARIOS
from .problem_io import parse_problem, problem_dict

__all__ = [
    "SCENARIOS",
    "PRESET_NAMES",
    "hex_flower",
    "triangle_disk",
    "ring_lattice",
    "scenario_data",
    "preset",
    "build",
    "random_admissible",
]

PRESET_NAMES = ("hex_tangent", "hex_orthogonal", "hex_inscribed", "ring_lattice", "triangle")
#: Draws random_admissible makes before it gives up.
MAX_TRIES = 1000


def hex_flower() -> CombinatorialDisk:
    """Center vertex 0 surrounded by the ring 1..6, six faces."""
    faces = [(0, i, i % 6 + 1) for i in range(1, 7)]
    return validate_disk(range(7), faces)


def triangle_disk() -> CombinatorialDisk:
    return validate_disk(range(3), [(0, 1, 2)])


def ring_lattice(n_rings: int) -> CombinatorialDisk:
    """All triangles of the regular triangular lattice within n rings.

    Vertices are lattice points at hex distance <= n_rings from the
    center, numbered in lexicographic order of their axial coordinates;
    n_rings = 1 is the hexagonal flower up to relabeling.
    """
    if n_rings < 1:
        raise ValueError("n_rings must be at least 1")
    n = n_rings
    pts = [
        (q, r)
        for q in range(-n, n + 1)
        for r in range(-n, n + 1)
        if (abs(q) + abs(r) + abs(q + r)) // 2 <= n
    ]
    pts.sort()
    idx = {p: i for i, p in enumerate(pts)}
    faces = []
    for q in range(-n - 1, n + 1):
        for r in range(-n - 1, n + 1):
            up = ((q, r), (q + 1, r), (q, r + 1))
            if all(p in idx for p in up):
                faces.append(tuple(idx[p] for p in up))
            down = ((q + 1, r), (q + 1, r + 1), (q, r + 1))
            if all(p in idx for p in down):
                faces.append(tuple(idx[p] for p in down))
    return validate_disk(range(len(pts)), faces)


def scenario_data(disk: CombinatorialDisk, scenario: str):
    """(alpha, eta, mu) dictionaries over the disk for a named scenario."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    if scenario == "inscribed":
        alpha_v, eta_e, mu_v = 0.0, 0.5, 0.0
    elif scenario == "orthogonal":
        alpha_v, eta_e, mu_v = 1.0, 1.0, 0.0
    else:
        alpha_v, eta_e, mu_v = 1.0, 1.0, -1.0
    alpha = {v: alpha_v for v in disk.vertices}
    eta = {e: eta_e for e in disk.edges}
    mu = {v: mu_v for v in disk.boundary_cycle}
    return alpha, eta, mu


def preset(name: str, n_rings: int = 2, scenario: str = "tangent") -> dict:
    """A named problem as a JSON-ready dictionary."""
    if name == "hex_tangent":
        disk, scen = hex_flower(), "tangent"
    elif name == "hex_orthogonal":
        disk, scen = hex_flower(), "orthogonal"
    elif name == "hex_inscribed":
        disk, scen = hex_flower(), "inscribed"
    elif name == "ring_lattice":
        disk, scen = ring_lattice(n_rings), scenario
    elif name == "triangle":
        disk, scen = triangle_disk(), scenario
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return problem_dict(disk, *scenario_data(disk, scen))


def build(name: str, n_rings: int = 2, scenario: str = "tangent") -> ConformalStructure:
    """The structure of a named preset; cs.complex is its augmented disk."""
    return parse_problem(preset(name, n_rings=n_rings, scenario=scenario)).cs


def random_admissible(
    disk: CombinatorialDisk,
    rng: np.random.Generator,
):
    """(aug, cs, f): a random admissible structure and label on the augmented disk.

    The triple is what perfbench/workloads.py unpacks, aug being cs.complex.
    Vertex weights are drawn near 1, edge constants near 1.2, boundary
    data in [-0.4, 0.4] and the label near 0 with the apex lifted, then
    rejected until the label is admissible, at most MAX_TRIES times.
    """
    aug = augment(disk)
    nd = len(disk.vertices)
    for _ in range(MAX_TRIES):
        alpha = {v: rng.uniform(0.7, 1.4) for v in disk.vertices}
        eta = {e: rng.uniform(0.9, 1.5) for e in disk.edges}
        mu = {v: rng.uniform(-0.4, 0.4) for v in disk.boundary_cycle}
        cs = attach_boundary_data(aug, alpha, eta, mu)
        f = np.concatenate([rng.uniform(-0.1, 0.1, nd), [rng.uniform(0.4, 0.9)]])
        if cs.system.admissible(f):
            return aug, cs, f
    raise RuntimeError(f"no admissible sample found in {MAX_TRIES} tries")
