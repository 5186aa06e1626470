"""Shared test data: the closed-form flat labels of the hexagonal presets,
and flip-randomized lattice disks."""

import numpy as np

from diskfold import DiskTopologyError, ring_lattice, validate_disk

# Exact flat labels for the 7-circle configurations, from elementary
# circle geometry in the unit disk (boundary circle radius r, apex
# normalized to the unit circle so f_hat = 0):
#   tangent     r = 1/3        six radius-1/3 circles around a seventh
#   orthogonal  r = 1/sqrt(3)  mutually tangent, orthogonal to the rim
#   inscribed   side 1         regular unit hexagon, weight-0 points
HEX_FLAT = {
    "hex_tangent": np.array([np.log(1.0 / 3.0)] * 7 + [0.0]),
    "hex_orthogonal": np.array([-0.5 * np.log(3.0)] * 7 + [0.0]),
    "hex_inscribed": np.zeros(8),
}

# Gauge-invariant gap f_apex - f_boundary for the same three cases.
HEX_GAP = {
    "hex_tangent": np.log(3.0),
    "hex_orthogonal": 0.5 * np.log(3.0),
    "hex_inscribed": 0.0,
}


def boundary_gaps(aug, f):
    """f_apex - f_v over the boundary cycle, f given as an array."""
    return [f[-1] - f[aug.vertex_index[v]] for v in aug.disk.boundary_cycle]


def flipped_disk(rings: int, seed: int):
    """ring_lattice(rings) after F // 3 random edge flips.

    A try picks a face and a corner uniformly: the face (u, v, a) read
    from that corner and the other face (v, u, b) on {u, v} become
    (a, u, b) and (b, v, a).  A try is skipped when {u, v} lies in one
    face or a and b are already adjacent, and a flip is kept only when
    validate_disk accepts the result.  Gives up after 50 * (F // 3) tries.
    """
    lattice = ring_lattice(rings)
    faces = list(lattice.faces)
    rng = np.random.default_rng(seed)
    goal = len(faces) // 3
    flips = 0
    for _ in range(50 * goal):
        if flips == goal:
            break
        i, c = int(rng.integers(len(faces))), int(rng.integers(3))
        u, v, a = (faces[i][(c + k) % 3] for k in range(3))
        j = next((k for k, g in enumerate(faces) if k != i and u in g and v in g), None)
        if j is None:
            continue
        b = next(x for x in faces[j] if x not in (u, v))
        if any(a in g and b in g for g in faces):
            continue
        trial = faces.copy()
        trial[i], trial[j] = (a, u, b), (b, v, a)
        try:
            validate_disk(lattice.vertices, trial)
        except DiskTopologyError:
            continue
        faces, flips = trial, flips + 1
    return validate_disk(lattice.vertices, faces)
