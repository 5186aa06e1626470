"""The flat structure of ring_lattice(n) against the Riemann map of the hexagon.

Thurston's scheme approximates the Riemann map by circle packings, and
Rodin and Sullivan (J. Differential Geom. 1987) and He and Schramm (Acta
Math. 1998) prove that it converges on compact sets.  ring_lattice(n) is
the triangular lattice cut to a regular hexagon, so the limit is known in
closed form: the Schwarz-Christoffel map

    z(w) = int_0^w (1 - t^6)^(-1/3) dt = sum_k c_k w^(6k+1) / (6k+1),
    c_k = (1/3)_k / k!,

takes the unit disk onto the regular hexagon with corners C e^(i k pi/3),
where C = z(1) = B(1/6, 2/3) / 6.  Lattice point (q, r) sits at
(q + r e^(i pi/3)) C / n in that hexagon, and its image w solves z(w) = z
(Newton on the series).  The discrete map is the normalized layout of the
flat label from newton_flat, moved by the disk automorphism that sends
the center vertex to 0 and turned so that the corner vertex (n, 0) lies on
the positive axis.  The error is the largest |position - w| over the
vertices at hex distance <= n/2, a compact set as in Rodin-Sullivan.
The series, C and the automorphism are written out here; none comes from
the package.

Measured with this oracle:

    rings   tangent    orthogonal   inscribed
    8       3.70e-2    5.55e-4      1.26e-3
    16      1.91e-2    1.40e-4      3.14e-4
    32      9.75e-3    3.50e-5      7.86e-5
    64      4.92e-3    8.75e-6      1.97e-5

So the orthogonal and inscribed boundary conditions converge at second
order (n^2 err near 0.0358 and 0.0805) and the tangent one at first order
(n err near 0.315).  The first order is a domain effect, not a slower
convergence.  A tangent packing's carrier is the lattice hexagon grown by
the boundary circles' radius, half a lattice unit, and that hexagon has
circumradius n + 1/sqrt(3).  Against the map of that hexagon (lattice
point / (n + 1/sqrt(3)) times C) the tangent error is 2.61e-4, 9.83e-5,
2.95e-5 and 8.04e-6 at rings 8, 16, 32 and 64: the observed order rises
1.41, 1.74, 1.87 toward 2.  Comparing with the n-hexagon therefore leaves
an O(1/n) mismatch of domains.

The bounds are C_p / n^p with C_p about 12% above the largest n^p err
measured: 0.35 for tangent (p = 1), 0.04 for orthogonal and 0.09 for
inscribed (p = 2).  CI checks ring 64 against the same bounds.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from diskfold import layout_augmented, newton_flat, normalize_to_unit_disk
from diskfold.presets import build

#: Per scenario: (order p, constant C_p) of the bound err <= C_p / n^p.
BOUNDS = {"tangent": (1, 0.35), "orthogonal": (2, 0.04), "inscribed": (2, 0.09)}

#: The corner of the hexagon, z(1) = B(1/6, 2/3) / 6.
CORNER = math.gamma(1 / 6) * math.gamma(2 / 3) / math.gamma(5 / 6) / 6

#: c_k = (1/3)_k / k! for k < 12; at |w| <= 0.6 the first omitted term is
#: below 0.6^73 / 73 ~ 1e-18.
_COEF = np.cumprod([1.0] + [(k - 2 / 3) / k for k in range(1, 12)])
_POWERS = 6 * np.arange(len(_COEF)) + 1


def _z(w: np.ndarray) -> np.ndarray:
    """The Schwarz-Christoffel map of the disk onto the hexagon, by its series."""
    return sum(c / p * w**p for c, p in zip(_COEF, _POWERS))


def _w(z: np.ndarray) -> np.ndarray:
    """The inverse of _z near 0, by Newton: z'(w) = (1 - w^6)^(-1/3)."""
    w = z.copy()
    for _ in range(50):
        step = (_z(w) - z) * (1 - w**6) ** (1 / 3)
        w = w - step
        if np.abs(step).max() <= 1e-16:
            break
    assert np.abs(_z(w) - z).max() <= 1e-14
    return w


@lru_cache(maxsize=None)
def _discrete_map(n: int, scenario: str):
    """(axial coordinates (V, 2), normalized positions as complex numbers)."""
    cs = build("ring_lattice", n_rings=n, scenario=scenario)
    res = newton_flat(cs)
    assert res.converged
    lay = normalize_to_unit_disk(layout_augmented(cs, res.f))
    # ring_lattice numbers its vertices in lexicographic order of (q, r)
    qr = np.array(
        sorted((q, r) for q in range(-n, n + 1) for r in range(-n, n + 1) if max(abs(q), abs(r), abs(q + r)) <= n)
    )
    P = lay.positions[:-1] @ np.array([1.0, 1j])
    a = P[qr.tolist().index([0, 0])]
    m = (P - a) / (1 - np.conj(a) * P)  # the disk automorphism taking a to 0
    corner = m[qr.tolist().index([n, 0])]
    return qr, m * abs(corner) / corner


def riemann_error(n: int, scenario: str, grown: bool = False) -> float:
    """Largest |discrete - Riemann map| over the vertices at hex distance
    <= n/2; with ``grown``, against the hexagon of circumradius n + 1/sqrt(3)."""
    qr, m = _discrete_map(n, scenario)
    near = np.abs(np.column_stack([qr, qr.sum(1)])).max(1) <= n / 2
    lattice = qr[near] @ np.array([1.0, np.exp(1j * math.pi / 3)])
    w = _w(lattice * CORNER / (n + 1 / math.sqrt(3) if grown else n))
    return float(np.abs(m[near] - w).max())


@pytest.mark.parametrize("scenario", sorted(BOUNDS))
@pytest.mark.parametrize("n", [8, 16, 32])
def test_error_is_within_its_bound(n, scenario):
    p, c = BOUNDS[scenario]
    assert riemann_error(n, scenario) <= c / n**p


@pytest.mark.parametrize("scenario", sorted(BOUNDS))
def test_observed_order(scenario):
    order = math.log2(riemann_error(16, scenario) / riemann_error(32, scenario))
    assert abs(order - BOUNDS[scenario][0]) <= 0.1


def test_tangent_against_the_grown_hexagon():
    """The tangent packing's first order comes from its carrier: against
    the hexagon grown by half a lattice unit it is 3e-5 at ring 32."""
    assert riemann_error(32, "tangent", grown=True) < 1e-4


def test_the_series_inverts():
    z = np.array([0.0, 0.3, 0.4 + 0.2j, 0.55 * np.exp(1j * math.pi / 3)])
    w = _w(z)
    assert np.abs(_z(w) - z).max() <= 1e-14
    # the map fixes 0 with derivative 1 and commutes with the sixth roots of unity
    assert w[0] == 0 and abs(_w(np.array([1e-8]))[0] - 1e-8) <= 1e-20
    rot = np.exp(1j * math.pi / 3)
    assert np.abs(_w(z * rot) - w * rot).max() <= 1e-14
