"""Output checks that do not rely on the code under test.

Curvature and Minkowski products are recomputed here from the problem
file's own data with plain numpy; only the boundary verification asked
of ``layout`` calls the package, because that is what it checks.
"""

from __future__ import annotations

import numpy as np

import diskfold.layout
from diskfold.minkowski import MPoint

NEWTON_TOL = 1e-10
FLOW_REDUCTION = 1e3
PRODUCT_TOL = 1e-9

#: Statuses newton_flat reports for a classified numerical failure.
CLASSIFIED_FAILURES = ("line search stalled", "jacobian breakdown", "max iterations reached")


class Geometry:
    """Index arrays of the augmented disk of one problem file, built from its JSON."""

    def __init__(self, data: dict):
        verts = list(data["vertices"])
        self.ids = [str(v) for v in verts] + ["hat"]
        pos = {v: i for i, v in enumerate(verts)}
        apex = len(verts)
        faces = [[pos[v] for v in f] for f in data["faces"]]
        uses: dict = {}
        for f in faces:
            for a in range(3):
                e = tuple(sorted((f[a], f[(a + 1) % 3])))
                uses[e] = uses.get(e, 0) + 1
        boundary = sorted({v for e, n in uses.items() if n == 1 for v in e})
        aug_faces = [[apex, u, v] for (u, v), n in uses.items() if n == 1]
        self.n_disk_faces = len(faces)
        self.faces = np.array(faces + aug_faces)
        self.n = apex + 1

        self.alpha = np.array([float(data["alpha"][i]) for i in self.ids])
        edges = {}
        for e in uses:
            a, b = sorted((verts[e[0]], verts[e[1]]))
            edges[e] = float(data["eta"][f"{a}-{b}"])
        for v in boundary:
            edges[(v, apex)] = float(data["mu"][str(verts[v])])
        self.edges = np.array(sorted(edges))
        self.eta = np.array([edges[tuple(e)] for e in self.edges])

        const = np.full(self.n, 2.0 * np.pi)
        const[boundary] = 0.0
        const[apex] = -2.0 * np.pi
        self.const = const
        self.sign = np.where(np.arange(len(self.faces)) < self.n_disk_faces, -1.0, 1.0)

    def label(self, f: dict) -> np.ndarray:
        return np.array([float(f[i]) for i in self.ids])

    def max_abs_curvature(self, f: np.ndarray) -> float:
        """max |K| by the law of cosines; inf for an inadmissible label."""

        def l2(u, v):
            eu, ev = np.exp(f[u]), np.exp(f[v])
            key = np.minimum(u, v) * self.n + np.maximum(u, v)
            order = self.edges[:, 0] * self.n + self.edges[:, 1]
            eta = self.eta[np.searchsorted(order, key)]
            return self.alpha[u] * eu * eu + self.alpha[v] * ev * ev + 2.0 * eta * eu * ev

        F = self.faces
        sq = [l2(F[:, (c + 1) % 3], F[:, (c + 2) % 3]) for c in range(3)]  # side opposite corner c
        if not all(np.all(s > 0) for s in sq):
            return float("inf")
        K = self.const.copy()
        for c in range(3):
            a2, b2, c2 = sq[c], sq[(c + 1) % 3], sq[(c + 2) % 3]
            cos = (b2 + c2 - a2) / (2.0 * np.sqrt(b2 * c2))
            if np.any(np.abs(cos) >= 1.0):
                return float("inf")
            np.add.at(K, F[:, c], self.sign * np.arccos(cos))
        return float(np.max(np.abs(K)))

    def product_error(self, xi: np.ndarray) -> float:
        """Largest relative error of <xi_v, xi_v> = alpha_v and -<xi_u, xi_w> = eta_uw."""
        g = xi * np.array([1.0, 1.0, 1.0, -1.0])
        self_p = np.einsum("ij,ij->i", g, xi)
        u, w = self.edges[:, 0], self.edges[:, 1]
        edge_p = -np.einsum("ij,ij->i", g[u], xi[w])
        err_v = np.abs(self_p - self.alpha) / np.maximum(1.0, np.abs(self.alpha))
        err_e = np.abs(edge_p - self.eta) / np.maximum(1.0, np.abs(self.eta))
        return float(max(err_v.max(), err_e.max()))


def newton(geo: Geometry, rc: int, out: dict | None, classify: bool = False):
    """'ok', 'classified' or a reason it is wrong.

    With ``classify``, a numerical failure that ``newton_flat`` reports is
    'classified'; without it, every failure to converge is wrong.
    """
    if out is None:
        return f"exit {rc} without output"
    if classify and rc == 2 and out.get("converged") is False and out.get("status") in CLASSIFIED_FAILURES:
        return "classified"
    if rc != 0 or out.get("converged") is not True:
        return f"exit {rc}, status {out.get('status')!r}"
    k = geo.max_abs_curvature(geo.label(out["f"]))
    return "ok" if k <= NEWTON_TOL else f"max|K| {k!r} above {NEWTON_TOL}"


def flow(geo: Geometry, f0: np.ndarray, rc: int, out: dict | None):
    if rc != 0 or out is None:
        return f"exit {rc}"
    k0 = geo.max_abs_curvature(f0)
    k = geo.max_abs_curvature(geo.label(out["f"]))
    if not k <= k0 / FLOW_REDUCTION:
        return f"max|K| {k!r} not reduced {FLOW_REDUCTION:g}x from {k0!r}"
    return "ok" if k <= NEWTON_TOL else f"max|K| {k!r} above {NEWTON_TOL}"


def layout(geo: Geometry, aug, scenario: str, rc: int, out: dict | None):
    if rc != 0 or out is None:
        return f"exit {rc}"
    xi = np.array([out["mpoints"][i] for i in geo.ids])
    err = geo.product_error(xi)
    if not err <= PRODUCT_TOL:
        return f"product error {err!r} above {PRODUCT_TOL}"
    mpoints = {v: MPoint(xi[i]) for i, v in enumerate(aug.vertices)}
    rep = diskfold.layout.verify_boundary_condition(aug, mpoints, scenario)
    return "ok" if rep.passed else f"{scenario} boundary residual {rep.max_residual!r}"


def render(geo: Geometry, rc: int, text: str | None, golden: str | None = None):
    if rc != 0 or text is None:
        return f"exit {rc}"
    if golden is not None:
        return "ok" if text == golden else "differs from the golden file"
    counts = (text.count("<polygon"), text.count("<line"), text.count("<circle"))
    want = (len(geo.faces), len(geo.edges), geo.n)
    if not (text.startswith("<svg ") and text.endswith("</svg>\n") and counts == want):
        return f"svg element counts {counts}, want {want}"
    return "ok"


def rank(geo: Geometry, rc: int, out: dict | None):
    if rc != 0 or out is None:
        return f"exit {rc}"
    want = 4 * geo.n - 6
    shape = [geo.n + len(geo.edges), 4 * geo.n]
    if out["shape"] != shape:
        return f"matrix shape {out['shape']}, want {shape}"
    return "ok" if out["rank"] == want else f"rank {out['rank']}, want 4V-6 = {want}"


def mobius(rc: int, out: dict | None):
    """A failed translation (a-d) is the known unscaled-bound defect: classified."""
    if out is None or rc not in (0, 2):
        return f"exit {rc}"
    checks = out["checks"]
    if len(checks) != 12:
        return f"{len(checks)} checks, want 12"
    for c in checks:
        ok = c["max_abs_curvature"] <= c["curvature_bound"] and c["max_variation_dev"] <= c["variation_bound"]
        if ok != c["ok"]:
            return f"generator {c['generator']} verdict disagrees with its numbers"
        if c["generator"] in ("t", "r") and not ok:
            return f"generator {c['generator']} failed at eps {c['eps']}"
    all_ok = all(c["ok"] for c in checks)
    if all_ok != (rc == 0):
        return f"exit {rc} disagrees with the report"
    return "ok" if rc == 0 else "classified"
