"""Deterministic SVG pictures of laid-out disks.

Faces are drawn as translucent polygons (augmented sheet in a warmer
tone), disk edges solid, augmented edges dashed.  Vertices with a
positive weight become circles of radius sqrt(alpha_v) e^{f_v}, weight
zero becomes a dot, and the apex circle is stroked separately.  Output
depends only on the inputs: fixed ordering, fixed number formatting.
"""

from __future__ import annotations

import numpy as np

from .complexes import AugmentedDisk
from .conformal import ConformalStructure
from .layout import PlaneLayout

__all__ = ["render_svg"]

_STYLE = {
    "disk_face": 'fill="#86b5d9" fill-opacity="0.30" stroke="none"',
    "aug_face": 'fill="#e8a15c" fill-opacity="0.18" stroke="none"',
    "disk_edge": 'stroke="#2b3a55" stroke-width="{w}" fill="none"',
    "aug_edge": 'stroke="#b06030" stroke-width="{w}" stroke-dasharray="{d1} {d2}" fill="none"',
    "circle": 'stroke="#1f77b4" stroke-width="{w}" fill="none"',
    "apex_circle": 'stroke="#c23b22" stroke-width="{w}" fill="none"',
    "dot": 'fill="#1f77b4" stroke="none"',
}


def render_svg(
    aug: AugmentedDisk,
    cs: ConformalStructure,
    f,
    layout: PlaneLayout,
    *,
    size: int = 640,
    margin: float = 0.06,
) -> str:
    """Render one layout (and its vertex circles) as an SVG document."""
    farr = aug.label_array(f)
    idx = aug.vertex_index
    pos = {v: np.asarray(layout.positions[v], dtype=float) for v in aug.vertices}

    radii = {}
    for v in aug.vertices:
        a = cs.alpha[v]
        radii[v] = float(np.sqrt(a) * np.exp(farr[idx[v]])) if a > 0 else 0.0

    xs, ys = [], []
    for v in aug.vertices:
        r = radii[v]
        xs.extend([pos[v][0] - r, pos[v][0] + r])
        ys.extend([pos[v][1] - r, pos[v][1] + r])
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, 1e-12)
    pad = margin * span
    minx, maxx = minx - pad, maxx + pad
    miny, maxy = miny - pad, maxy + pad
    scale = size / max(maxx - minx, maxy - miny)

    def X(x: float) -> str:
        return f"{(x - minx) * scale:.9f}"

    def Y(y: float) -> str:
        return f"{(maxy - y) * scale:.9f}"

    def R(r: float) -> str:
        return f"{r * scale:.9f}"

    w = max(size / 640.0, 0.5)
    lw = f"{w:.9f}"
    dash1, dash2 = f"{4 * w:.9f}", f"{3 * w:.9f}"
    width = f"{(maxx - minx) * scale:.9f}".rstrip("0").rstrip(".")
    height = f"{(maxy - miny) * scale:.9f}".rstrip("0").rstrip(".")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]

    parts.append("<g>")
    fold_sign = aug.compiled.fold_sign
    for fi, face in enumerate(aug.faces):
        style = _STYLE["disk_face"] if fold_sign[fi] < 0 else _STYLE["aug_face"]
        pts = " ".join(f"{X(pos[v][0])},{Y(pos[v][1])}" for v in face)
        parts.append(f'<polygon points="{pts}" {style}/>')
    parts.append("</g>")

    parts.append("<g>")
    for (u, v) in aug.edges:
        if aug.apex in (u, v):
            style = _STYLE["aug_edge"].format(w=lw, d1=dash1, d2=dash2)
        else:
            style = _STYLE["disk_edge"].format(w=lw)
        parts.append(
            f'<line x1="{X(pos[u][0])}" y1="{Y(pos[u][1])}" '
            f'x2="{X(pos[v][0])}" y2="{Y(pos[v][1])}" {style}/>'
        )
    parts.append("</g>")

    parts.append("<g>")
    dot_r = 0.008 * span
    for v in aug.vertices:
        cx, cy = X(pos[v][0]), Y(pos[v][1])
        if radii[v] > 0:
            if v == aug.apex:
                style = _STYLE["apex_circle"].format(w=f"{1.6 * w:.9f}")
            else:
                style = _STYLE["circle"].format(w=lw)
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{R(radii[v])}" {style}/>')
        else:
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{R(dot_r)}" {_STYLE["dot"]}/>')
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
