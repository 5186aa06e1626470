"""Deterministic SVG pictures of laid-out disks.

Faces are drawn as translucent polygons (augmented sheet in a warmer
tone), disk edges solid, augmented edges dashed.  Vertices with a
positive weight become circles of radius sqrt(alpha_v) e^{f_v}, weight
zero becomes a dot, and the apex circle is stroked separately.  Radii
and bounds are computed over the layout's (n, 2) position array, and
each vertex's coordinates are formatted once and shared by its faces,
edges and circle.  Output depends only on the inputs: fixed ordering
(the compiled faces and edges, then the vertices), fixed number
formatting.
"""

from __future__ import annotations

import numpy as np

from .complexes import AugmentedDisk
from .conformal import _complex_of
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

#: Padding around the drawing, as a fraction of its larger extent.
MARGIN = 0.06


def render_svg(layout: PlaneLayout, *, size: int = 640) -> str:
    """Render one layout (and its vertex circles) as an SVG document."""
    aug = _complex_of(layout.cs, AugmentedDisk)
    farr, P = layout.label, layout.positions
    alpha = layout.cs.alpha_array
    radii = np.where(alpha > 0, np.sqrt(np.maximum(alpha, 0.0)) * np.exp(farr), 0.0)

    minx = float(np.min(P[:, 0] - radii))
    maxx = float(np.max(P[:, 0] + radii))
    miny = float(np.min(P[:, 1] - radii))
    maxy = float(np.max(P[:, 1] + radii))
    span = max(maxx - minx, maxy - miny, 1e-12)
    pad = MARGIN * span
    minx, maxx = minx - pad, maxx + pad
    miny, maxy = miny - pad, maxy + pad
    scale = size / max(maxx - minx, maxy - miny)

    xs = [f"{x:.9f}" for x in ((P[:, 0] - minx) * scale).tolist()]
    ys = [f"{y:.9f}" for y in ((maxy - P[:, 1]) * scale).tolist()]
    pts = [f"{x},{y}" for x, y in zip(xs, ys)]

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
    for face, sign in zip(aug.compiled.F.tolist(), aug.compiled.fold_sign.tolist()):
        style = _STYLE["disk_face"] if sign < 0 else _STYLE["aug_face"]
        parts.append(f'<polygon points="{" ".join(pts[i] for i in face)}" {style}/>')
    parts.append("</g>")

    parts.append("<g>")
    apex = len(P) - 1
    dashed = _STYLE["aug_edge"].format(w=lw, d1=dash1, d2=dash2)
    solid = _STYLE["disk_edge"].format(w=lw)
    for u, v in aug.compiled.E.tolist():
        style = dashed if apex in (u, v) else solid
        parts.append(f'<line x1="{xs[u]}" y1="{ys[u]}" x2="{xs[v]}" y2="{ys[v]}" {style}/>')
    parts.append("</g>")

    parts.append("<g>")
    dot = f'r="{0.008 * span * scale:.9f}" {_STYLE["dot"]}'
    apex_style = _STYLE["apex_circle"].format(w=f"{1.6 * w:.9f}")
    circle_style = _STYLE["circle"].format(w=lw)
    for i, r in enumerate(radii.tolist()):
        if r > 0:
            style = apex_style if i == apex else circle_style
            parts.append(f'<circle cx="{xs[i]}" cy="{ys[i]}" r="{r * scale:.9f}" {style}/>')
        else:
            parts.append(f'<circle cx="{xs[i]}" cy="{ys[i]}" {dot}/>')
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
