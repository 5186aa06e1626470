"""SVG output: structure, determinism, and pinned golden files.

Goldens are rendered from the closed-form flat labels, so they are
reproducible from scratch.  Regenerate with

    REGEN_GOLDEN=1 python3 -m pytest tests/test_svg.py
"""

import os
from pathlib import Path

import pytest

from diskfold import build, layout_augmented, render_svg

from conftest import HEX_FLAT

GOLDEN = Path(__file__).parent / "golden"


def _render(name, **kw):
    cs = build(name)
    f = HEX_FLAT[name]
    return render_svg(layout_augmented(cs, f), **kw)


@pytest.mark.parametrize("name", sorted(HEX_FLAT))
def test_structure(name):
    aug = build(name).complex
    text = _render(name)
    assert text.startswith("<svg ")
    assert text.endswith("</svg>\n")
    assert text.count("<polygon") == len(aug.faces)
    assert text.count("<line") == len(aug.edges)
    assert text.count("<circle") == len(aug.vertices)
    # weight-0 vertices render as dots, everything else as circles
    if name == "hex_inscribed":
        assert text.count('stroke="none"/>') >= 7
    assert 'stroke="#c23b22"' in text  # the apex ring is always stroked


@pytest.mark.parametrize("name", sorted(HEX_FLAT))
def test_deterministic(name):
    assert _render(name) == _render(name)


def test_size_scales_coordinates():
    small = _render("hex_tangent", size=320)
    large = _render("hex_tangent", size=640)
    assert small != large
    assert small.count("<circle") == large.count("<circle")


@pytest.mark.parametrize("name", sorted(HEX_FLAT))
def test_golden(name):
    path = GOLDEN / f"{name}.svg"
    text = _render(name)
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(text)
    assert path.exists(), f"golden file missing; run with REGEN_GOLDEN=1"
    assert text == path.read_text()
