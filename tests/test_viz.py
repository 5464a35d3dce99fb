"""SVG rendering: validity, determinism, geometry, and palette rules."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import ValidationError
from benchuq.viz import (
    INDETERMINATE_COLOR,
    PALETTE,
    render_ternary,
)
from benchuq.weighting import INDETERMINATE, SimplexCell, SimplexField, simplex_scan

SVG = "{http://www.w3.org/2000/svg}"


def gapped_table():
    # Three specialists with wide gaps: every cell has a clear winner.
    tasks = (
        TaskSpec("n1", "natural", 1000),
        TaskSpec("s1", "specialized", 1000),
        TaskSpec("r1", "structured", 1000),
    )
    counts = np.array([[900, 100, 100], [100, 900, 100], [100, 100, 900]])
    return EvalTable(models=("N", "S", "R"), tasks=tasks, counts=counts)


def lattice_field(winner="only", margin=5.0, steps=4):
    cells = []
    for a in range(steps + 1):
        for b in range(steps + 1 - a):
            c = steps - a - b
            cells.append(
                SimplexCell(
                    weights=(a / steps, b / steps, c / steps),
                    winner=winner,
                    margin=margin,
                )
            )
    return SimplexField(
        categories=("natural", "specialized", "structured"),
        grid_step=1 / steps,
        z=2.0,
        rho=0.0,
        cells=tuple(cells),
    )


def polygons(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG}polygon")


def parse_points(poly):
    return [
        tuple(float(v) for v in pair.split(","))
        for pair in poly.get("points").split()
    ]


# ------------------------------------------------------------------ ternary


def test_ternary_is_valid_xml_and_deterministic():
    field = simplex_scan(gapped_table(), ("natural", "specialized", "structured"),
                         grid_step=0.1)
    first = render_ternary(field)
    again = render_ternary(field)
    assert first == again
    rescanned = simplex_scan(
        gapped_table(), ("natural", "specialized", "structured"), grid_step=0.1
    )
    assert render_ternary(rescanned) == first
    ET.fromstring(first)  # well-formed XML


def test_ternary_single_winner_single_legend_entry():
    svg = render_ternary(lattice_field())
    fills = {p.get("fill") for p in polygons(svg)} - {"none"}
    assert fills == {PALETTE[0]}
    root = ET.fromstring(svg)
    rects = root.findall(f".//{SVG}rect")
    assert len(rects) == 1  # one legend swatch, no gray entry
    assert rects[0].get("fill") == PALETTE[0]


def test_ternary_all_indeterminate_fully_gray():
    svg = render_ternary(lattice_field(winner=INDETERMINATE, margin=0.0))
    fills = {p.get("fill") for p in polygons(svg)} - {"none"}
    assert fills == {INDETERMINATE_COLOR}


def test_ternary_cells_lie_inside_outer_triangle():
    field = simplex_scan(gapped_table(), ("natural", "specialized", "structured"),
                         grid_step=0.1)
    svg = render_ternary(field)
    polys = polygons(svg)
    outline = [p for p in polys if p.get("fill") == "none"]
    assert len(outline) == 1
    tri = parse_points(outline[0])

    def cross(a, b, p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    cells = [p for p in polys if p.get("fill") != "none"]
    assert len(cells) == 66  # C(12,2) lattice cells at h=0.1
    for poly in cells:
        for pt in parse_points(poly):
            for i in range(3):
                a, b = tri[i], tri[(i + 1) % 3]
                # Signed distance to the edge; allow for the 2-decimal
                # coordinate rounding in the file.
                assert cross(a, b, pt) / math.dist(a, b) <= 0.05


def test_ternary_caption_and_axis_labels():
    field = lattice_field()
    svg = render_ternary(field)
    assert "z = 2, rho = 0, grid step 0.25" in svg
    texts = [t.text for t in ET.fromstring(svg).findall(f".//{SVG}text")]
    # Bottom-left, bottom-right, top: the third, first and second category.
    assert texts[:3] == ["structured", "natural", "specialized"]


def test_ternary_label_escaping():
    field = lattice_field(winner="a<b&c")
    svg = render_ternary(field)
    ET.fromstring(svg)
    assert "a&lt;b&amp;c" in svg


def test_ternary_palette_exhaustion():
    field = lattice_field(steps=5)  # 21 cells
    names = [f"m{i}" for i in range(len(PALETTE) + 1)]
    cells = tuple(
        SimplexCell(weights=c.weights, winner=names[k % len(names)], margin=5.0)
        for k, c in enumerate(field.cells)
    )
    crowded = SimplexField(field.categories, field.grid_step, field.z,
                           field.rho, cells)
    assert len(crowded.winners()) == 17
    with pytest.raises(ValidationError, match="16 colors for 17"):
        render_ternary(crowded)
    assert render_ternary(SimplexField(field.categories, field.grid_step, field.z,
                                       field.rho, cells[:16]))


def test_ternary_colors_follow_first_appearance():
    field = simplex_scan(gapped_table(), ("natural", "specialized", "structured"),
                         grid_step=0.25)
    root = ET.fromstring(render_ternary(field))
    winners = field.winners()
    rects = root.findall(f".//{SVG}rect")
    assert [r.get("fill") for r in rects[:len(winners)]] == list(PALETTE[:len(winners)])
    texts = [t.text for t in root.findall(f".//{SVG}text")]
    assert texts[3:3 + len(winners)] == list(winners)  # legend after axis labels


def test_ternary_writes_file(tmp_path):
    out = tmp_path / "simplex_2_0.svg"
    text = render_ternary(lattice_field(), path=out)
    assert out.read_text() == text
