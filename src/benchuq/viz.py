"""Static SVG rendering of ternary winner fields.

Everything here is deterministic: no timestamps, no generated ids, fixed
number formatting — identical inputs produce byte-identical SVG 1.1
documents, so rendered artifacts can be diffed and pinned in tests.

Ternary orientation: with categories ordered (natural, specialized,
structured) the structured vertex sits at the bottom-left, natural at the
bottom-right and specialized at the top; generically the field's third
category takes the bottom-left vertex, the first the bottom-right and the
second the top.

The canvas is ``WIDTH`` x ``HEIGHT`` pixels (the height then shrinks to fit
the triangle and its caption).  Winners take ``PALETTE`` colors in order of
first appearance, INDETERMINATE cells take ``INDETERMINATE_COLOR``, and the
legend lists every color used.
"""

from __future__ import annotations

import math
from html import escape
from operator import add
from pathlib import Path

from .errors import ValidationError
from .weighting import INDETERMINATE, SimplexField

__all__ = [
    "PALETTE",
    "INDETERMINATE_COLOR",
    "render_ternary",
]

# Colorblind-safe palette (Okabe-Ito plus Tol muted picks), assigned to
# models by leaderboard order.  Gray is reserved for INDETERMINATE.
PALETTE = (
    "#E69F00",
    "#56B4E9",
    "#009E73",
    "#F0E442",
    "#0072B2",
    "#D55E00",
    "#CC79A7",
    "#332288",
    "#88CCEE",
    "#44AA99",
    "#117733",
    "#999933",
    "#DDCC77",
    "#CC6677",
    "#882255",
    "#AA4499",
)

INDETERMINATE_COLOR = "#b3b3b3"

WIDTH = 720
HEIGHT = 620

_FONT = 'font-family="Helvetica, Arial, sans-serif"'


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _text(x, y, s, size=12, anchor="start", color="#111111"):
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="{size}" '
        f'text-anchor="{anchor}" fill="{color}">{escape(s, quote=False)}</text>'
    )


def _clip_halfplane(points, a, b):
    # Sutherland-Hodgman step: keep the side where cross((b-a),(p-a)) <= 0.
    def inside(p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= 1e-9

    def intersect(p, q):
        dx, dy = b[0] - a[0], b[1] - a[1]
        denom = dx * (q[1] - p[1]) - dy * (q[0] - p[0])
        t = (dy * (p[0] - a[0]) - dx * (p[1] - a[1])) / denom
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    out = []
    for i, p in enumerate(points):
        q = points[(i + 1) % len(points)]
        if inside(p):
            out.append(p)
            if not inside(q):
                out.append(intersect(p, q))
        elif inside(q):
            out.append(intersect(p, q))
    return out


def _clip_to_triangle(points, triangle):
    for i in range(3):
        points = _clip_halfplane(points, triangle[i], triangle[(i + 1) % 3])
    return points


def render_ternary(field: SimplexField, path=None) -> str:
    """Render a ternary winner field as an SVG document.

    Each grid cell becomes its lattice polygon (the hexagonal neighborhood
    clipped to the outer triangle), filled with the winner's ``PALETTE``
    color or ``INDETERMINATE_COLOR``.  Colors follow first appearance in
    the field.  Writes the document to ``path`` when given.
    """
    winners = field.winners()
    if len(winners) > len(PALETTE):
        raise ValidationError(
            f"palette has {len(PALETTE)} colors for "
            f"{len(winners)} distinct winners"
        )
    color = {m: PALETTE[i] for i, m in enumerate(winners)}
    color[INDETERMINATE] = INDETERMINATE_COLOR
    has_gray = any(c.winner == INDETERMINATE for c in field.cells)

    pad = 46.0
    caption_h = 30.0
    legend_w = 170.0
    side = min(
        WIDTH - 2 * pad - legend_w,
        (HEIGHT - 2 * pad - caption_h) / (math.sqrt(3) / 2),
    )
    tri_h = side * math.sqrt(3) / 2
    base_y = pad + tri_h
    v_bl = (pad, base_y)  # third category (structured in canonical order)
    v_br = (pad + side, base_y)  # first category
    v_top = (pad + side / 2, pad)  # second category
    triangle = (v_bl, v_br, v_top)

    # Voronoi cell of the triangular lattice: regular hexagon, circumradius
    # lattice-spacing / sqrt(3), vertices midway between neighbor directions.
    r_hex = field.grid_step * side / math.sqrt(3)
    hex_offsets = [
        (r_hex * math.cos(math.radians(30 + 60 * k)),
         r_hex * math.sin(math.radians(30 + 60 * k)))
        for k in range(6)
    ]

    # Stroke in the fill color hides hairline gaps between cells.  "%.2f"
    # rounds as _fmt does; the template formats a whole hexagon at once.
    cell_svg = '<polygon points="%s" fill="%s" stroke="%s" stroke-width="0.5"/>'
    hexagon = cell_svg % (" ".join(["%.2f,%.2f"] * 6), "%s", "%s")
    offsets = [d for offset in hex_offsets for d in offset]
    body = []
    for cell in field.cells:
        w0, w1, w2 = cell.weights
        cx = w0 * v_br[0] + w1 * v_top[0] + w2 * v_bl[0]
        cy = w0 * v_br[1] + w1 * v_top[1] + w2 * v_bl[1]
        fill = color[cell.winner]
        # An interior lattice point lies 0.87 spacings from every edge and
        # its hexagon reaches only 0.58, so only edge cells need clipping.
        if min(cell.weights) > 0.0:
            body.append(hexagon % (*map(add, (cx, cy) * 6, offsets), fill, fill))
            continue
        poly = _clip_to_triangle([(cx + dx, cy + dy) for dx, dy in hex_offsets],
                                 triangle)
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in poly)
        body.append(cell_svg % (pts, fill, fill))

    tri_pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in triangle)
    body.append(
        f'<polygon points="{tri_pts}" fill="none" stroke="#111111" '
        'stroke-width="1.5"/>'
    )

    labels = field.categories
    body.append(_text(v_bl[0], base_y + 20, labels[2], anchor="middle"))
    body.append(_text(v_br[0], base_y + 20, labels[0], anchor="middle"))
    body.append(_text(v_top[0], pad - 12, labels[1], anchor="middle"))

    lx = pad + side + 30
    ly = pad + 10
    entries = list(winners) + ([INDETERMINATE] if has_gray else [])
    for i, name in enumerate(entries):
        y = ly + 22 * i
        body.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(y)}" width="14" height="14" '
            f'fill="{color[name]}"/>'
        )
        body.append(_text(lx + 20, y + 11, name, size=11))

    body.append(
        _text(
            pad,
            base_y + caption_h + 12,
            f"winner per weight cell, z = {field.z:g}, rho = {field.rho:g}, "
            f"grid step {field.grid_step:g}",
            size=11,
            color="#444444",
        )
    )
    doc = _document(WIDTH, base_y + caption_h + 22, body)
    if path is not None:
        Path(path).write_text(doc, encoding="utf-8")
    return doc
