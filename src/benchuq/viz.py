"""Static SVG rendering: ternary winner fields, forest plots, rank bars.

Everything here is deterministic: no timestamps, no generated ids, fixed
number formatting — identical inputs produce byte-identical SVG 1.1
documents, so rendered artifacts can be diffed and pinned in tests.

Ternary orientation: with categories ordered (natural, specialized,
structured) the structured vertex sits at the bottom-left, natural at the
bottom-right and specialized at the top; generically the field's third
category takes the bottom-left vertex, the first the bottom-right and the
second the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .errors import ValidationError
from .weighting import INDETERMINATE, SimplexField

__all__ = [
    "PALETTE",
    "INDETERMINATE_COLOR",
    "RenderSpec",
    "render_ternary",
    "render_forest",
    "render_rank_bars",
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

_FONT = 'font-family="Helvetica, Arial, sans-serif"'


@dataclass(frozen=True)
class RenderSpec:
    """Rendering options shared by all chart types.

    ``width`` applies everywhere; ``height`` sizes the ternary canvas, while
    forest and rank-bar charts grow vertically with their content.
    ``axis_labels`` overrides the three category names on ternary plots (in
    the field's category order).
    """

    width: int = 720
    height: int = 620
    palette: tuple[str, ...] = field(default=PALETTE)
    indeterminate_color: str = INDETERMINATE_COLOR
    legend: bool = True
    axis_labels: tuple[str, str, str] | None = None


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


def _text(x, y, s, size=12, anchor="start", color="#111111", bold=False):
    weight = ' font-weight="bold"' if bold else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="{size}" '
        f'text-anchor="{anchor}" fill="{color}"{weight}>{escape(s)}</text>'
    )


def _line(x1, y1, x2, y2, color="#111111", width=1):
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{width}"/>'
    )


def _finish(doc: str, path) -> str:
    if path is not None:
        Path(path).write_text(doc)
    return doc


# ------------------------------------------------------------------ ternary


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
        if not points:
            return []
    return points


def render_ternary(
    field: SimplexField,
    spec: RenderSpec = RenderSpec(),
    model_order=None,
    path=None,
) -> str:
    """Render a ternary winner field as an SVG document.

    Each grid cell becomes its lattice polygon (the hexagonal neighborhood
    clipped to the outer triangle), filled with the winner's palette color
    or gray for INDETERMINATE.  Colors follow ``model_order`` when given
    (e.g. leaderboard order), else first appearance in the field.
    """
    winners = field.winners()
    if model_order is not None:
        ordered = [m for m in model_order if m in winners]
        missing = set(winners) - set(ordered)
        if missing:
            raise ValidationError(
                f"model_order is missing winners: {sorted(missing)}"
            )
        winners = tuple(ordered)
    if len(winners) > len(spec.palette):
        raise ValidationError(
            f"palette has {len(spec.palette)} colors for "
            f"{len(winners)} distinct winners"
        )
    color = {m: spec.palette[i] for i, m in enumerate(winners)}
    has_gray = any(c.winner == INDETERMINATE for c in field.cells)

    pad = 46.0
    caption_h = 30.0
    legend_w = 170.0 if spec.legend else 0.0
    side = min(
        spec.width - 2 * pad - legend_w,
        (spec.height - 2 * pad - caption_h) / (math.sqrt(3) / 2),
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

    body = []
    for cell in field.cells:
        w0, w1, w2 = cell.weights
        cx = w0 * v_br[0] + w1 * v_top[0] + w2 * v_bl[0]
        cy = w0 * v_br[1] + w1 * v_top[1] + w2 * v_bl[1]
        poly = _clip_to_triangle(
            [(cx + dx, cy + dy) for dx, dy in hex_offsets], triangle
        )
        if not poly:
            continue
        fill = (
            spec.indeterminate_color
            if cell.winner == INDETERMINATE
            else color[cell.winner]
        )
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in poly)
        # Stroke in the fill color hides hairline gaps between cells.
        body.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="{fill}" '
            'stroke-width="0.5"/>'
        )

    tri_pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in triangle)
    body.append(
        f'<polygon points="{tri_pts}" fill="none" stroke="#111111" '
        'stroke-width="1.5"/>'
    )

    labels = spec.axis_labels if spec.axis_labels else field.categories
    if len(labels) != 3:
        raise ValidationError("axis_labels must name exactly 3 categories")
    body.append(_text(v_bl[0], base_y + 20, labels[2], anchor="middle"))
    body.append(_text(v_br[0], base_y + 20, labels[0], anchor="middle"))
    body.append(_text(v_top[0], pad - 12, labels[1], anchor="middle"))

    if spec.legend:
        lx = pad + side + 30
        ly = pad + 10
        entries = list(winners) + ([INDETERMINATE] if has_gray else [])
        for i, name in enumerate(entries):
            y = ly + 22 * i
            fill = spec.indeterminate_color if name == INDETERMINATE else color[name]
            body.append(
                f'<rect x="{_fmt(lx)}" y="{_fmt(y)}" width="14" height="14" '
                f'fill="{fill}"/>'
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
    return _finish(_document(spec.width, base_y + caption_h + 22, body), path)


# ------------------------------------------------------------------- forest


def render_forest(
    rows, spec: RenderSpec = RenderSpec(), fixed_order: bool = False, path=None
) -> str:
    """Render (label, IntervalEstimate) rows as horizontal interval bars.

    Rows are sorted by point estimate, best first, unless ``fixed_order``.
    """
    rows = list(rows)
    if not rows:
        raise ValidationError("render_forest needs at least one row")
    for label, est in rows:
        if not all(map(math.isfinite, (est.point, est.lower, est.upper))):
            raise ValidationError(f"non-finite interval for {label!r}")
    if not fixed_order:
        rows = sorted(
            enumerate(rows), key=lambda item: (-item[1][1].point, item[0])
        )
        rows = [r for _, r in rows]

    pad = 20.0
    label_w = pad + max(len(label) for label, _ in rows) * 7.0 + 10
    value_w = 150.0
    row_h = 26.0
    axis_h = 34.0
    plot_w = spec.width - label_w - value_w - pad
    height = 2 * pad + len(rows) * row_h + axis_h

    lo = min(est.lower for _, est in rows)
    hi = max(est.upper for _, est in rows)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    lo -= 0.04 * span
    hi += 0.04 * span

    def x(v):
        return label_w + (v - lo) / (hi - lo) * plot_w

    body = []
    for i, (label, est) in enumerate(rows):
        y = pad + (i + 0.5) * row_h
        body.append(_text(label_w - 8, y + 4, label, anchor="end"))
        if est.upper > est.lower:
            body.append(_line(x(est.lower), y, x(est.upper), y, "#333333", 2))
            for v in (est.lower, est.upper):
                body.append(_line(x(v), y - 5, x(v), y + 5, "#333333", 2))
        body.append(
            f'<circle cx="{_fmt(x(est.point))}" cy="{_fmt(y)}" r="3.5" '
            'fill="#111111"/>'
        )
        body.append(
            _text(
                label_w + plot_w + 10,
                y + 4,
                f"{est.point:.4g} ({est.lower:.4g}, {est.upper:.4g})",
                size=11,
                color="#444444",
            )
        )

    axis_y = pad + len(rows) * row_h + 10
    body.append(_line(label_w, axis_y, label_w + plot_w, axis_y))
    for v in np.linspace(lo, hi, 5):
        body.append(_line(x(v), axis_y, x(v), axis_y + 5))
        body.append(
            _text(x(v), axis_y + 18, f"{v:.4g}", size=10, anchor="middle")
        )
    return _finish(_document(spec.width, height, body), path)


# ---------------------------------------------------------------- rank bars


def render_rank_bars(
    probabilities, spec: RenderSpec = RenderSpec(), models=None, path=None
) -> str:
    """Render per-model rank-probability bar panels.

    ``probabilities[i, k]`` is model i's probability of holding rank k+1;
    every row must sum to 1 (within 1e-9).  Panel i is colored with the
    i-th palette entry, so pass rows in leaderboard order.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2:
        raise ValidationError("expected a models x ranks probability matrix")
    n_models, n_ranks = probs.shape
    bad = np.abs(probs.sum(axis=1) - 1.0) > 1e-9
    if probs.min() < -1e-12 or bad.any():
        row = int(np.argmax(bad)) if bad.any() else int(np.argmin(probs.min(axis=1)))
        raise ValidationError(f"row {row} is not a probability distribution")
    if models is None:
        models = tuple(f"model_{i}" for i in range(n_models))
    if len(models) != n_models:
        raise ValidationError(f"{len(models)} names for {n_models} models")
    if n_models > len(spec.palette):
        raise ValidationError(
            f"palette has {len(spec.palette)} colors for {n_models} models"
        )

    pad = 20.0
    gap = 18.0
    ncols = min(4, n_models)
    nrows = math.ceil(n_models / ncols)
    panel_w = (spec.width - 2 * pad - (ncols - 1) * gap) / ncols
    title_h = 16.0
    bars_h = 84.0
    ticks_h = 16.0
    panel_h = title_h + bars_h + ticks_h
    height = 2 * pad + nrows * panel_h + (nrows - 1) * gap

    body = []
    for i in range(n_models):
        px = pad + (i % ncols) * (panel_w + gap)
        py = pad + (i // ncols) * (panel_h + gap)
        base = py + title_h + bars_h
        body.append(_text(px, py + 11, models[i], size=11, bold=True))
        slot = panel_w / n_ranks
        bar_w = slot * 0.8
        for k in range(n_ranks):
            h = probs[i, k] * bars_h
            bx = px + k * slot + slot * 0.1
            body.append(
                f'<rect x="{_fmt(bx)}" y="{_fmt(base - h)}" '
                f'width="{_fmt(bar_w)}" height="{_fmt(h)}" '
                f'fill="{spec.palette[i]}"/>'
            )
            rank = k + 1
            if n_ranks <= 8 or rank == 1 or rank == n_ranks or rank % 5 == 0:
                body.append(
                    _text(
                        bx + bar_w / 2,
                        base + 12,
                        str(rank),
                        size=9,
                        anchor="middle",
                        color="#444444",
                    )
                )
        body.append(_line(px, base, px + panel_w, base))
    return _finish(_document(spec.width, height, body), path)
