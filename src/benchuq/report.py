"""Table and document emission for computed estimates.

Everything here is presentation: the statistics modules produce
IntervalEstimate, RankSummary and SimplexField objects and this module lays
them out as markdown, CSV, or one JSON document.  No number is recomputed during
formatting, so a report is byte-stable for identical inputs; percentages
are scaled and rounded only at the final string conversion.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from pathlib import Path

from .bootstrap import IntervalEstimate
from .weighting import SimplexField

REPORT_FORMATS = ("markdown", "csv", "json")


def format_interval(est: IntervalEstimate, scale: float = 1.0, digits: int = 1) -> str:
    """Render ``point (lower, upper)`` with fixed decimals, e.g. 68.0 (67.8, 68.1)."""
    return (
        f"{est.point * scale:.{digits}f} "
        f"({est.lower * scale:.{digits}f}, {est.upper * scale:.{digits}f})"
    )


def markdown_table(headers, rows) -> str:
    """GitHub-style pipe table; all cells are rendered with str()."""
    head = [str(h) for h in headers]
    body = [[str(c) for c in row] for row in rows]
    for row in body:
        if len(row) != len(head):
            raise ValueError(f"row has {len(row)} cells, header has {len(head)}")
    lines = [
        "| " + " | ".join(head) + " |",
        "| " + " | ".join("---" for _ in head) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    return "\n".join(lines) + "\n"


def csv_table(headers, rows) -> str:
    """CSV with LF line endings regardless of platform."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()


def interval_dict(est: IntervalEstimate) -> dict:
    """JSON-ready mapping for one estimate, method tag included."""
    return asdict(est)


def json_document(payload: dict) -> str:
    """One deterministic JSON document (sorted keys, stable float repr)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def interval_table(rows, columns, scale: float = 1.0, digits: int = 1,
                   label: str = "Model"):
    """Lay out labeled estimates as (headers, formatted rows).

    ``rows`` is a list of (name, {column: IntervalEstimate}) pairs; missing
    columns render as an em dash.
    """
    headers = [label, *columns]
    out = []
    for name, cells in rows:
        line = [name]
        for col in columns:
            est = cells.get(col)
            line.append("—" if est is None else format_interval(est, scale, digits))
        out.append(line)
    return headers, out


def interval_csv_rows(rows, columns, label: str = "model"):
    """Numeric CSV layout: one (lower, point, upper) triple per column."""
    headers = [label]
    for col in columns:
        slug = col.lower().replace(" ", "_")
        headers += [f"{slug}_lower", f"{slug}_point", f"{slug}_upper"]
    out = []
    for name, cells in rows:
        line = [name]
        for col in columns:
            est = cells.get(col)
            if est is None:
                line += ["", "", ""]
            else:
                line += [repr(est.lower), repr(est.point), repr(est.upper)]
        out.append(line)
    return headers, out


def simplex_csv(field: SimplexField) -> str:
    """One ``w_nat,w_sp,w_str,winner,margin_se`` row per simplex cell.

    Weight columns follow the field's category order.
    """
    # csv.writer's quoting of each distinct winner, cut from a two-field row;
    # "%.6g" rounds as f"{x:.6g}" does.
    winner = {name: csv_table((name, ""), ())[:-2]
              for name in {cell.winner for cell in field.cells}}
    rows = "".join("%.6g,%.6g,%.6g,%s,%.6g\n" % (*cell.weights, winner[cell.winner],
                                                   cell.margin)
                   for cell in field.cells)
    return csv_table(("w_nat", "w_sp", "w_str", "winner", "margin_se"), ()) + rows


def write_text(path, content: str) -> Path:
    """Write UTF-8 text with LF newlines; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
    return path
