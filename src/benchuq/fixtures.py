"""Bundled VTAB-style benchmark fixture: 16 models over 19 tasks.

Only category-level mean accuracies were published for these models, so
the bundled per-task values are synthetic — calibrated so that every
(model, category) mean lands exactly on the published number and the
derived leaderboard and rank statistics agree with the published tables
within documented tolerances (see the header of ``data/vtab_accuracy.csv``
and ``tools/make_vtab_fixture.py``).  Statistics computed from this
fixture are consistency checks against the published values, not exact
reproductions.
"""

from __future__ import annotations

from contextlib import ExitStack
from importlib import resources

from .core import EvalTable, load_eval_table, read_csv_rows
from .errors import ValidationError

# Category labels in the fixture's canonical reporting order.
VTAB_CATEGORIES = ("natural", "specialized", "structured")


def _data_dir():
    return resources.files("benchuq") / "data"


def load_vtab() -> EvalTable:
    """Load the bundled 16-model x 19-task accuracy table."""
    with ExitStack() as stack:
        acc = stack.enter_context(resources.as_file(_data_dir() / "vtab_accuracy.csv"))
        tasks = stack.enter_context(resources.as_file(_data_dir() / "vtab_tasks.csv"))
        return load_eval_table(acc, tasks, format="accuracies+sizes")


def published_means_from_csv(path) -> dict[str, dict[str, float]]:
    """Parse a ``model,<label>,...`` means table (percent values).

    Returns ``model -> {label: mean}``; '#' lines are comments.  The shape
    matches what :func:`benchuq.core.validate_consistency` expects.
    """
    header, rows = read_csv_rows(path)
    labels = header[1:]
    out: dict[str, dict[str, float]] = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: row {lineno} for {row[0]!r} has {len(row)} cells, "
                f"expected {len(header)}"
            )
        out[row[0]] = {}
        for label, text in zip(labels, row[1:]):
            try:
                out[row[0]][label] = float(text)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {lineno}, column {label!r}: {text!r} is not numeric"
                ) from None
    return out


def vtab_published_means() -> dict[str, dict[str, float]]:
    """Published per-category and overall mean accuracies (percent).

    Returns a mapping ``model -> {category: mean, ..., 'overall': mean}``
    suitable for :func:`benchuq.core.validate_consistency`.
    """
    with resources.as_file(_data_dir() / "vtab_published_means.csv") as path:
        return published_means_from_csv(path)
