"""Benchmark data model: tasks, count tables, and accuracy matrices.

Counts ``(Y, N)`` are the canonical representation; leaderboards that only
publish accuracies are converted with :func:`synthesize_counts`.  Tables are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import gzip
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from . import rng as _rng

__all__ = [
    "TaskSpec",
    "EvalTable",
    "AccuracyMatrix",
    "ConsistencyReport",
    "load_eval_table",
    "load_task_file",
    "validate_consistency",
    "synthesize_counts",
    "accuracy_of",
]


@dataclass(frozen=True)
class TaskSpec:
    """One benchmark task: identifier, category label, and test-set size."""

    task_id: str
    category: str
    test_size: int

    def __post_init__(self):
        if self.test_size < 1:
            raise ValidationError(
                f"task {self.task_id!r}: test_size must be >= 1, got {self.test_size}"
            )


@dataclass(frozen=True)
class EvalTable:
    """Rectangular model x task table of correct-answer counts.

    ``counts[i, j]`` is the number of test instances model ``i`` answered
    correctly on task ``j``; it must satisfy ``0 <= counts[i, j] <=
    tasks[j].test_size``.
    """

    models: tuple[str, ...]
    tasks: tuple[TaskSpec, ...]
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(self.models), len(self.tasks)):
            raise ValidationError(
                f"counts matrix is {counts.shape}, expected "
                f"({len(self.models)}, {len(self.tasks)})"
            )
        if len(set(self.models)) != len(self.models):
            raise ValidationError("duplicate model identifiers")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate task identifiers")
        sizes = self.sizes
        bad = np.argwhere((counts < 0) | (counts > sizes[None, :]))
        if bad.size:
            i, j = bad[0]
            raise ValidationError(
                f"count out of range for model {self.models[i]!r}, task "
                f"{self.tasks[j].task_id!r}: Y={counts[i, j]}, N={sizes[j]}"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def sizes(self) -> np.ndarray:
        """Per-task test-set sizes ``N_j`` as an int array."""
        return np.array([t.test_size for t in self.tasks], dtype=np.int64)

    @property
    def categories(self) -> tuple[str, ...]:
        """Distinct category labels in first-appearance order."""
        seen: dict[str, None] = {}
        for t in self.tasks:
            seen.setdefault(t.category, None)
        return tuple(seen)

    def model_index(self, model: str) -> int:
        try:
            return self.models.index(model)
        except ValueError:
            raise KeyError(f"unknown model {model!r}") from None

    def category_columns(self, category: str) -> np.ndarray:
        """Column indices of the tasks in ``category``."""
        cols = np.array(
            [j for j, t in enumerate(self.tasks) if t.category == category],
            dtype=np.intp,
        )
        if cols.size == 0:
            raise KeyError(f"unknown category {category!r}")
        return cols


@dataclass(frozen=True)
class AccuracyMatrix:
    """Fractions ``p = Y/N``; same model/task ordering as the source table."""

    values: np.ndarray = field(repr=False)
    models: tuple[str, ...] = ()
    tasks: tuple[TaskSpec, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if np.any((values < 0.0) | (values > 1.0)) or not np.all(np.isfinite(values)):
            bad = np.argwhere(~((values >= 0.0) & (values <= 1.0)))[0]
            raise ValidationError(
                f"accuracy out of [0, 1] at row {bad[0]}, column {bad[1]}: "
                f"{values[tuple(bad)]}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "tasks", tuple(self.tasks))


def accuracy_of(table: EvalTable) -> AccuracyMatrix:
    """Sample proportions ``Y_ij / N_j`` for every cell of the table."""
    values = table.counts / table.sizes[None, :]
    return AccuracyMatrix(values=values, models=table.models, tasks=table.tasks)


# Accepted header spellings, one tuple per column; the first spelling is the
# canonical one that the bundled fixture and the calibration tool write.
# The task column follows one rule in both the task file and the eval file.
_TASK_COLUMN = ("task", "task_id")
_TASK_FILE_COLUMNS = (_TASK_COLUMN, ("category",), ("test_size", "n_examples"))


def read_csv_rows(path, columns=None) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and data rows of a CSV file, each data row with its line number.

    Blank lines and lines starting with '#' (provenance notes in the bundled
    fixtures) are skipped.  With ``columns``, one tuple of accepted spellings
    per column, the header must match them case-insensitively after
    stripping whitespace.  An unreadable, empty or mismatched file raises
    ValidationError.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            rows = [
                (reader.line_num, row)
                for row in reader
                if any(c.strip() for c in row) and not row[0].lstrip().startswith("#")
            ]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = rows[0][1]
    if columns is not None and (
        len(header) != len(columns)
        or any(c.strip().lower() not in names for c, names in zip(header, columns))
    ):
        canonical = ",".join(names[0] for names in columns)
        accepted = ",".join("|".join(names) for names in columns)
        raise ValidationError(
            f"{path}: header {header!r} does not match expected "
            f"{canonical!r} (accepted spellings: {accepted!r})"
        )
    return header, rows[1:]


def write_long_csv(path, header, axes, columns) -> None:
    """Write arrays as a long-format CSV, one row per array cell.

    ``axes`` holds the labels along each array axis; rows run over their
    product in C order.  ``columns`` holds one array per value column, each
    with one entry per row.  Values are written with ``repr``, which reads
    back bit-exact.  A ``.gz`` suffix gzips the file.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    keys = map(",".join, itertools.product(*([str(v) for v in ax] for ax in axes)))
    values = map(",".join, zip(*(map(repr, np.ravel(c).tolist()) for c in columns)))
    with opener(path, "wt", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{key},{row}\n" for key, row in zip(keys, values))


def load_task_file(path) -> tuple[TaskSpec, ...]:
    """Read a task CSV into TaskSpecs.

    The header is ``task,category,test_size``; ``task_id`` is accepted for
    the task column and ``n_examples`` for the size column.  Header cells
    are matched case-insensitively after stripping whitespace.
    """
    _, rows = read_csv_rows(path, _TASK_FILE_COLUMNS)
    tasks = []
    for lineno, row in rows:
        if len(row) != 3:
            raise ValidationError(f"{path}: row {lineno} has {len(row)} columns, expected 3")
        task_id, category, size_text = (c.strip() for c in row)
        try:
            size = int(size_text)
        except ValueError:
            raise ValidationError(
                f"{path}: row {lineno}, column 'test_size': {size_text!r} is not an integer"
            ) from None
        if size < 1:
            raise ValidationError(f"{path}: row {lineno}: test_size must be >= 1, got {size}")
        tasks.append(TaskSpec(task_id=task_id, category=category, test_size=size))
    if not tasks:
        raise ValidationError(f"{path}: no task rows")
    return tuple(tasks)


def load_eval_table(path, task_path, format: str = "counts") -> EvalTable:
    """Load a benchmark table from disk.

    Parameters
    ----------
    path : path-like
        Long-form CSV, one row per (model, task) cell.  In ``counts``
        format the header is ``model,task,correct``; in ``accuracies+sizes``
        format it is ``model,task,accuracy_percent``.  ``task_id`` is
        accepted for the task column, as in the task file.
    task_path : path-like
        Companion task CSV read by :func:`load_task_file`.
    format : {'counts', 'accuracies+sizes'}
        In ``accuracies+sizes`` mode, counts are recovered as
        ``round(p * N)`` with round-half-to-even.

    Raises
    ------
    ValidationError
        On malformed rows, values out of range, missing cells, or unknown
        task identifiers; the message names the offending row and column.
    """
    if format not in ("counts", "accuracies+sizes"):
        raise ValidationError(f"unknown format {format!r}")
    tasks = load_task_file(task_path)
    task_pos = {t.task_id: j for j, t in enumerate(tasks)}
    value_column = "correct" if format == "counts" else "accuracy_percent"
    _, rows = read_csv_rows(path, (("model",), _TASK_COLUMN, (value_column,)))

    models: list[str] = []
    model_pos: dict[str, int] = {}
    cells: dict[tuple[int, int], float] = {}
    for lineno, row in rows:
        if len(row) != 3:
            raise ValidationError(f"{path}: row {lineno} has {len(row)} columns, expected 3")
        model, task_id, value_text = (c.strip() for c in row)
        if task_id not in task_pos:
            raise ValidationError(
                f"{path}: row {lineno}, column 'task': unknown task {task_id!r}"
            )
        if model not in model_pos:
            model_pos[model] = len(models)
            models.append(model)
        i, j = model_pos[model], task_pos[task_id]
        if (i, j) in cells:
            raise ValidationError(
                f"{path}: row {lineno}: duplicate cell for model {model!r}, task {task_id!r}"
            )
        try:
            value = float(value_text) if format != "counts" else int(value_text)
        except ValueError:
            raise ValidationError(
                f"{path}: row {lineno}, column {value_column!r}: "
                f"{value_text!r} is not numeric"
            ) from None
        cells[(i, j)] = value

    if not models:
        raise ValidationError(f"{path}: no data rows")
    missing = [
        (m, t.task_id)
        for i, m in enumerate(models)
        for j, t in enumerate(tasks)
        if (i, j) not in cells
    ]
    if missing:
        raise ValidationError(
            f"{path}: ragged table, missing cell for model {missing[0][0]!r}, "
            f"task {missing[0][1]!r} ({len(missing)} missing in total)"
        )

    sizes = np.array([t.test_size for t in tasks], dtype=np.int64)
    if format == "counts":
        counts = np.zeros((len(models), len(tasks)), dtype=np.int64)
        for (i, j), v in cells.items():
            counts[i, j] = v
        return EvalTable(models=tuple(models), tasks=tasks, counts=counts)

    acc = np.zeros((len(models), len(tasks)))
    for (i, j), v in cells.items():
        if not 0.0 <= v <= 100.0:
            raise ValidationError(
                f"{path}: accuracy_percent out of [0, 100] for model "
                f"{models[i]!r}, task {tasks[j].task_id!r}: {v}"
            )
        acc[i, j] = v / 100.0
    matrix = AccuracyMatrix(values=acc, models=tuple(models), tasks=tasks)
    return synthesize_counts(matrix)


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-model gaps between computed and published means, in percent."""

    rows: tuple[tuple[str, str, float, float], ...]  # (model, label, computed, published)
    tolerance: float
    passed: bool

    def max_gap(self) -> float:
        return max(abs(c - p) for _, _, c, p in self.rows)

    def format(self) -> str:
        lines = []
        for model, label, computed, published in self.rows:
            gap = abs(computed - published)
            flag = "ok" if gap <= self.tolerance else "GAP"
            lines.append(
                f"{model:<20} {label:<12} computed={computed:7.3f} "
                f"published={published:6.2f} |gap|={gap:.3f} {flag}"
            )
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}: max gap "
            f"{self.max_gap():.3f} vs tolerance {self.tolerance}"
        )
        return "\n".join(lines)


def validate_consistency(
    table: EvalTable,
    published: Mapping[str, Mapping[str, float]],
    tolerance: float,
) -> ConsistencyReport:
    """Check computed category and overall means against published values.

    ``published`` maps model -> {category: mean_percent, ..., 'overall':
    mean_percent}; values are percentages.  The report lists every
    (model, category) gap and passes iff all gaps are within ``tolerance``
    percentage points.
    """
    acc = accuracy_of(table).values * 100.0
    rows = []
    for model, means in published.items():
        try:
            i = table.model_index(model)
        except KeyError:
            raise ValidationError(
                f"model {model!r} appears in the published summary but not in the table"
            ) from None
        for label, published_value in means.items():
            if label == "overall":
                computed = float(acc[i].mean())
            else:
                cols = table.category_columns(label)
                computed = float(acc[i, cols].mean())
            rows.append((model, label, computed, float(published_value)))
    passed = all(abs(c - p) <= tolerance for _, _, c, p in rows)
    return ConsistencyReport(rows=tuple(rows), tolerance=tolerance, passed=passed)


def synthesize_counts(
    accuracies: AccuracyMatrix,
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    mode: str = "deterministic",
) -> EvalTable:
    """Derive a count table from an accuracy matrix.

    Deterministic mode sets ``Y = round(p * N)`` with round-half-to-even and
    is bit-reproducible.  Jitter mode draws ``Y ~ Binomial(N, p)`` from the
    substream keyed on ``seed``, for simulation studies that want count-level
    sampling noise.
    """
    if mode not in ("deterministic", "jitter"):
        raise ValidationError(f"unknown synthesis mode {mode!r}")
    values = accuracies.values
    if sizes is None:
        if not accuracies.tasks:
            raise ValidationError("accuracy matrix carries no tasks; pass sizes explicitly")
        sizes = [t.test_size for t in accuracies.tasks]
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.shape != (values.shape[1],):
        raise ValidationError(
            f"got {sizes.shape[0]} sizes for {values.shape[1]} tasks"
        )
    if np.any(sizes < 1):
        raise ValidationError("all test sizes must be >= 1")

    if mode == "deterministic":
        counts = np.rint(values * sizes[None, :]).astype(np.int64)
    else:
        gen = _rng.substream(seed, _rng.JITTER)
        counts = gen.binomial(sizes[None, :], values)

    models = accuracies.models or tuple(f"model_{i}" for i in range(values.shape[0]))
    tasks = accuracies.tasks or tuple(
        TaskSpec(task_id=f"task_{j}", category="default", test_size=int(n))
        for j, n in enumerate(sizes)
    )
    return EvalTable(models=models, tasks=tasks, counts=counts)
