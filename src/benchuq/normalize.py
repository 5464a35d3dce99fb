"""Score normalization against per-task bootstrap extremes.

Each task's raw scores are mapped to ``(raw - low) / (high - low)`` where
``low`` and ``high`` are the minimum and maximum accuracy seen for that task
across all models and all bootstrap replicates.  This puts every task on a
common [0, 1] difficulty scale before aggregation, so tasks where all models
cluster tightly stop being drowned out by tasks with wide raw spreads.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import read_csv_rows
from .errors import DegenerateBoundsError, ValidationError

__all__ = [
    "NormalizationBounds",
    "estimate_bounds",
    "normalize_scores",
]


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-task normalization anchors with ``high > low`` everywhere."""

    tasks: tuple[str, ...]
    low: np.ndarray = field(repr=False)
    high: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.shape != (len(self.tasks),) or high.shape != (len(self.tasks),):
            raise ValidationError(
                f"bounds need one (low, high) pair per task; got shapes "
                f"{low.shape}, {high.shape} for {len(self.tasks)} tasks"
            )
        flat = np.flatnonzero(high <= low)
        if flat.size:
            raise DegenerateBoundsError(self.tasks[flat[0]])
        low.setflags(write=False)
        high.setflags(write=False)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    def to_csv(self, path=None) -> str:
        """Serialize as ``task,low,high`` rows; optionally write to path."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["task", "low", "high"])
        for task, lo, hi in zip(self.tasks, self.low, self.high):
            writer.writerow([task, repr(float(lo)), repr(float(hi))])
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_csv(cls, path) -> "NormalizationBounds":
        """Read user-supplied bounds (e.g. chance-level floors) from CSV."""
        _, rows = read_csv_rows(path, (("task",), ("low",), ("high",)))
        tasks, lows, highs = [], [], []
        for lineno, row in rows:
            if len(row) != 3:
                raise ValidationError(f"{path}: row {lineno} has {len(row)} columns")
            try:
                tasks.append(row[0].strip())
                lows.append(float(row[1]))
                highs.append(float(row[2]))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {lineno}: bounds must be numeric"
                ) from None
        return cls(tasks=tuple(tasks), low=np.array(lows), high=np.array(highs))


def estimate_bounds(store) -> NormalizationBounds:
    """Per-task extremes over every model and replicate in a bootstrap store."""
    reps = store.replicates
    if reps.size == 0:
        raise ValidationError("empty replicate store")
    low = reps.min(axis=(0, 1))
    high = reps.max(axis=(0, 1))
    task_ids = tuple(t.task_id for t in store.source.tasks)
    return NormalizationBounds(tasks=task_ids, low=low, high=high)


def normalize_scores(values: np.ndarray, bounds: NormalizationBounds) -> np.ndarray:
    """Map raw scores to ``(raw - low) / (high - low)`` task by task.

    ``values`` may carry any leading shape (observed matrix, one replicate,
    or a whole replicate block); the trailing axis must index tasks.  Inputs
    outside the bounds are clamped into [0, 1] and counted in a warning —
    by construction this never fires for values from the store the bounds
    were estimated from.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != len(bounds.tasks):
        raise ValidationError(
            f"trailing axis has {values.shape[-1] if values.ndim else 0} "
            f"entries, expected {len(bounds.tasks)} tasks"
        )
    # One output array and no second values-sized temporary: on a whole
    # replicate store the temporaries set the command's peak memory.
    out = values - bounds.low
    out /= bounds.high - bounds.low
    n_outside = int(np.count_nonzero((out < 0.0) | (out > 1.0)))
    if n_outside:
        warnings.warn(
            f"{n_outside} normalized values fell outside [0, 1] and were clamped",
            stacklevel=2,
        )
        np.clip(out, 0.0, 1.0, out=out)
    return out
