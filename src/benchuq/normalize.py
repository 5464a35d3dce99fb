"""Score normalization against per-task bootstrap extremes.

Each task's raw scores are mapped to ``(raw - low) / (high - low)`` where
``low`` and ``high`` are the minimum and maximum accuracy seen for that task
across all models and all bootstrap replicates.  This puts every task on a
common [0, 1] difficulty scale before aggregation, so tasks where all models
cluster tightly stop being drowned out by tasks with wide raw spreads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBoundsError, ValidationError

__all__ = [
    "NormalizationBounds",
    "estimate_bounds",
    "normalize_scores",
]

CLAMP_WARNING = "{} normalized values fell outside [0, 1] and were clamped"


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


def estimate_bounds(store) -> NormalizationBounds:
    """Per-task extremes over every model and replicate in a bootstrap store."""
    counts = store.counts
    if counts.size == 0:
        raise ValidationError("empty replicate store")
    # Dividing by a fixed N_j is monotone in IEEE arithmetic, so the
    # extreme counts divide to the extreme accuracies exactly.
    sizes = store.source.sizes
    low = counts.min(axis=(0, 1)) / sizes
    high = counts.max(axis=(0, 1)) / sizes
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
    out, n_outside = _clamped_scores(values, bounds)
    if n_outside:
        warnings.warn(CLAMP_WARNING.format(n_outside), stacklevel=2)
    return out


def _clamped_scores(values, bounds: NormalizationBounds) -> tuple[np.ndarray, int]:
    """:func:`normalize_scores` without the warning, plus the clamped count."""
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
        np.clip(out, 0.0, 1.0, out=out)
    return out, n_outside
