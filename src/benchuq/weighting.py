"""Weighted aggregate scores, their analytic variance, and weight-space scans.

A leaderboard score is a weighted mean of per-task accuracies.  Under
within-task binomial sampling and between-task independence,

    Var[S] = sum_j w_j^2 Var[p_j] + 2 sum_{j<j'} w_j w_j' Cov[p_j, p_j'],

with ``Var[p_j] = p_j (1 - p_j) / N_j``.  The simplex scan sweeps all
category weightings on a ternary grid and labels each cell with the winning
model, or INDETERMINATE when the top-two margin is within ``z`` standard
errors of zero.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import EvalTable, accuracy_of
from .errors import ValidationError
from .normalize import normalize_scores

__all__ = [
    "UNWEIGHTED",
    "INDETERMINATE",
    "WeightVector",
    "SimplexCell",
    "SimplexField",
    "weighted_score",
    "weighted_variance",
    "difference_se",
    "se_reduction_factor",
    "simplex_scan",
]

# Sentinel for "plain unweighted mean" (expands to uniform task weights).
UNWEIGHTED = None

# Winner label for simplex cells whose top-two margin fails the z test.
INDETERMINATE = "INDETERMINATE"

_SUM_TOL = 1e-12

# A runner-up within _TIE_RTOL * |top score| of the second-place score
# counts as tied with it: a gap that small is rounding, and a common
# rescaling of the scores must not split or merge the tie.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights summing to 1, per task or per category.

    Per-category weights carry their category labels and expand to per-task
    weights with the equal-within-category rule: every task in category c
    receives ``w_c / n_c`` where ``n_c`` is the category's task count.
    """

    weights: np.ndarray = field(repr=False)
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a nonempty 1-D vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > _SUM_TOL:
            raise ValidationError(f"weights sum to {w.sum()!r}, expected 1")
        if self.labels is not None and len(self.labels) != w.size:
            raise ValidationError(
                f"{len(self.labels)} labels for {w.size} weights"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def per_category(cls, mapping: Mapping[str, float]) -> "WeightVector":
        labels = tuple(mapping)
        return cls(weights=np.array([mapping[c] for c in labels]), labels=labels)

    @property
    def is_categorical(self) -> bool:
        return self.labels is not None

    def as_task_weights(self, tasks) -> np.ndarray:
        """Expand to one weight per task (identity for per-task vectors)."""
        if not self.is_categorical:
            if len(tasks) != self.weights.size:
                raise ValidationError(
                    f"{self.weights.size} task weights for {len(tasks)} tasks"
                )
            return self.weights
        by_label = dict(zip(self.labels, self.weights))
        task_categories = [t.category for t in tasks]
        unknown = set(task_categories) - set(self.labels)
        if unknown:
            raise ValidationError(
                f"no weight given for categories {sorted(unknown)}"
            )
        counts = {c: task_categories.count(c) for c in self.labels}
        missing = [c for c in self.labels if counts[c] == 0 and by_label[c] > 0]
        if missing:
            raise ValidationError(
                f"weighted categories {missing} have no tasks in the table"
            )
        return np.array(
            [by_label[c] / counts[c] for c in task_categories]
        )


def resolve_task_weights(
    weights: WeightVector | None, tasks=None, n_tasks: int | None = None
) -> np.ndarray:
    """Per-task weights for a WeightVector, or uniform for UNWEIGHTED.

    ``n_tasks`` (default: ``len(tasks)``) is the number of weights expected.
    Category weights need ``tasks`` to expand; per-task and uniform weights
    only need the count.
    """
    if n_tasks is None:
        n_tasks = len(tasks)
    if weights is UNWEIGHTED:
        w = np.full(n_tasks, 1.0 / n_tasks)
    elif tasks is not None:
        w = weights.as_task_weights(tasks)
    elif weights.is_categorical:
        raise ValidationError("category weights require the task list")
    else:
        w = weights.weights
    if w.size != n_tasks:
        raise ValidationError(f"{w.size} weights for {n_tasks} tasks")
    return w


def weighted_score(acc_row: np.ndarray, weights: WeightVector | None, tasks=None) -> float:
    """Weighted mean score ``sum_j w_j p_j`` for one model's accuracy row."""
    acc_row = np.asarray(acc_row, dtype=float)
    return float(acc_row @ resolve_task_weights(weights, tasks, acc_row.size))


def binomial_variances(acc_row: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-task sampling variances ``p (1 - p) / N``."""
    acc_row = np.asarray(acc_row, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if np.any((acc_row < 0) | (acc_row > 1)):
        raise ValidationError("accuracies must lie in [0, 1]")
    if np.any(sizes < 1):
        raise ValidationError("test sizes must be >= 1")
    return acc_row * (1.0 - acc_row) / sizes


def weighted_variance(
    acc_row: np.ndarray,
    sizes: np.ndarray,
    weights: WeightVector | None,
    covariances: np.ndarray | None = None,
    tasks=None,
) -> float:
    """Analytic variance of the weighted score of one model.

    ``covariances`` supplies the between-task terms ``Cov[p_j, p_j']`` (its
    diagonal is ignored; the binomial variances are always used); the default
    0 is the independence case.
    """
    acc_row = np.asarray(acc_row, dtype=float)
    variances = binomial_variances(acc_row, sizes)
    w = resolve_task_weights(weights, tasks, acc_row.size)
    total = float(w**2 @ variances)
    if covariances is not None:
        cov = np.asarray(covariances, dtype=float)
        if cov.shape != (acc_row.size, acc_row.size):
            raise ValidationError(
                f"covariance matrix is {cov.shape}, expected "
                f"({acc_row.size}, {acc_row.size})"
            )
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
            raise ValidationError("covariance matrix is not symmetric")
        off = cov - np.diag(np.diag(cov))
        total += float(w @ off @ w)
    return total


def difference_se(varA: float, varB: float, rho: float) -> float:
    """Standard error of a score difference under correlation ``rho``.

    Evaluates ``sqrt(varA + varB - 2 rho sqrt(varA varB))``; the radicand is
    clamped at 0 against rounding when ``|rho|`` is at its bounds.
    """
    if varA < 0 or varB < 0:
        raise ValueError("variances must be nonnegative")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    radicand = varA + varB - 2.0 * rho * math.sqrt(varA * varB)
    return math.sqrt(max(radicand, 0.0))


def se_reduction_factor(k: float, rho: float) -> float:
    """SE shrinkage from modeling correlation, for variance ratio ``k >= 1``.

    Relative to the independence SE, the correlated difference SE is smaller
    by ``sqrt((k + 1 - 2 rho sqrt(k)) / (k + 1))`` where ``k = Var_B/Var_A``.
    """
    if k < 1:
        raise ValueError(f"variance ratio k must be >= 1, got {k}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    return math.sqrt((k + 1.0 - 2.0 * rho * math.sqrt(k)) / (k + 1.0))


@dataclass(frozen=True)
class SimplexCell:
    """One grid weighting: category weights, winner label, margin in SEs."""

    weights: tuple[float, float, float]
    winner: str
    margin: float


@dataclass(frozen=True)
class SimplexField:
    """All grid cells of a ternary category-weight scan."""

    categories: tuple[str, str, str]
    grid_step: float
    z: float
    rho: float
    cells: tuple[SimplexCell, ...]

    def winners(self) -> tuple[str, ...]:
        """Distinct determinate winners in first-appearance order."""
        winners = (cell.winner for cell in self.cells if cell.winner != INDETERMINATE)
        return tuple(dict.fromkeys(winners))

    def to_csv(self, path=None) -> str:
        """Write cells as ``w_nat,w_sp,w_str,winner,margin_se`` rows.

        Weight columns follow the field's category order.  Returns the CSV
        text; writes it to ``path`` when given.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["w_nat", "w_sp", "w_str", "winner", "margin_se"])
        for cell in self.cells:
            writer.writerow(
                [f"{w:.6g}" for w in cell.weights]
                + [cell.winner, f"{cell.margin:.6g}"]
            )
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text


def _top_two(scores: np.ndarray, variances: np.ndarray, z: float, rho: float):
    """The top-two margin rule over rows of (rows x models) score arrays.

    Returns each row's winning index (-1 when indeterminate) and its margin
    in SE units; see :func:`decide_winner` for the rule.
    """
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=1)
    top, first, second = order[:, 0], ranked[:, 0], ranked[:, 1]
    # Descending order makes the tie test a prefix of each row, which is
    # where a scan from the runner-up down would stop.
    tied = second[:, None] - ranked[:, 1:] <= _TIE_RTOL * np.abs(first)[:, None]
    ranked_vars = np.take_along_axis(variances, order, axis=1)
    var_top, var_k = ranked_vars[:, :1], ranked_vars[:, 1:]
    # Same operation order as difference_se, clamped the same way.
    radicand = var_top + var_k - 2.0 * rho * np.sqrt(var_top * var_k)
    se = np.sqrt(np.maximum(radicand, 0.0))
    gap = first[:, None] - ranked[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se > 0, gap / se, math.inf)
    margin = np.where(tied, ratio, math.inf).min(axis=1)
    exact_tie = second == first
    margin[exact_tie] = 0.0
    return np.where(~exact_tie & (margin >= z), top, -1), margin


def decide_winner(
    scores: np.ndarray, variances: np.ndarray, z: float, rho: float
) -> tuple[int | None, float]:
    """Pick the winning index for one weighting, or None if indeterminate.

    The top score must clear every runner-up tied at the second-place score
    (to within a relative 1e-12 of the top score) by ``z`` standard errors
    of the pairwise difference.  An exact tie for first place is always
    indeterminate.  Returns (index or None, margin in SE units); a zero SE
    with a positive gap yields an infinite margin.
    """
    idx, margin = _top_two(np.asarray(scores, dtype=float)[None],
                           np.asarray(variances, dtype=float)[None], z, rho)
    return (int(idx[0]) if idx[0] >= 0 else None), float(margin[0])


def simplex_scan(
    table: EvalTable,
    categories: Sequence[str],
    grid_step: float = 0.01,
    z: float = 2.0,
    rho: float = 0.0,
    normalizer=None,
) -> SimplexField:
    """Label every ternary grid weighting with its winning model.

    Each cell weights the three categories, scores every model as the
    weighted mean of its category average accuracies, and applies the
    top-two margin test at ``z`` standard errors with between-model
    correlation ``rho``.  Variances use the independence-across-tasks
    formula with the category-average identity.  With ``normalizer``
    bounds, scores are normalized per task first; the binomial variances
    pick up the same affine map's squared slope.
    """
    categories = tuple(categories)
    if len(categories) != 3:
        raise ValidationError(
            f"simplex scan needs exactly 3 categories, got {len(categories)}"
        )
    steps = round(1.0 / grid_step) if 0 < grid_step <= 1 else 0
    if steps == 0 or abs(steps * grid_step - 1.0) > 1e-9:
        raise ValidationError(f"grid step {grid_step} does not divide 1")
    if not -1.0 <= rho <= 1.0:
        raise ValidationError(f"rho must lie in [-1, 1], got {rho}")

    acc = accuracy_of(table).values
    n_models = len(table.models)
    raw_vars = acc * (1.0 - acc) / table.sizes[None, :]
    if normalizer is not None:
        span = normalizer.high - normalizer.low
        scores = normalize_scores(acc, normalizer)
        task_vars = raw_vars / span[None, :] ** 2
    else:
        scores = acc
        task_vars = raw_vars
    cat_means = np.empty((n_models, 3))
    cat_vars = np.empty((n_models, 3))
    for k, cat in enumerate(categories):
        cols = table.category_columns(cat)
        cat_means[:, k] = scores[:, cols].mean(axis=1)
        cat_vars[:, k] = task_vars[:, cols].sum(axis=1) / cols.size**2

    # Grid counts (a, b, steps - a - b), a ascending, then b ascending.
    a, ab = np.triu_indices(steps + 1)
    W = np.stack([a, ab - a, steps - ab], axis=1) / steps
    # The stacked matmul matches a per-cell ``cat_means @ w`` to the last bit
    # (``W @ cat_means.T`` does not), which keeps winner maps byte-identical.
    cell_scores = np.matmul(cat_means[None], W[:, :, None])[..., 0]
    cell_vars = np.matmul(cat_vars[None], (W**2)[:, :, None])[..., 0]
    idx, margins = _top_two(cell_scores, cell_vars, z, rho)
    # Index -1 (indeterminate) picks the label appended after the models.
    names = np.array(table.models + (INDETERMINATE,), dtype=object)[idx]
    cells = tuple(
        SimplexCell(weights=tuple(w), winner=winner, margin=margin)
        for w, winner, margin in zip(W.tolist(), names, margins.tolist())
    )
    return SimplexField(
        categories=categories,
        grid_step=grid_step,
        z=z,
        rho=rho,
        cells=cells,
    )
