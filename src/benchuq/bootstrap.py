"""Seeded bootstrap of evaluation tables and percentile interval estimates.

Resampling N_j test instances with replacement and recounting successes is
distributionally identical to drawing the success count directly from
Binomial(N_j, Y_ij / N_j), so each replicate cell is a single binomial draw
— O(1) memory per cell no matter how large the test set.  Replicate r is a
pure function of (table, seed, r): it is drawn from its own random
substream, so the store does not depend on the order replicates are drawn in.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from . import rng as _rng
from .core import EvalTable, accuracy_of
from .errors import CapacityError, ValidationError
from .normalize import NormalizationBounds, normalize_per_replicate, normalize_scores
from .weighting import UNWEIGHTED, WeightVector, resolve_task_weights

__all__ = [
    "DEFAULT_REPLICATES",
    "DISPLAY_LEVEL",
    "PAIRWISE_LEVEL",
    "IntervalEstimate",
    "ReplicateStore",
    "draw_replicate",
    "run_bootstrap",
    "percentile_interval",
    "aggregate_interval",
    "pairwise_difference_intervals",
]

# Monte Carlo error on interval endpoints is well under 0.1 percentage
# points at this replicate count for benchmark-scale tables.
DEFAULT_REPLICATES = 10_000

# Display intervals: pairwise non-overlap at 83.4% approximates a 5% test.
DISPLAY_LEVEL = 0.834
PAIRWISE_LEVEL = 0.95

_METHODS = ("bootstrap-percentile", "bhm-credible", "bhm-posterior-predictive")


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimate with an equal-tailed interval at a stated level."""

    point: float
    lower: float
    upper: float
    level: float
    method: str

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValidationError(
                f"interval bounds out of order: ({self.lower}, {self.upper})"
            )
        if not 0.0 < self.level < 1.0:
            raise ValidationError(f"level must lie in (0, 1), got {self.level}")
        if self.method not in _METHODS:
            raise ValidationError(
                f"unknown method tag {self.method!r}; expected one of {_METHODS}"
            )


@dataclass(frozen=True)
class ReplicateStore:
    """Immutable block of bootstrap accuracies, replicates x models x tasks."""

    replicates: np.ndarray = field(repr=False)
    seed: int = 0
    source: EvalTable = None

    def __post_init__(self):
        reps = np.asarray(self.replicates, dtype=float)
        if reps.ndim != 3 or reps.shape[0] < 1:
            raise ValidationError(
                f"replicates must be a nonempty 3-D array, got shape {reps.shape}"
            )
        if np.any((reps < 0.0) | (reps > 1.0)):
            raise ValidationError("replicate accuracies must lie in [0, 1]")
        reps.setflags(write=False)
        object.__setattr__(self, "replicates", reps)

    @property
    def n_replicates(self) -> int:
        return self.replicates.shape[0]

    def model_slice(self, model: str) -> np.ndarray:
        """Replicates x tasks accuracy block for one model."""
        return self.replicates[:, self.source.model_index(model), :]

    def to_csv(self, path) -> None:
        """Audit dump as ``replicate,model,task,accuracy``; .gz compresses."""
        path = Path(path)
        opener = gzip.open if path.suffix == ".gz" else open
        task_ids = [t.task_id for t in self.source.tasks]
        with opener(path, "wt", newline="") as fh:
            fh.write("replicate,model,task,accuracy\n")
            for r in range(self.n_replicates):
                for i, model in enumerate(self.source.models):
                    for j, task in enumerate(task_ids):
                        fh.write(f"{r},{model},{task},{float(self.replicates[r, i, j])!r}\n")


def draw_replicate(table: EvalTable, replicate_index: int, seed: int) -> np.ndarray:
    """One bootstrap resample of every cell, as a models x tasks accuracy matrix.

    Cell (i, j) is Y*_ij / N_j with Y*_ij ~ Binomial(N_j, Y_ij / N_j), drawn
    from the substream keyed on (seed, BOOTSTRAP, replicate_index) in fixed
    row-major cell order — bit-identical regardless of execution order.
    """
    return _draw(seed, replicate_index, table.sizes, accuracy_of(table).values)


def _draw(seed: int, r: int, sizes: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
    gen = _rng.substream(seed, _rng.BOOTSTRAP, r)
    return gen.binomial(sizes[None, :], p_hat) / sizes[None, :]


_MEMINFO = Path("/proc/meminfo")
_CGROUP_MEMORY_MAX = Path("/sys/fs/cgroup/memory.max")


def _meminfo_available() -> int | None:
    """``MemAvailable`` in bytes: free memory plus what the kernel can reclaim."""
    try:
        with _MEMINFO.open() as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _cgroup_limit() -> int | None:
    """The cgroup v2 ``memory.max`` in bytes, or None when unset or unreadable."""
    try:
        text = _CGROUP_MEMORY_MAX.read_text().strip()
        return None if text == "max" else int(text)
    except (OSError, ValueError):
        return None


def _free_bytes() -> int | None:
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None


def _available_bytes() -> int | None:
    """Memory a new allocation can take, or None when nothing can be read.

    Reads ``MemAvailable``, falling back to free physical pages, and caps
    the result by the cgroup memory limit when one is set.
    """
    available = _meminfo_available()
    if available is None:
        available = _free_bytes()
    limit = _cgroup_limit()
    if limit is None or available is None:
        return available
    return min(available, limit)


def run_bootstrap(
    table: EvalTable,
    B: int = DEFAULT_REPLICATES,
    seed: int = 0,
    max_bytes: int | None = None,
) -> ReplicateStore:
    """Draw B bootstrap replicates of the whole table.

    Replicate r comes from its own substream (see :func:`draw_replicate`),
    so the store's content depends only on (table, B, seed).  Raises a
    capacity error before allocating if the replicate block would not fit in
    ``max_bytes`` (default: currently available physical memory).
    """
    if B < 1:
        raise ValidationError(f"replicate count must be >= 1, got {B}")
    n_models, n_tasks = table.counts.shape
    requested = B * n_models * n_tasks * np.dtype(float).itemsize
    available = max_bytes if max_bytes is not None else _available_bytes()
    if available is not None and requested > available:
        raise CapacityError(requested, available)

    out = np.empty((B, n_models, n_tasks))
    sizes = table.sizes
    p_hat = accuracy_of(table).values
    for r in range(B):
        out[r] = _draw(seed, r, sizes, p_hat)
    return ReplicateStore(replicates=out, seed=seed, source=table)


def percentile_interval(samples, level: float) -> tuple[float, float]:
    """Equal-tailed interval from sample quantiles.

    Quantiles use inclusive linear interpolation (numpy's ``linear`` method)
    at probabilities (1 - level)/2 and 1 - (1 - level)/2.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValidationError(
            f"need at least 2 samples for a percentile interval, got {samples.size}"
        )
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    tail = (1.0 - level) / 2.0
    lower, upper = np.quantile(samples, [tail, 1.0 - tail], method="linear")
    return float(lower), float(upper)


def _replicate_statistics(
    store: ReplicateStore,
    model: str,
    weights: WeightVector | None,
    normalizer: NormalizationBounds | None,
    per_replicate_bounds: bool,
) -> np.ndarray:
    if per_replicate_bounds and normalizer is not None:
        raise ValidationError(
            "per-replicate bounds and a fixed normalizer are mutually exclusive"
        )
    i = store.source.model_index(model)
    if per_replicate_bounds:
        task_ids = [t.task_id for t in store.source.tasks]
        values = normalize_per_replicate(store.replicates, task_ids)[:, i, :]
    elif normalizer is not None:
        values = normalize_scores(store.replicates[:, i, :], normalizer)
    else:
        values = store.replicates[:, i, :]
    w = resolve_task_weights(weights, store.source.tasks)
    return values @ w


def aggregate_interval(
    store: ReplicateStore,
    model: str,
    weights: WeightVector | None = UNWEIGHTED,
    normalizer: NormalizationBounds | None = None,
    per_replicate_bounds: bool = False,
    level: float = DISPLAY_LEVEL,
) -> IntervalEstimate:
    """Percentile interval for one model's aggregate score.

    Per replicate: optionally normalize per-task scores, then take the
    weighted mean across tasks.  The point estimate is the mean of the
    replicate statistics.
    """
    stats = _replicate_statistics(store, model, weights, normalizer, per_replicate_bounds)
    lower, upper = percentile_interval(stats, level)
    return IntervalEstimate(
        point=float(stats.mean()),
        lower=lower,
        upper=upper,
        level=level,
        method="bootstrap-percentile",
    )


def pairwise_difference_intervals(
    store: ReplicateStore,
    models,
    level: float = PAIRWISE_LEVEL,
    comparisons: int | None = None,
    weights: WeightVector | None = UNWEIGHTED,
    normalizer: NormalizationBounds | None = None,
    per_replicate_bounds: bool = False,
) -> list[tuple[tuple[str, str], IntervalEstimate]]:
    """Bonferroni-adjusted percentile intervals for score differences.

    For each unordered pair (A, B) of the listed models, the per-replicate
    difference of aggregate scores is summarized at the adjusted level
    ``1 - (1 - level)/m`` where m defaults to the number of pairs.
    """
    models = list(models)
    if len(models) < 2:
        raise ValidationError("need at least two models for pairwise differences")
    pairs = list(combinations(models, 2))
    m = len(pairs) if comparisons is None else comparisons
    if m < len(pairs):
        raise ValidationError(
            f"comparison budget m={m} is below the {len(pairs)} listed pairs"
        )
    adjusted = 1.0 - (1.0 - level) / m
    stats = {
        model: _replicate_statistics(
            store, model, weights, normalizer, per_replicate_bounds
        )
        for model in set(models)
    }
    results = []
    for a, b in pairs:
        diffs = stats[a] - stats[b]
        lower, upper = percentile_interval(diffs, adjusted)
        estimate = IntervalEstimate(
            point=float(diffs.mean()),
            lower=lower,
            upper=upper,
            level=adjusted,
            method="bootstrap-percentile",
        )
        results.append(((a, b), estimate))
    return results
