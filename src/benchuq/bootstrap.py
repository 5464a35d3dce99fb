"""Seeded bootstrap of evaluation tables and percentile interval estimates.

Resampling N_j test instances with replacement and recounting successes is
distributionally identical to drawing the success count directly from
Binomial(N_j, Y_ij / N_j), so each replicate cell is a single binomial draw
— O(1) memory per cell no matter how large the test set.  Replicates are
drawn in fixed blocks of 64: block b comes from the substream keyed on
(seed, BOOTSTRAP, b), and a store's last block is drawn whole and cut.  So
replicate r is a pure function of (table, seed, r) and does not depend on B.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from . import rng as _rng
from .core import EvalTable, accuracy_of
from .errors import CapacityError, ValidationError
from .normalize import NormalizationBounds, normalize_scores
from .weighting import UNWEIGHTED, WeightVector, resolve_task_weights

__all__ = [
    "DEFAULT_REPLICATES",
    "DISPLAY_LEVEL",
    "PAIRWISE_LEVEL",
    "IntervalEstimate",
    "ReplicateStore",
    "run_bootstrap",
    "percentile_interval",
    "bonferroni_level",
    "summarize_draws",
    "aggregate_interval",
    "pairwise_difference_intervals",
]

# Monte Carlo error on interval endpoints is well under 0.1 percentage
# points at this replicate count for benchmark-scale tables.
DEFAULT_REPLICATES = 10_000

# Display intervals: pairwise non-overlap at 83.4% approximates a 5% test.
DISPLAY_LEVEL = 0.834
PAIRWISE_LEVEL = 0.95

# Replicates per substream.  A constant, not an option: changing it moves
# every replicate.  One block's int64 draws (cells x _BLOCK) are the only
# temporary: 1.9 MiB on a 64 x 57 table, where 1,024 would hold 30 MiB and
# was measured no faster.
_BLOCK = 64

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
    """Immutable block of bootstrap success counts, replicates x models x tasks.

    ``counts[r, i, j]`` is model i's count of successes on task j's N_j
    items in replicate r, held in the narrowest unsigned type that holds
    the largest N_j.  The accuracies are ``counts / N_j``.
    """

    counts: np.ndarray = field(repr=False)
    source: EvalTable
    seed: int = 0

    def __post_init__(self):
        counts = np.asarray(self.counts)
        shape = (len(self.source.models), len(self.source.tasks))
        if counts.ndim != 3 or counts.shape[0] < 1 or counts.shape[1:] != shape:
            raise ValidationError(
                f"counts must be a nonempty 3-D array of shape (B, {shape[0]}, "
                f"{shape[1]}), got shape {counts.shape}"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError(f"counts must be integers, got dtype {counts.dtype}")
        sizes = self.source.sizes
        if counts.size:
            low, high = counts.min(axis=(0, 1)), counts.max(axis=(0, 1))
            bad = np.flatnonzero((low < 0) | (high > sizes))
            if bad.size:
                j = bad[0]
                raise ValidationError(
                    f"task {self.source.tasks[j].task_id!r}: counts span "
                    f"[{low[j]}, {high[j]}], outside [0, N={sizes[j]}]"
                )
        counts = counts.astype(_count_dtype(sizes), copy=False)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_replicates(self) -> int:
        return self.counts.shape[0]

    @property
    def replicates(self) -> np.ndarray:
        """The accuracies ``counts / N_j`` as a new read-only float64 array,
        8 bytes per cell, built whole on every access."""
        accuracies = self.counts / self.source.sizes
        accuracies.setflags(write=False)
        return accuracies


def _count_dtype(sizes) -> np.dtype:
    """The narrowest unsigned type that holds every count up to ``sizes``."""
    return np.min_scalar_type(int(sizes.max(initial=0)))


_MEMINFO = Path("/proc/meminfo")
_CGROUP_MEMORY_MAX = Path("/sys/fs/cgroup/memory.max")  # cgroup v2
_CGROUP_V1_LIMIT = Path("/sys/fs/cgroup/memory/memory.limit_in_bytes")


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
    """The cgroup memory limit in bytes, or None when unset or unreadable.

    Reads the cgroup v2 ``memory.max``, or when that file is absent the v1
    ``memory.limit_in_bytes``.  An unlimited v1 group reports a number near
    2**63, which caps nothing.
    """
    for path in (_CGROUP_MEMORY_MAX, _CGROUP_V1_LIMIT):
        try:
            text = path.read_text().strip()
            return None if text == "max" else int(text)
        except FileNotFoundError:
            continue
        except (OSError, ValueError):
            return None
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
) -> ReplicateStore:
    """Draw B bootstrap replicates of the whole table.

    Every replicate draws each cell (i, j) as the count Y*_ij ~
    Binomial(N_j, Y_ij / N_j).  Replicates r in [64 b, 64 b + 64) come from
    one call on the substream keyed on (seed, BOOTSTRAP, b), drawn cell-major:
    the 64 draws of cell (0, 0), then of cell (0, 1), and so on in row-major
    cell order.  The last block is drawn whole and cut, so replicate r is
    bit-identical in every store drawn with the same seed, whatever B.
    Raises a capacity error before allocating if the store would not fit in
    the memory currently available.
    """
    if B < 1:
        raise ValidationError(f"replicate count must be >= 1, got {B}")
    n_models, n_tasks = table.counts.shape
    sizes = table.sizes
    dtype = _count_dtype(sizes)
    requested = B * n_models * n_tasks * dtype.itemsize
    available = _available_bytes()
    if available is not None and requested > available:
        raise CapacityError(requested, available)

    out = np.empty((B, n_models, n_tasks), dtype=dtype)
    p_hat = accuracy_of(table).values[..., None]
    shape = (n_models, n_tasks, _BLOCK)
    for block, lo in enumerate(range(0, B, _BLOCK)):
        gen = _rng.substream(seed, _rng.BOOTSTRAP, block)
        hi = min(lo + _BLOCK, B)
        # Unnamed, so each block's draws are freed before the next is drawn.
        np.copyto(out[lo:hi].transpose(1, 2, 0),
                  gen.binomial(sizes[:, None], p_hat, size=shape)[..., :hi - lo],
                  casting="unsafe")
    return ReplicateStore(counts=out, seed=seed, source=table)


def percentile_interval(samples, level: float):
    """Equal-tailed interval from sample quantiles along the last axis.

    Quantiles use inclusive linear interpolation (numpy's ``linear`` method)
    at probabilities (1 - level)/2 and 1 - (1 - level)/2.  One-dimensional
    samples give a pair of floats; a leading shape gives a pair of arrays of
    that shape, one interval per row.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1] if samples.ndim else 0
    if n < 2:
        raise ValidationError(
            f"need at least 2 samples for a percentile interval, got {n}"
        )
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    tail = (1.0 - level) / 2.0
    lower, upper = np.quantile(samples, [tail, 1.0 - tail], axis=-1, method="linear")
    if samples.ndim == 1:
        return float(lower), float(upper)
    return lower, upper


def bonferroni_level(level: float, comparisons: int) -> float:
    """Per-comparison level 1 - (1 - level)/comparisons (Bonferroni)."""
    if comparisons < 1:
        raise ValidationError(f"comparisons must be >= 1, got {comparisons}")
    return 1.0 - (1.0 - level) / comparisons


def summarize_draws(rows, level: float, method: str) -> list[IntervalEstimate]:
    """One interval per row of a rows x draws array.

    Each row gives its mean as the point and its :func:`percentile_interval`
    at ``level``.  A constant row reports its value as the point and as
    both ends, where its mean could round away from the value.
    """
    rows = np.asarray(rows, dtype=float)
    lower, upper = percentile_interval(rows, level)
    constant = rows.min(axis=-1) == rows.max(axis=-1)
    points = np.where(constant, rows[:, 0], rows.mean(axis=-1))
    return [IntervalEstimate(float(point), float(low), float(high), level, method)
            for point, low, high in zip(points, lower, upper)]


def _replicate_statistics(
    store: ReplicateStore,
    model: str,
    weights: WeightVector | None,
    normalizer: NormalizationBounds | None,
) -> np.ndarray:
    source = store.source
    values = store.counts[:, source.model_index(model), :] / source.sizes
    if normalizer is not None:
        values = normalize_scores(values, normalizer)
    return values @ resolve_task_weights(weights, source.tasks)


def aggregate_interval(
    store: ReplicateStore,
    model: str,
    weights: WeightVector | None = UNWEIGHTED,
    normalizer: NormalizationBounds | None = None,
    level: float = DISPLAY_LEVEL,
) -> IntervalEstimate:
    """Percentile interval for one model's aggregate score.

    Per replicate: optionally normalize per-task scores against the fixed
    ``normalizer`` bounds, then take the weighted mean across tasks.  The
    replicate statistics are summarized by :func:`summarize_draws`.
    """
    stats = _replicate_statistics(store, model, weights, normalizer)
    return summarize_draws(stats[None, :], level, "bootstrap-percentile")[0]


def pairwise_difference_intervals(
    store: ReplicateStore,
    models,
    level: float = PAIRWISE_LEVEL,
    comparisons: int | None = None,
    weights: WeightVector | None = UNWEIGHTED,
    normalizer: NormalizationBounds | None = None,
) -> list[tuple[tuple[str, str], IntervalEstimate]]:
    """Bonferroni-adjusted percentile intervals for score differences.

    For each unordered pair (A, B) of the listed models, the per-replicate
    difference of aggregate scores is summarized by :func:`summarize_draws`
    at the :func:`bonferroni_level` of m comparisons, where m defaults to
    the number of pairs.
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
    stats = {
        model: _replicate_statistics(store, model, weights, normalizer)
        for model in set(models)
    }
    diffs = np.array([stats[a] - stats[b] for a, b in pairs])
    estimates = summarize_draws(diffs, bonferroni_level(level, m), "bootstrap-percentile")
    return list(zip(pairs, estimates))
