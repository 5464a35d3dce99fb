"""Rank-aggregation schemes over bootstrap or posterior-predictive samples.

Five schemes: rank models by their across-task mean (ByAverage) or
geometric mean (GeometricMean), or rank per task first and average the
ranks (AverageRank), optionally adding standard normal noise to the
percentages before ranking (AverageRankNoise) or bucketing percentages
into 1%-wide bins so near-ties rank equally (AverageRankBinned).  Rank 1
is best everywhere; exact ties receive fractional (mean-of-positions)
ranks, which preserves the per-task rank sum.

The published VTAB binned column uses a tie rule that inflates rank sums:
its 16 values sum to 141.6, against the 16 * 17 / 2 = 136 that fractional
ties fix.  benchuq keeps fractional ties.  The "max" tie rule was checked
and does not reproduce the published column: on the bundled fixture it
overshoots the top-three binned points (4.47, 4.81, 5.81 against 4.2,
4.5, 5.5), two of them beyond the +-0.3 release gate.

Noise and binning operate on the 0-100 percentage scale, with a fixed noise
sd of 1 percentage point and a fixed bin width of 1 percentage point:
standard normal noise on the fraction scale would drown the signal entirely.
"""

from __future__ import annotations

import enum
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .bootstrap import DISPLAY_LEVEL, IntervalEstimate, ReplicateStore, percentile_interval
from .errors import ValidationError
from .normalize import CLAMP_WARNING, NormalizationBounds, _clamped_scores

__all__ = [
    "RankScheme",
    "RankSummary",
    "rank_intervals",
    "rank_tables",
]

# rank_tables ranks this many (sample, model, task) cells at a time, in one
# _Workspace that every block and scheme reuses, so it needs no allocator
# setting to run at full speed.  At 512 KiB each its buffers stay in cache:
# on a 64 x 57 table, blocks of 2**18 cells ranked at half the speed.
_BLOCK_CELLS = 1 << 16

# The noise sd of AverageRankNoise and the bin width of AverageRankBinned, in
# percentage points: standard normal noise and 1%-wide bins.
_NOISE_SD = 1.0
_BIN_WIDTH = 1.0


class RankScheme(str, enum.Enum):
    BY_AVERAGE = "by-average"
    GEOMETRIC_MEAN = "geometric-mean"
    AVERAGE_RANK = "average-rank"
    AVERAGE_RANK_NOISE = "average-rank-noise"
    AVERAGE_RANK_BINNED = "average-rank-binned"


@dataclass(frozen=True)
class RankSummary:
    """One model's aggregated rank: mean over samples plus an interval."""

    model: str
    scheme: RankScheme
    point: float
    interval: IntervalEstimate


class _Workspace:
    """Buffers for ranking blocks of up to ``cells`` values, reused block to block."""

    def __init__(self, cells: int):
        self.positions = np.arange(cells)
        self.first, self.from_end = np.empty((2, cells), dtype=self.positions.dtype)
        self.starts = np.empty(cells + 1, dtype=bool)
        self.keys, self.ranks, self.percent, self.noise = np.empty((4, cells))


def _descending_ranks(values: np.ndarray, ws: _Workspace, axis: int = -1) -> np.ndarray:
    """Fractional ranks along ``axis`` with 1 = largest value.

    Tied values share the mean of their positions.  A slice holding a NaN
    ranks NaN throughout.  This matches ``scipy.stats.rankdata(-values,
    method="average", axis=axis)`` exactly.  The result is a view of
    ``ws.ranks``, valid until the next call.
    """
    values = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    size, n = values.size, values.shape[-1]
    if size == 0:
        return np.moveaxis(values.copy(), -1, axis)
    keys = ws.keys[:size].reshape(values.shape)
    order = np.negative(values, out=keys).argsort(axis=-1)
    keys.sort(axis=-1)
    # Runs of equal keys in a sorted slice are tie groups, and every slice
    # starts one.  A group at flat positions first..last has the mean rank
    # (first + last) / 2 + 1, less the flat position where its slice starts.
    # A running maximum of position * starts gives each position's first.
    # Over the reversed array, where starts[i + 1] flags a group ending at i,
    # it gives from_end = size - 1 - last.
    flat, starts = ws.keys[:size], ws.starts[: size + 1]
    nan_rows = np.isnan(flat[n - 1 :: n])  # NaN sorts last
    np.not_equal(flat[1:], flat[:-1], out=starts[1:size])
    starts[::n] = True
    positions, first, from_end = ws.positions[:size], ws.first[:size], ws.from_end[:size]
    np.maximum.accumulate(np.multiply(positions, starts[:size], out=first), out=first)
    np.maximum.accumulate(np.multiply(positions, starts[:0:-1], out=from_end), out=from_end)
    np.subtract(first, from_end[::-1], out=first)
    mean_rank = np.multiply(first, 0.5, out=flat).reshape(-1, n)
    mean_rank -= positions[::n, None] - (size + 1) / 2
    mean_rank[nan_rows] = np.nan
    # Scatter each mean rank to the flat input position it was sorted from.
    np.add(order.reshape(-1, n), positions[::n, None], out=first.reshape(-1, n))
    ws.ranks[first] = flat
    return np.moveaxis(ws.ranks[:size].reshape(values.shape), -1, axis)


def _block_ranks(block, scheme, ws, gen):
    """Per-sample ranks of a samples x models x tasks block.

    Returns the samples x models ranks and the number of (sample, model)
    pairs with a zero accuracy, which only the geometric mean counts.  The
    block's noise is the next ``block.size`` normals of ``gen``.
    """
    if scheme == RankScheme.BY_AVERAGE:
        return _descending_ranks(block.mean(axis=2), ws), 0
    if scheme == RankScheme.GEOMETRIC_MEAN:
        has_zero = (block == 0.0).any(axis=2)
        with np.errstate(divide="ignore"):
            gm = np.exp(np.log(block).mean(axis=2))
        gm[has_zero] = 0.0
        return _descending_ranks(gm, ws), int(has_zero.sum())
    percent = np.multiply(block, 100.0, out=ws.percent[: block.size].reshape(block.shape))
    if scheme == RankScheme.AVERAGE_RANK_NOISE:
        noise = gen.standard_normal(out=ws.noise[: block.size].reshape(block.shape))
        percent += np.multiply(noise, _NOISE_SD, out=noise)
    elif scheme == RankScheme.AVERAGE_RANK_BINNED:
        percent /= _BIN_WIDTH
        np.floor(percent, out=percent)
    return _descending_ranks(percent, ws, axis=1).mean(axis=2), 0


def _warn_caller(message):
    """Warn for the nearest caller outside this module, however deep the call."""
    level, frame = 2, sys._getframe(1)
    while frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


def rank_tables(
    samples,
    schemes,
    level: float = DISPLAY_LEVEL,
    seed: int | None = None,
    models=None,
    method: str | None = None,
    normalizer: NormalizationBounds | None = None,
) -> dict[str, list[RankSummary]]:
    """Apply each of ``schemes`` to every sample and summarize per model.

    Returns ``{scheme value: [RankSummary per model]}`` in scheme order.
    ``samples`` is a bootstrap ReplicateStore or a samples x models x tasks
    array (e.g. posterior-predictive accuracies — tagged accordingly).  One
    pass over the samples ranks every scheme, and with ``normalizer`` each
    block goes through :func:`~benchuq.normalize.normalize_scores` against
    those fixed bounds once; one warning per call counts the values clamped
    into [0, 1].  The noise variant adds normal noise of sd 1 percentage
    point: sample s of M x T cells takes normals [s*M*T, (s+1)*M*T) of the
    RANK_NOISE substream of ``seed`` (default: the store's seed, else 0)
    whatever the sample count, block size or other schemes, so raw and
    normalized tables share it.  Binned bins are 1 percentage point wide.
    """
    schemes = [RankScheme(scheme) for scheme in schemes]
    if isinstance(samples, ReplicateStore):
        values = samples.replicates
        models = samples.source.models if models is None else models
        seed = samples.seed if seed is None else seed
        method = "bootstrap-percentile" if method is None else method
    else:
        values = np.asarray(samples, dtype=float)
        if values.ndim != 3:
            raise ValidationError("expected a samples x models x tasks array")
        if models is None:
            models = tuple(f"model_{i}" for i in range(values.shape[1]))
        seed = 0 if seed is None else seed
        method = "bhm-posterior-predictive" if method is None else method
    n_samples, n_models, n_tasks = values.shape
    if n_samples < 2:
        raise ValidationError("need at least 2 samples for rank intervals")
    if len(models) != n_models:
        raise ValidationError(f"{len(models)} names for {n_models} models")

    step = max(1, _BLOCK_CELLS // max(1, n_models * n_tasks))
    # Models x samples per scheme, so one quantile call along the last axis
    # gives every model's interval.
    ranks = {scheme: np.empty((n_models, n_samples)) for scheme in schemes}
    ws = _Workspace(min(n_samples, step) * n_models * max(1, n_tasks))
    gen = _rng.substream(seed, _rng.RANK_NOISE)
    n_zero = n_outside = 0
    for lo in range(0, n_samples, step):
        block = values[lo : lo + step]
        if normalizer is not None:
            block, outside = _clamped_scores(block, normalizer)
            n_outside += outside
        # Each scheme once per block, so the noise scheme draws its normals once.
        for scheme, scheme_ranks in ranks.items():
            block_ranks, zeros = _block_ranks(block, scheme, ws, gen)
            scheme_ranks[:, lo : lo + len(block)] = block_ranks.T
            n_zero += zeros
    if n_outside:
        _warn_caller(CLAMP_WARNING.format(n_outside))
    if n_zero:
        _warn_caller(
            f"{n_zero} (sample, model) pair(s) have a zero accuracy; their "
            "geometric mean is 0 and they rank last"
        )

    tables = {}
    for scheme, scheme_ranks in ranks.items():
        lower, upper = percentile_interval(scheme_ranks, level)
        tables[scheme.value] = [
            RankSummary(model, scheme, point, IntervalEstimate(
                point, float(low), float(high), level, method))
            for model, point, low, high in zip(
                models, (float(r.mean()) for r in scheme_ranks), lower, upper)
        ]
    return tables


def rank_intervals(
    samples,
    scheme: RankScheme | str,
    level: float = DISPLAY_LEVEL,
    seed: int | None = None,
    models=None,
    method: str | None = None,
    normalizer: NormalizationBounds | None = None,
) -> list[RankSummary]:
    """One scheme's rows of :func:`rank_tables`, warning for this function's caller."""
    scheme = RankScheme(scheme)
    tables = rank_tables(samples, (scheme,), level, seed, models, method, normalizer)
    return tables[scheme.value]
