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
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .bootstrap import DISPLAY_LEVEL, IntervalEstimate, ReplicateStore, percentile_interval
from .errors import ValidationError
from .normalize import NormalizationBounds, normalize_scores

__all__ = [
    "RankScheme",
    "RankSummary",
    "rank_intervals",
]

# rank_intervals ranks this many (sample, model, task) cells at a time.  It
# bounds the rank temporaries at any sample count, and at 512 KiB each they
# stay in cache: on a 64 x 57 table, blocks of 2**18 cells ranked at half
# the speed.
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


def _descending_ranks(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Fractional ranks along ``axis`` with 1 = largest value.

    Tied values share the mean of their positions.  A slice holding a NaN
    ranks NaN throughout.  This matches ``scipy.stats.rankdata(-values,
    method="average", axis=axis)`` exactly.
    """
    x = np.negative(np.moveaxis(np.asarray(values, dtype=float), axis, -1), order="C")
    if x.size == 0:
        return np.moveaxis(x, -1, axis)
    n = x.shape[-1]
    order = np.argsort(x, axis=-1)
    ordered = np.sort(x, axis=-1)
    # Runs of equal values in a sorted slice are tie groups.  A group that
    # starts at flat position p and holds c values has the mean rank
    # p + (c + 1) / 2, less the flat position where its slice starts.
    flat = ordered.ravel()
    first = np.empty(flat.size, dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    first[::n] = True
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=flat.size)
    mean_rank = np.repeat(starts + (counts + 1) / 2.0, counts).reshape(x.shape)
    mean_rank -= np.arange(0, x.size, n).reshape(*x.shape[:-1], 1)
    mean_rank[np.isnan(ordered[..., -1])] = np.nan  # NaN sorts last
    ranks = np.empty_like(mean_rank)
    np.put_along_axis(ranks, order, mean_rank, axis=-1)
    return np.moveaxis(ranks, -1, axis)


def _block_ranks(block, scheme, noise=None):
    """Per-sample ranks of a samples x models x tasks block.

    Returns the samples x models ranks and the number of (sample, model)
    pairs with a zero accuracy, which only the geometric mean counts.
    ``noise`` holds the percentage-point noise of the noise variant.
    """
    if scheme == RankScheme.BY_AVERAGE:
        return _descending_ranks(block.mean(axis=2)), 0
    if scheme == RankScheme.GEOMETRIC_MEAN:
        has_zero = (block == 0.0).any(axis=2)
        with np.errstate(divide="ignore"):
            gm = np.exp(np.log(block).mean(axis=2))
        gm[has_zero] = 0.0
        return _descending_ranks(gm), int(has_zero.sum())
    percent = block * 100.0
    if scheme == RankScheme.AVERAGE_RANK_NOISE:
        percent += noise
    elif scheme == RankScheme.AVERAGE_RANK_BINNED:
        percent /= _BIN_WIDTH
        np.floor(percent, out=percent)
    return _descending_ranks(percent, axis=1).mean(axis=2), 0


def rank_intervals(
    samples,
    scheme: RankScheme | str,
    level: float = DISPLAY_LEVEL,
    seed: int | None = None,
    models=None,
    method: str | None = None,
    normalizer: NormalizationBounds | None = None,
) -> list[RankSummary]:
    """Apply a rank scheme to every sample and summarize per model.

    ``samples`` is a bootstrap ReplicateStore or a samples x models x tasks
    array (e.g. posterior-predictive accuracies — tagged accordingly).  With
    ``normalizer``, each block of samples goes through
    :func:`~benchuq.normalize.normalize_scores` against those fixed bounds
    just before it is ranked, so the ranks equal those of the normalized
    samples without a normalized copy of them.  The noise variant adds
    normal noise of sd 1 percentage point, drawn fresh per sample from the
    RANK_NOISE substream of ``seed`` (default: the store's seed, else 0)
    keyed by sample index, so results do not depend on evaluation order.
    The binned variant uses bins 1 percentage point wide.
    """
    scheme = RankScheme(scheme)
    if isinstance(samples, ReplicateStore):
        values = samples.replicates
        if models is None:
            models = samples.source.models
        if seed is None:
            seed = samples.seed
        if method is None:
            method = "bootstrap-percentile"
    else:
        values = np.asarray(samples, dtype=float)
        if values.ndim != 3:
            raise ValidationError("expected a samples x models x tasks array")
        if models is None:
            models = tuple(f"model_{i}" for i in range(values.shape[1]))
        if seed is None:
            seed = 0
        if method is None:
            method = "bhm-posterior-predictive"
    n_samples, n_models, n_tasks = values.shape
    if n_samples < 2:
        raise ValidationError("need at least 2 samples for rank intervals")
    if len(models) != n_models:
        raise ValidationError(f"{len(models)} names for {n_models} models")

    step = max(1, _BLOCK_CELLS // max(1, n_models * n_tasks))
    # Models x samples, so one quantile call along the last axis gives every
    # model's interval.
    ranks = np.empty((n_models, n_samples))
    n_zero = 0
    for lo in range(0, n_samples, step):
        block = values[lo : lo + step]
        if normalizer is not None:
            block = normalize_scores(block, normalizer)
        noise = None
        if scheme == RankScheme.AVERAGE_RANK_NOISE:
            noise = np.stack([
                _rng.substream(seed, _rng.RANK_NOISE, s).normal(
                    0.0, _NOISE_SD, size=(n_models, n_tasks)
                )
                for s in range(lo, lo + len(block))
            ])
        block_ranks, zeros = _block_ranks(block, scheme, noise)
        ranks[:, lo : lo + len(block)] = block_ranks.T
        n_zero += zeros
    if n_zero:
        warnings.warn(
            f"{n_zero} (sample, model) pair(s) have a zero accuracy; their "
            "geometric mean is 0 and they rank last",
            stacklevel=2,
        )

    lower, upper = percentile_interval(ranks, level)
    out = []
    for i, model in enumerate(models):
        interval = IntervalEstimate(
            point=float(ranks[i].mean()),
            lower=float(lower[i]),
            upper=float(upper[i]),
            level=level,
            method=method,
        )
        out.append(
            RankSummary(
                model=model, scheme=scheme, point=interval.point, interval=interval
            )
        )
    return out
