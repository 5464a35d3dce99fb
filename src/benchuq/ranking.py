"""Rank-aggregation schemes over bootstrap replicates or any array of samples.

A caller who wants to rank posterior-predictive accuracies draws
Binomial(N_j, theta_ij) / N_j from ``PosteriorDraws.theta`` with a
generator of their own and passes the draws x models x tasks array.

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

A per-task scheme depends only on each task's order of the models, so it
is invariant under any increasing map of that task's scores.  The map to
normalized percentages is one: ``(x - low) / (high - low)``, clamping into
[0, 1], ``* 100`` and ``floor`` are each correctly rounded, hence
non-decreasing in IEEE arithmetic.  Three results follow.  Normalized
average-rank equals raw average-rank unless clamping merges values, as the
published raw and normalized average-rank columns agree.  Binned differs,
because its 1-point bins are cut on the normalized scale.  Noise differs,
because the noise is added after normalization.  :func:`rank_tables` uses
the same fact for speed: one sort of a block's raw values orders the
average-rank and binned keys of both sections, and tie groups are still
found from each column's own keys.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .bootstrap import DISPLAY_LEVEL, IntervalEstimate, ReplicateStore, summarize_draws
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


# The schemes that rank one aggregate per (sample, model); the others rank
# every task and average the ranks.
_PER_SAMPLE = (RankScheme.BY_AVERAGE, RankScheme.GEOMETRIC_MEAN)


@dataclass(frozen=True)
class RankSummary:
    """One model's aggregated rank: mean over samples plus an interval."""

    model: str
    scheme: RankScheme
    point: float
    interval: IntervalEstimate


class _Workspace:
    """Buffers for ranking blocks of up to ``cells`` values in rows of
    ``n_models``, reused block to block."""

    def __init__(self, cells: int, n_models: int):
        self.owner, self.source = np.empty((2, cells), dtype=np.intp)
        # Positions within a row and their differences, in the narrowest
        # signed type that holds them: the running maxima go at that width.
        self.scans = np.empty((4, cells), dtype=np.min_scalar_type(-n_models))
        self.breaks = np.empty(cells, dtype=bool)
        self.negated, self.sorted, self.keys, self.noise, self.accuracies = np.empty(
            (5, cells))


def _sort_order(values, ws):
    """Sort every (sample, task) row of a samples x models x tasks array.

    Each row runs from its largest value down.  Returns two
    models x rows arrays, rows in sample-major order: ``owner`` holds the
    (sample, model) pair s * M + m at each sorted slot, and ``source`` the
    flat index owner * T + t of that value in ``values``.
    """
    n_samples, n_models, n_tasks = values.shape
    size, rows = values.size, n_samples * n_tasks
    negated = ws.negated[:size].reshape(n_samples, n_tasks, n_models)
    order = np.negative(values.transpose(0, 2, 1), out=negated).argsort(axis=-1)
    row = np.arange(rows)
    owner = np.add(order.reshape(rows, n_models).T, row // n_tasks * n_models,
                   out=ws.owner[:size].reshape(n_models, rows))
    source = np.multiply(owner, n_tasks, out=ws.source[:size].reshape(n_models, rows))
    source += row % n_tasks
    return owner, source


def _sorted(values, source, ws):
    """``values`` at the sorted slots ``source`` of :func:`_sort_order`."""
    # Every index is in range; mode="clip" spares the copy of ``out`` that
    # take makes under its default mode.
    out = ws.sorted[: source.size].reshape(source.shape)
    return np.take(values.reshape(-1), source, out=out, mode="clip")


def _running_max(values, spare):
    """Running maximum down the first axis, by doubling: log2(len)
    whole-array maxima.  Uses up both arrays."""
    step = 1
    while step < len(values):
        spare[:step] = values[:step]
        np.maximum(values[step:], values[:-step], out=spare[step:])
        values, spare = spare, values
        step *= 2
    return values


def _rank_sums(keys, owner, n_tasks, ws):
    """Each (sample, model) pair's descending ranks summed over tasks, doubled.

    ``keys`` is models x rows, every row in the order of :func:`_sort_order`,
    and ``owner`` is that order's owner array; ``keys`` is used up.  Tied
    keys share the mean of their positions.  Divided by 2 * T, the flat
    samples * models result is ``scipy.stats.rankdata(-values,
    method="average", axis=1).mean(axis=2)`` bit for bit: ranks are
    half-integers, so the doubled sums are exact integers.
    """
    n_models, rows = keys.shape
    # Runs of equal keys down a column are tie groups.  A group at positions
    # first..last has the mean rank (first + last) / 2 + 1.  With breaks[k]
    # flagging that a group ends at k and the next starts at k + 1, the
    # running maximum of k * breaks[k - 1] down the column gives each slot's
    # first, and that of (M - 1 - k) * breaks[k] up the column M - 1 - last.
    breaks = ws.breaks[: keys.size - rows].reshape(n_models - 1, rows)
    np.not_equal(keys[1:], keys[:-1], out=breaks)
    scans = ws.scans[:, : keys.size].reshape(4, *keys.shape)
    position = np.arange(n_models, dtype=scans.dtype)[:, None]
    first, from_end = scans[0], scans[2]
    first[0] = from_end[-1] = 0
    np.multiply(position[1:], breaks, out=first[1:])
    np.multiply(position[:0:-1], breaks, out=from_end[:-1])
    first = _running_max(first, scans[1])
    from_end = _running_max(from_end[::-1], scans[3][::-1])[::-1]
    # A slot's doubled rank is first + last + 2 = (first - from_end) + M + 1.
    offsets = np.subtract(first, from_end, out=keys)
    sums = np.bincount(owner.reshape(-1), weights=offsets.reshape(-1),
                       minlength=keys.size // n_tasks)
    sums += n_tasks * (n_models + 1)
    return sums


def _geometric_mean(block):
    """Per-(sample, model) geometric means over tasks and the count of zeros."""
    has_zero = (block == 0.0).any(axis=2)
    with np.errstate(divide="ignore"):
        gm = np.exp(np.log(block).mean(axis=2))
    gm[has_zero] = 0.0
    return gm, int(has_zero.sum())


def _block_rank_sums(block, scored, schemes, noise, ws):
    """Doubled rank sums per (section, scheme) of one block.

    ``scored`` maps each section to the block's scores in it.  One sort of
    the raw values orders every section's average-rank and binned keys,
    which are non-decreasing maps of the raw value; the noise columns and
    the per-sample aggregates sort their own keys.  Also returns each
    section's count of (sample, model) pairs with a zero accuracy.
    """
    n_tasks = block.shape[2]
    sums, zeros = {}, dict.fromkeys(scored, 0)
    per_task = [scheme for scheme in (RankScheme.AVERAGE_RANK, RankScheme.AVERAGE_RANK_BINNED)
                if scheme in schemes]
    if per_task:
        owner, source = _sort_order(block, ws)
        keys = ws.keys[: block.size].reshape(source.shape)
        for section, scores in scored.items():
            ordered = _sorted(scores, source, ws)
            for scheme in per_task:
                percent = np.multiply(ordered, 100.0, out=keys)
                if scheme == RankScheme.AVERAGE_RANK_BINNED:
                    percent /= _BIN_WIDTH
                    np.floor(percent, out=percent)
                sums[section, scheme] = _rank_sums(percent, owner, n_tasks, ws)
    if noise is not None:
        for section, scores in scored.items():
            percent = np.multiply(scores, 100.0, out=ws.keys[: block.size].reshape(block.shape))
            percent += noise
            owner, source = _sort_order(percent, ws)
            sums[section, RankScheme.AVERAGE_RANK_NOISE] = _rank_sums(
                _sorted(percent, source, ws), owner, n_tasks, ws)
    for section, scores in scored.items():
        for scheme in _PER_SAMPLE:
            if scheme not in schemes:
                continue
            if scheme == RankScheme.BY_AVERAGE:
                aggregate = scores.mean(axis=2)
            else:
                aggregate, zeros[section] = _geometric_mean(scores)
            owner, source = _sort_order(aggregate[:, :, None], ws)
            sums[section, scheme] = _rank_sums(_sorted(aggregate, source, ws), owner, 1, ws)
    return sums, zeros


def _section_rank_sums(samples, schemes, sections, seed, normalizer):
    """Models x samples doubled rank sums per (section, scheme), in one pass
    over ``samples``: each block is normalized once and its noise drawn once
    for every section.  A ReplicateStore's blocks are divided out of its
    counts into the workspace; an array's blocks are views of it."""
    if isinstance(samples, ReplicateStore):
        values, sizes = samples.counts, samples.source.sizes
    else:
        values, sizes = samples, None
    n_samples, n_models, n_tasks = values.shape
    step = max(1, _BLOCK_CELLS // (n_models * n_tasks))
    ws = _Workspace(min(n_samples, step) * n_models * n_tasks, n_models)
    gen = _rng.substream(seed, _rng.RANK_NOISE)
    # Doubled rank sums are integers, exact in float32 below 2**24, which
    # holds ten tables in the memory of five float64 ones.
    dtype = np.float32 if 2 * n_models * n_tasks < 2**24 else np.float64
    doubled = {(section, scheme): np.empty((n_models, n_samples), dtype=dtype)
               for section in sections for scheme in schemes}
    n_zero = dict.fromkeys(sections, 0)
    n_outside = 0
    for lo in range(0, n_samples, step):
        block = values[lo : lo + step]
        if sizes is not None:
            block = np.divide(block, sizes,
                              out=ws.accuracies[: block.size].reshape(block.shape))
        scored = {}
        for section in sections:
            if section == "raw":
                scored[section] = block
            else:
                scored[section], outside = _clamped_scores(block, normalizer)
                n_outside += outside
        noise = None
        if RankScheme.AVERAGE_RANK_NOISE in schemes:
            noise = gen.standard_normal(out=ws.noise[: block.size].reshape(block.shape))
            noise *= _NOISE_SD
        sums, zeros = _block_rank_sums(block, scored, schemes, noise, ws)
        for key, block_sums in sums.items():
            doubled[key][:, lo : lo + len(block)] = block_sums.reshape(-1, n_models).T
        for section, count in zeros.items():
            n_zero[section] += count

    # stacklevel 4 names the caller of rank_tables or rank_intervals, the
    # public functions that reach this one through _rank_summaries.
    for section in sections:
        if section == "normalized" and n_outside:
            warnings.warn(CLAMP_WARNING.format(n_outside), stacklevel=4)
        if n_zero[section]:
            scale = " on the normalized scale" if section == "normalized" else ""
            warnings.warn(
                f"{n_zero[section]} (sample, model) pair(s) have a zero accuracy{scale}; "
                "their geometric mean is 0 and they rank last",
                stacklevel=4,
            )
    return doubled


def _rank_summaries(samples, schemes, sections, level, seed, models, method, normalizer):
    """``{section: {scheme value: [RankSummary per model]}}`` of ``sections``."""
    schemes = list(dict.fromkeys(RankScheme(scheme) for scheme in schemes))
    if isinstance(samples, ReplicateStore):
        values, shape = samples, samples.counts.shape
        models = samples.source.models if models is None else models
        seed = samples.seed if seed is None else seed
        method = "bootstrap-percentile" if method is None else method
    else:
        values = np.asarray(samples, dtype=float)
        if values.ndim != 3:
            raise ValidationError("expected a samples x models x tasks array")
        if np.isnan(values).any():  # a NaN rank would fail later, naming no cell
            cell = tuple(int(i) for i in np.argwhere(np.isnan(values))[0])
            raise ValidationError(f"(sample, model, task) {cell} is NaN")
        if models is None:
            models = tuple(f"model_{i}" for i in range(values.shape[1]))
        seed = 0 if seed is None else seed
        method = "bhm-posterior-predictive" if method is None else method
        shape = values.shape
    n_samples, n_models, n_tasks = shape
    if n_samples < 2:
        raise ValidationError("need at least 2 samples for rank intervals")
    if n_models == 0 or n_tasks == 0:
        raise ValidationError("need at least one model and one task to rank")
    if len(models) != n_models:
        raise ValidationError(f"{len(models)} names for {n_models} models")

    doubled = _section_rank_sums(values, schemes, sections, seed, normalizer)

    def summaries(section, scheme):
        # One division turns a doubled rank sum into the mean rank.
        ranks = np.divide(doubled.pop((section, scheme)),
                          2 * (1 if scheme in _PER_SAMPLE else n_tasks), dtype=float)
        return [RankSummary(model, scheme, estimate.point, estimate)
                for model, estimate in zip(models, summarize_draws(ranks, level, method))]

    return {section: {scheme.value: summaries(section, scheme) for scheme in schemes}
            for section in sections}


def rank_tables(
    samples,
    schemes,
    level: float = DISPLAY_LEVEL,
    seed: int | None = None,
    models=None,
    method: str | None = None,
    normalizer: NormalizationBounds | None = None,
) -> dict[str, dict[str, list[RankSummary]]]:
    """Apply each of ``schemes`` to every sample, raw and normalized, and
    summarize per model.

    Returns ``{"raw": {scheme value: [RankSummary per model]}}`` in scheme
    order, each model's ranks summarized by
    :func:`~benchuq.bootstrap.summarize_draws`; with ``normalizer`` a
    ``"normalized"`` section of the same shape follows, ranking scores put
    through :func:`~benchuq.normalize.normalize_scores` against those fixed
    bounds.  ``samples`` is a bootstrap ReplicateStore or a samples x models
    x tasks array (e.g. posterior-predictive accuracies — tagged
    accordingly).  One pass over the samples ranks both sections: each block
    is normalized once, one sort of its raw values orders the average-rank
    and binned keys of both, and one warning per call counts the values
    clamped into [0, 1].  The noise variant adds normal noise of sd 1
    percentage point: sample s of M x T cells takes normals
    [s*M*T, (s+1)*M*T) of the RANK_NOISE substream of ``seed`` (default: the
    store's seed, else 0) whatever the sample count, block size or other
    schemes, and both sections take the same normals.  Binned bins are 1
    percentage point wide.
    """
    sections = ("raw",) if normalizer is None else ("raw", "normalized")
    return _rank_summaries(samples, schemes, sections, level, seed, models, method, normalizer)


def rank_intervals(
    samples,
    scheme: RankScheme | str,
    level: float = DISPLAY_LEVEL,
    seed: int | None = None,
    models=None,
    method: str | None = None,
    normalizer: NormalizationBounds | None = None,
) -> list[RankSummary]:
    """One scheme's rows of :func:`rank_tables`: the normalized section's
    with ``normalizer``, else the raw one's; it ranks only that section."""
    scheme = RankScheme(scheme)
    section = "raw" if normalizer is None else "normalized"
    tables = _rank_summaries(samples, (scheme,), (section,), level, seed, models, method,
                             normalizer)
    return tables[section][scheme.value]
