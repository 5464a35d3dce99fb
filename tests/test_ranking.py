"""Rank scheme semantics: fractional ties, noise, binning, and intervals."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy.stats import rankdata

from benchuq import ranking as ranking_mod
from benchuq import rng as rng_mod
from benchuq.bootstrap import (
    DISPLAY_LEVEL,
    ReplicateStore,
    percentile_interval,
    run_bootstrap,
)
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import ValidationError
from benchuq.fixtures import load_vtab
from benchuq.normalize import (
    NormalizationBounds,
    _clamped_scores,
    estimate_bounds,
    normalize_scores,
)
from benchuq.ranking import RankScheme, rank_intervals, rank_tables


def small_table():
    tasks = (
        TaskSpec("t1", "natural", 200),
        TaskSpec("t2", "natural", 200),
        TaskSpec("t3", "structured", 400),
    )
    counts = np.array([[150, 160, 300], [140, 150, 280], [100, 90, 200]])
    return EvalTable(models=("A", "B", "C"), tasks=tasks, counts=counts)


def points(acc, scheme, **kw):
    """Rank points of two stacked copies of one accuracy matrix.

    Both copies rank alike (the noise scheme aside), so each point is that
    matrix's rank.
    """
    samples = np.stack([np.asarray(acc, dtype=float)] * 2)
    return [s.point for s in rank_intervals(samples, scheme, **kw)]


# ---------------------------------------------------------------- by average


def test_by_average_orders_by_mean():
    acc = np.array([[0.9, 0.5], [0.8, 0.7], [0.1, 0.2]])
    # means: 0.7, 0.75, 0.15 -> ranks 2, 1, 3
    assert points(acc, RankScheme.BY_AVERAGE) == [2.0, 1.0, 3.0]


def test_by_average_fractional_tie():
    acc = np.array([[0.6, 0.8], [0.8, 0.6], [0.5, 0.5]])
    # means: 0.7, 0.7, 0.5 -> the tied pair shares (1+2)/2
    assert points(acc, RankScheme.BY_AVERAGE) == [1.5, 1.5, 3.0]


# ---------------------------------------------------------- geometric mean


def test_geometric_mean_rewards_consistency():
    # Same arithmetic mean, different spread: GM prefers the even profile.
    acc = np.array([[0.5, 0.5], [0.9, 0.1]])
    assert points(acc, RankScheme.GEOMETRIC_MEAN) == [1.0, 2.0]


def test_geometric_mean_zero_ranks_last_and_warns():
    acc = np.array([[0.99, 0.0], [0.2, 0.2], [0.3, 0.0]])
    with pytest.warns(UserWarning, match="^4 .*zero accuracy"):
        ranks = points(acc, RankScheme.GEOMETRIC_MEAN)
    # Both zero-GM models tie behind the all-positive one.
    assert ranks == [2.5, 1.0, 2.5]


def test_geometric_mean_no_warning_when_positive():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points(np.array([[0.5, 0.6], [0.7, 0.8]]), RankScheme.GEOMETRIC_MEAN)


# ------------------------------------------------------------- average rank


def test_average_rank_enumeration():
    # A beats B on 3 of 4 tasks -> A (1+1+1+2)/4 = 1.25, B 1.75.
    acc = np.array([[0.9, 0.8, 0.7, 0.1], [0.8, 0.7, 0.6, 0.2]])
    assert points(acc, RankScheme.AVERAGE_RANK) == [1.25, 1.75]


def test_average_rank_per_task_rank_sum_preserved():
    acc = np.array([[0.6, 0.8], [0.8, 0.6], [0.5, 0.5], [0.6, 0.7]])
    per_task = rankdata(-acc, method="average", axis=0)
    expected = acc.shape[0] * (acc.shape[0] + 1) / 2
    assert np.allclose(per_task.sum(axis=0), expected)


def test_binned_groups_near_ties():
    # 67.2% and 67.9% share the floor bucket 67 -> both rank (1+2)/2 = 1.5.
    acc = np.array([[0.672], [0.679], [0.5]])
    ranks = points(acc, RankScheme.AVERAGE_RANK_BINNED)
    assert ranks == [1.5, 1.5, 3.0]


def test_binned_anchored_at_integer_multiples():
    # 66.9% vs 67.05%: distinct floor buckets even though only 0.15pp apart.
    acc = np.array([[0.669], [0.6705]])
    ranks = points(acc, RankScheme.AVERAGE_RANK_BINNED)
    assert ranks == [2.0, 1.0]


def test_noise_sd_zero_equals_plain_exactly(monkeypatch):
    monkeypatch.setattr(ranking_mod, "_NOISE_SD", 0.0)
    acc = np.random.default_rng(0).uniform(0.2, 0.9, size=(5, 7))
    samples = np.stack([acc] * 4)
    noisy = rank_intervals(samples, RankScheme.AVERAGE_RANK_NOISE, seed=3)
    plain = rank_intervals(samples, RankScheme.AVERAGE_RANK)
    assert [s.interval for s in noisy] == [s.interval for s in plain]


def test_noise_can_split_exact_ties():
    acc = np.full((2, 3), 0.5)
    plain = rank_intervals(np.stack([acc] * 20), RankScheme.AVERAGE_RANK)
    assert all((s.interval.lower, s.interval.upper) == (1.5, 1.5) for s in plain)
    noisy = rank_intervals(np.stack([acc] * 20), RankScheme.AVERAGE_RANK_NOISE, seed=11)
    # Continuous noise gives each of the 3 tasks a strict winner, so a
    # sample's mean rank is a multiple of 1/3 and never the tied 1.5.
    assert all(s.interval.lower < s.interval.upper for s in noisy)
    assert sum(s.point for s in noisy) == pytest.approx(3.0)  # rank sum 1+2


@given(
    npst.arrays(
        np.float64,
        st.tuples(st.integers(2, 6), st.integers(1, 5)),
        elements=st.integers(0, 1000).map(lambda k: k / 1000.0),
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_mean_invariant(acc):
    # Mean of average ranks equals (M+1)/2 for every variant: ranks are a
    # permutation-with-ties of 1..M in each task column.
    m = acc.shape[0]
    expected = (m + 1) / 2
    for scheme in (RankScheme.AVERAGE_RANK, RankScheme.AVERAGE_RANK_BINNED,
                   RankScheme.AVERAGE_RANK_NOISE):
        assert np.mean(points(acc, scheme)) == pytest.approx(expected)


@given(
    npst.arrays(
        np.float64,
        st.tuples(st.integers(2, 5), st.integers(1, 4)),
        elements=st.integers(1, 999).map(lambda k: k / 1000.0),
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_binned_converges_to_plain_for_tiny_bins(acc):
    # With all-distinct accuracies a fine enough bin separates every pair.
    plain = points(acc, RankScheme.AVERAGE_RANK)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranking_mod, "_BIN_WIDTH", 1e-7)
        binned = points(acc, RankScheme.AVERAGE_RANK_BINNED)
    assert plain == binned
# ------------------------------------------------------------ rank intervals


@pytest.fixture(scope="module")
def store():
    return run_bootstrap(small_table(), B=400, seed=5)


def test_rank_intervals_store_basics(store):
    summaries = rank_intervals(store, RankScheme.BY_AVERAGE)
    assert [s.model for s in summaries] == ["A", "B", "C"]
    for s in summaries:
        # Ranks are discrete, so the mean can sit outside the percentile
        # band (e.g. point 1.0075 with band [1, 1]); only bounds are ordered.
        assert 1.0 <= s.interval.lower <= s.interval.upper <= 3.0
        assert 1.0 <= s.point <= 3.0
        assert s.interval.method == "bootstrap-percentile"
        assert s.interval.level == pytest.approx(0.834)
        assert s.scheme == RankScheme.BY_AVERAGE
    # C is far behind on every task: its rank should be pinned at 3.
    assert summaries[2].point == pytest.approx(3.0)
    assert summaries[2].interval.lower == pytest.approx(3.0)


def test_rank_intervals_accepts_scheme_strings(store):
    by_name = rank_intervals(store, "average-rank-binned")
    by_enum = rank_intervals(store, RankScheme.AVERAGE_RANK_BINNED)
    assert [s.point for s in by_name] == [s.point for s in by_enum]


def test_rank_intervals_points_average_the_sample_ranks(store):
    summaries = rank_intervals(store, RankScheme.AVERAGE_RANK)
    ranks = _reference_ranks(store.replicates, RankScheme.AVERAGE_RANK, store.seed)
    for i, s in enumerate(summaries):
        assert s.point == pytest.approx(ranks[:, i].mean())


def test_rank_intervals_raw_array_tagged_predictive():
    samples = np.random.default_rng(1).uniform(0.1, 0.9, size=(50, 3, 2))
    summaries = rank_intervals(samples, RankScheme.BY_AVERAGE, models=("x", "y", "z"))
    assert [s.model for s in summaries] == ["x", "y", "z"]
    assert all(s.interval.method == "bhm-posterior-predictive" for s in summaries)


def test_rank_intervals_noise_reproducible_and_seed_sensitive(store):
    a = rank_intervals(store, RankScheme.AVERAGE_RANK_NOISE)
    b = rank_intervals(store, RankScheme.AVERAGE_RANK_NOISE)
    assert [s.point for s in a] == [s.point for s in b]
    c = rank_intervals(store, RankScheme.AVERAGE_RANK_NOISE, seed=999)
    assert [s.point for s in a] != [s.point for s in c]


def test_rank_intervals_noise_is_one_stream_in_sample_order(store, monkeypatch):
    # Sample s takes normals [s*M*T, (s+1)*M*T) of substream(seed,
    # RANK_NOISE), so the first k samples of a store rank as a k-sample
    # array does, and blocks of 7 samples (400 = 57 * 7 + 1) change nothing.
    noise, k = RankScheme.AVERAGE_RANK_NOISE, 123
    ranks = _reference_ranks(store.replicates, noise, store.seed)
    whole = rank_intervals(store, noise)
    prefix = rank_intervals(store.replicates[:k], noise, seed=store.seed)
    assert _summary_rows(whole) == _reference_rows(ranks)
    assert _summary_rows(prefix) == _reference_rows(ranks[:k])
    monkeypatch.setattr(ranking_mod, "_BLOCK_CELLS", 7 * store.replicates[0].size)
    assert rank_intervals(store, noise) == whole


def test_rank_intervals_validation(store):
    with pytest.raises(ValueError):
        rank_intervals(store, "not-a-scheme")
    with pytest.raises(ValidationError, match="samples x models x tasks"):
        rank_intervals(np.zeros((4, 3)), RankScheme.BY_AVERAGE)
    with pytest.raises(ValidationError, match="at least 2 samples"):
        rank_intervals(np.zeros((1, 2, 2)), RankScheme.BY_AVERAGE)
    with pytest.raises(ValidationError, match="names"):
        rank_intervals(
            np.zeros((3, 2, 2)), RankScheme.BY_AVERAGE, models=("only-one",)
        )
    nan_cell = np.zeros((3, 2, 2))
    nan_cell[1, 0, 1] = np.nan
    with pytest.raises(ValidationError, match=r"\(sample, model, task\) \(1, 0, 1\) is NaN"):
        rank_intervals(nan_cell, RankScheme.AVERAGE_RANK)


def test_rank_intervals_geometric_mean_orders_like_average_when_flat(store):
    # On this table each model is uniformly better/worse, so GM and mean agree.
    gm = rank_intervals(store, RankScheme.GEOMETRIC_MEAN)
    avg = rank_intervals(store, RankScheme.BY_AVERAGE)
    assert [round(s.point) for s in gm] == [round(s.point) for s in avg]


def test_store_seed_is_default_noise_seed(small=small_table):
    table = small()
    store = run_bootstrap(table, B=60, seed=21)
    explicit = rank_intervals(store, RankScheme.AVERAGE_RANK_NOISE, seed=21)
    implicit = rank_intervals(store, RankScheme.AVERAGE_RANK_NOISE)
    assert [s.point for s in explicit] == [s.point for s in implicit]


# ------------------------------------------ block path against the oracle


_SMALL_ARRAYS = npst.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 5)),
    elements=st.integers(0, 3).map(lambda k: k / 3.0),
)


def _clamped_percent(values):
    # Bounds inside the values' range, so clamping merges distinct values.
    tasks = tuple(f"t{j}" for j in range(values.shape[-1]))
    bounds = NormalizationBounds(tasks, np.full(len(tasks), 1 / 3), np.full(len(tasks), 2 / 3))
    return _clamped_scores(values, bounds)[0] * 100.0


# Non-decreasing maps of a value: ranking their images in the value's order
# must give each image's own ranks.
_KEY_MAPS = {
    "values": lambda values: values,
    "binned": lambda values: np.floor(values * 100.0 / ranking_mod._BIN_WIDTH),
    "clamped": _clamped_percent,
}


@given(_SMALL_ARRAYS, _SMALL_ARRAYS, st.sampled_from(sorted(_KEY_MAPS)))
@settings(max_examples=150, deadline=None)
def test_descending_ranks_equal_rankdata(first, second, key_map):
    # Few distinct values, so most rows hold ties; shapes include a single
    # sample, a single model and a single task.  Both arrays go through one
    # workspace sized for the larger, so a tie edge that one call leaves
    # behind would corrupt the other.
    # Each array is sorted once by its own values and the keys ranked are
    # an image of them, as the average-rank and binned columns are ranked.
    assume(first.shape != second.shape)
    ws = ranking_mod._Workspace(max(first.size, second.size),
                                max(first.shape[1], second.shape[1]))
    for values in (first, second):
        keys = _KEY_MAPS[key_map](values)
        owner, source = ranking_mod._sort_order(values, ws)
        sums = ranking_mod._rank_sums(ranking_mod._sorted(keys, source, ws), owner,
                                      values.shape[2], ws)
        expected = rankdata(-keys, method="average", axis=1).mean(axis=2)
        ranks = sums.reshape(expected.shape) / (2 * values.shape[2])
        assert np.array_equal(ranks, expected)


def _reference_ranks(values, scheme, seed, noise_sd=1.0, bin_width=1.0):
    """Sample-by-sample ranks with scipy's rankdata, as the loop computed them.

    The noise scheme draws each sample's normals in turn from one RANK_NOISE
    substream of ``seed``.
    """
    scheme = RankScheme(scheme)
    ranks = np.empty(values.shape[:2])
    gen = rng_mod.substream(seed, rng_mod.RANK_NOISE)
    for s, acc in enumerate(values):
        if scheme == RankScheme.BY_AVERAGE:
            ranks[s] = rankdata(-acc.mean(axis=1), method="average")
            continue
        if scheme == RankScheme.GEOMETRIC_MEAN:
            has_zero = (acc == 0.0).any(axis=1)
            gm = np.zeros(acc.shape[0])
            gm[~has_zero] = np.exp(np.log(acc[~has_zero]).mean(axis=1))
            ranks[s] = rankdata(-gm, method="average")
            continue
        percent = acc * 100.0
        if scheme == RankScheme.AVERAGE_RANK_NOISE:
            percent = percent + gen.normal(0.0, noise_sd, size=percent.shape)
        elif scheme == RankScheme.AVERAGE_RANK_BINNED:
            percent = np.floor(percent / bin_width)
        ranks[s] = rankdata(-percent, method="average", axis=0).mean(axis=1)
    return ranks


def _summary_rows(summaries):
    return [(s.point, s.interval.lower, s.interval.upper) for s in summaries]


def _reference_rows(ranks):
    return [
        (float(ranks[:, i].mean()), *percentile_interval(ranks[:, i], DISPLAY_LEVEL))
        for i in range(ranks.shape[1])
    ]


def test_rank_intervals_equal_per_sample_reference_across_blocks():
    # 40 models x 30 tasks: the block holds fewer samples than the store, and
    # the sample count is not a multiple of it, so full blocks and a partial
    # one are all ranked.  Counts of 0-4 out of 4 give ties and zeros.
    n_models, n_tasks = 40, 30
    step = max(1, ranking_mod._BLOCK_CELLS // (n_models * n_tasks))
    n_samples = 2 * step + step // 3 + 1
    assert n_samples % step != 0
    gen = np.random.default_rng(8)
    tasks = tuple(TaskSpec(f"t{j}", "c", 4) for j in range(n_tasks))
    table = EvalTable(
        models=tuple(f"m{i}" for i in range(n_models)),
        tasks=tasks,
        counts=gen.integers(0, 5, size=(n_models, n_tasks)),
    )
    store = run_bootstrap(table, B=n_samples, seed=3)
    bounds = estimate_bounds(store)
    normalized = normalize_scores(store.replicates, bounds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        # All five schemes of both sections in one pass, each block
        # normalized once.
        tables = rank_tables(store, RankScheme, normalizer=bounds)
    raw_tables, norm_tables = tables["raw"], tables["normalized"]
    assert list(tables) == ["raw", "normalized"]
    assert list(raw_tables) == list(norm_tables) == [s.value for s in RankScheme]
    for scheme in RankScheme:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            raw = rank_intervals(store, scheme)
            norm = rank_intervals(normalized, scheme, seed=store.seed)
            # Normalizing block by block ranks the same values bit for bit.
            fused = rank_intervals(store.replicates, scheme, seed=store.seed,
                                   normalizer=bounds)
        expected_raw = _reference_rows(_reference_ranks(store.replicates, scheme, 3))
        expected_norm = _reference_rows(_reference_ranks(normalized, scheme, 3))
        assert _summary_rows(raw) == expected_raw, scheme
        assert _summary_rows(norm) == expected_norm, scheme
        assert fused == norm, scheme
        assert raw_tables[scheme.value] == raw, scheme
        assert _summary_rows(norm_tables[scheme.value]) == expected_norm, scheme


def test_rank_intervals_geometric_mean_zero_cells_warn_once():
    gen = np.random.default_rng(2)
    samples = gen.uniform(0.2, 0.9, size=(30, 4, 3))
    samples[:5, 0, 1] = 0.0  # model 0 has a zero in samples 0-4
    samples[3, 2, :] = 0.0  # model 2 in sample 3
    with pytest.warns(UserWarning, match="zero accuracy") as record:
        summaries = rank_intervals(samples, RankScheme.GEOMETRIC_MEAN)
    zero_warnings = [w for w in record if "zero accuracy" in str(w.message)]
    assert len(zero_warnings) == 1
    assert str(zero_warnings[0].message).startswith("6 (sample, model) pair(s)")
    ranks = _reference_ranks(samples, RankScheme.GEOMETRIC_MEAN, 0)
    assert _summary_rows(summaries) == _reference_rows(ranks)
    assert ranks[0, 0] == 4.0 and ranks[3, 0] == ranks[3, 2] == 3.5


def test_rank_intervals_clamp_warning_counts_every_block_once():
    # Bounds from a small store clamp values of a larger one in each of its
    # ten blocks; the call warns once, for the caller, with the whole count.
    table = load_vtab()
    bounds = estimate_bounds(run_bootstrap(table, B=50, seed=1))
    store = run_bootstrap(table, B=2000, seed=2)
    assert len(store.replicates) > 2 * (ranking_mod._BLOCK_CELLS // store.replicates[0].size)
    with pytest.warns(UserWarning, match="clamped") as whole:
        normalize_scores(store.replicates, bounds)
    with pytest.warns(UserWarning, match="clamped") as record:
        rank_intervals(store.replicates, RankScheme.BY_AVERAGE, normalizer=bounds)
    assert len(record) == 1
    assert str(record[0].message) == str(whole[0].message)
    assert record[0].filename == __file__
    # Five schemes over the same blocks still clamp, and warn, once.
    with pytest.warns(UserWarning, match="clamped") as record:
        rank_tables(store, RankScheme, normalizer=bounds)
    clamp_warnings = [w for w in record if "clamped" in str(w.message)]
    assert len(clamp_warnings) == 1
    assert str(clamp_warnings[0].message) == str(whole[0].message)
    assert clamp_warnings[0].filename == __file__


def test_rank_tables_with_clamped_bounds_equal_per_sample_reference():
    # Bounds from a small store clamp values of a larger one in each of its
    # three blocks.  Clamping merges values into ties the raw values lack,
    # yet one sort of the raw values still orders every normalized column.
    table = load_vtab()
    bounds = estimate_bounds(run_bootstrap(table, B=50, seed=1))
    store = run_bootstrap(table, B=500, seed=2)
    assert len(store.replicates) > 2 * (ranking_mod._BLOCK_CELLS // store.replicates[0].size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        normalized = normalize_scores(store.replicates, bounds)
        tables = rank_tables(store, RankScheme, normalizer=bounds)
    plain = RankScheme.AVERAGE_RANK
    assert not np.array_equal(_reference_ranks(normalized, plain, store.seed),
                              _reference_ranks(store.replicates, plain, store.seed))
    for scheme in RankScheme:
        expected = _reference_rows(_reference_ranks(normalized, scheme, store.seed))
        assert _summary_rows(tables["normalized"][scheme.value]) == expected, scheme
