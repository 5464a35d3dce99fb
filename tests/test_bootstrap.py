import math
import tracemalloc

import numpy as np
import pytest

from benchuq import bootstrap
from benchuq import rng as rng_mod
from benchuq.bootstrap import (
    IntervalEstimate,
    ReplicateStore,
    aggregate_interval,
    bootstrap_bounds,
    pairwise_difference_intervals,
    percentile_interval,
    run_bootstrap,
)
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import CapacityError, ValidationError
from benchuq.normalize import estimate_bounds
from benchuq.weighting import UNWEIGHTED, WeightVector, weighted_variance


def table_of(counts, sizes, categories=None):
    counts = np.atleast_2d(np.asarray(counts))
    categories = categories or ["c"] * len(sizes)
    tasks = tuple(
        TaskSpec(f"t{j}", categories[j], n) for j, n in enumerate(sizes)
    )
    models = tuple(chr(ord("A") + i) for i in range(counts.shape[0]))
    return EvalTable(models=models, tasks=tasks, counts=counts)


def sim_study_table():
    # Two models on three tasks: (100 vs 115 of 200), then two huge ties.
    return table_of(
        [[100, 5000, 10000], [115, 5000, 10000]], [200, 10000, 20000]
    )


def quantile_type7(values, p):
    # Independent re-implementation of inclusive linear interpolation.
    s = sorted(values)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


class TestIntervalEstimate:
    def test_bounds_order_enforced(self):
        with pytest.raises(ValidationError, match="out of order"):
            IntervalEstimate(0.5, 0.6, 0.4, 0.95, "bootstrap-percentile")

    def test_level_range_enforced(self):
        with pytest.raises(ValidationError, match="level"):
            IntervalEstimate(0.5, 0.4, 0.6, 1.0, "bootstrap-percentile")

    def test_method_tag_enforced(self):
        with pytest.raises(ValidationError, match="method"):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "jackknife")


class TestDrawReplicate:
    def test_zero_count_stays_zero(self):
        table = table_of([[0, 50]], [100, 100])
        replicates = run_bootstrap(table, B=20, seed=1).replicates
        assert np.all(replicates[:, 0, 0] == 0.0)

    def test_full_count_stays_one(self):
        table = table_of([[100, 50]], [100, 100])
        replicates = run_bootstrap(table, B=20, seed=1).replicates
        assert np.all(replicates[:, 0, 0] == 1.0)

    def test_replicate_is_pure_function_of_inputs(self):
        # Replicate 7 depends on (table, seed, 7) only, not on the store's B.
        table = sim_study_table()
        short = run_bootstrap(table, B=8, seed=42).replicates
        long = run_bootstrap(table, B=20, seed=42).replicates
        assert np.array_equal(short[7], long[7])
        assert not np.array_equal(long[7], long[8])
        other_seed = run_bootstrap(table, B=8, seed=43).replicates
        assert not np.array_equal(short[7], other_seed[7])

    def test_replicates_do_not_depend_on_block_boundaries(self):
        # Blocks hold 64 replicates.  B = 65 and B = 130 cut their last
        # block after one and two replicates, and replicates 63 and 64 sit
        # on either side of the first boundary.
        table = sim_study_table()
        stores = [run_bootstrap(table, B=B, seed=42).replicates for B in (65, 130, 200)]
        assert np.array_equal(stores[0], stores[2][:65])
        assert np.array_equal(stores[1], stores[2][:130])
        assert not np.array_equal(stores[2][63], stores[2][64])

    def test_moments_match_binomial_oracle(self):
        # Y=100 of N=200: mean 0.5, variance 0.5*0.5/200 = 0.00125.
        table = table_of([[100]], [200])
        store = run_bootstrap(table, B=100_000, seed=5)
        accs = store.replicates[:, 0, 0]
        assert abs(accs.mean() - 0.5) < 0.002
        assert abs(accs.var() - 0.00125) < 0.1 * 0.00125


class TestRunBootstrap:
    def test_single_replicate_equals_draw_replicate(self):
        # Replicates 0-63 are block 0: one binomial call on the substream
        # keyed on (seed, BOOTSTRAP, 0), drawn cell-major (the 64 draws of
        # each cell in turn, cells in row-major order).
        table = sim_study_table()
        store = run_bootstrap(table, B=64, seed=9)
        gen = rng_mod.substream(9, rng_mod.BOOTSTRAP, 0)
        sizes = table.sizes[:, None]
        p_hat = (table.counts / table.sizes[None, :])[..., None]
        draws = gen.binomial(sizes, p_hat, size=(2, 3, 64))
        expected = (draws / sizes).transpose(2, 0, 1)
        assert np.array_equal(store.replicates, expected)

    def test_same_seed_rerun_is_identical(self):
        table = sim_study_table()
        first = run_bootstrap(table, B=1000, seed=11)
        again = run_bootstrap(table, B=1000, seed=11)
        assert np.array_equal(first.replicates, again.replicates)

    def test_replicate_means_track_observed_accuracies(self):
        table = sim_study_table()
        store = run_bootstrap(table, B=10_000, seed=2)
        observed = table.counts / table.sizes[None, :]
        assert np.all(np.abs(store.replicates.mean(axis=0) - observed) < 0.003)

    def test_capacity_error_reports_sizes(self, monkeypatch):
        monkeypatch.setattr(bootstrap, "_available_bytes", lambda: 1024)
        table = sim_study_table()
        with pytest.raises(CapacityError) as err:
            run_bootstrap(table, B=10_000, seed=0)
        assert err.value.requested_bytes == 10_000 * 2 * 3 * 2  # uint16 counts
        assert err.value.available_bytes == 1024

    @pytest.mark.parametrize(
        "meminfo, free, limit, expected",
        [
            (8000, 3000, None, 8000),  # MemAvailable, not the free pages
            (8000, 3000, 5000, 5000),  # capped by the cgroup limit
            (None, 3000, 5000, 3000),  # falls back to the free pages
            (None, None, 5000, None),  # neither memory figure readable
        ],
    )
    def test_available_bytes_sources(self, monkeypatch, meminfo, free, limit, expected):
        monkeypatch.setattr(bootstrap, "_meminfo_available", lambda: meminfo)
        monkeypatch.setattr(bootstrap, "_free_bytes", lambda: free)
        monkeypatch.setattr(bootstrap, "_cgroup_limit", lambda: limit)
        assert bootstrap._available_bytes() == expected

    def test_memory_readers_parse_the_kernel_files(self, monkeypatch, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal: 16 kB\nMemFree: 2 kB\nMemAvailable: 7 kB\n")
        limit = tmp_path / "memory.max"
        monkeypatch.setattr(bootstrap, "_MEMINFO", meminfo)
        monkeypatch.setattr(bootstrap, "_CGROUP_MEMORY_MAX", limit)
        monkeypatch.setattr(bootstrap, "_CGROUP_V1_LIMIT", tmp_path / "absent")
        assert bootstrap._meminfo_available() == 7 * 1024
        assert bootstrap._cgroup_limit() is None  # no such file
        limit.write_text("max\n")
        assert bootstrap._cgroup_limit() is None
        limit.write_text("4096\n")
        assert bootstrap._cgroup_limit() == 4096
        meminfo.write_text("MemTotal: 16 kB\n")
        assert bootstrap._meminfo_available() is None

    def test_cgroup_v1_limit_read_when_v2_file_is_absent(self, monkeypatch, tmp_path):
        v2 = tmp_path / "memory.max"
        v1 = tmp_path / "memory.limit_in_bytes"
        monkeypatch.setattr(bootstrap, "_CGROUP_MEMORY_MAX", v2)
        monkeypatch.setattr(bootstrap, "_CGROUP_V1_LIMIT", v1)
        v1.write_text("8192\n")
        assert bootstrap._cgroup_limit() == 8192
        v1.write_text("junk\n")
        assert bootstrap._cgroup_limit() is None
        # The v2 file wins when both exist, "max" included.
        v1.write_text("8192\n")
        v2.write_text("max\n")
        assert bootstrap._cgroup_limit() is None
        v2.write_text("4096\n")
        assert bootstrap._cgroup_limit() == 4096

    def test_peak_memory_is_the_store_plus_two_blocks(self):
        # One block's int64 draws on a 64 x 57 table are 1.9 MiB; a larger
        # block would raise the peak of every wide run.
        gen = np.random.default_rng(3)
        sizes = gen.integers(100, 50_000, size=57)
        counts = gen.binomial(sizes, gen.uniform(0.2, 0.95, size=(64, 57)))
        table = EvalTable(
            models=tuple(f"m{i}" for i in range(64)),
            tasks=tuple(TaskSpec(f"t{j}", "c", int(n)) for j, n in enumerate(sizes)),
            counts=counts,
        )
        tracemalloc.start()
        try:
            store = run_bootstrap(table, B=1_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 64 * 64 * 57 * 8
        assert peak <= store.counts.nbytes + 2 * block

    def test_invalid_b_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            run_bootstrap(sim_study_table(), B=0)
        with pytest.raises(ValidationError, match=">= 1"):
            bootstrap_bounds(sim_study_table(), B=0)

    def test_streamed_bounds_equal_the_store_bounds(self):
        # B = 130 cuts the third block; no store is built for the bounds.
        table = table_of([[60, 150, 20], [70, 140, 30]], [100, 200, 50])
        expected = estimate_bounds(run_bootstrap(table, B=130, seed=6))
        bounds = bootstrap_bounds(table, B=130, seed=6)
        assert bounds.tasks == expected.tasks
        assert np.array_equal(bounds.low, expected.low)
        assert np.array_equal(bounds.high, expected.high)

    def test_store_rejects_out_of_range_accuracies(self):
        # Accuracies outside [0, 1] are counts outside [0, N_j].
        table = sim_study_table()
        for value in (201, -1):
            with pytest.raises(ValidationError, match=rf"'t0': counts span \[{value}, "
                                                      rf"{value}\], outside \[0, N=200\]"):
                ReplicateStore(counts=np.full((1, 2, 3), value), seed=0, source=table)

    @pytest.mark.parametrize(
        "counts, match",
        [
            (np.full((1, 2, 3), 0.5), "integers"),
            (np.full((1, 2, 3), np.nan), "integers"),
            (np.zeros((2, 3), dtype=int), "3-D"),
            (np.zeros((1, 3, 2), dtype=int), r"shape \(B, 2, 3\), got shape \(1, 3, 2\)"),
        ],
    )
    def test_store_rejects_counts_that_are_not_integer_cells(self, counts, match):
        with pytest.raises(ValidationError, match=match):
            ReplicateStore(counts=counts, seed=0, source=sim_study_table())

    @pytest.mark.parametrize(
        "sizes, dtype",
        [([200, 255], np.uint8), ([200, 10_000, 20_000], np.uint16),
         ([200, 65_536], np.uint32)],
    )
    def test_store_counts_take_the_narrowest_unsigned_type(self, sizes, dtype):
        table = table_of([[n // 2 for n in sizes]], sizes)
        store = run_bootstrap(table, B=3, seed=0)
        assert store.counts.dtype == dtype
        # Counts given in a wider type are narrowed the same way.
        wide = ReplicateStore(counts=store.counts.astype(np.int64), seed=0, source=table)
        assert wide.counts.dtype == dtype

    def test_replicates_equal_the_accuracies_drawn_directly(self):
        # B = 130 cuts the third block after two replicates.  The reference
        # divides each block's draws by N_j, as a float64 store was filled.
        table = sim_study_table()
        store = run_bootstrap(table, B=130, seed=4)
        sizes = table.sizes[:, None]
        p_hat = (table.counts / table.sizes[None, :])[..., None]
        blocks = [
            rng_mod.substream(4, rng_mod.BOOTSTRAP, b).binomial(sizes, p_hat, size=(2, 3, 64))
            / sizes
            for b in range(3)
        ]
        expected = np.concatenate(blocks, axis=2).transpose(2, 0, 1)[:130]
        replicates = store.replicates
        assert replicates.dtype == np.float64 and not replicates.flags.writeable
        assert np.array_equal(replicates, expected)
        assert not store.counts.flags.writeable


class TestPercentileInterval:
    def test_constant_samples(self):
        assert percentile_interval(np.full(50, 3.25), 0.834) == (3.25, 3.25)

    def test_one_to_hundred_at_display_level(self):
        # Inclusive linear interpolation on {1..100} at 83.4%:
        # h_low = 99*0.083 = 8.217 -> 9.217; upper mirrors to 91.783.
        lower, upper = percentile_interval(np.arange(1.0, 101.0), 0.834)
        assert lower == pytest.approx(9.217, abs=1e-9)
        assert upper == pytest.approx(91.783, abs=1e-9)

    def test_matches_independent_type7_oracle(self):
        gen = np.random.default_rng(17)
        for n in (2, 5, 37, 1000):
            samples = gen.standard_normal(n)
            for level in (0.5, 0.834, 0.95, 0.99):
                lower, upper = percentile_interval(samples, level)
                assert lower == pytest.approx(
                    quantile_type7(samples, (1 - level) / 2), abs=1e-12
                )
                assert upper == pytest.approx(
                    quantile_type7(samples, 1 - (1 - level) / 2), abs=1e-12
                )

    def test_symmetric_samples_give_symmetric_interval(self):
        samples = np.concatenate([-np.arange(1.0, 51.0), np.arange(1.0, 51.0)])
        lower, upper = percentile_interval(samples, 0.95)
        assert lower == pytest.approx(-upper, abs=1e-12)

    def test_singleton_rejected(self):
        with pytest.raises(ValidationError, match="at least 2"):
            percentile_interval(np.array([1.0]), 0.95)

    def test_bad_level_rejected(self):
        with pytest.raises(ValidationError, match="level"):
            percentile_interval(np.arange(10.0), 1.0)


class TestAggregateInterval:
    def test_zero_variance_store_degenerates(self):
        table = table_of([[0, 10]], [10, 10])
        store = run_bootstrap(table, B=200, seed=1)
        est = aggregate_interval(store, "A", level=0.834)
        assert est.lower == est.point == est.upper == 0.5
        assert est.method == "bootstrap-percentile"

    def test_huge_test_sets_collapse_width(self):
        n = 10**8
        table = table_of([[int(0.4 * n), int(0.6 * n)]], [n, n])
        store = run_bootstrap(table, B=2_000, seed=3)
        est = aggregate_interval(store, "A", level=0.95)
        assert est.point == pytest.approx(0.5, abs=1e-3)
        assert est.upper - est.lower < 1e-3

    def test_narrow_level_nested_in_wide_level(self):
        store = run_bootstrap(sim_study_table(), B=2_000, seed=8)
        narrow = aggregate_interval(store, "B", level=0.834)
        wide = aggregate_interval(store, "B", level=0.95)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    def test_vertex_weights_reduce_to_single_task(self):
        store = run_bootstrap(sim_study_table(), B=500, seed=2)
        wv = WeightVector(weights=np.array([1.0, 0.0, 0.0]))
        est = aggregate_interval(store, "A", weights=wv, level=0.9)
        task_accs = store.replicates[:, 0, 0]
        assert est.point == pytest.approx(task_accs.mean(), abs=1e-12)
        lower, upper = percentile_interval(task_accs, 0.9)
        assert (est.lower, est.upper) == (lower, upper)

    def test_unknown_model_rejected(self):
        store = run_bootstrap(sim_study_table(), B=10, seed=1)
        with pytest.raises(KeyError, match="Z"):
            aggregate_interval(store, "Z")

    def test_store_bound_normalization_stays_inside_unit_interval(self):
        table = table_of([[100, 5000], [115, 5500], [80, 4000]], [200, 10000])
        store = run_bootstrap(table, B=1_000, seed=6)
        bounds = estimate_bounds(store)
        for model in ("A", "B", "C"):
            est = aggregate_interval(store, model, normalizer=bounds)
            assert 0.0 <= est.lower <= est.point <= est.upper <= 1.0

    def test_empirical_variance_matches_analytic_formula(self):
        # Analytic Var[S] under independence vs replicate variance at B=10k.
        table = table_of(
            [[100, 600, 2500, 400], [150, 700, 3000, 500]],
            [200, 1000, 5000, 711],
        )
        store = run_bootstrap(table, B=10_000, seed=12)
        acc = table.counts / table.sizes[None, :]
        for i, model in enumerate(table.models):
            stats = store.replicates[:, i, :].mean(axis=1)
            analytic = weighted_variance(acc[i], table.sizes, UNWEIGHTED)
            assert stats.var() == pytest.approx(analytic, rel=0.15)


class TestPairwiseDifferences:
    def test_self_difference_is_exactly_zero(self):
        store = run_bootstrap(sim_study_table(), B=300, seed=5)
        [(pair, est)] = pairwise_difference_intervals(store, ["A", "A"], level=0.95)
        assert pair == ("A", "A")
        assert (est.point, est.lower, est.upper) == (0.0, 0.0, 0.0)

    def test_bonferroni_level_adjustment(self):
        table = table_of([[100, 600], [150, 700], [120, 650]], [200, 1000])
        store = run_bootstrap(table, B=500, seed=5)
        results = pairwise_difference_intervals(
            store, ["A", "B", "C"], level=0.95, comparisons=3
        )
        assert len(results) == 3
        for _, est in results:
            assert est.level == pytest.approx(1 - 0.05 / 3)

    def test_explicit_budget_below_pair_count_rejected(self):
        store = run_bootstrap(sim_study_table(), B=50, seed=5)
        with pytest.raises(ValidationError, match="budget"):
            pairwise_difference_intervals(store, ["A", "B"], comparisons=0)

    def test_single_model_rejected(self):
        store = run_bootstrap(sim_study_table(), B=50, seed=5)
        with pytest.raises(ValidationError, match="at least two"):
            pairwise_difference_intervals(store, ["A"])

    def test_sim_study_interval_contains_zero(self):
        # A trails B only on the small task; the difference is not
        # significant at 95%.
        store = run_bootstrap(sim_study_table(), B=4_000, seed=10)
        [(_, est)] = pairwise_difference_intervals(store, ["A", "B"], level=0.95)
        assert est.point == pytest.approx(-0.025, abs=0.002)
        assert est.lower < 0.0 < est.upper

    def test_wider_bonferroni_interval_contains_unadjusted(self):
        store = run_bootstrap(sim_study_table(), B=2_000, seed=10)
        [(_, single)] = pairwise_difference_intervals(store, ["A", "B"], level=0.95)
        [(_, adjusted)] = pairwise_difference_intervals(
            store, ["A", "B"], level=0.95, comparisons=5
        )
        assert adjusted.lower <= single.lower <= single.upper <= adjusted.upper
