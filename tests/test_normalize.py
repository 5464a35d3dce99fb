import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchuq.bootstrap import ReplicateStore, run_bootstrap
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import DegenerateBoundsError, ValidationError
from benchuq.normalize import (
    NormalizationBounds,
    estimate_bounds,
    normalize_scores,
)


def small_table():
    tasks = (TaskSpec("t1", "c", 200), TaskSpec("t2", "c", 500))
    counts = np.array([[62, 250], [148, 430]])
    return EvalTable(models=("A", "B"), tasks=tasks, counts=counts)


def store_from(values):
    values = np.asarray(values, dtype=float)
    table = EvalTable(
        models=tuple(f"m{i}" for i in range(values.shape[1])),
        tasks=tuple(
            TaskSpec(f"t{j}", "c", 100) for j in range(values.shape[2])
        ),
        counts=(values[0] * 100).astype(int),
    )
    return ReplicateStore(replicates=values, seed=0, source=table)


class TestBounds:
    def test_degenerate_bounds_rejected_naming_task(self):
        with pytest.raises(DegenerateBoundsError, match="t2"):
            NormalizationBounds(
                tasks=("t1", "t2"), low=np.array([0.1, 0.5]), high=np.array([0.9, 0.5])
            )

    def test_estimate_bounds_takes_extremes_over_models_and_replicates(self):
        reps = np.array(
            [
                [[0.31, 0.50], [0.60, 0.55]],
                [[0.45, 0.40], [0.74, 0.62]],
            ]
        )
        bounds = estimate_bounds(store_from(reps))
        assert bounds.low.tolist() == [0.31, 0.40]
        assert bounds.high.tolist() == [0.74, 0.62]

    def test_single_replicate_single_model_is_degenerate(self):
        with pytest.raises(DegenerateBoundsError, match="t0"):
            estimate_bounds(store_from(np.array([[[0.5, 0.6]]])))

    def test_adding_replicates_never_shrinks_bounds(self):
        table = small_table()
        small = estimate_bounds(run_bootstrap(table, B=50, seed=3))
        # Same seed: the first 50 replicates of the larger store are identical.
        large = estimate_bounds(run_bootstrap(table, B=500, seed=3))
        assert np.all(large.low <= small.low)
        assert np.all(large.high >= small.high)

    def test_csv_roundtrip(self, tmp_path):
        bounds = NormalizationBounds(
            tasks=("t1", "t2"), low=np.array([0.31, 0.4]), high=np.array([0.74, 0.62])
        )
        path = tmp_path / "bounds.csv"
        text = bounds.to_csv(path)
        assert text.splitlines()[0] == "task,low,high"
        back = NormalizationBounds.from_csv(path)
        assert back.tasks == bounds.tasks
        assert np.array_equal(back.low, bounds.low)
        assert np.array_equal(back.high, bounds.high)

    def test_from_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bounds.csv"
        path.write_text("task,lo,hi\nt1,0,1\n")
        with pytest.raises(ValidationError, match="header"):
            NormalizationBounds.from_csv(path)

    def test_from_csv_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="absent.csv"):
            NormalizationBounds.from_csv(tmp_path / "absent.csv")

    def test_from_csv_skips_comment_before_header(self, tmp_path):
        path = tmp_path / "bounds.csv"
        path.write_text("# chance-level floors\ntask,low,high\nt1,0.25,1.0\n")
        back = NormalizationBounds.from_csv(path)
        assert back.tasks == ("t1",)
        assert back.low.tolist() == [0.25] and back.high.tolist() == [1.0]


class TestNormalizeScores:
    BOUNDS = NormalizationBounds(
        tasks=("t1", "t2"), low=np.array([0.2, 0.5]), high=np.array([0.7, 0.9])
    )

    def test_boundary_identities(self):
        out = normalize_scores(np.array([[0.2, 0.9]]), self.BOUNDS)
        assert out.tolist() == [[0.0, 1.0]]

    def test_linear_map_in_between(self):
        out = normalize_scores(np.array([[0.45, 0.7]]), self.BOUNDS)
        assert out[0] == pytest.approx([0.5, 0.5])

    def test_unit_bounds_are_identity(self):
        ident = NormalizationBounds(
            tasks=("t1", "t2"), low=np.array([0.0, 0.0]), high=np.array([1.0, 1.0])
        )
        values = np.array([[0.12, 0.98], [0.5, 0.0]])
        assert np.array_equal(normalize_scores(values, ident), values)

    def test_out_of_bounds_values_clamped_with_warning_count(self):
        values = np.array([[0.1, 0.95], [0.3, 0.6]])
        with pytest.warns(UserWarning, match="2 normalized values"):
            out = normalize_scores(values, self.BOUNDS)
        assert out[0].tolist() == [0.0, 1.0]
        assert np.all((out >= 0) & (out <= 1))

    def test_in_store_values_never_warn(self):
        store = store_from(
            np.array([[[0.31, 0.50], [0.60, 0.55]], [[0.45, 0.40], [0.74, 0.62]]])
        )
        bounds = estimate_bounds(store)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_scores(store.replicates, bounds)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="tasks"):
            normalize_scores(np.array([[0.1, 0.2, 0.3]]), self.BOUNDS)

    @given(
        st.lists(
            st.lists(st.integers(0, 1000), min_size=3, max_size=3),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_within_task_model_ordering_preserved(self, rows):
        from scipy.stats import rankdata

        values = np.array(rows) / 1000.0
        lo = values.min(axis=0) - 0.05
        hi = values.max(axis=0) + 0.05
        bounds = NormalizationBounds(tasks=("a", "b", "c"), low=lo, high=hi)
        out = normalize_scores(values, bounds)
        for j in range(3):
            assert np.array_equal(
                rankdata(out[:, j], method="average"),
                rankdata(values[:, j], method="average"),
            )
