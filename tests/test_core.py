import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchuq.core import (
    AccuracyMatrix,
    EvalTable,
    TaskSpec,
    accuracy_of,
    load_eval_table,
    load_task_file,
    synthesize_counts,
    validate_consistency,
)
from benchuq.errors import ValidationError


def toy_table():
    tasks = (
        TaskSpec("t1", "natural", 200),
        TaskSpec("t2", "natural", 1000),
        TaskSpec("t3", "structured", 400),
    )
    counts = np.array([[115, 684, 100], [150, 500, 380]])
    return EvalTable(models=("A", "B"), tasks=tasks, counts=counts)


class TestEvalTableInvariants:
    def test_counts_within_bounds_accepted(self):
        table = toy_table()
        assert table.counts.shape == (2, 3)
        assert table.sizes.tolist() == [200, 1000, 400]

    def test_count_above_test_size_rejected(self):
        tasks = (TaskSpec("t1", "c", 100),)
        with pytest.raises(ValidationError, match="t1"):
            EvalTable(models=("A",), tasks=tasks, counts=np.array([[101]]))

    def test_negative_count_rejected(self):
        tasks = (TaskSpec("t1", "c", 100),)
        with pytest.raises(ValidationError, match="out of range"):
            EvalTable(models=("A",), tasks=tasks, counts=np.array([[-1]]))

    def test_shape_mismatch_rejected(self):
        tasks = (TaskSpec("t1", "c", 100),)
        with pytest.raises(ValidationError, match="expected"):
            EvalTable(models=("A", "B"), tasks=tasks, counts=np.array([[1]]))

    def test_duplicate_model_rejected(self):
        tasks = (TaskSpec("t1", "c", 100),)
        with pytest.raises(ValidationError, match="duplicate model"):
            EvalTable(models=("A", "A"), tasks=tasks, counts=np.array([[1], [2]]))

    def test_duplicate_task_rejected(self):
        tasks = (TaskSpec("t1", "c", 100), TaskSpec("t1", "d", 50))
        with pytest.raises(ValidationError, match="duplicate task"):
            EvalTable(models=("A",), tasks=tasks, counts=np.array([[1, 2]]))

    def test_zero_test_size_rejected(self):
        with pytest.raises(ValidationError, match="test_size"):
            TaskSpec("t1", "c", 0)

    def test_counts_are_immutable(self):
        table = toy_table()
        with pytest.raises(ValueError):
            table.counts[0, 0] = 7

    def test_category_helpers(self):
        table = toy_table()
        assert table.categories == ("natural", "structured")
        assert table.category_columns("natural").tolist() == [0, 1]
        assert table.model_index("B") == 1
        with pytest.raises(KeyError):
            table.model_index("nope")
        with pytest.raises(KeyError):
            table.category_columns("nope")


class TestAccuracy:
    def test_accuracy_of_matches_hand_computation(self):
        acc = accuracy_of(toy_table())
        assert acc.values[0].tolist() == [0.575, 0.684, 0.25]

    def test_accuracy_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match="1.02"):
            AccuracyMatrix(values=np.array([[1.02]]))

    def test_nan_accuracy_rejected(self):
        with pytest.raises(ValidationError):
            AccuracyMatrix(values=np.array([[np.nan]]))


class TestSynthesizeCounts:
    def test_deterministic_example(self):
        # 57.5% on a 200-item test set is exactly 115 correct answers.
        acc = AccuracyMatrix(values=np.array([[0.575]]))
        table = synthesize_counts(acc, sizes=[200])
        assert table.counts[0, 0] == 115

    def test_rounding_is_half_to_even(self):
        acc = AccuracyMatrix(values=np.array([[0.25, 0.75]]))
        table = synthesize_counts(acc, sizes=[2, 2])  # 0.5 -> 0, 1.5 -> 2
        assert table.counts[0].tolist() == [0, 2]

    def test_sizes_taken_from_tasks_when_present(self):
        src = toy_table()
        rebuilt = synthesize_counts(accuracy_of(src))
        assert np.array_equal(rebuilt.counts, src.counts)
        assert rebuilt.tasks == src.tasks

    def test_size_mismatch_rejected(self):
        acc = AccuracyMatrix(values=np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError, match="sizes"):
            synthesize_counts(acc, sizes=[100])

    @given(
        st.lists(
            st.tuples(st.integers(1, 5000), st.integers(0, 5000)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_recovers_exact_counts(self, cells):
        # Y -> Y/N -> round(p * N) must reproduce Y for every valid cell.
        sizes = np.array([n for n, _ in cells])
        counts = np.array([[min(y, n) for (n, y) in cells]])
        acc = AccuracyMatrix(values=counts / sizes[None, :])
        rebuilt = synthesize_counts(acc, sizes=sizes)
        assert np.array_equal(rebuilt.counts, counts)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(1, 100_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_accuracy_error_bounded_by_half_count(self, p, n):
        acc = AccuracyMatrix(values=np.array([[p]]))
        rebuilt = synthesize_counts(acc, sizes=[n])
        assert abs(rebuilt.counts[0, 0] / n - p) <= 0.5 / n + 1e-15


@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(1, 50), st.integers(0, 50)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_overall_mean_is_task_count_weighted_category_mean(task_cells):
    # The unweighted overall mean must equal sum_c (n_c / J) * mean_c exactly.
    tasks = tuple(
        TaskSpec(f"t{k}", cat, n)
        for k, (cat, n, _) in enumerate(task_cells)
    )
    counts = np.array([[min(y, n) for (_, n, y) in task_cells]])
    table = EvalTable(models=("A",), tasks=tasks, counts=counts)
    acc = accuracy_of(table).values[0]
    overall = acc.mean()
    J = len(tasks)
    recombined = sum(
        (len(table.category_columns(c)) / J) * acc[table.category_columns(c)].mean()
        for c in table.categories
    )
    assert overall == pytest.approx(recombined, abs=1e-12)


class TestLoading:
    def write_inputs(self, tmp_path, data_rows, header="model,task,correct"):
        task_file = tmp_path / "tasks.csv"
        task_file.write_text(
            "task,category,test_size\nt1,natural,200\nt2,structured,1000\n"
        )
        data_file = tmp_path / "data.csv"
        data_file.write_text(header + "\n" + "\n".join(data_rows) + "\n")
        return data_file, task_file

    def test_counts_roundtrip(self, tmp_path):
        data, tasks = self.write_inputs(
            tmp_path, ["A,t1,115", "A,t2,684", "B,t1,150", "B,t2,500"]
        )
        table = load_eval_table(data, tasks)
        assert table.models == ("A", "B")
        assert table.counts.tolist() == [[115, 684], [150, 500]]
        assert table.tasks[1].category == "structured"

    def test_accuracy_format_synthesizes_counts(self, tmp_path):
        data, tasks = self.write_inputs(
            tmp_path,
            ["A,t1,57.5", "A,t2,68.4"],
            header="model,task,accuracy_percent",
        )
        table = load_eval_table(data, tasks, format="accuracies+sizes")
        assert table.counts.tolist() == [[115, 684]]

    def test_unknown_task_names_row(self, tmp_path):
        data, tasks = self.write_inputs(tmp_path, ["A,t1,115", "A,tX,684"])
        with pytest.raises(ValidationError, match=r"row 3.*'task'.*tX"):
            load_eval_table(data, tasks)

    def test_non_numeric_value_names_row_and_column(self, tmp_path):
        data, tasks = self.write_inputs(tmp_path, ["A,t1,abc", "A,t2,684"])
        with pytest.raises(ValidationError, match=r"row 2.*correct.*abc"):
            load_eval_table(data, tasks)

    def test_fractional_count_is_not_an_integer(self, tmp_path):
        data, tasks = self.write_inputs(tmp_path, ["A,t1,50.0", "A,t2,684"])
        with pytest.raises(ValidationError,
                           match=r"row 2, column 'correct': '50.0' is not an integer$"):
            load_eval_table(data, tasks)

    @pytest.mark.parametrize("row, column", [(",t1,50", "model"), ("A,,50", "task")])
    def test_blank_model_or_task_cell_names_row_and_column(self, tmp_path, row, column):
        data, tasks = self.write_inputs(tmp_path, ["A,t2,684", row])
        with pytest.raises(ValidationError, match=rf"row 3, column '{column}' is blank$"):
            load_eval_table(data, tasks)

    def test_blank_task_in_task_file_names_row(self, tmp_path):
        bad = tmp_path / "tasks.csv"
        bad.write_text("task,category,test_size\nt1,c,10\n ,c,10\n")
        with pytest.raises(ValidationError, match=r"row 3, column 'task' is blank$"):
            load_task_file(bad)

    def test_files_with_a_utf8_bom_load_as_plain_files(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF.
        data, tasks = self.write_inputs(tmp_path, ["A,t1,115", "A,t2,684"])
        bom = tmp_path / "bom"
        bom.mkdir()
        for path in (data, tasks):
            (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_task_file(bom / tasks.name) == load_task_file(tasks)
        plain, with_bom = load_eval_table(data, tasks), load_eval_table(bom / data.name,
                                                                       bom / tasks.name)
        assert (with_bom.models, with_bom.tasks) == (plain.models, plain.tasks)
        assert np.array_equal(with_bom.counts, plain.counts)

    def test_ragged_table_rejected(self, tmp_path):
        data, tasks = self.write_inputs(tmp_path, ["A,t1,115", "A,t2,684", "B,t1,3"])
        with pytest.raises(ValidationError, match="missing cell.*'B'.*'t2'"):
            load_eval_table(data, tasks)

    def test_duplicate_cell_rejected(self, tmp_path):
        data, tasks = self.write_inputs(
            tmp_path, ["A,t1,115", "A,t2,684", "A,t1,116", "B,t1,1", "B,t2,2"]
        )
        with pytest.raises(ValidationError, match="duplicate cell"):
            load_eval_table(data, tasks)

    def test_count_above_size_rejected_on_load(self, tmp_path):
        data, tasks = self.write_inputs(tmp_path, ["A,t1,201", "A,t2,5"])
        with pytest.raises(ValidationError, match="out of range"):
            load_eval_table(data, tasks)

    def test_accuracy_above_100_rejected(self, tmp_path):
        data, tasks = self.write_inputs(
            tmp_path, ["A,t1,102.0", "A,t2,50.0"], header="model,task,accuracy_percent"
        )
        with pytest.raises(ValidationError, match=r"\[0, 100\]"):
            load_eval_table(data, tasks, format="accuracies+sizes")

    def test_wrong_header_rejected(self, tmp_path):
        data, tasks = self.write_inputs(tmp_path, ["A,t1,1"], header="m,t,c")
        with pytest.raises(ValidationError, match="header"):
            load_eval_table(data, tasks)

    @pytest.mark.parametrize(
        "header", ["task_id,category,test_size", "task,category,n_examples"]
    )
    def test_task_file_header_aliases(self, tmp_path, header):
        body = "t1,natural,200\nt2,structured,1000\n"
        canonical = tmp_path / "canonical.csv"
        canonical.write_text("task,category,test_size\n" + body)
        alias = tmp_path / "alias.csv"
        alias.write_text(header + "\n" + body)
        assert load_task_file(alias) == load_task_file(canonical)

    def test_eval_file_accepts_task_id_column(self, tmp_path):
        data, tasks = self.write_inputs(
            tmp_path, ["A,t1,115", "A,t2,684"], header="model,task_id,correct"
        )
        assert load_eval_table(data, tasks).counts.tolist() == [[115, 684]]

    def test_wrong_task_header_names_header_and_spellings(self, tmp_path):
        bad = tmp_path / "tasks.csv"
        bad.write_text("name,category,size\nt1,c,10\n")
        with pytest.raises(ValidationError) as info:
            load_task_file(bad)
        message = str(info.value)
        assert "['name', 'category', 'size']" in message
        assert "task|task_id,category,test_size|n_examples" in message

    def test_unknown_format_rejected(self, tmp_path):
        data, tasks = self.write_inputs(tmp_path, ["A,t1,1", "A,t2,2"])
        with pytest.raises(ValidationError, match="format"):
            load_eval_table(data, tasks, format="parquet")

    def test_task_file_validation(self, tmp_path):
        bad = tmp_path / "tasks.csv"
        bad.write_text("task,category,test_size\nt1,c,zero\n")
        with pytest.raises(ValidationError, match="test_size.*zero"):
            load_task_file(bad)
        bad.write_text("task,category,test_size\nt1,c,0\n")
        with pytest.raises(ValidationError, match=">= 1"):
            load_task_file(bad)
        bad.write_text("task,category,test_size\na,c,10\nb,c,10\na,c,20\n")
        with pytest.raises(ValidationError, match="row 4.*'a' repeats row 2"):
            load_task_file(bad)


class TestConsistency:
    def category_mean_table(self):
        # 7 natural + 4 specialized + 8 structured tasks, all N=1000, every
        # task in a category pinned at the category mean.
        tasks, counts = [], []
        for cat, n_tasks, mean in [
            ("natural", 7, 736),
            ("specialized", 4, 831),
            ("structured", 8, 555),
        ]:
            for k in range(n_tasks):
                tasks.append(TaskSpec(f"{cat}{k}", cat, 1000))
                counts.append(mean)
        return EvalTable(
            models=("sup-rotation",), tasks=tuple(tasks), counts=np.array([counts])
        )

    def test_published_category_and_overall_means_accepted(self):
        # Overall mean of the 19 tasks is 67.979 percent, vs 68.0 published.
        table = self.category_mean_table()
        published = {
            "sup-rotation": {
                "natural": 73.6,
                "specialized": 83.1,
                "structured": 55.5,
                "overall": 68.0,
            }
        }
        report = validate_consistency(table, published, tolerance=0.05)
        assert report.passed
        overall = [r for r in report.rows if r[1] == "overall"][0]
        assert overall[2] == pytest.approx(67.9789, abs=1e-3)
        assert "PASS" in report.format()

    def test_gap_beyond_tolerance_fails_and_is_named(self):
        table = self.category_mean_table()
        published = {"sup-rotation": {"natural": 74.0}}
        report = validate_consistency(table, published, tolerance=0.05)
        assert not report.passed
        assert report.max_gap() == pytest.approx(0.4, abs=1e-9)
        assert "GAP" in report.format() and "FAIL" in report.format()

    def test_unknown_model_in_published_summary_rejected(self):
        table = self.category_mean_table()
        with pytest.raises(ValidationError, match="ghost"):
            validate_consistency(table, {"ghost": {"overall": 50.0}}, tolerance=0.1)
