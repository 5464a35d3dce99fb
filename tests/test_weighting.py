import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchuq import weighting
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import ValidationError
from benchuq.weighting import (
    INDETERMINATE,
    UNWEIGHTED,
    SimplexField,
    WeightVector,
    decide_winner,
    difference_se,
    resolve_task_weights,
    se_reduction_factor,
    simplex_scan,
    weighted_variance,
)


def three_category_tasks():
    # 2 natural, 1 specialized, 2 structured tasks.
    return (
        TaskSpec("n1", "natural", 1000),
        TaskSpec("n2", "natural", 1000),
        TaskSpec("s1", "specialized", 1000),
        TaskSpec("t1", "structured", 1000),
        TaskSpec("t2", "structured", 1000),
    )


class TestWeightVector:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            WeightVector(weights=np.array([1.5, -0.5]))

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            WeightVector(weights=np.array([0.5, 0.6]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValidationError, match="labels"):
            WeightVector(weights=np.array([0.5, 0.5]), labels=("a",))

    def test_category_expansion_divides_by_task_count(self):
        wv = WeightVector.per_category(
            {"natural": 0.5, "specialized": 0.3, "structured": 0.2}
        )
        expanded = wv.as_task_weights(three_category_tasks())
        assert expanded == pytest.approx([0.25, 0.25, 0.3, 0.1, 0.1])
        assert expanded.sum() == pytest.approx(1.0, abs=1e-12)

    def test_expansion_rejects_unknown_category(self):
        wv = WeightVector.per_category({"natural": 1.0})
        with pytest.raises(ValidationError, match="no weight given"):
            wv.as_task_weights(three_category_tasks())

    def test_expansion_rejects_weighted_empty_category(self):
        wv = WeightVector.per_category(
            {"natural": 0.5, "specialized": 0.3, "structured": 0.1, "audio": 0.1}
        )
        with pytest.raises(ValidationError, match="audio"):
            wv.as_task_weights(three_category_tasks())

    def test_per_task_length_check(self):
        wv = WeightVector(weights=np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="5 tasks"):
            wv.as_task_weights(three_category_tasks())


def weighted_score(row, weights, tasks=None):
    # The weighted score every interval uses: row @ resolved task weights.
    return float(row @ resolve_task_weights(weights, tasks, row.size))


class TestWeightedScore:
    def test_unweighted_is_plain_mean(self):
        row = np.array([0.2, 0.4, 0.9])
        assert weighted_score(row, UNWEIGHTED) == pytest.approx(row.mean())

    def test_vertex_weight_picks_single_task(self):
        row = np.array([0.2, 0.4, 0.9])
        wv = WeightVector(weights=np.array([1.0, 0.0, 0.0]))
        assert weighted_score(row, wv) == pytest.approx(0.2)

    def test_category_weights_reduce_to_category_mean_combination(self):
        # 95% structured / 2.5% natural / 2.5% specialized on category means
        # (55.5, 73.6, 83.1)% gives 56.6425%.
        tasks = three_category_tasks()
        row = np.array([0.736, 0.736, 0.831, 0.555, 0.555])
        wv = WeightVector.per_category(
            {"structured": 0.95, "natural": 0.025, "specialized": 0.025}
        )
        score = weighted_score(row, wv, tasks=tasks)
        assert score == pytest.approx(0.566425, abs=1e-12)

    def test_category_weights_without_tasks_rejected(self):
        wv = WeightVector.per_category({"natural": 1.0})
        with pytest.raises(ValidationError, match="task list"):
            weighted_score(np.array([0.5]), wv)


class TestWeightedVariance:
    def test_single_task_binomial_variance(self):
        wv = WeightVector(weights=np.array([1.0]))
        v = weighted_variance(np.array([0.5]), np.array([200]), wv)
        assert v == pytest.approx(0.00125, abs=1e-15)

    def test_degenerate_accuracies_have_zero_variance(self):
        v = weighted_variance(np.array([0.0, 1.0]), np.array([50, 70]), UNWEIGHTED)
        assert v == 0.0

    def test_zero_weight_isolates_one_task(self):
        wv = WeightVector(weights=np.array([0.0, 1.0]))
        v = weighted_variance(np.array([0.5, 0.4]), np.array([200, 100]), wv)
        assert v == pytest.approx(0.4 * 0.6 / 100, rel=1e-12)

    def test_category_weights_match_category_average_identity(self):
        # Expanding w_c/n_c per task must equal combining Var of category
        # means: Var[p_cat] = n_c^-2 sum Var[p_j].
        tasks = three_category_tasks()
        row = np.array([0.7, 0.8, 0.6, 0.5, 0.4])
        sizes = np.array([t.test_size for t in tasks])
        wv = WeightVector.per_category(
            {"natural": 0.2, "specialized": 0.3, "structured": 0.5}
        )
        got = weighted_variance(row, sizes, wv, tasks=tasks)
        per_task = row * (1 - row) / sizes
        manual = (
            0.2**2 * per_task[:2].sum() / 4
            + 0.3**2 * per_task[2]
            + 0.5**2 * per_task[3:].sum() / 4
        )
        assert got == pytest.approx(manual, rel=1e-12)


class TestDifferenceSe:
    def test_independence(self):
        assert difference_se(0.04, 0.05, 0.0) == pytest.approx(math.sqrt(0.09))

    def test_equal_variances_at_half_correlation(self):
        v = 0.0016
        assert difference_se(v, v, 0.5) == pytest.approx(math.sqrt(v), rel=1e-12)

    def test_perfect_correlation_cancels(self):
        assert difference_se(0.01, 0.01, 1.0) == 0.0

    def test_broadcasts_over_arrays(self):
        var_a = np.array([[0.04], [0.0016]])
        var_b = np.array([[0.05, 0.04], [0.0016, 0.0]])
        got = difference_se(var_a, var_b, 0.5)
        assert got.shape == (2, 2)
        for idx in np.ndindex(got.shape):
            assert got[idx] == difference_se(float(var_a[idx[0], 0]),
                                             float(var_b[idx]), 0.5)

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            difference_se(0.01, 0.01, 1.5)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            difference_se(-0.01, 0.01, 0.0)


class TestReductionFactor:
    def test_equal_variances_half_correlation_is_sqrt_half(self):
        assert abs(se_reduction_factor(1, 0.5) - math.sqrt(0.5)) < 1e-12

    def test_independence_is_identity(self):
        for k in (1, 2, 4, 10, 100):
            assert se_reduction_factor(k, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_k4_half_correlation(self):
        assert se_reduction_factor(4, 0.5) == pytest.approx(math.sqrt(0.6), rel=1e-12)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            se_reduction_factor(0.5, 0.0)

    def test_matches_difference_se_ratio(self):
        # The factor is difference_se(v, k v, rho) / difference_se(v, k v, 0).
        v, k, rho = 2.3e-4, 3.7, 0.42
        expected = difference_se(v, k * v, rho) / difference_se(v, k * v, 0.0)
        assert se_reduction_factor(k, rho) == pytest.approx(expected, rel=1e-12)


class TestDecideWinner:
    def test_clear_winner(self):
        idx, margin = decide_winner(
            np.array([0.70, 0.60]), np.array([1e-6, 1e-6]), z=2.0, rho=0.0
        )
        assert idx == 0
        assert margin == pytest.approx(0.1 / math.sqrt(2e-6))

    def test_close_race_is_indeterminate(self):
        idx, margin = decide_winner(
            np.array([0.701, 0.700]), np.array([1e-4, 1e-4]), z=2.0, rho=0.0
        )
        assert idx is None
        assert 0 < margin < 2.0

    def test_exact_tie_is_indeterminate_even_at_z_zero(self):
        idx, margin = decide_winner(
            np.array([0.7, 0.7, 0.1]), np.array([1e-6] * 3), z=0.0, rho=0.0
        )
        assert idx is None and margin == 0.0

    def test_tied_runners_up_must_both_be_cleared(self):
        # Second and third tie; the wider-variance one fails the z test.
        scores = np.array([0.72, 0.70, 0.70])
        variances = np.array([1e-8, 1e-8, 1e-4])
        idx, margin = decide_winner(scores, variances, z=2.5, rho=0.0)
        assert idx is None
        assert margin == pytest.approx(0.02 / math.sqrt(1e-8 + 1e-4))
        idx_low_z, _ = decide_winner(scores, variances, z=1.5, rho=0.0)
        assert idx_low_z == 0

    def test_lone_model_wins_with_infinite_margin(self):
        idx, margin = decide_winner(np.array([0.4]), np.array([1e-4]), z=3.0, rho=0.5)
        assert idx == 0 and math.isinf(margin)

    def test_zero_se_with_gap_wins_with_infinite_margin(self):
        idx, margin = decide_winner(
            np.array([0.7, 0.6]), np.array([0.0, 0.0]), z=10.0, rho=0.0
        )
        assert idx == 0 and math.isinf(margin)

    @given(
        st.lists(st.floats(0.1, 0.9), min_size=2, max_size=6, unique=True),
        st.lists(st.floats(1e-8, 1e-3), min_size=6, max_size=6),
        st.floats(0.1, 100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_winner_invariant_under_common_positive_scaling(self, scores, variances, c):
        scores = np.array(scores)
        variances = np.array(variances[: scores.size])
        idx, margin = decide_winner(scores, variances, z=1.7, rho=0.3)
        idx2, margin2 = decide_winner(c * scores, c**2 * variances, z=1.7, rho=0.3)
        assert idx == idx2
        assert margin2 == pytest.approx(margin, rel=1e-9)


def sorted_top_two(scores, variances, z, rho):
    """Reference rule: sort each row, then test the runners-up tied at second."""
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=1)
    first, second = ranked[:, 0], ranked[:, 1]
    tied = second[:, None] - ranked[:, 1:] <= 1e-12 * np.abs(first)[:, None]
    ranked_vars = np.take_along_axis(variances, order, axis=1)
    se = difference_se(ranked_vars[:, :1], ranked_vars[:, 1:], rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se > 0, (first[:, None] - ranked[:, 1:]) / se, math.inf)
    margin = np.where(tied, ratio, math.inf).min(axis=1)
    exact_tie = second == first
    margin[exact_tie] = 0.0
    return np.where(~exact_tie & (margin >= z), order[:, 0], -1), margin


def test_top_two_equals_the_sorted_rule():
    # Scores on a coarse grid give exact ties, and a relative 1e-13 nudge
    # gives near-ties, for first and for second place.
    gen = np.random.default_rng(8)
    scores = gen.integers(0, 6, size=(4000, 5)) / 10.0
    nudged = gen.random(scores.shape) < 0.2
    scores[nudged] *= 1.0 + 1e-13
    variances = gen.choice([0.0, 1e-4, 2e-3], size=scores.shape)
    for rho in (0.0, 0.5, 1.0):
        idx, margin = weighting._top_two(scores, variances, 1.5, rho)
        ref_idx, ref_margin = sorted_top_two(scores, variances, 1.5, rho)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(margin, ref_margin)


def gapped_table():
    # Each category has a different runaway winner; N large enough that
    # vertex margins are enormous.
    tasks = three_category_tasks()
    counts = np.array(
        [
            [900, 900, 100, 100, 100],  # natural specialist
            [100, 100, 900, 100, 100],  # specialized specialist
            [100, 100, 100, 900, 900],  # structured specialist
        ]
    )
    return EvalTable(models=("nat-pro", "spec-pro", "str-pro"), tasks=tasks, counts=counts)


class TestSimplexScan:
    CATS = ("natural", "specialized", "structured")

    def test_cell_count_matches_simplex_lattice(self):
        field = simplex_scan(gapped_table(), self.CATS, grid_step=0.1)
        assert len(field.cells) == 66  # C(12, 2)
        field_full = simplex_scan(gapped_table(), self.CATS, grid_step=0.01)
        assert len(field_full.cells) == 5151  # C(102, 2)

    def test_cells_are_grid_multiples_summing_to_one(self):
        field = simplex_scan(gapped_table(), self.CATS, grid_step=0.1)
        for cell in field.cells:
            assert sum(cell.weights) == pytest.approx(1.0, abs=1e-12)
            for w in cell.weights:
                assert (w / 0.1) == pytest.approx(round(w / 0.1), abs=1e-9)

    def test_vertices_pick_category_specialists(self):
        field = simplex_scan(gapped_table(), self.CATS, grid_step=0.1)
        by_weights = {cell.weights: cell for cell in field.cells}
        assert by_weights[(1.0, 0.0, 0.0)].winner == "nat-pro"
        assert by_weights[(0.0, 1.0, 0.0)].winner == "spec-pro"
        assert by_weights[(0.0, 0.0, 1.0)].winner == "str-pro"

    def test_determinate_cells_clear_z(self):
        field = simplex_scan(gapped_table(), self.CATS, grid_step=0.1, z=2.0)
        for cell in field.cells:
            if cell.winner != INDETERMINATE:
                assert cell.margin >= 2.0

    def test_monotonicity_in_z(self):
        strict = simplex_scan(gapped_table(), self.CATS, grid_step=0.05, z=3.0)
        loose = simplex_scan(gapped_table(), self.CATS, grid_step=0.05, z=1.0)
        for s_cell, l_cell in zip(strict.cells, loose.cells):
            if s_cell.winner != INDETERMINATE:
                assert l_cell.winner == s_cell.winner

    def test_z_zero_leaves_only_exact_ties_indeterminate(self):
        field = simplex_scan(gapped_table(), self.CATS, grid_step=0.1, z=0.0)
        for cell in field.cells:
            if cell.winner == INDETERMINATE:
                assert cell.margin == 0.0

    def test_wrong_category_count_rejected(self):
        with pytest.raises(ValidationError, match="3 categories"):
            simplex_scan(gapped_table(), ("natural", "specialized"), grid_step=0.1)

    def test_non_dividing_grid_step_rejected(self):
        with pytest.raises(ValidationError, match="divide"):
            simplex_scan(gapped_table(), self.CATS, grid_step=0.03)

    def test_winners_listing(self):
        field = simplex_scan(gapped_table(), self.CATS, grid_step=0.5)
        assert set(field.winners()) <= {"nat-pro", "spec-pro", "str-pro"}
        assert isinstance(field, SimplexField)

    def test_scan_in_small_blocks_equals_the_default_field(self, monkeypatch):
        # 5151 cells in blocks of 7 end on a cut block of 6.
        default = simplex_scan(gapped_table(), self.CATS, grid_step=0.01, rho=0.5)
        monkeypatch.setattr(weighting, "_SCAN_CELLS", 7)
        assert simplex_scan(gapped_table(), self.CATS, grid_step=0.01, rho=0.5) == default
