"""Edge inputs through every interval path: N = 1, Y in {0, N}, one model,
one task.

Each property builds a small table from those edges and checks that the
bootstrap, the five rank schemes, the simplex scan and a short BHM fit
return finite, ordered interval endpoints (and ranks within [1, M]), and
that tables of N = 1 alone, whose replicates all equal the table, give
every bootstrap and non-noise rank row its value as point and both ends.
Only raw scores are used: a saturated task (every model at Y = N) still makes
``estimate_bounds`` raise, so the normalized paths are left out.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchuq.bhm import McmcConfig, credible_interval, fit_bhm
from benchuq.bootstrap import aggregate_interval, pairwise_difference_intervals, run_bootstrap
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import ConvergenceWarning
from benchuq.ranking import RankScheme, rank_intervals, rank_tables
from benchuq.weighting import INDETERMINATE, simplex_scan

SIZES = st.sampled_from([1, 1, 2, 7])  # N = 1 half the time


@st.composite
def edge_tables(draw, n_tasks=None, categories=None, sizes=SIZES):
    """Tables with 1-3 models and 1-3 tasks whose counts favor 0 and N."""
    n_models = draw(st.integers(1, 3))
    if n_tasks is None:
        n_tasks = draw(st.integers(1, 3))
    sizes = [draw(sizes) for _ in range(n_tasks)]
    counts = [
        [draw(st.sampled_from([0, n, draw(st.integers(0, n))])) for n in sizes]
        for _ in range(n_models)
    ]
    tasks = tuple(
        TaskSpec(f"t{j}", categories[j] if categories else "c", n)
        for j, n in enumerate(sizes)
    )
    return EvalTable(
        models=tuple(f"m{i}" for i in range(n_models)),
        tasks=tasks,
        counts=np.array(counts, dtype=np.int64),
    )


def assert_interval(est, low=0.0, high=1.0):
    assert math.isfinite(est.lower) and math.isfinite(est.upper)
    assert low <= est.lower <= est.upper <= high
    assert math.isfinite(est.point)


@given(edge_tables(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_bootstrap_intervals_on_edge_tables(table, seed):
    store = run_bootstrap(table, B=50, seed=seed)
    for model in table.models:
        assert_interval(aggregate_interval(store, model))


@given(edge_tables(), st.sampled_from(list(RankScheme)))
@settings(max_examples=60, deadline=None)
def test_rank_intervals_on_edge_tables(table, scheme):
    store = run_bootstrap(table, B=30, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zero-accuracy note
        summaries = rank_intervals(store, scheme, level=0.95)
    m = len(table.models)
    assert [s.model for s in summaries] == list(table.models)
    for s in summaries:
        assert_interval(s.interval, 1.0, m)
        assert 1.0 <= s.point <= m
    assert sum(s.point for s in summaries) == pytest.approx(m * (m + 1) / 2)


@given(edge_tables(sizes=st.just(1)))
@settings(max_examples=40, deadline=None)
def test_constant_replicates_give_degenerate_intervals(table):
    # With every N = 1 each cell is 0 or 1 and every replicate equals the
    # table, so each row's point is its one value, not a rounded mean.
    store = run_bootstrap(table, B=300, seed=0)
    estimates = [aggregate_interval(store, model) for model in table.models]
    if len(table.models) > 1:
        estimates += [est for _, est in pairwise_difference_intervals(store, table.models)]
    schemes = [s for s in RankScheme if s is not RankScheme.AVERAGE_RANK_NOISE]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zero-accuracy note
        tables = rank_tables(store, schemes, level=0.95)["raw"]
    estimates += [row.interval for rows in tables.values() for row in rows]
    for est in estimates:
        assert est.point == est.lower == est.upper


@given(edge_tables(n_tasks=3, categories=("a", "b", "c")),
       st.sampled_from([(2.0, 0.0), (2.0 / math.sqrt(2.0), 0.5)]))
@settings(max_examples=40, deadline=None)
def test_simplex_scan_on_edge_tables(table, setting):
    z, rho = setting
    field = simplex_scan(table, ("a", "b", "c"), grid_step=0.25, z=z, rho=rho)
    assert len(field.cells) == 15
    for cell in field.cells:
        assert cell.winner in table.models + (INDETERMINATE,)
        assert cell.margin >= 0.0  # never NaN
        if cell.winner != INDETERMINATE:
            assert cell.margin >= z


@given(edge_tables(), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_short_bhm_fit_on_edge_tables(table, seed):
    config = McmcConfig(total_iterations=200, burn_in=50, thinning=1, chains=2,
                        seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        draws = fit_bhm(table, config=config)
    for model in table.models:
        assert_interval(credible_interval(draws, model, level=0.95))
    if len(table.models) > 1:
        diff = credible_interval(draws, table.models[0], other=table.models[1])
        assert_interval(diff, -1.0, 1.0)
