"""
Leaderboard with bootstrap uncertainty
======================================

Average accuracy alone hides how much of a leaderboard gap is noise.
This script bootstraps the bundled 16-model x 19-task evaluation grid and
prints 83.4% intervals — chosen so that two models whose intervals do not
overlap differ at roughly the 5% level — then Bonferroni-adjusted 95%
intervals for the top-three pairwise differences.
"""

# Load the bundled evaluation table: binomial success counts per
# (model, task) cell plus each task's test-set size.
from benchuq import load_vtab

table = load_vtab()
print(f"{len(table.models)} models x {len(table.tasks)} tasks")

# Resample every cell B times.  Replicates are seeded per index, so the
# same seed always reproduces the same store.
from benchuq.bootstrap import (
    aggregate_interval,
    pairwise_difference_intervals,
    run_bootstrap,
)

store = run_bootstrap(table, B=2_000, seed=0)

# Rank models by their mean replicate accuracy and print the leaderboard.
from benchuq.report import format_interval, interval_table, markdown_table

estimates = {m: aggregate_interval(store, m) for m in table.models}
order = sorted(table.models, key=lambda m: -estimates[m].point)
rows = [(m, {"Avg Acc": estimates[m]}) for m in order]
headers, body = interval_table(rows, ["Avg Acc"], scale=100.0)
print()
print(markdown_table(headers, body))

# The top two look close.  The pairwise difference is the right quantity:
# same replicates, differenced before taking quantiles, with a Bonferroni
# adjustment for running three comparisons at once.
top3 = order[:3]
print("pairwise differences, 95% with Bonferroni m=3:")
for (a, b), est in pairwise_difference_intervals(store, top3, level=0.95):
    zero = "contains 0" if est.lower <= 0.0 <= est.upper else "excludes 0"
    print(f"  {a} - {b}: {format_interval(est, scale=100.0)}  ({zero})")
