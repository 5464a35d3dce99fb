"""
Rank aggregation under uncertainty
==================================

A leaderboard position is a statistic too.  Applying a rank scheme to every
bootstrap replicate gives a distribution over ranks, and different schemes
genuinely disagree: ranking by average accuracy pins the sixth model to
place 6, while per-task average ranks pull it up toward 5 because it wins
many narrow per-task comparisons that barely move its mean.
"""

from benchuq import load_vtab
from benchuq.bootstrap import run_bootstrap
from benchuq.ranking import RankScheme, rank_intervals

table = load_vtab()
store = run_bootstrap(table, B=2_000, seed=0)

# Five schemes: mean accuracy, geometric mean, per-task average rank, the
# same with 1-point Gaussian noise, and with 1-point accuracy bins.
summaries = {
    scheme.value: rank_intervals(store, scheme, level=0.95)
    for scheme in RankScheme
}

# Print the top six rows of the published-style table.
from benchuq.report import format_interval

columns = [s.value for s in RankScheme]
print(f"{'Model':20s}" + "".join(f"{c:>24s}" for c in columns))
for i in range(6):
    model = summaries[columns[0]][i].model
    cells = "".join(
        f"{format_interval(summaries[c][i].interval):>24s}" for c in columns
    )
    print(f"{model:20s}{cells}")

# The binned scheme rewards being in the same whole-percent bucket as a
# better model; watch how it lifts everyone's rank relative to the plain
# average-rank column.
plain = {s.model: s.point for s in summaries["average-rank"]}
binned = {s.model: s.point for s in summaries["average-rank-binned"]}
print()
print("bin-tie inflation (binned minus plain average rank, top six):")
for i in range(6):
    m = summaries["average-rank"][i].model
    print(f"  {m:20s} {binned[m] - plain[m]:+.2f}")
