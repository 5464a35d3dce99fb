#!/usr/bin/env python3
"""Print the minimum criterion-6 margin of each row group at several seeds.

Usage (from the repository root):

    python3 tools/criterion6_margins.py --src src --seeds 0 1 2 3 4
    python3 tools/criterion6_margins.py --src /path/to/other/checkout/src

Criterion 6 (``tests/test_acceptance.py``) gates the bundled fixture's
leaderboard, pairwise and rank rows against published values at seed 0.
This script runs the same pipeline with every seed set to s: the bootstrap
(B = 10,000), the rank noise and the BHM draws (default settings).
A row's margin is its tolerance minus its largest distance from the target
over point, lower and upper; an exact by-average row's margin is 0.05 minus
that distance, since it must round to its target.  A negative margin is a
failed gate.  The targets are imported from the acceptance tests, so they
cannot drift from the gate.

For each group the script prints its minimum margin at each seed and the
minimum over seeds, then the same for all bootstrap-derived rows and for all
rows.  It exits 1 if any margin is negative.  One seed takes about 3 s on
one core, so five seeds take about 15 s.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GROUPS = ("T3", "T4 raw", "T4 normalized", "by-average exact",
          "rank raw", "rank normalized", "BHM")


def margin(est, target, tol, scale=100.0):
    got = (est.point * scale, est.lower * scale, est.upper * scale)
    return tol - max(abs(g - t) for g, t in zip(got, target))


def seed_margins(seed, acc):
    """Each group's (minimum margin, row name) at one seed."""
    from benchuq.bhm import McmcConfig, PriorSpec, credible_interval, fit_bhm
    from benchuq.bootstrap import (aggregate_interval, pairwise_difference_intervals,
                                   run_bootstrap)
    from benchuq.fixtures import load_vtab
    from benchuq.normalize import estimate_bounds
    from benchuq.ranking import RankScheme, rank_tables

    table = load_vtab()
    store = run_bootstrap(table, B=10_000, seed=seed)
    bounds = estimate_bounds(store)
    draws = fit_bhm(table, priors=PriorSpec.exponential(1e-4),
                    config=McmcConfig(seed=seed))
    rows = {group: [] for group in GROUPS}
    for model, target in acc.T3_BOOTSTRAP.items():
        rows["T3"].append((margin(aggregate_interval(store, model, level=0.834),
                                  target, 0.15), model))
    for model, target in acc.T3_BHM.items():
        rows["BHM"].append((margin(credible_interval(draws, model, level=0.834),
                                   target, 0.15), f"T3 {model}"))

    raw_pairs = dict(pairwise_difference_intervals(store, acc.TOP3, level=0.95))
    norm_pairs = dict(pairwise_difference_intervals(store, acc.TOP3, level=0.95,
                                                    normalizer=bounds))
    for pair, targets in acc.T4_PAIRWISE.items():
        name = " - ".join(pair)
        rows["T4 raw"].append((margin(raw_pairs[pair], targets["bootstrap"], 0.2), name))
        rows["T4 normalized"].append(
            (margin(norm_pairs[pair], targets["normalized"], 0.2), name))
        bhm = credible_interval(draws, pair[0], other=pair[1], level=0.95, comparisons=3)
        rows["BHM"].append((margin(bhm, targets["bhm"], 0.2), f"T4 {name}"))

    schemes = (RankScheme.BY_AVERAGE, RankScheme.AVERAGE_RANK,
               RankScheme.AVERAGE_RANK_NOISE, RankScheme.AVERAGE_RANK_BINNED)
    columns = {
        section: {scheme: {r.model: r.interval for r in rows}
                  for scheme, rows in tables.items()}
        for section, tables in rank_tables(store, schemes, level=0.95,
                                           normalizer=bounds).items()
    }
    for section, exact in (("raw", acc.RAW_BY_AVG_EXACT),
                           ("normalized", acc.NORM_BY_AVG_EXACT)):
        for model, target in exact.items():
            est = columns[section]["by-average"][model]
            rows["by-average exact"].append(
                (margin(est, (target,) * 3, 0.05, scale=1.0), f"{section} {model}"))
    for section, targets in (("raw", acc.RAW_AVR), ("normalized", acc.NORM_AVR)):
        for model, by_scheme in targets.items():
            for scheme, target in by_scheme.items():
                est = columns[section][scheme][model]
                rows[f"rank {section}"].append(
                    (margin(est, target, 0.3, scale=1.0), f"{scheme} {model}"))
    return {group: min(found) for group, found in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the benchuq package to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import test_acceptance as acc

    per_seed = {seed: seed_margins(seed, acc) for seed in args.seeds}
    summaries = [(group, [per_seed[s][group] for s in args.seeds]) for group in GROUPS]
    boot = [min(per_seed[s][g] for g in GROUPS if g != "BHM") for s in args.seeds]
    every = [min(per_seed[s].values()) for s in args.seeds]
    summaries += [("bootstrap rows", boot), ("all rows", every)]

    print(f"{'group':<18}" + "".join(f"{f'seed {s}':>9}" for s in args.seeds)
          + f"{'min':>9}  closest row")
    for group, found in summaries:
        (low, row), seed = min(zip(found, args.seeds))
        print(f"{group:<18}" + "".join(f"{m:>9.3f}" for m, _ in found)
              + f"{low:>9.3f}  {row} (seed {seed})")
    return 1 if min(every)[0] < 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
