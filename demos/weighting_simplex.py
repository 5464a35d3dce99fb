"""
Category weighting and the winner simplex
=========================================

An aggregate score is a choice of task weights.  Sweeping all convex
combinations of the three task-category weights and asking "who wins here,
and by how many standard errors?" turns that choice into a picture: a
ternary map whose gray cells mark weightings where no winner clears the
margin test.
"""

import numpy as np

from benchuq import load_vtab
from benchuq.core import accuracy_of
from benchuq.weighting import (
    INDETERMINATE,
    WeightVector,
    se_reduction_factor,
    simplex_scan,
    weighted_variance,
)

table = load_vtab()
categories = ("natural", "specialized", "structured")

# The analytic variance of a weighted score: independent binomial cells,
# so Var[S] is a weighted sum of p(1-p)/N terms.  No resampling needed.
wv = WeightVector.per_category({"natural": 0.025, "specialized": 0.025,
                                "structured": 0.95})
acc = accuracy_of(table).values
i = table.model_index("Rotation")
var = weighted_variance(acc[i], table.sizes, wv, tasks=table.tasks)
print(f"Rotation, structured-heavy weights: SE = {np.sqrt(var) * 100:.3f} points")

# Scan the simplex at z = 2 (a two-standard-error margin test) and at the
# correlation-adjusted z = 2 * sqrt(1/2), which treats model pairs as
# positively correlated and therefore easier to separate.
for z in (2.0, 2.0 * se_reduction_factor(1.0, 0.5)):
    field = simplex_scan(table, categories, grid_step=0.05, z=z)
    n_gray = sum(1 for c in field.cells if c.winner == INDETERMINATE)
    print(f"z = {z:.2f}: winners {sorted(set(field.winners()))}, "
          f"{n_gray}/{len(field.cells)} cells indeterminate")

# Render the z = 2 field as a standalone SVG ternary plot.
from benchuq.viz import render_ternary

field = simplex_scan(table, categories, grid_step=0.05, z=2.0)
svg = render_ternary(field)
out = "simplex_demo.svg"
with open(out, "w", encoding="utf-8", newline="\n") as fh:
    fh.write(svg)
print(f"wrote {out} ({len(svg)} bytes)")
