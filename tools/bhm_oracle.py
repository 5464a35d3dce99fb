#!/usr/bin/env python3
"""Regenerate the frozen BHM interval oracles used in tests/test_bhm_oracle.py.

Run from the repository root:

    python3 tools/bhm_oracle.py

This is an independent computation of the hierarchical model's posterior,
sharing no code with ``benchuq.bhm``.  It works in the parametrization of
Gelman et al., *Bayesian Data Analysis* (3rd ed.), section 5.3: u, the
logit of the prior mean alpha / (alpha + beta), and v, the log of the
concentration alpha + beta.  The Jacobian of (alpha, beta) in (u, v) is
alpha * beta.  It uses ``scipy.special.betaln`` for the collapsed
likelihood, zooms a 201 x 201 grid onto the cells within 40 log units of
the peak, and integrates on a 1001 x 1001 grid over that box.

For a one-task table the posterior CDF of theta is exactly a mixture of
Beta CDFs over the grid cells, and its quantiles are solved for directly.
Other functionals (the mean theta over several tasks, or a difference of
two models) come from 2,000,000 Monte Carlo draws from the fine grid, with
the grid cell jittered uniformly and theta drawn from its conjugate Beta;
their Monte Carlo error is about 1/16 of a default 8,000-draw fit's.

Prints, per case, the interval level, the posterior mean and the two
endpoints, and the grid's edge mass (the share of mass in its outermost
cells).  The values are copied verbatim into the tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, betaln, expit

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from benchuq.fixtures import load_vtab  # noqa: E402  (data only)

COARSE, FINE, CUTOFF = 201, 1001, 40.0
DRAWS, CHUNK = 2_000_000, 100_000


def exponential(rate):
    return lambda x: -rate * x


def truncated_normal(mu, sigma):
    return lambda x: -0.5 * ((x - mu) / sigma) ** 2


def log_posterior(u, v, counts, sizes, prior_a, prior_b):
    """log p(u, v | Y) up to a constant, on broadcast u and v."""
    alpha = np.exp(v) * expit(u)
    beta = np.exp(v) * expit(-u)
    out = prior_a(alpha) + prior_b(beta) + np.log(alpha) + np.log(beta)
    for y, n in zip(counts, sizes):
        out = out + betaln(alpha + y, beta + n - y) - betaln(alpha, beta)
    return out


class Grid:
    """Cell centres and normalized masses of one model's posterior over (u, v)."""

    def __init__(self, counts, sizes, prior_a, prior_b):
        args = (np.asarray(counts, float), np.asarray(sizes, float), prior_a, prior_b)
        lo, hi = np.array([-30.0, -25.0]), np.array([30.0, 30.0])
        for _ in range(12):
            u, v = np.linspace(lo[0], hi[0], COARSE), np.linspace(lo[1], hi[1], COARSE)
            lp = log_posterior(u[:, None], v[None, :], *args)
            near = lp >= np.nanmax(lp) - CUTOFF
            rows = np.flatnonzero(near.any(axis=1))
            cols = np.flatnonzero(near.any(axis=0))
            lo = np.array([u[max(rows[0] - 1, 0)], v[max(cols[0] - 1, 0)]])
            hi = np.array([u[min(rows[-1] + 1, COARSE - 1)], v[min(cols[-1] + 1, COARSE - 1)]])
        self.u = np.linspace(lo[0], hi[0], FINE)
        self.v = np.linspace(lo[1], hi[1], FINE)
        lp = log_posterior(self.u[:, None], self.v[None, :], *args)
        mass = np.exp(lp - np.nanmax(lp))
        mass /= mass.sum()
        self.mass = mass
        self.edge = mass[[0, -1], :].sum() + mass[1:-1, [0, -1]].sum()
        self.counts, self.sizes = args[0], args[1]

    def cells(self):
        """alpha and beta at every cell centre, with the cell masses, flattened."""
        s = np.exp(self.v)[None, :]
        return ((s * expit(self.u)[:, None]).ravel(),
                (s * expit(-self.u)[:, None]).ravel(), self.mass.ravel())

    def mean_theta_draws(self, gen, n):
        """n draws of the mean of theta over the model's tasks."""
        cdf = np.cumsum(self.mass.ravel())
        du, dv = self.u[1] - self.u[0], self.v[1] - self.v[0]
        out = np.empty(n)
        for lo in range(0, n, CHUNK):
            m = min(CHUNK, n - lo)
            cell = np.minimum(np.searchsorted(cdf, gen.random(m) * cdf[-1]), cdf.size - 1)
            i, j = np.divmod(cell, FINE)
            u = self.u[i] + du * (gen.random(m) - 0.5)
            v = self.v[j] + dv * (gen.random(m) - 0.5)
            alpha, beta = np.exp(v) * expit(u), np.exp(v) * expit(-u)
            theta = gen.beta(alpha[:, None] + self.counts,
                             beta[:, None] + self.sizes - self.counts)
            out[lo:lo + m] = theta.mean(axis=1)
        return out


def exact_one_task(grid, level):
    """Mean and equal-tailed interval of theta for a one-task table."""
    alpha, beta, w = grid.cells()
    keep = w > 1e-18
    a = alpha[keep] + grid.counts[0]
    b = beta[keep] + grid.sizes[0] - grid.counts[0]
    w = w[keep] / w[keep].sum()

    def quantile(p):
        return brentq(lambda t: float(w @ betainc(a, b, t)) - p, 1e-15, 1 - 1e-15,
                      xtol=1e-12)

    tail = (1 - level) / 2
    return float(w @ (a / (a + b))), quantile(tail), quantile(1 - tail)


def monte_carlo(series, level):
    tail = (1 - level) / 2
    lo, hi = np.quantile(series, [tail, 1 - tail])
    return float(series.mean()), float(lo), float(hi)


WEAK_PRIOR = exponential(1e-4)
WEAK = {
    "n1-zero-x3": ([0, 0, 0], [1, 1, 1]),
    "three-tasks": ([60, 150, 20], [100, 200, 50]),
    "one-task": ([70], [100]),
    "one-task-n10000": ([7000], [10000]),
}
SIMSTUDY = {
    "A": ([100, 5_000, 10_000], truncated_normal(2000.0, 10.0), truncated_normal(2000.0, 10.0)),
    "B": ([115, 5_000, 10_000], truncated_normal(2100.0, 10.0), truncated_normal(1900.0, 10.0)),
}
SIMSTUDY_SIZES = [200, 10_000, 20_000]
FIXTURE_MODELS = ("Sup-Rotation-100%", "Semi-Exemplar-10%")


def main():
    gen = np.random.default_rng(20_261_019)
    print("# case: level, mean, lower, upper  (edge mass)")
    for name, (counts, sizes) in WEAK.items():
        grid = Grid(counts, sizes, WEAK_PRIOR, WEAK_PRIOR)
        if len(counts) == 1:
            point, lo, hi = exact_one_task(grid, 0.90)
        else:
            point, lo, hi = monte_carlo(grid.mean_theta_draws(gen, DRAWS), 0.90)
        print(f"{name}: 0.90, {point:.6f}, {lo:.6f}, {hi:.6f}  ({grid.edge:.1e})")

    grids = {m: Grid(c, SIMSTUDY_SIZES, pa, pb) for m, (c, pa, pb) in SIMSTUDY.items()}
    diff = grids["A"].mean_theta_draws(gen, DRAWS) - grids["B"].mean_theta_draws(gen, DRAWS)
    point, lo, hi = monte_carlo(diff, 0.95)
    edge = max(g.edge for g in grids.values())
    print(f"simstudy A-B: 0.95, {point:.6f}, {lo:.6f}, {hi:.6f}  ({edge:.1e})")

    table = load_vtab()
    for model in FIXTURE_MODELS:
        i = table.models.index(model)
        grid = Grid(table.counts[i], table.sizes, WEAK_PRIOR, WEAK_PRIOR)
        point, lo, hi = monte_carlo(grid.mean_theta_draws(gen, DRAWS), 0.834)
        print(f"{model}: 0.834, {point:.6f}, {lo:.6f}, {hi:.6f}  ({grid.edge:.1e})")


if __name__ == "__main__":
    main()
