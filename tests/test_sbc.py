"""Simulation-based calibration of the whole hierarchical model.

Talts, Betancourt, Simpson, Vehtari & Gelman (2018), arXiv:1804.06788: draw
(alpha, beta) from the prior the fit uses, then theta, then Y; fit; rank
each true quantity among its posterior draws.  If the fit draws from the
exact posterior, every rank is uniform on 0..L for L draws.  The tables are
small and weakly identified on purpose: N = 1 tasks, and tasks with
Y = 0 or Y = N, are common.
"""

import warnings

import numpy as np

from benchuq.bhm import EDGE_MASS_WARN_THRESHOLD, McmcConfig, PriorSpec, fit_bhm
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import ConvergenceWarning

REPLICATIONS = 300
RATE = 0.5
SIZES = (1, 2, 5, 20, 100)
DRAWS = 99  # ranks 0..99, ten bins of ten
BINS = 10
# 0.999 quantile of chi-square with BINS - 1 = 9 degrees of freedom.
CHI2_BOUND = 27.88


def chi_square(ranks):
    counts = np.bincount(np.asarray(ranks) * BINS // (DRAWS + 1), minlength=BINS)
    expected = len(ranks) / BINS
    return float(((counts - expected) ** 2 / expected).sum())


def test_ranks_of_true_thetas_are_uniform():
    gen = np.random.default_rng(1804)
    prior = PriorSpec.exponential(RATE)
    ranks = {"mean": [], 0: [], 1: [], 2: []}
    n_one = saturated = zero = 0
    for r in range(REPLICATIONS):
        T = int(gen.integers(3, 6))
        alpha, beta = gen.exponential(1.0 / RATE, size=2)
        theta = gen.beta(alpha, beta, size=T)
        sizes = gen.choice(SIZES, size=T)
        counts = gen.binomial(sizes, theta)
        table = EvalTable(models=("m",),
                          tasks=tuple(TaskSpec(f"t{j}", "c", int(n)) for j, n in enumerate(sizes)),
                          counts=counts[None, :])
        config = McmcConfig(total_iterations=DRAWS, burn_in=0, thinning=1, chains=1, seed=r)
        with warnings.catch_warnings():
            # 99 draws make a noisy split R-hat; edge mass is checked below.
            warnings.simplefilter("ignore", ConvergenceWarning)
            draws = fit_bhm(table, priors=prior, config=config)
        assert draws.diagnostics["m"]["edge_mass"] <= EDGE_MASS_WARN_THRESHOLD, r
        post = draws.theta[:, 0, :]
        ranks["mean"].append(int((post.mean(axis=1) < theta.mean()).sum()))
        for j in (0, 1, 2):
            ranks[j].append(int((post[:, j] < theta[j]).sum()))
        n_one += int((sizes == 1).sum())
        big = sizes > 1
        saturated += int((big & (counts == sizes)).sum())
        zero += int((big & (counts == 0)).sum())
    # The edge cases the simulated tables are meant to include.
    assert min(n_one, saturated, zero) >= 50, (n_one, saturated, zero)
    stats = {key: chi_square(values) for key, values in ranks.items()}
    assert all(s <= CHI2_BOUND for s in stats.values()), stats
