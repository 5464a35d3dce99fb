"""fit_bhm's default intervals against an independent quadrature.

The oracle values are frozen from ``python3 tools/bhm_oracle.py``, which
shares no code with ``benchuq.bhm``: it integrates the collapsed posterior
over (logit mean, log concentration) with ``scipy.special.betaln`` on a
1001 x 1001 grid.  Each case's oracle gives the posterior mean and the
equal-tailed interval of a functional of theta.

The fit's draws are independent, so with S draws the share of them below
an oracle endpoint at tail probability p has Monte Carlo standard error
sqrt(p (1 - p) / S), and the fit's mean has sd / sqrt(S).  Both must lie
within 4 of these MCSEs of the oracle.  The oracle's own Monte Carlo error
is about 1/16 of the fit's and is left out.
"""

import math

import numpy as np
import pytest

from benchuq.bhm import McmcConfig, PriorSpec, fit_bhm
from benchuq.cli import SIMSTUDY_PRIORS, simulation_study_table
from benchuq.core import EvalTable, TaskSpec
from benchuq.fixtures import load_vtab

MCSES = 4.0

# name: (level, mean, lower, upper), from tools/bhm_oracle.py.
ORACLE = {
    "n1-zero-x3": (0.90, 0.200014, 0.012707, 0.526654),
    "three-tasks": (0.90, 0.653938, 0.608979, 0.696288),
    "one-task": (0.90, 0.696078, 0.619343, 0.768415),
    "one-task-n10000": (0.90, 0.699960, 0.692396, 0.707464),
    "simstudy A-B": (0.95, -0.012109, -0.021042, -0.003189),
    "Sup-Rotation-100%": (0.834, 0.679816, 0.677835, 0.681790),
    "Semi-Exemplar-10%": (0.834, 0.652758, 0.650738, 0.654775),
}

WEAK = {
    "n1-zero-x3": ([0, 0, 0], [1, 1, 1]),
    "three-tasks": ([60, 150, 20], [100, 200, 50]),
    "one-task": ([70], [100]),
    "one-task-n10000": ([7000], [10000]),
}


def one_model_table(counts, sizes):
    tasks = tuple(TaskSpec(f"t{j}", "c", n) for j, n in enumerate(sizes))
    return EvalTable(models=("m",), tasks=tasks, counts=np.array([counts]))


@pytest.fixture(scope="module")
def fixture_draws():
    return fit_bhm(load_vtab(), priors=PriorSpec.exponential(1e-4), config=McmcConfig())


def series_for(case, fixture_draws):
    """The fit's draws of the case's functional: a mean theta, or A - B."""
    if case in WEAK:
        draws = fit_bhm(one_model_table(*WEAK[case]), priors=PriorSpec.exponential(1e-4),
                        config=McmcConfig())
        return draws.theta[:, 0, :].mean(axis=1)
    if case == "simstudy A-B":
        draws = fit_bhm(simulation_study_table(), priors=SIMSTUDY_PRIORS, config=McmcConfig())
        mean = draws.theta.mean(axis=2)
        return mean[:, 0] - mean[:, 1]
    return fixture_draws.theta[:, fixture_draws.model_index(case), :].mean(axis=1)


@pytest.mark.parametrize("case", list(ORACLE))
def test_default_fit_matches_quadrature_oracle(case, fixture_draws):
    level, mean, lower, upper = ORACLE[case]
    series = series_for(case, fixture_draws)
    S = series.size
    assert S == McmcConfig().chains * McmcConfig().retained_per_chain
    assert abs(series.mean() - mean) <= MCSES * series.std() / math.sqrt(S), (
        case, series.mean(), mean)
    tail = (1.0 - level) / 2.0
    for p, endpoint in ((tail, lower), (1.0 - tail, upper)):
        share = np.mean(series <= endpoint)
        assert abs(share - p) <= MCSES * math.sqrt(p * (1.0 - p) / S), (case, p, share)
