"""
Bayesian hierarchical model over task accuracies
================================================

Each model's per-task success probabilities are drawn from a Beta(alpha_i,
beta_i) shared across its tasks, with wide exponential hyperpriors.  The
posterior shrinks noisy small-task estimates toward the model's typical
performance and yields credible intervals for any functional of theta.
"""

from benchuq import load_vtab
from benchuq.bhm import (
    McmcConfig,
    PriorSpec,
    credible_interval,
    fit_bhm,
    posterior_rank_probabilities,
)

table = load_vtab()

# 2 x 1,000 independent draws keep the demo quick; the default is 4 x 2,000.
config = McmcConfig(total_iterations=3_000, burn_in=1_000, thinning=2,
                    chains=2, seed=0)
draws = fit_bhm(table, priors=PriorSpec.exponential(1e-4), config=config)
print(f"retained draws: {draws.n_draws}")

# Diagnostics per model: split-chain R-hat and effective sample size of
# the across-task mean, and the posterior grid's edge mass.
worst = max(draws.diagnostics.items(), key=lambda kv: kv[1]["rhat"])
print(f"worst R-hat: {worst[1]['rhat']:.4f} ({worst[0]}), "
      f"ESS {worst[1]['ess']:.0f}")
print(f"largest grid edge mass: "
      f"{max(d['edge_mass'] for d in draws.diagnostics.values()):.1e}")

# Credible intervals for the across-task mean theta, top six models.
from benchuq.report import format_interval

by_point = sorted(
    ((credible_interval(draws, m, level=0.834), m) for m in table.models),
    key=lambda pair: -pair[0].point,
)
print()
print("83.4% credible intervals (top six):")
for est, m in by_point[:6]:
    print(f"  {m:20s} {format_interval(est, scale=100.0)}")

# The posterior also gives P(model holds rank r) directly: rank each draw's
# weighted theta means and count.
probs = posterior_rank_probabilities(draws)
leader, runner_up = by_point[0][1], by_point[1][1]
i = draws.model_index(leader)
j = draws.model_index(runner_up)
print()
print(f"P({leader} is rank 1) = {probs[i, 0]:.2f}")
print(f"P({runner_up} is rank 1) = {probs[j, 0]:.2f}")
