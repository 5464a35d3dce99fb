"""Beta-binomial hierarchical model fitted by slice-within-Gibbs sampling.

Each cell count is Y_ij | theta_ij ~ Binomial(N_j, theta_ij) with
theta_ij | alpha_i, beta_i ~ Beta(alpha_i, beta_i) and independent
hyperpriors on every model's (alpha_i, beta_i).  The theta updates are
conjugate Beta draws; the hyperparameter conditionals are not recognizable
distributions, so each alpha_i and beta_i moves by one univariate slice
step (stepping-out and shrinkage) per sweep.

Slice steps run on the log-transformed hyperparameter with the +log(x)
Jacobian term, because alpha and beta range over orders of magnitude and a
fixed slice width only makes sense on the log scale.  The transform is an
implementation device: the sampled distribution is the untransformed
conditional, which the tests verify directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping
from warnings import warn

import numpy as np
from scipy.special import betaln

from . import rng as _rng
from .bootstrap import IntervalEstimate, percentile_interval
from .core import EvalTable
from .errors import ConvergenceWarning, SliceSamplerError, ValidationError
from .weighting import UNWEIGHTED, WeightVector, resolve_task_weights

__all__ = [
    "DEFAULT_PRIOR_RATE",
    "RHAT_WARN_THRESHOLD",
    "PriorSpec",
    "McmcConfig",
    "PosteriorDraws",
    "gibbs_theta_update",
    "log_conditional_alpha",
    "log_conditional_beta",
    "slice_sample_step",
    "fit_bhm",
    "credible_interval",
    "posterior_predictive",
    "posterior_rank_probabilities",
    "split_rhat",
    "effective_sample_size",
]

# Exp(1/10000) spreads prior mass over pseudo-count scales from single
# digits to tens of thousands.
DEFAULT_PRIOR_RATE = 1.0 / 10_000

RHAT_WARN_THRESHOLD = 1.05

# Shrinkage halves the bracket (in expectation) every rejection, so a
# conforming log density cannot take anywhere near this many tries.
_SHRINK_BUDGET = 200

# Keeps log(theta) and log1p(-theta) finite when a conjugate draw rounds
# to an endpoint in floating point.
_THETA_EPS = 1e-12


@dataclass(frozen=True)
class PriorSpec:
    """Hyperprior for one hyperparameter: exponential, truncated normal, or fixed."""

    kind: str
    rate: float | None = None
    mu: float | None = None
    sigma: float | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind == "exponential":
            if self.rate is None or self.rate <= 0:
                raise ValidationError(f"exponential rate must be > 0, got {self.rate}")
        elif self.kind == "truncated_normal":
            if self.sigma is None or self.sigma <= 0:
                raise ValidationError(f"truncated normal sd must be > 0, got {self.sigma}")
            if self.mu is None:
                raise ValidationError("truncated normal prior needs a mean")
        elif self.kind == "fixed":
            if self.value is None or self.value <= 0:
                raise ValidationError(f"fixed hyperparameter must be > 0, got {self.value}")
        else:
            raise ValidationError(f"unknown prior kind {self.kind!r}")

    @classmethod
    def exponential(cls, rate: float = DEFAULT_PRIOR_RATE) -> "PriorSpec":
        return cls(kind="exponential", rate=rate)

    @classmethod
    def truncated_normal(cls, mu: float, sigma: float) -> "PriorSpec":
        """Normal(mu, sigma) truncated to (0, inf)."""
        return cls(kind="truncated_normal", mu=mu, sigma=sigma)

    @classmethod
    def fixed(cls, value: float) -> "PriorSpec":
        """Point mass: pins the hyperparameter, disabling its slice step."""
        return cls(kind="fixed", value=value)

    def log_density(self, x: float) -> float:
        """Log prior density at x, up to an additive constant; -inf off support."""
        if x <= 0:
            return -math.inf
        if self.kind == "exponential":
            return math.log(self.rate) - self.rate * x
        if self.kind == "truncated_normal":
            return -0.5 * ((x - self.mu) / self.sigma) ** 2
        raise ValidationError("fixed priors have no density to evaluate")

    def initial_value(self) -> float:
        return self.value if self.kind == "fixed" else 2.0


@dataclass(frozen=True)
class McmcConfig:
    """Sampler controls; defaults are tuned for benchmark-scale tables."""

    total_iterations: int = 12_000
    burn_in: int = 2_000
    thinning: int = 5
    chains: int = 4
    seed: int = 0
    slice_width: float = 1.0
    slice_max_stepout: int = 50

    def __post_init__(self):
        if self.burn_in < 0 or self.burn_in >= self.total_iterations:
            raise ValidationError(
                f"burn-in {self.burn_in} must be in [0, total_iterations)"
            )
        if self.thinning < 1:
            raise ValidationError(f"thinning must be >= 1, got {self.thinning}")
        if self.chains < 1:
            raise ValidationError(f"chain count must be >= 1, got {self.chains}")
        if self.slice_width <= 0:
            raise ValidationError(f"slice width must be > 0, got {self.slice_width}")
        if self.slice_max_stepout < 1:
            raise ValidationError(
                f"slice max stepout must be >= 1, got {self.slice_max_stepout}"
            )

    @property
    def retained_per_chain(self) -> int:
        return (self.total_iterations - self.burn_in) // self.thinning


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained MCMC draws, chain-major: draw s belongs to chain s // K."""

    theta: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    models: tuple[str, ...] = ()
    tasks: tuple = ()
    config: McmcConfig = None
    diagnostics: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if theta.ndim != 3:
            raise ValidationError(f"theta must be draws x models x tasks, got {theta.shape}")
        if alpha.shape != theta.shape[:2] or beta.shape != theta.shape[:2]:
            raise ValidationError("alpha/beta shapes do not match theta draws")
        if np.any((theta <= 0.0) | (theta >= 1.0)):
            raise ValidationError("theta draws must lie strictly inside (0, 1)")
        if np.any(alpha <= 0.0) or np.any(beta <= 0.0):
            raise ValidationError("alpha and beta draws must be strictly positive")
        for arr in (theta, alpha, beta):
            arr.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @property
    def n_draws(self) -> int:
        return self.theta.shape[0]

    def model_index(self, model: str) -> int:
        try:
            return self.models.index(model)
        except ValueError:
            raise KeyError(f"unknown model {model!r}") from None

    def _retained_iteration(self, k: int) -> int:
        return self.config.burn_in + (k + 1) * self.config.thinning

    def to_csv(self, directory) -> None:
        """Dump draws as theta.csv and hyper.csv with a config.json echo."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        K = self.config.retained_per_chain
        task_ids = [getattr(t, "task_id", str(t)) for t in self.tasks]
        with (directory / "theta.csv").open("w", newline="") as fh:
            fh.write("chain,iteration,model,task,theta\n")
            for s in range(self.n_draws):
                c, k = divmod(s, K)
                it = self._retained_iteration(k)
                for i, model in enumerate(self.models):
                    for j, task in enumerate(task_ids):
                        fh.write(f"{c},{it},{model},{task},{float(self.theta[s, i, j])!r}\n")
        with (directory / "hyper.csv").open("w", newline="") as fh:
            fh.write("chain,iteration,model,alpha,beta\n")
            for s in range(self.n_draws):
                c, k = divmod(s, K)
                it = self._retained_iteration(k)
                for i, model in enumerate(self.models):
                    fh.write(
                        f"{c},{it},{model},"
                        f"{float(self.alpha[s, i])!r},{float(self.beta[s, i])!r}\n"
                    )
        (directory / "config.json").write_text(json.dumps(asdict(self.config), indent=2))


def gibbs_theta_update(Y, N, alpha, beta, rng: np.random.Generator):
    """Conjugate draw theta ~ Beta(alpha + Y, beta + N - Y); broadcasts."""
    return rng.beta(np.add(alpha, Y), np.add(beta, np.subtract(N, Y)))


def _log_conditional(x: float, other: float, log_sum: float, n_tasks: int,
                     prior: PriorSpec, x_is_alpha: bool) -> float:
    if x <= 0:
        return -math.inf
    a, b = (x, other) if x_is_alpha else (other, x)
    return (
        prior.log_density(x)
        + (x - 1.0) * log_sum
        - n_tasks * float(betaln(a, b))
    )


def log_conditional_alpha(alpha: float, beta: float, thetas, prior: PriorSpec) -> float:
    """Log full conditional of one model's alpha, up to a constant.

    log p(alpha | ...) = log prior(alpha) + (alpha - 1) sum_j log theta_j
                         - J log B(alpha, beta);
    returns -inf for alpha <= 0 so the slice sampler sees the support edge.
    """
    thetas = np.asarray(thetas, dtype=float)
    return _log_conditional(
        alpha, beta, float(np.log(thetas).sum()), thetas.size, prior, x_is_alpha=True
    )


def log_conditional_beta(alpha: float, beta: float, thetas, prior: PriorSpec) -> float:
    """Symmetric counterpart of log_conditional_alpha, driven by log(1 - theta)."""
    thetas = np.asarray(thetas, dtype=float)
    return _log_conditional(
        beta, alpha, float(np.log1p(-thetas).sum()), thetas.size, prior, x_is_alpha=False
    )


def slice_sample_step(
    logdensity: Callable[[float], float],
    x0: float,
    width: float,
    max_stepout: int,
    rng: np.random.Generator,
) -> float:
    """One slice-sampling transition: stepping-out, then shrinkage.

    Draws the auxiliary level u under logdensity(x0), brackets the slice by
    expanding a width-sized window up to max_stepout times total (the budget
    split randomly between the two directions, which keeps the transition
    reversible), then samples uniformly on the bracket, shrinking it toward
    x0 on each rejection.  The return value always satisfies
    logdensity(x1) >= u.
    """
    logp0 = logdensity(x0)
    if not np.isfinite(logp0):
        raise SliceSamplerError(
            f"log density at the current point is not finite: {logp0}",
            diagnostics={"x0": x0, "logp0": logp0},
        )
    log_u = logp0 + math.log(rng.uniform())

    left = x0 - width * rng.uniform()
    right = left + width
    budget_left = int(math.floor(max_stepout * rng.uniform()))
    budget_right = max_stepout - 1 - budget_left
    while budget_left > 0 and logdensity(left) > log_u:
        left -= width
        budget_left -= 1
    while budget_right > 0 and logdensity(right) > log_u:
        right += width
        budget_right -= 1

    for _ in range(_SHRINK_BUDGET):
        x1 = left + (right - left) * rng.uniform()
        if logdensity(x1) >= log_u:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    raise SliceSamplerError(
        f"no acceptable point after {_SHRINK_BUDGET} shrinkage steps",
        diagnostics={
            "x0": x0,
            "log_u": log_u,
            "left": left,
            "right": right,
            "evaluations": _SHRINK_BUDGET + max_stepout,
        },
    )


def _normalize_priors(priors, models) -> dict[str, tuple[PriorSpec, PriorSpec]]:
    default = (PriorSpec.exponential(), PriorSpec.exponential())
    if priors is None:
        return {m: default for m in models}
    if isinstance(priors, PriorSpec):
        return {m: (priors, priors) for m in models}
    if isinstance(priors, tuple):
        a, b = priors
        return {m: (a, b) for m in models}
    unknown = set(priors) - set(models)
    if unknown:
        raise ValidationError(f"priors given for unknown models {sorted(unknown)}")
    return {m: tuple(priors[m]) if m in priors else default for m in models}


def _run_chain(
    table: EvalTable,
    prior_pairs: list[tuple[PriorSpec, PriorSpec]],
    config: McmcConfig,
    chain: int,
    theta_out: np.ndarray,
    alpha_out: np.ndarray,
    beta_out: np.ndarray,
) -> None:
    gen = _rng.substream(config.seed, _rng.CHAIN, chain)
    Y = table.counts
    N = table.sizes
    n_models, n_tasks = Y.shape

    theta = np.clip((Y + 0.5) / (N[None, :] + 1.0), _THETA_EPS, 1.0 - _THETA_EPS)
    alpha = np.array([pa.initial_value() for pa, _ in prior_pairs])
    beta = np.array([pb.initial_value() for _, pb in prior_pairs])

    for i, (prior_a, prior_b) in enumerate(prior_pairs):
        finite_a = prior_a.kind == "fixed" or np.isfinite(
            log_conditional_alpha(alpha[i], beta[i], theta[i], prior_a)
        )
        finite_b = prior_b.kind == "fixed" or np.isfinite(
            log_conditional_beta(alpha[i], beta[i], theta[i], prior_b)
        )
        if not (finite_a and finite_b):
            raise ValidationError(
                f"model {table.models[i]!r}: log density not finite at "
                f"initialization (alpha={alpha[i]}, beta={beta[i]})"
            )

    kept = 0
    for t in range(1, config.total_iterations + 1):
        theta = gibbs_theta_update(Y, N[None, :], alpha[:, None], beta[:, None], gen)
        np.clip(theta, _THETA_EPS, 1.0 - _THETA_EPS, out=theta)
        log_theta = np.log(theta).sum(axis=1)
        log_1m_theta = np.log1p(-theta).sum(axis=1)

        for i, (prior_a, prior_b) in enumerate(prior_pairs):
            if prior_a.kind != "fixed":
                b_i, s = beta[i], log_theta[i]

                def g_alpha(y: float) -> float:
                    return _log_conditional(
                        math.exp(y), b_i, s, n_tasks, prior_a, x_is_alpha=True
                    ) + y

                y1 = slice_sample_step(
                    g_alpha, math.log(alpha[i]), config.slice_width,
                    config.slice_max_stepout, gen,
                )
                alpha[i] = math.exp(y1)
            if prior_b.kind != "fixed":
                a_i, s = alpha[i], log_1m_theta[i]

                def g_beta(y: float) -> float:
                    return _log_conditional(
                        math.exp(y), a_i, s, n_tasks, prior_b, x_is_alpha=False
                    ) + y

                y1 = slice_sample_step(
                    g_beta, math.log(beta[i]), config.slice_width,
                    config.slice_max_stepout, gen,
                )
                beta[i] = math.exp(y1)

        if t > config.burn_in and (t - config.burn_in) % config.thinning == 0:
            theta_out[kept] = theta
            alpha_out[kept] = alpha
            beta_out[kept] = beta
            kept += 1


def fit_bhm(
    table: EvalTable,
    priors=None,
    config: McmcConfig = McmcConfig(),
) -> PosteriorDraws:
    """Fit the hierarchical model; deterministic given the config seed.

    ``priors`` may be a single PriorSpec (both hyperparameters, all models),
    an (alpha_prior, beta_prior) tuple, or a mapping model -> pair; models
    missing from a mapping get the default exponential hyperpriors.  Chains
    run one after another, each on its own chain-indexed substream, so a
    chain's draws do not depend on the order chains run in.  Convergence
    diagnostics (split-chain R-hat and effective sample size of each model's
    mean theta trace) are attached to the result and a warning fires if any
    R-hat exceeds 1.05.
    """
    by_model = _normalize_priors(priors, table.models)
    prior_pairs = [by_model[m] for m in table.models]
    K = config.retained_per_chain
    if K < 1:
        raise ValidationError(
            "no draws retained: increase total_iterations or reduce burn-in/thinning"
        )
    C = config.chains
    n_models, n_tasks = table.counts.shape
    theta = np.empty((C * K, n_models, n_tasks))
    alpha = np.empty((C * K, n_models))
    beta = np.empty((C * K, n_models))

    for c in range(C):
        block = slice(c * K, (c + 1) * K)
        _run_chain(table, prior_pairs, config, c, theta[block], alpha[block], beta[block])

    mean_theta = theta.mean(axis=2)  # draws x models
    diagnostics = {}
    worst = 0.0
    for i, model in enumerate(table.models):
        per_chain = mean_theta[:, i].reshape(C, K)
        r = split_rhat(per_chain)
        diagnostics[model] = {
            "rhat": r,
            "ess": effective_sample_size(per_chain),
        }
        worst = max(worst, r) if np.isfinite(r) else worst
    if worst > RHAT_WARN_THRESHOLD:
        warn(
            f"split-chain R-hat up to {worst:.3f} exceeds {RHAT_WARN_THRESHOLD}; "
            "intervals may be unreliable — consider more iterations",
            ConvergenceWarning,
            stacklevel=2,
        )
    return PosteriorDraws(
        theta=theta,
        alpha=alpha,
        beta=beta,
        models=table.models,
        tasks=table.tasks,
        config=config,
        diagnostics=diagnostics,
    )


def credible_interval(
    draws: PosteriorDraws,
    model: str,
    other: str | None = None,
    weights: WeightVector | None = UNWEIGHTED,
    level: float = 0.95,
    comparisons: int = 1,
) -> IntervalEstimate:
    """Equal-tailed credible interval for a weighted mean of thetas.

    The functional is the weighted across-task mean of theta for ``model``,
    minus the same functional of ``other`` when given.  ``comparisons``
    applies a Bonferroni adjustment: the interval is computed at level
    1 - (1 - level)/comparisons.  The point estimate is the posterior mean.
    """
    if comparisons < 1:
        raise ValidationError(f"comparisons must be >= 1, got {comparisons}")
    w = resolve_task_weights(weights, draws.tasks)
    series = draws.theta[:, draws.model_index(model), :] @ w
    if other is not None:
        series = series - draws.theta[:, draws.model_index(other), :] @ w
    adjusted = 1.0 - (1.0 - level) / comparisons
    if np.ptp(series) == 0.0:
        point = float(series[0])
        return IntervalEstimate(point, point, point, adjusted, "bhm-credible")
    lower, upper = percentile_interval(series, adjusted)
    return IntervalEstimate(
        point=float(series.mean()),
        lower=lower,
        upper=upper,
        level=adjusted,
        method="bhm-credible",
    )


def posterior_predictive(
    draws: PosteriorDraws,
    sizes=None,
    gen: np.random.Generator | None = None,
) -> np.ndarray:
    """Predictive accuracies: one Binomial(N_j, theta_ij)/N_j per retained draw.

    Returns a draws x models x tasks array.  The default stream is the
    PREDICTIVE substream of the fit seed, so repeated calls reproduce.
    """
    if sizes is None:
        sizes = [t.test_size for t in draws.tasks]
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.shape != (draws.theta.shape[2],):
        raise ValidationError(
            f"got {sizes.size} sizes for {draws.theta.shape[2]} tasks"
        )
    if np.any(sizes < 1):
        raise ValidationError("all test sizes must be >= 1")
    if gen is None:
        gen = _rng.substream(draws.config.seed, _rng.PREDICTIVE)
    counts = gen.binomial(sizes[None, None, :], draws.theta)
    return counts / sizes[None, None, :]


def posterior_rank_probabilities(
    draws: PosteriorDraws,
    weights: WeightVector | None = UNWEIGHTED,
) -> np.ndarray:
    """P(model i holds rank r) under the weighted-theta leaderboard.

    Per draw, models are ranked by their weighted across-task theta mean
    (rank 1 = largest); exact ties break by model index order.  Returns a
    models x models matrix whose rows sum to 1.
    """
    w = resolve_task_weights(weights, draws.tasks)
    scores = draws.theta @ w  # draws x models
    order = np.argsort(-scores, axis=1, kind="stable")
    S, M = scores.shape
    probabilities = np.zeros((M, M))
    for r in range(M):
        probabilities[:, r] = np.bincount(order[:, r], minlength=M)
    return probabilities / S


def split_rhat(chains: np.ndarray) -> float:
    """Split-chain potential scale reduction factor for one scalar trace.

    ``chains`` is chains x draws; each chain is halved before the classic
    between/within comparison.  Constant traces return 1.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2 or chains.shape[1] < 4:
        raise ValidationError("need a chains x draws array with >= 4 draws")
    half = chains.shape[1] // 2
    split = np.vstack([chains[:, :half], chains[:, half : 2 * half]])
    n = split.shape[1]
    within = split.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return 1.0
    between = n * split.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


def effective_sample_size(chains: np.ndarray) -> float:
    """Multi-chain effective sample size of one scalar trace.

    Combines per-chain FFT autocovariances into lag correlations and sums
    them with Geyer's initial-positive-pair truncation.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2 or chains.shape[1] < 4:
        raise ValidationError("need a chains x draws array with >= 4 draws")
    C, T = chains.shape
    total = C * T
    within = chains.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return float(total)
    var_plus = (T - 1) / T * within
    if C > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)

    centered = chains - chains.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * T)))
    f = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :T].real / T
    mean_acov = acov.mean(axis=0)

    rho = 1.0 - (within - mean_acov) / var_plus
    rho[0] = 1.0
    tail = 0.0
    for k in range(1, T - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair < 0:
            break
        tail += pair
    ess = total / (1.0 + 2.0 * tail)
    return float(min(ess, total))
