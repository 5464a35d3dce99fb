"""Beta-binomial hierarchical model fitted by slice-within-Gibbs sampling.

Each cell count is Y_ij | theta_ij ~ Binomial(N_j, theta_ij) with
theta_ij | alpha_i, beta_i ~ Beta(alpha_i, beta_i) and independent
hyperpriors on every model's (alpha_i, beta_i).  The theta updates are
conjugate Beta draws; the hyperparameter conditionals are not recognizable
distributions, so each alpha_i and beta_i moves by one univariate slice
step (stepping-out and shrinkage, Neal 2003) per sweep.

A sweep runs every chain and every model in lockstep on chains x models
arrays: the conjugate theta draw, then one slice step of every free alpha,
then one of every free beta.  Given theta, the alpha_i are conditionally
independent across models (and the beta_i given theta and alpha), and
chains are independent, so each block of side-by-side slice steps is one
valid Gibbs step: every coordinate follows exactly the transition of
:func:`slice_sample_step`, with masks marking the coordinates still
stepping out or still shrinking.  Shrinkage evaluates a step's predrawn
proposals speculatively, in one call; the per-model ``evals_per_step``
still counts what :func:`slice_sample_step` would evaluate.

Slice steps run on the log-transformed hyperparameter with the +log(x)
Jacobian term, because alpha and beta range over orders of magnitude and a
fixed slice width only makes sense on the log scale.  The transform is an
implementation device: the sampled distribution is the untransformed
conditional, which the tests verify directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping
from warnings import warn

import numpy as np

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

# Slice window for log(alpha) and log(beta): one unit is a factor of e, and
# the stepping-out budget of 50 windows spans a factor of e^50 in total.
_SLICE_WIDTH = 1.0
_SLICE_MAX_STEPOUT = 50

# Shrinkage proposals each chain draws up front, per coordinate, in its one
# block of uniforms per slice update, all evaluated in one call; a coordinate
# that rejects them all draws one more uniform per round.  A step takes ~3
# on the fixture and ~8 under the simulation study's tight priors, where
# half of the updates run a few more rounds.
_SHRINK_PREDRAWN = 12

# Stepping-out direction of the left and right slice ends.
_OUTWARD = np.array([-_SLICE_WIDTH, _SLICE_WIDTH])[:, None, None]

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

    def coefficients(self) -> tuple[float, float, float, float]:
        """(log rate, rate, mu, 1/sigma) of the log density; 0 where a kind has none.

        The log density is log_rate - rate x - ((x - mu) / sigma)^2 / 2 for
        both kinds that have one, so arrays of these coefficients evaluate a
        mix of priors with one expression.
        """
        if self.kind == "exponential":
            return (math.log(self.rate), self.rate, 0.0, 0.0)
        if self.kind == "truncated_normal":
            return (0.0, 0.0, self.mu, 1.0 / self.sigma)
        raise ValidationError("fixed priors have no density to evaluate")

    def log_density(self, x: float) -> float:
        """Log prior density at x, up to an additive constant; -inf off support."""
        if x <= 0:
            return -math.inf
        return float(_log_prior(x, *self.coefficients()))

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

    def __post_init__(self):
        if self.burn_in < 0 or self.burn_in >= self.total_iterations:
            raise ValidationError(
                f"burn-in {self.burn_in} must be in [0, total_iterations)"
            )
        if self.thinning < 1:
            raise ValidationError(f"thinning must be >= 1, got {self.thinning}")
        if self.chains < 1:
            raise ValidationError(f"chain count must be >= 1, got {self.chains}")

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


def gibbs_theta_update(Y, N, alpha, beta, rng: np.random.Generator):
    """Conjugate draw theta ~ Beta(alpha + Y, beta + N - Y); broadcasts."""
    return rng.beta(np.add(alpha, Y), np.add(beta, np.subtract(N, Y)))


def _log_prior(x, log_rate, rate, mu, inv_sigma):
    """Log prior density from :meth:`PriorSpec.coefficients`; broadcasts."""
    return log_rate - rate * x - 0.5 * ((x - mu) * inv_sigma) ** 2


def _log_conditional(x, other, log_sum, n_tasks, log_prior, betaln):
    """Log full conditional of a hyperparameter x > 0, up to a constant; broadcasts.

    log_prior(x) + (x - 1) log_sum - n_tasks log B(x, other), where
    ``log_prior`` is the log prior density as a function of x and
    ``log_sum`` is sum_j log theta_j for alpha and sum_j log(1 - theta_j)
    for beta.  log B is symmetric, so one expression serves both.
    ``betaln`` is ``scipy.special.betaln``, which callers import when they
    first need it: importing scipy.special doubles the start-up of every
    command, and only the BHM uses it.
    """
    return log_prior(x) + (x - 1.0) * log_sum - n_tasks * betaln(x, other)


def log_conditional_alpha(alpha: float, beta: float, thetas, prior: PriorSpec) -> float:
    """Log full conditional of one model's alpha, up to a constant.

    log p(alpha | ...) = log prior(alpha) + (alpha - 1) sum_j log theta_j
                         - J log B(alpha, beta);
    returns -inf for alpha <= 0 so the slice sampler sees the support edge.
    """
    if alpha <= 0:
        return -math.inf
    from scipy.special import betaln

    thetas = np.asarray(thetas, dtype=float)
    return float(_log_conditional(alpha, beta, np.log(thetas).sum(), thetas.size,
                                  prior.log_density, betaln))


def log_conditional_beta(alpha: float, beta: float, thetas, prior: PriorSpec) -> float:
    """Symmetric counterpart of log_conditional_alpha, driven by log(1 - theta)."""
    if beta <= 0:
        return -math.inf
    from scipy.special import betaln

    thetas = np.asarray(thetas, dtype=float)
    return float(_log_conditional(beta, alpha, np.log1p(-thetas).sum(), thetas.size,
                                  prior.log_density, betaln))


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
    logdensity(x1) >= u.  This is the scalar reference for the lockstep
    kernel that :func:`fit_bhm` runs; the tests hold the two to the same
    path when fed the same uniforms.
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


def _log_scale_density(other, log_sum, n_tasks, prior):
    """The conditional of y = log x, Jacobian term included, as a function of y.

    A prior term whose coefficients are all 0 adds an exact 0 and is left out.
    """
    from scipy.special import betaln

    log_rate, rate, mu, inv_sigma = prior
    if not np.any(inv_sigma):
        def log_prior(x):
            return log_rate - rate * x
    elif not np.any(rate):
        def log_prior(x):
            return -0.5 * ((x - mu) * inv_sigma) ** 2
    else:
        def log_prior(x):
            return _log_prior(x, *prior)

    def logdensity(y):
        return _log_conditional(np.exp(y), other, log_sum, n_tasks, log_prior, betaln) + y

    return logdensity


def _slice_buffers(C, M):
    """Scratch arrays of :func:`_slice_update` on chains x models points."""
    return (np.empty((C, 3 + _SHRINK_PREDRAWN, M)), np.empty((_SHRINK_PREDRAWN, C, M)),
            np.zeros((C, M)), np.empty((2, C, M), dtype=bool))


def _slice_update(logdensity, y0, free, gens, models, param, buffers=None):
    """One slice step of every free coordinate of ``y0`` (chains x models), in lockstep.

    Each coordinate takes exactly the transition of :func:`slice_sample_step`
    at width _SLICE_WIDTH and budget _SLICE_MAX_STEPOUT.  ``logdensity``
    evaluates a whole array of points at once, so both stepping-out ends go
    in one stacked call; masks applied with ``where=`` mark the coordinates
    still stepping out or still shrinking.  A shrinkage rejection moves the
    bracket by whether the proposal lies below the current point, never by
    its density, so one stacked call evaluates all _SHRINK_PREDRAWN
    predrawn proposals and each coordinate takes its first accepted one.
    Chain c draws only from ``gens[c]``: one block per update holding each
    coordinate's level, window offset, budget split and predrawn proposals,
    then one uniform per round for each of its own coordinates still
    pending.  Coordinates where the chains x models mask ``free`` is False
    keep their value.  ``buffers`` from :func:`_slice_buffers` may be reused.

    Returns the new points, the log-density evaluations that
    :func:`slice_sample_step` would make for the same uniforms, and whether
    either end stepped out through the whole of a non-zero share of the
    budget, each per coordinate (zero where not free).
    """
    C, M = y0.shape
    block, proposals, extra, side = _slice_buffers(C, M) if buffers is None else buffers
    for c, gen in enumerate(gens):
        gen.random(out=block[c])
    u = block.transpose(1, 0, 2)
    left = y0 - _SLICE_WIDTH * u[1]
    # The current point and both window ends in one call: the ends' values
    # do not depend on the level, which needs the current point's.
    points = np.array([y0, left, left + _SLICE_WIDTH])
    values = logdensity(points)
    logp0, ends = values[0], points[1:]
    bad = free & ~np.isfinite(logp0)
    if np.count_nonzero(bad):
        c, i = np.argwhere(bad)[0]
        raise SliceSamplerError(
            f"chain {c}, model {models[i]!r}, {param}: log density at the "
            f"current point is not finite: {logp0[c, i]}",
            diagnostics={"chain": int(c), "model": models[i], "parameter": param,
                         "x0": float(y0[c, i]), "logp0": float(logp0[c, i])},
        )
    log_u = logp0 + np.log(u[0])

    budget_left = np.floor(_SLICE_MAX_STEPOUT * u[2])
    start = np.array([budget_left, _SLICE_MAX_STEPOUT - 1 - budget_left])
    budget = start.copy()
    stepping = free & (budget > 0) & (values[1:] > log_u)
    while np.count_nonzero(stepping):
        np.add(ends, _OUTWARD, out=ends, where=stepping)
        np.subtract(budget, 1.0, out=budget, where=stepping)
        np.logical_and(stepping, budget > 0, out=stepping)
        np.logical_and(stepping, logdensity(ends) > log_u, out=stepping)
    # Per side: one evaluation per step outward, plus the one that found the
    # end off the slice unless its budget ran out first.
    stepout_evals = (start - budget + (budget > 0)).sum(axis=0)
    exhausted = ((start > 0) & (budget == 0)).any(axis=0)

    # A rejected proposal x replaces the left end where x < y0, else the
    # right: side[0] and side[1] mask the two rows of ``ends``.
    left, right = ends
    for r, x in enumerate(proposals):
        np.subtract(right, left, out=x)
        np.multiply(x, u[3 + r], out=x)
        np.add(left, x, out=x)
        np.less(x, y0, out=side[0])
        np.logical_not(side[0], out=side[1])
        np.copyto(ends, x, where=side)
    accept = logdensity(proposals) >= log_u
    np.logical_and(accept, free, out=accept)
    first = accept.argmax(axis=0)
    done = accept.any(axis=0)
    y1 = np.where(done, first.choose(proposals), y0)
    shrink_evals = first + 1.0
    pending = free & ~done
    for r in range(_SHRINK_PREDRAWN, _SHRINK_BUDGET):
        if not np.count_nonzero(pending):
            break
        for c, gen in enumerate(gens):
            n = np.count_nonzero(pending[c])
            if n:
                extra[c, pending[c]] = gen.random(n)
        x = left + (right - left) * extra
        accept = logdensity(x) >= log_u
        np.logical_and(accept, pending, out=accept)
        np.copyto(y1, x, where=accept)
        np.copyto(shrink_evals, r + 1, where=accept)
        np.logical_xor(pending, accept, out=pending)
        np.less(x, y0, out=side[0])
        np.logical_not(side[0], out=side[1])
        np.copyto(ends, x, where=side)
    if not np.count_nonzero(pending):
        return y1, free * (1 + stepout_evals + shrink_evals).astype(np.int64), exhausted
    c, i = np.argwhere(pending)[0]
    raise SliceSamplerError(
        f"chain {c}, model {models[i]!r}, {param}: no acceptable point after "
        f"{_SHRINK_BUDGET} shrinkage steps",
        diagnostics={"chain": int(c), "model": models[i], "parameter": param,
                     "x0": float(y0[c, i]), "log_u": float(log_u[c, i]),
                     "left": float(left[c, i]), "right": float(right[c, i]),
                     "evaluations": _SHRINK_BUDGET + _SLICE_MAX_STEPOUT},
    )


def _chains_x_models(priors: list[PriorSpec], chains: int):
    """Initial values, free mask and prior coefficients as chains x models arrays.

    A fixed prior's coefficients are zeros; the free mask keeps it from moving.
    """
    tile = (chains, 1)
    coef = np.array([(0.0,) * 4 if p.kind == "fixed" else p.coefficients()
                     for p in priors]).T
    return (np.tile([p.initial_value() for p in priors], tile),
            np.tile([p.kind != "fixed" for p in priors], tile),
            tuple(np.tile(c, tile) for c in coef))


def _run_chains(
    table: EvalTable,
    prior_pairs: list[tuple[PriorSpec, PriorSpec]],
    config: McmcConfig,
    theta_out: np.ndarray,
    alpha_out: np.ndarray,
    beta_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run every chain in lockstep into chains x kept x ... output arrays.

    Returns each model's log-density evaluations per slice step and its
    count of steps that used up a side's stepping-out budget.
    """
    C = config.chains
    gens = [_rng.substream(config.seed, _rng.CHAIN, c) for c in range(C)]
    Y = table.counts
    N = table.sizes
    models = table.models
    n_models, n_tasks = Y.shape

    theta0 = np.clip((Y + 0.5) / (N[None, :] + 1.0), _THETA_EPS, 1.0 - _THETA_EPS)
    for i, (prior_a, prior_b) in enumerate(prior_pairs):
        a0, b0 = prior_a.initial_value(), prior_b.initial_value()
        finite_a = prior_a.kind == "fixed" or np.isfinite(
            log_conditional_alpha(a0, b0, theta0[i], prior_a)
        )
        finite_b = prior_b.kind == "fixed" or np.isfinite(
            log_conditional_beta(a0, b0, theta0[i], prior_b)
        )
        if not (finite_a and finite_b):
            raise ValidationError(
                f"model {models[i]!r}: log density not finite at "
                f"initialization (alpha={a0}, beta={b0})"
            )

    alpha, free_a, prior_a = _chains_x_models([a for a, _ in prior_pairs], C)
    beta, free_b, prior_b = _chains_x_models([b for _, b in prior_pairs], C)
    log_alpha, log_beta = np.log(alpha), np.log(beta)
    any_a, any_b = free_a.any(), free_b.any()

    evals = np.zeros((C, n_models), dtype=np.int64)
    exhausted = np.zeros((C, n_models), dtype=np.int64)
    theta = np.empty((C, n_models, n_tasks))
    # The densities read alpha, beta and the log sums, refilled in place.
    log_sum_a, log_sum_b = np.empty((C, n_models)), np.empty((C, n_models))
    density_a = _log_scale_density(beta, log_sum_a, n_tasks, prior_a)
    density_b = _log_scale_density(alpha, log_sum_b, n_tasks, prior_b)
    n_minus_y, buffers = np.subtract(N, Y), _slice_buffers(C, n_models)
    kept = 0
    for t in range(1, config.total_iterations + 1):
        # gibbs_theta_update's draw, with every chain's Beta parameters at once.
        post_a, post_b = alpha[:, :, None] + Y, beta[:, :, None] + n_minus_y
        for c, gen in enumerate(gens):
            theta[c] = gen.beta(post_a[c], post_b[c])
        np.clip(theta, _THETA_EPS, 1.0 - _THETA_EPS, out=theta)

        if any_a:
            np.log(theta).sum(axis=2, out=log_sum_a)
            log_alpha, n, out = _slice_update(density_a, log_alpha, free_a, gens, models,
                                              "alpha", buffers)
            np.exp(log_alpha, out=alpha, where=free_a)
            evals += n
            exhausted += out
        if any_b:
            np.log1p(-theta).sum(axis=2, out=log_sum_b)
            log_beta, n, out = _slice_update(density_b, log_beta, free_b, gens, models,
                                             "beta", buffers)
            np.exp(log_beta, out=beta, where=free_b)
            evals += n
            exhausted += out

        if t > config.burn_in and (t - config.burn_in) % config.thinning == 0:
            theta_out[:, kept] = theta
            alpha_out[:, kept] = alpha
            beta_out[:, kept] = beta
            kept += 1
    steps = config.total_iterations * (free_a.sum(axis=0) + free_b.sum(axis=0))
    evals_per_step = np.divide(evals.sum(axis=0), steps, out=np.zeros(n_models), where=steps > 0)
    return evals_per_step, exhausted.sum(axis=0)


def fit_bhm(
    table: EvalTable,
    priors=None,
    config: McmcConfig = McmcConfig(),
) -> PosteriorDraws:
    """Fit the hierarchical model; deterministic given the config seed.

    ``priors`` may be a single PriorSpec (both hyperparameters, all models),
    an (alpha_prior, beta_prior) tuple, or a mapping model -> pair; models
    missing from a mapping get the default exponential hyperpriors.  All
    chains advance together, one lockstep sweep per iteration over chains x
    models arrays (theta, then every free alpha, then every free beta; see
    the module docstring).  Each chain draws only from its own
    chain-indexed substream, so a chain's draws do not depend on how many
    chains run beside it.  Diagnostics per model: split-chain R-hat and
    effective sample size of the mean theta trace, log-density evaluations
    per slice step, and the count of slice steps whose stepping-out used a
    whole side's budget.  A warning fires if any R-hat exceeds 1.05.
    """
    by_model = _normalize_priors(priors, table.models)
    prior_pairs = [by_model[m] for m in table.models]
    K = config.retained_per_chain
    if K < 4:  # split_rhat and effective_sample_size need 4 per chain
        raise ValidationError(
            f"K = (iterations {config.total_iterations} - burn-in {config.burn_in})"
            f" // thinning {config.thinning} = {K} draws per chain; need K >= 4"
        )
    C = config.chains
    n_models, n_tasks = table.counts.shape
    theta = np.empty((C, K, n_models, n_tasks))
    alpha = np.empty((C, K, n_models))
    beta = np.empty((C, K, n_models))
    evals_per_step, exhausted = _run_chains(table, prior_pairs, config, theta, alpha, beta)
    # Chain-major draws: draw s belongs to chain s // K.
    theta = theta.reshape(C * K, n_models, n_tasks)
    alpha = alpha.reshape(C * K, n_models)
    beta = beta.reshape(C * K, n_models)

    mean_theta = theta.mean(axis=2)  # draws x models
    diagnostics = {}
    worst = 0.0
    for i, model in enumerate(table.models):
        per_chain = mean_theta[:, i].reshape(C, K)
        r = split_rhat(per_chain)
        diagnostics[model] = {
            "rhat": r,
            "ess": effective_sample_size(per_chain),
            "evals_per_step": float(evals_per_step[i]),
            "stepout_exhausted": int(exhausted[i]),
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
