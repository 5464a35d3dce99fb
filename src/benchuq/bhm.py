"""Beta-binomial hierarchical model, sampled exactly on a grid.

Each cell count is Y_ij | theta_ij ~ Binomial(N_j, theta_ij) with
theta_ij | alpha_i, beta_i ~ Beta(alpha_i, beta_i) and independent
hyperpriors on every model's (alpha_i, beta_i).  No parameter is shared
across models, so theta integrates out in closed form and each model's
posterior over (a, b) = (log alpha, log beta) is a 2-D density, up to a
constant

    log p_alpha(e^a) + a + log p_beta(e^b) + b
    + sum_j [log B(e^a + Y_ij, e^b + N_j - Y_ij) - log B(e^a, e^b)].

:func:`fit_bhm` puts that density on a grid and samples it exactly, as in
the rat-tumour computation of Gelman et al., *Bayesian Data Analysis*
(3rd ed.), section 5.3, and in their coordinates: the logit of the prior
mean, a - b, and the log concentration, log(alpha + beta), which map to
(a, b) with unit Jacobian.  A coarse grid first finds the box holding the
posterior, and a fine grid refits it to the mass and resolves it (see
:func:`_posterior_grid`).  The fine grid is sampled by cell mass, each draw
jittered uniformly within its cell, and theta follows from its conjugate
Beta.  The draws are independent.  A fixed hyperparameter leaves a 1-D
grid in the other's log, and two leave plain conjugate draws.
Posterior-predictive accuracies are left to the caller, who draws them
from ``PosteriorDraws.theta``.

Theta, draws x models x tasks, is drawn _CHUNK draws at a time by one
generator with two consumers.  :func:`fit_bhm` stacks the chunks into
``PosteriorDraws.theta`` for library callers.  :func:`fit_bhm_means`, which
the command line uses, reduces each chunk as it is drawn to the two
per-draw task means it reads, one per model for the credible intervals and
``theta.mean(axis=2)`` for R-hat and ESS, so it never holds theta: 233 MB
on a 64 x 57 table at the default 8,000 draws.

The log-gamma values come from :func:`_lgamma`, in numpy alone: a warm
``import scipy.special`` costs about a third of a second and 15 MiB, more
than a whole simulation-study fit.  Building the grids is most of a fit's
time.  A density evaluation passes its per-task and per-size terms to
:func:`_lgamma_rows`, which stacks a few tasks per call on a coarse grid,
and each call keeps only the Stirling terms its smallest argument needs
and works in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping
from warnings import warn

import numpy as np

from . import rng as _rng
from .bootstrap import IntervalEstimate, bonferroni_level, summarize_draws
from .core import EvalTable
from .errors import ConvergenceWarning, SliceSamplerError, ValidationError

__all__ = [
    "DEFAULT_PRIOR_RATE",
    "RHAT_WARN_THRESHOLD",
    "EDGE_MASS_WARN_THRESHOLD",
    "PriorSpec",
    "McmcConfig",
    "PosteriorDraws",
    "slice_sample_step",
    "fit_bhm",
    "fit_bhm_means",
    "series_interval",
    "credible_interval",
    "posterior_rank_probabilities",
    "split_rhat",
    "effective_sample_size",
]

# Exp(1/10000) spreads prior mass over pseudo-count scales from single
# digits to tens of thousands.
DEFAULT_PRIOR_RATE = 1.0 / 10_000

RHAT_WARN_THRESHOLD = 1.05

# Share of a model's grid mass in the outermost cells above which the box
# may have cut off part of the posterior.
EDGE_MASS_WARN_THRESHOLD = 1e-6

# Shrinkage halves the bracket (in expectation) every rejection, so a
# conforming log density cannot take anywhere near this many tries.
_SHRINK_BUDGET = 200

# The grid.  With both hyperparameters free its axes are the logit of the
# prior mean and the log concentration; otherwise log alpha and log beta
# (see _coordinates).  The box starts as [-_LOG_LIMIT, _LOG_LIMIT] on every
# free axis and never leaves it: beyond e^25, lgamma differences lose
# digits.  Coarse grids of _COARSE points per free axis move it to the
# cells within _CUTOFF log units of the peak (a relative density of e^-25
# per cell).  Fine grids of _FINE points then move each side to leave out
# at most _TAIL of the mass, a side whose outermost cells hold more than
# _GROW growing instead; and an axis whose step exceeds _RESOLUTION of its
# conditional sd doubles its points, up to _FINE_MAX.  Uniform jitter within
# a cell adds step^2 / 12 to the variance along the axis, here at most
# 0.75%.  Weakly identified tables need that along the logit mean, where
# their posterior narrows as the concentration grows.  Each stage stops
# after _ROUNDS rounds at most; a box still moving then shows in the edge
# mass.
_LOG_LIMIT = 25.0
_COARSE = 33
_CUTOFF = 25.0
_FINE = (129, 65)
_FINE_MAX = 1025
_RESOLUTION = 0.3
_TAIL = 1e-12
_GROW = 1e-9
_ROUNDS = 40

# Keeps log(theta) and log1p(-theta) finite when a conjugate draw rounds
# to an endpoint in floating point.
_THETA_EPS = 1e-12

# Draws of theta per chunk (see the module docstring).  Keep it a multiple
# of 8: the credible series takes theta[:, i, :] @ w per model, a BLAS
# matrix-vector product whose kernel sums its rows in groups, and with
# 250-draw chunks one interval endpoint on a 64 x 57 table moved by one ulp
# against the product over all draws at once.  With 256 every output matched.
_CHUNK = 256

# Most arguments in one _lgamma call from _lgamma_rows: seven rows of a
# coarse 33 x 33 grid, one of a fine 129 x 65 grid.  Building the fixture's
# 16 grids took 80 ms of CPU at this cap, 86 ms at 4,096, 92 ms at 16,384
# and 114 ms one row per call (one core of a 2-core x86-64 machine).
_STACK = 8192

# Stirling series coefficients B_2k / (2k (2k - 1)), k = 8 down to 1, for
# :func:`_lgamma`.
_STIRLING = np.array([-3617 / 122_400, 1 / 156, -691 / 360_360, 1 / 1188,
                      -1 / 1680, 1 / 1260, -1 / 360, 1 / 12])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PriorSpec:
    """Hyperprior for one hyperparameter: exponential, truncated normal, or fixed."""

    kind: str
    rate: float | None = None
    mu: float | None = None
    sigma: float | None = None
    value: float | None = None

    def __post_init__(self):
        for name in ("rate", "mu", "sigma", "value"):
            number = getattr(self, name)
            if number is not None and not math.isfinite(number):
                raise ValidationError(f"{self.kind} prior {name} must be finite, got {number}")
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
        """Point mass: pins the hyperparameter, removing its axis from the grid."""
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


@dataclass(frozen=True)
class McmcConfig:
    """Draw counts: chains x ((total_iterations - burn_in) // thinning) draws.

    The grid sampler draws independently, so the fields set only how many
    draws each chain keeps and how the split-chain diagnostics group them.
    ``seed`` keys the draws.
    """

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
    """Posterior draws, chain-major: draw s belongs to chain s // K."""

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
        # Written so that a NaN fails them; an empty draw array passes.
        if theta.size and not (theta.min() > 0.0 and theta.max() < 1.0):
            raise ValidationError("theta draws must lie strictly inside (0, 1)")
        if alpha.size and not (alpha.min() > 0.0 and beta.min() > 0.0):
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


def _log_prior(x, log_rate, rate, mu, inv_sigma):
    """Log prior density from :meth:`PriorSpec.coefficients`; broadcasts."""
    return log_rate - rate * x - 0.5 * ((x - mu) * inv_sigma) ** 2


def _lgamma(x):
    """log Gamma(x) elementwise for x > 0, in numpy alone.

    The Stirling series gives log Gamma(z) for z >= 8 to double precision.
    A call whose smallest argument is below 8 shifts every argument there by
    Gamma(x) = Gamma(x + 8) / (x (x + 1) ... (x + 7)).  The series keeps
    k terms, enough that the first one left out, about z^-(2k + 1) at the
    smallest z, is below 1e-17: all 8 below z = 13.6, 4 from z = 77.4, 2
    from z = 2,512 and 1 from z = 4.6e5.  Beyond the shifted arguments, a
    call allocates three arrays of x's shape, works in them in place and
    returns one of them.
    """
    x = np.asarray(x, dtype=float)
    low = x.min(initial=np.inf)
    shift = low < 8.0
    z = x + 8.0 if shift else x
    terms = math.ceil((17 * math.log(10) / math.log(max(low, 8.0)) - 1) / 2)
    terms = min(len(_STIRLING), max(1, terms))
    r = 1.0 / z
    r2 = r * r
    series = np.full_like(z, _STIRLING[-terms])
    for c in _STIRLING[len(_STIRLING) - terms + 1:]:
        series *= r2
        series += c
    series *= r
    # (((z - 0.5) log z - z) + log(2 pi) / 2) + series, in the spent r and r2.
    out = np.subtract(z, 0.5, out=r)
    out *= np.log(z, out=r2)
    out -= z
    out += _HALF_LOG_2PI
    out += series
    if shift:
        product, factor = series, r2
        np.copyto(product, x)
        for k in range(1, 8):
            product *= np.add(x, k, out=factor)
        out -= np.log(product, out=product)
    return out


def _lgamma_rows(base, offsets):
    """Yield ``_lgamma(base + n)`` for each n of ``offsets``, in order.

    One call evaluates a stack of consecutive rows: at most _STACK elements
    (but at least one row), all of them shifted or none (see
    :func:`_lgamma`), so a row is shifted exactly when a call of its own
    would shift it.
    """
    shifted = base.min() + offsets < 8.0
    step = max(1, _STACK // base.size)
    start = 0
    while start < len(offsets):
        run = shifted[start:start + step]
        breaks = np.flatnonzero(run != run[0])
        stop = start + (breaks[0] if breaks.size else run.size)
        yield from _lgamma(base + offsets[start:stop].reshape(-1, *(1,) * base.ndim))
        start = stop


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


def _coordinates(prior_a, prior_b):
    """The grid coordinates (x, y) of one model: their start box and map.

    With both hyperparameters free, x = log(alpha / beta) is the logit of
    the prior mean and y = log(alpha + beta) the log concentration, as in
    Gelman et al.: weakly identified posteriors stretch along y, and a thin
    ridge along the diagonal of log alpha and log beta would fall between
    grid cells.  Otherwise x and y are log alpha and log beta, and a fixed
    one is the single point log value.  Returns the start box's ends ``lo``
    and ``hi``, and the map from (x, y) to log alpha, log beta and
    log(alpha + beta).
    """
    if prior_a.kind != "fixed" and prior_b.kind != "fixed":
        def to_logs(x, y):
            return y - np.logaddexp(0.0, -x), y - np.logaddexp(0.0, x), y

        return np.full(2, -_LOG_LIMIT), np.full(2, _LOG_LIMIT), to_logs

    def to_logs(x, y):
        return x, y, np.logaddexp(x, y)

    lo, hi = np.array([(math.log(p.value),) * 2 if p.kind == "fixed"
                       else (-_LOG_LIMIT, _LOG_LIMIT) for p in (prior_a, prior_b)]).T
    return lo, hi, to_logs


def _log_posterior(Y, N, prior_a, prior_b, to_logs):
    """One model's collapsed log density on a grid, up to a constant.

    Returns ``density(x, y)``, the len(x) x len(y) values at the grid of the
    two axes.  The alpha + beta terms depend on y alone when both
    hyperparameters are free, so they cost one log-gamma value per distinct
    test size and y.  A fixed prior contributes a constant and is left out.
    """
    sizes, repeats = np.unique(N, return_counts=True)
    n_tasks = Y.size

    def side(log_x, counts, prior):
        x = np.exp(log_x)
        total = np.zeros_like(x)
        for row in _lgamma_rows(x, counts):
            total += row
        out = log_x + total
        out -= n_tasks * _lgamma(x)
        if prior.kind != "fixed":
            out += _log_prior(x, *prior.coefficients())
        return out

    def density(x, y):
        log_a, log_b, log_total = to_logs(x[:, None], y[None, :])
        total = np.exp(log_total)
        joint = n_tasks * _lgamma(total)
        for k, term in zip(repeats, _lgamma_rows(total, sizes)):
            joint -= k * term
        return side(log_a, Y, prior_a) + side(log_b, N - Y, prior_b) + joint

    return density


def _relative(values, model):
    """Log density values minus their peak; the peak must be finite."""
    peak = values.max()
    if not np.isfinite(peak):
        raise ValidationError(
            f"model {model!r}: log posterior density is not finite on the "
            f"hyperparameter grid (peak {peak})"
        )
    return values - peak


def _axis(lo, hi, points):
    """Grid points from lo to hi; one point where the axis is fixed (lo == hi)."""
    return np.linspace(lo, hi, points if hi > lo else 1)


def _posterior_grid(Y, N, prior_a, prior_b, model):
    """The grid that :func:`fit_bhm` samples for one model.

    Starting from the box of :func:`_coordinates`, each coarse round moves
    every side of a free axis to one coarse step beyond the outermost cell
    within _CUTOFF log units of the peak; a side whose outermost cell is
    within grows by the box width, since a coarse grid can step over a
    narrow part of the posterior.  The coarse rounds end when no side moves
    by more than a step.  Each fine round then moves the box to
    :func:`_mass_box` if that grows a side or halves an axis, or else
    doubles the points of every axis whose step exceeds _RESOLUTION of its
    conditional sd, up to _FINE_MAX.  The fine rounds end when none of that
    applies.

    Returns the two axes of cell centres, the cumulative cell masses in
    row-major order, the share of the mass in the outermost cells of the
    free axes, the box as (lo x, hi x, lo y, hi y), and the map from (x, y)
    to log alpha and log beta.
    """
    lo, hi, to_logs = _coordinates(prior_a, prior_b)
    density = _log_posterior(Y, N, prior_a, prior_b, to_logs)
    for _ in range(_ROUNDS):
        axes = [_axis(l, h, _COARSE) for l, h in zip(lo, hi)]
        near = _relative(density(*axes), model) >= -_CUTOFF
        new_lo, new_hi = lo.copy(), hi.copy()
        for k, g in enumerate(axes):
            if g.size > 1:
                inside, width = np.flatnonzero(near.any(axis=1 - k)), hi[k] - lo[k]
                first, last = inside[0], inside[-1]
                new_lo[k] = max(lo[k] - width if first == 0 else g[first - 1], -_LOG_LIMIT)
                new_hi[k] = min(hi[k] + width if last == g.size - 1 else g[last + 1], _LOG_LIMIT)
        step = (hi - lo) / (_COARSE - 1)
        settled = np.all(np.abs(new_lo - lo) <= step) and np.all(np.abs(new_hi - hi) <= step)
        lo, hi = new_lo, new_hi
        if settled:
            break
    points = list(_FINE)
    for _ in range(_ROUNDS):
        axes = [_axis(l, h, n) for l, h, n in zip(lo, hi, points)]
        mass = np.exp(_relative(density(*axes), model))
        new_lo, new_hi = _mass_box(mass / mass.sum(), axes, lo, hi)
        if np.any(new_lo < lo) or np.any(new_hi > hi) or np.any(new_hi - new_lo < (hi - lo) / 2):
            lo, hi = new_lo, new_hi
            continue
        coarse = [k for k, g in enumerate(axes) if g.size > 1 and points[k] < _FINE_MAX
                  and g[1] - g[0] > _RESOLUTION * _conditional_sd(mass, g, k)]
        if not coarse:
            break
        for k in coarse:
            points[k] = 2 * points[k] - 1
    edge = np.ones(mass.shape, dtype=bool)
    edge[tuple(slice(1, -1) if g.size > 1 else slice(None) for g in axes)] = False
    cdf = np.cumsum(mass.ravel())
    box = (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))
    return axes, cdf, float(mass[edge].sum() / cdf[-1]), box, to_logs


def _mass_box(mass, axes, lo, hi):
    """The box leaving out at most _TAIL of the grid's mass on each side.

    A side whose outermost cells hold more than _GROW of the mass grows by
    half the box width instead.  ``mass`` sums to 1.
    """
    lo, hi = lo.copy(), hi.copy()
    for k, g in enumerate(axes):
        if g.size > 1:
            marginal = mass.sum(axis=1 - k)
            cum = np.cumsum(marginal)
            first, last = np.searchsorted(cum, [_TAIL, 1.0 - _TAIL])
            width = hi[k] - lo[k]
            lo[k] = lo[k] - width / 2 if marginal[0] > _GROW else g[max(first - 1, 0)]
            hi[k] = hi[k] + width / 2 if marginal[-1] > _GROW else g[min(last + 1, g.size - 1)]
    return np.maximum(lo, -_LOG_LIMIT), np.minimum(hi, _LOG_LIMIT)


def _conditional_sd(mass, axis, k):
    """Mass-weighted harmonic mean of the sd of axis k given the other axis.

    ``mass`` holds the grid's cell masses, rows along axis 0.
    """
    m = mass if k == 0 else mass.T
    weight = m.sum(axis=0)
    m, weight = m[:, weight > 0], weight[weight > 0]
    mean = axis @ m / weight
    var = ((axis[:, None] - mean) ** 2 * m).sum(axis=0) / weight
    # A row with all its mass in one cell has var 0 and is unresolved.
    precision = np.divide(weight, var, out=np.full_like(var, np.inf), where=var > 0)
    return math.sqrt(weight.sum() / precision.sum())


def _jittered(axis, cells, u):
    """Points uniform within their cells of ``axis``; a one-point axis stays put."""
    if axis.size == 1:
        return axis[cells]
    return axis[cells] + (axis[1] - axis[0]) * (u - 0.5)


def _sample(table: EvalTable, priors, config: McmcConfig):
    """The grids, the alpha and beta draws (draws x models, chain-major) and a
    generator of the theta draws of the fit :func:`fit_bhm` describes.

    The generator yields theta in stream order as (rows, theta[rows]), at
    most _CHUNK draws of one chain at a time, clipped to [_THETA_EPS,
    1 - _THETA_EPS].  Consecutive ``gen.beta`` calls on one generator draw
    what one whole-chain call would, so chunking keeps the stream.
    """
    by_model = _normalize_priors(priors, table.models)
    K = config.retained_per_chain
    if K < 4:  # split_rhat and effective_sample_size need 4 per chain
        raise ValidationError(
            f"K = (iterations {config.total_iterations} - burn-in {config.burn_in})"
            f" // thinning {config.thinning} = {K} draws per chain; need K >= 4"
        )
    C = config.chains
    Y, N = table.counts, table.sizes
    n_models = len(table.models)
    grids = [_posterior_grid(Y[i], N, *by_model[m], m) for i, m in enumerate(table.models)]

    # Chain-major draws: draw s belongs to chain s // K.
    alpha = np.empty((C * K, n_models))
    beta = np.empty((C * K, n_models))
    gens = []
    for c in range(C):
        gen = _rng.substream(config.seed, _rng.QUADRATURE, c)
        u = gen.random((3, K, n_models))
        chain = slice(c * K, (c + 1) * K)
        for i, ((axis_x, axis_y), cdf, _, _, to_logs) in enumerate(grids):
            cells = np.searchsorted(cdf, u[0, :, i] * cdf[-1], side="right")
            rows, cols = np.divmod(np.minimum(cells, cdf.size - 1), axis_y.size)
            log_a, log_b, _ = to_logs(_jittered(axis_x, rows, u[1, :, i]),
                                      _jittered(axis_y, cols, u[2, :, i]))
            prior_a, prior_b = by_model[table.models[i]]
            alpha[chain, i] = prior_a.value if prior_a.kind == "fixed" else np.exp(log_a)
            beta[chain, i] = prior_b.value if prior_b.kind == "fixed" else np.exp(log_b)
        gens.append(gen)

    def chunks():
        for c, gen in enumerate(gens):
            for start in range(c * K, (c + 1) * K, _CHUNK):
                rows = slice(start, min(start + _CHUNK, (c + 1) * K))
                # Conjugate draw theta ~ Beta(alpha + Y, beta + N - Y).
                theta = gen.beta(alpha[rows, :, None] + Y, beta[rows, :, None] + (N - Y))
                yield rows, np.clip(theta, _THETA_EPS, 1.0 - _THETA_EPS, out=theta)

    return grids, alpha, beta, chunks()


def _diagnostics(models, grids, mean_theta, config: McmcConfig) -> dict:
    """Per-model diagnostics of a fit from its draws x models task means of
    theta, with the warnings :func:`fit_bhm` describes."""
    diagnostics = {}
    for i, model in enumerate(models):
        per_chain = mean_theta[:, i].reshape(config.chains, config.retained_per_chain)
        _, _, edge_mass, box, _ = grids[i]
        diagnostics[model] = {
            "rhat": split_rhat(per_chain),
            "ess": effective_sample_size(per_chain),
            "edge_mass": edge_mass,
            "box": box,
        }
    # stacklevel 3 names the caller of fit_bhm or fit_bhm_means.
    rhats = [d["rhat"] for d in diagnostics.values() if np.isfinite(d["rhat"])]
    worst = max(rhats, default=0.0)
    if worst > RHAT_WARN_THRESHOLD:
        warn(
            f"split-chain R-hat up to {worst:.3f} exceeds {RHAT_WARN_THRESHOLD}; "
            "intervals may be unreliable — consider more iterations",
            ConvergenceWarning,
            stacklevel=3,
        )
    edge_model = max(diagnostics, key=lambda m: diagnostics[m]["edge_mass"])
    edge_mass = diagnostics[edge_model]["edge_mass"]
    if edge_mass > EDGE_MASS_WARN_THRESHOLD:
        warn(
            f"model {edge_model!r}: {edge_mass:.3g} of the posterior grid mass lies "
            f"in its outermost cells, above {EDGE_MASS_WARN_THRESHOLD}; the "
            "grid's box may cut off part of the posterior",
            ConvergenceWarning,
            stacklevel=3,
        )
    return diagnostics


def fit_bhm(
    table: EvalTable,
    priors=None,
    config: McmcConfig = McmcConfig(),
) -> PosteriorDraws:
    """Fit the hierarchical model; deterministic given the config seed.

    ``priors`` may be a single PriorSpec (both hyperparameters, all models),
    an (alpha_prior, beta_prior) tuple, or a mapping model -> pair; models
    missing from a mapping get the default exponential hyperpriors.  Each
    model's collapsed posterior of its hyperparameters is put on a grid (see
    the module docstring), and ``config`` sets only the number of
    independent draws: chains x retained per chain.  Chain c draws from the
    substream (seed, QUADRATURE, c): one block of uniforms choosing every
    model's grid cells and jittering them along both axes, then the
    conjugate theta draws, _CHUNK draws at a time, which this function
    stacks into ``theta``.  So a chain's draws do not depend on how many
    chains run beside it.  Diagnostics per model: split-chain R-hat and
    effective sample size of the mean theta trace, the share of grid mass in
    the outermost cells (``edge_mass``), and the grid's ``box`` as (lo, hi)
    of the logit mean and then of the log concentration, or of log alpha and
    then log beta when either is fixed.  A warning fires if any R-hat
    exceeds 1.05 or any edge mass exceeds 1e-6.
    """
    grids, alpha, beta, chunks = _sample(table, priors, config)
    theta = np.empty((*alpha.shape, len(table.tasks)))
    for rows, chunk in chunks:
        theta[rows] = chunk
    return PosteriorDraws(
        theta=theta,
        alpha=alpha,
        beta=beta,
        models=table.models,
        tasks=table.tasks,
        config=config,
        diagnostics=_diagnostics(table.models, grids, theta.mean(axis=2), config),
    )


def fit_bhm_means(
    table: EvalTable,
    priors=None,
    config: McmcConfig = McmcConfig(),
) -> tuple[np.ndarray, dict]:
    """:func:`fit_bhm`'s task-mean draws and diagnostics, without holding theta.

    Takes the same arguments, draws the same theta and reduces each chunk as
    it is drawn.  Returns a draws x models array whose column i holds
    ``theta[:, i, :] @ w`` for uniform task weights w, the series that
    :func:`credible_interval` summarizes, and the diagnostics of
    :func:`fit_bhm`, computed from ``theta.mean(axis=2)``.  Both reductions
    work row by row, as there, so the results match bit for bit.
    """
    grids, alpha, _, chunks = _sample(table, priors, config)
    w = np.full(len(table.tasks), 1.0 / len(table.tasks))
    means = np.empty_like(alpha)
    mean_theta = np.empty_like(alpha)
    for rows, theta in chunks:
        for i in range(len(table.models)):
            means[rows, i] = theta[:, i, :] @ w
        mean_theta[rows] = theta.mean(axis=2)
    return means, _diagnostics(table.models, grids, mean_theta, config)


def series_interval(series, level: float = 0.95, comparisons: int = 1) -> IntervalEstimate:
    """Credible interval from one functional's value per posterior draw: its
    :func:`~benchuq.bootstrap.summarize_draws` at the
    :func:`~benchuq.bootstrap.bonferroni_level` of ``comparisons``."""
    adjusted = bonferroni_level(level, comparisons)
    return summarize_draws(np.asarray(series)[None, :], adjusted, "bhm-credible")[0]


def credible_interval(
    draws: PosteriorDraws,
    model: str,
    other: str | None = None,
    level: float = 0.95,
    comparisons: int = 1,
) -> IntervalEstimate:
    """Equal-tailed credible interval for an across-task mean of thetas.

    The functional is the uniform across-task mean of theta for ``model``,
    minus the same functional of ``other`` when given.  Its draws are
    summarized by :func:`series_interval`.
    """
    w = np.full(len(draws.tasks), 1.0 / len(draws.tasks))
    series = draws.theta[:, draws.model_index(model), :] @ w
    if other is not None:
        series = series - draws.theta[:, draws.model_index(other), :] @ w
    return series_interval(series, level, comparisons)


def posterior_rank_probabilities(draws: PosteriorDraws) -> np.ndarray:
    """P(model i holds rank r) under the across-task mean theta leaderboard.

    Per draw, models are ranked by their uniform across-task theta mean
    (rank 1 = largest); exact ties break by model index order.  Returns a
    models x models matrix whose rows sum to 1.
    """
    scores = draws.theta @ np.full(len(draws.tasks), 1.0 / len(draws.tasks))  # draws x models
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
