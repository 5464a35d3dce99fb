import math

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

import benchuq.bhm as bhm
from benchuq.bhm import (
    McmcConfig,
    PosteriorDraws,
    PriorSpec,
    credible_interval,
    effective_sample_size,
    fit_bhm,
    posterior_rank_probabilities,
    slice_sample_step,
    split_rhat,
)
from benchuq.core import EvalTable, TaskSpec
from benchuq.errors import ConvergenceWarning, SliceSamplerError, ValidationError
from benchuq.rng import substream
from benchuq.weighting import WeightVector

# Short-chain fits in these tests legitimately trip the R-hat warning;
# convergence behavior itself is covered explicitly below.
pytestmark = pytest.mark.filterwarnings("ignore::benchuq.errors.ConvergenceWarning")

# Frozen from tools/oracles.py (mpmath, 50 decimal digits): the collapsed
# log density of (log alpha, log beta) on Y = (60, 150, 20) of
# N = (100, 200, 50), as (alpha, beta, value) per prior case.
ORACLE_TABLE = (np.array([60, 150, 20]), np.array([100, 200, 50]))
ORACLE_LOG_POSTERIOR = {
    "exponential": (
        (PriorSpec.exponential(1e-4), PriorSpec.exponential(1e-4)),
        [(2.0, 1.5, -236.352565945883), (130.0, 90.0, -232.114040018459668)],
    ),
    "truncated-normal": (
        (PriorSpec.truncated_normal(20.0, 10.0), PriorSpec.truncated_normal(10.0, 5.0)),
        [(13.0, 8.0, -213.957120199187094), (400.0, 250.0, -2086.87160882749012)],
    ),
    "fixed-beta": (
        (PriorSpec.exponential(1e-4), PriorSpec.fixed(7.0)),
        [(2.0, 7.0, -232.497057868778694), (130.0, 7.0, -286.35853284331734)],
    ),
}


def tiny_table():
    tasks = (TaskSpec("t1", "c", 200), TaskSpec("t2", "c", 50))
    counts = np.array([[115, 30], [100, 25]])
    return EvalTable(models=("A", "B"), tasks=tasks, counts=counts)


def quick_config(**overrides):
    base = dict(
        total_iterations=300, burn_in=100, thinning=2, chains=2, seed=7,
    )
    base.update(overrides)
    return McmcConfig(**base)


def manual_draws(theta, config=None, sizes=(10, 10)):
    theta = np.asarray(theta, dtype=float)
    S, M, J = theta.shape
    return PosteriorDraws(
        theta=theta,
        alpha=np.full((S, M), 2.0),
        beta=np.full((S, M), 2.0),
        models=tuple(f"m{i}" for i in range(M)),
        tasks=tuple(TaskSpec(f"t{j}", "c", sizes[j]) for j in range(J)),
        config=config or quick_config(),
    )


class TestPriorSpec:
    def test_fixed_prior_has_no_density(self):
        with pytest.raises(ValidationError, match="fixed"):
            PriorSpec.fixed(7.0).coefficients()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="exponential", rate=0.0),
            dict(kind="truncated_normal", mu=1.0, sigma=0.0),
            dict(kind="fixed", value=-2.0),
            dict(kind="gamma"),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValidationError):
            PriorSpec(**bad)


class TestMcmcConfig:
    def test_burn_in_must_precede_end(self):
        with pytest.raises(ValidationError, match="burn-in"):
            McmcConfig(total_iterations=100, burn_in=100)

    def test_thinning_and_chains_positive(self):
        with pytest.raises(ValidationError, match="thinning"):
            McmcConfig(thinning=0)
        with pytest.raises(ValidationError, match="chain count"):
            McmcConfig(chains=0)

    def test_retained_count(self):
        config = McmcConfig(total_iterations=12_000, burn_in=2_000, thinning=5)
        assert config.retained_per_chain == 2_000


class TestLogPosterior:
    @pytest.mark.parametrize("case", sorted(ORACLE_LOG_POSTERIOR))
    def test_matches_high_precision_oracle(self, case):
        (prior_a, prior_b), points = ORACLE_LOG_POSTERIOR[case]
        _, _, to_logs = bhm._coordinates(prior_a, prior_b)
        density = bhm._log_posterior(*ORACLE_TABLE, prior_a, prior_b, to_logs)
        for alpha, beta, expected in points:
            if prior_b.kind == "fixed":  # the grid is in (log alpha, log beta)
                x, y = math.log(alpha), math.log(beta)
            else:  # the grid is in (logit mean, log concentration)
                x, y = math.log(alpha / beta), math.log(alpha + beta)
            got = density(np.array([x]), np.array([y]))[0, 0]
            assert got == pytest.approx(expected, rel=1e-12)


class TestLgamma:
    def test_matches_math_lgamma(self):
        # Across the whole range the grid meets, and densely around the
        # zeros of log Gamma at 1 and 2.
        x = np.concatenate([np.geomspace(1e-4, 1e7, 20_001), np.linspace(0.5, 3.0, 2_001)])
        expected = np.array([math.lgamma(v) for v in x])
        error = np.abs(bhm._lgamma(x) - expected)
        assert np.all(error <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def chain_slice(logdensity, x0, n, seed, width=1.0, max_stepout=50):
    gen = substream(seed, 9)
    out = np.empty(n)
    x = x0
    for k in range(n):
        x = slice_sample_step(logdensity, x, width, max_stepout, gen)
        out[k] = x
    return out


class TestSliceSampler:
    def test_standard_normal_target(self):
        draws = chain_slice(lambda x: -0.5 * x * x, 0.0, 100_000, seed=21)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_exponential_target_respects_support(self):
        def logdensity(x):
            return -x if x > 0 else -math.inf

        draws = chain_slice(logdensity, 1.0, 100_000, seed=22)
        assert np.all(draws > 0)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_width_covering_whole_slice_still_lands_in_support(self):
        def logdensity(x):
            return 0.0 if 0.0 <= x <= 1.0 else -math.inf

        draws = chain_slice(logdensity, 0.5, 5_000, seed=23, width=100.0)
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        assert abs(draws.mean() - 0.5) < 0.02

    def test_log_scale_with_jacobian_matches_direct_sampling(self):
        # Gamma(3,1) sampled directly vs via y = log x with the +y Jacobian;
        # the transform used for the hyperparameter steps must not change
        # the sampled distribution.
        def direct(x):
            return 2.0 * math.log(x) - x if x > 0 else -math.inf

        def transformed(y):
            return direct(math.exp(y)) + y

        direct_draws = chain_slice(direct, 3.0, 60_000, seed=24)
        log_draws = np.exp(chain_slice(transformed, math.log(3.0), 60_000, seed=25))
        assert direct_draws.mean() == pytest.approx(3.0, abs=0.06)
        assert log_draws.mean() == pytest.approx(3.0, abs=0.06)
        assert direct_draws.var() == pytest.approx(3.0, abs=0.2)
        assert log_draws.var() == pytest.approx(3.0, abs=0.2)

    def test_same_stream_reproduces_path(self):
        logdensity = lambda x: -0.5 * x * x  # noqa: E731
        a = chain_slice(logdensity, 0.0, 200, seed=30)
        b = chain_slice(logdensity, 0.0, 200, seed=30)
        assert np.array_equal(a, b)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(SliceSamplerError, match="not finite"):
            slice_sample_step(
                lambda x: -math.inf, 0.0, 1.0, 50, substream(1, 9)
            )

    def test_shrinkage_budget_exhaustion_carries_diagnostics(self):
        # A well-behaved density cannot exhaust the budget (the bracket
        # collapses onto x0, which is on the slice), so simulate a numerically
        # unstable one that turns -inf after the level is drawn.
        calls = {"n": 0}

        def unstable(x):
            calls["n"] += 1
            return 0.0 if calls["n"] == 1 else -math.inf

        with pytest.raises(SliceSamplerError, match="shrinkage") as err:
            slice_sample_step(unstable, 0.5, 1.0, 50, substream(2, 9))
        assert "x0" in err.value.diagnostics
        assert err.value.diagnostics["left"] <= 0.5 <= err.value.diagnostics["right"]


class TestFitBhm:
    def test_draw_shapes_and_invariants(self):
        config = quick_config()
        draws = fit_bhm(tiny_table(), config=config)
        S = config.chains * config.retained_per_chain
        assert draws.theta.shape == (S, 2, 2)
        assert draws.alpha.shape == (S, 2)
        assert np.all((draws.theta > 0) & (draws.theta < 1))
        assert np.all(draws.alpha > 0) and np.all(draws.beta > 0)
        assert set(draws.diagnostics) == {"A", "B"}

    def test_deterministic_given_seed(self):
        table = tiny_table()
        a = fit_bhm(table, config=quick_config())
        b = fit_bhm(table, config=quick_config())
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.alpha, b.alpha)

    def test_chains_do_not_depend_on_chain_count(self):
        table = tiny_table()
        two = fit_bhm(table, config=quick_config(chains=2))
        three = fit_bhm(table, config=quick_config(chains=3))
        S = two.n_draws
        assert np.array_equal(three.theta[:S], two.theta)
        assert np.array_equal(three.alpha[:S], two.alpha)
        assert np.array_equal(three.beta[:S], two.beta)

    def test_different_seed_changes_draws(self):
        table = tiny_table()
        a = fit_bhm(table, config=quick_config(seed=1))
        b = fit_bhm(table, config=quick_config(seed=2))
        assert not np.array_equal(a.theta, b.theta)

    def test_fixed_hyperparameters_match_conjugate_closed_form(self):
        # With alpha, beta pinned, theta draws are iid Beta(a + Y, b + N - Y).
        table = tiny_table()
        a_pin, b_pin = 3.0, 5.0
        priors = (PriorSpec.fixed(a_pin), PriorSpec.fixed(b_pin))
        config = quick_config(total_iterations=2_100, burn_in=100, thinning=1, chains=2)
        draws = fit_bhm(table, priors=priors, config=config)
        S = draws.n_draws
        assert np.all(draws.alpha == a_pin) and np.all(draws.beta == b_pin)
        for i in range(2):
            for j in range(2):
                y = table.counts[i, j]
                n = table.tasks[j].test_size
                a_post, b_post = a_pin + y, b_pin + n - y
                mean = beta_dist.mean(a_post, b_post)
                var = beta_dist.var(a_post, b_post)
                kurt = beta_dist.stats(a_post, b_post, moments="k")
                cell = draws.theta[:, i, j]
                assert abs(cell.mean() - mean) < 3 * math.sqrt(var / S)
                var_se = math.sqrt(var**2 * (2.0 / (S - 1) + float(kurt) / S))
                assert abs(cell.var(ddof=1) - var) < 3 * var_se

    def test_fixed_hyperparameters_never_move(self):
        priors = {"A": (PriorSpec.fixed(3.0), PriorSpec.exponential()),
                  "B": (PriorSpec.exponential(), PriorSpec.fixed(5.0))}
        draws = fit_bhm(tiny_table(), priors=priors, config=quick_config())
        assert np.all(draws.alpha[:, 0] == 3.0) and np.all(draws.beta[:, 1] == 5.0)
        assert np.ptp(draws.beta[:, 0]) > 0 and np.ptp(draws.alpha[:, 1]) > 0

    def test_grid_diagnostics(self):
        config = quick_config()
        priors = {"B": (PriorSpec.fixed(3.0), PriorSpec.fixed(5.0))}
        draws = fit_bhm(tiny_table(), priors=priors, config=config)
        again = fit_bhm(tiny_table(), priors=priors, config=config)
        assert draws.diagnostics == again.diagnostics
        free, pinned = draws.diagnostics["A"], draws.diagnostics["B"]
        assert 0.0 <= free["edge_mass"] <= bhm.EDGE_MASS_WARN_THRESHOLD
        # With both free, the box is in (logit mean, log concentration), and
        # every draw lies in it, give or take half a fine-grid step.
        x = np.log(draws.alpha[:, 0] / draws.beta[:, 0])
        y = np.log(draws.alpha[:, 0] + draws.beta[:, 0])
        box = free["box"]
        for k, values in enumerate((x, y)):
            lo, hi = box[2 * k], box[2 * k + 1]
            assert -bhm._LOG_LIMIT <= lo < hi <= bhm._LOG_LIMIT
            half_step = (hi - lo) / (bhm._FINE[k] - 1) / 2
            assert lo - half_step <= values.min() and values.max() <= hi + half_step
        # Both fixed: one grid cell, no edge.
        assert pinned["edge_mass"] == 0.0
        assert pinned["box"] == (math.log(3.0), math.log(3.0), math.log(5.0), math.log(5.0))

    def test_edge_mass_warning_fires_when_the_box_cuts_the_posterior(self, monkeypatch):
        # Clamped to [-1, 1] on both grid axes, the box cannot reach the
        # tiny table's posterior, whose mass then piles up on its edge.
        monkeypatch.setattr(bhm, "_LOG_LIMIT", 1.0)
        with pytest.warns(ConvergenceWarning, match="model 'B'.*outermost cells") as record:
            draws = fit_bhm(tiny_table(), config=quick_config())
        assert not any("R-hat" in str(w.message) for w in record)
        for stats in draws.diagnostics.values():
            assert stats["edge_mass"] > bhm.EDGE_MASS_WARN_THRESHOLD
            assert stats["box"] == (-1.0, 1.0, -1.0, 1.0)

    def test_nonfinite_initial_density_names_model(self):
        priors = {"B": (PriorSpec.truncated_normal(1e300, 1e-300), PriorSpec.exponential())}
        with pytest.raises(ValidationError, match="model 'B'.*not finite"):
            with np.errstate(over="ignore"):
                fit_bhm(tiny_table(), priors=priors, config=quick_config())

    def test_prior_mapping_forms(self):
        table = tiny_table()
        config = quick_config(total_iterations=40, burn_in=10, thinning=1, chains=1)
        single = PriorSpec.exponential(rate=1e-3)
        fit_bhm(table, priors=single, config=config)
        fit_bhm(table, priors=(single, PriorSpec.fixed(4.0)), config=config)
        fit_bhm(table, priors={"A": (single, single)}, config=config)
        with pytest.raises(ValidationError, match="unknown models"):
            fit_bhm(table, priors={"Z": (single, single)}, config=config)

    def test_convergence_warning_fires_on_high_rhat(self, monkeypatch):
        monkeypatch.setattr(bhm, "split_rhat", lambda chains: 1.4)
        with pytest.warns(ConvergenceWarning, match="R-hat"):
            fit_bhm(tiny_table(), config=quick_config())

    def test_well_mixed_fit_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            draws = fit_bhm(
                tiny_table(),
                priors=(PriorSpec.fixed(2.0), PriorSpec.fixed(2.0)),
                config=quick_config(total_iterations=600, burn_in=100),
            )
        for stats in draws.diagnostics.values():
            assert stats["rhat"] < 1.05
            assert stats["ess"] > 50


class TestCredibleInterval:
    def test_self_difference_is_degenerate_zero(self):
        draws = fit_bhm(tiny_table(), config=quick_config())
        est = credible_interval(draws, "A", other="A")
        assert (est.point, est.lower, est.upper) == (0.0, 0.0, 0.0)
        assert est.method == "bhm-credible"

    def test_point_is_posterior_mean_of_functional(self):
        draws = fit_bhm(tiny_table(), config=quick_config())
        est = credible_interval(draws, "A", level=0.9)
        series = draws.theta[:, 0, :].mean(axis=1)
        assert est.point == pytest.approx(series.mean(), abs=1e-12)
        assert est.lower <= est.point <= est.upper

    def test_bonferroni_adjusts_level(self):
        draws = fit_bhm(tiny_table(), config=quick_config())
        est = credible_interval(draws, "A", other="B", level=0.95, comparisons=3)
        assert est.level == pytest.approx(1 - 0.05 / 3)

    def test_vertex_weights_select_single_task(self):
        draws = fit_bhm(tiny_table(), config=quick_config())
        wv = WeightVector(weights=np.array([1.0, 0.0]))
        est = credible_interval(draws, "B", weights=wv)
        series = draws.theta[:, 1, 0]
        assert est.point == pytest.approx(series.mean(), abs=1e-12)

    def test_unknown_model_rejected(self):
        draws = fit_bhm(tiny_table(), config=quick_config())
        with pytest.raises(KeyError, match="Z"):
            credible_interval(draws, "Z")


class TestPosteriorRankProbabilities:
    def test_single_model_is_certain_rank_one(self):
        draws = manual_draws(np.full((50, 1, 2), 0.5))
        assert posterior_rank_probabilities(draws).tolist() == [[1.0]]

    def test_stochastic_dominance_gives_identity(self):
        theta = np.empty((100, 2, 2))
        theta[:, 0, :] = 0.9
        theta[:, 1, :] = 0.3
        probabilities = posterior_rank_probabilities(manual_draws(theta))
        assert np.array_equal(probabilities, np.eye(2))

    def test_rows_sum_to_one(self):
        draws = fit_bhm(tiny_table(), config=quick_config())
        probabilities = posterior_rank_probabilities(draws)
        assert np.allclose(probabilities.sum(axis=1), 1.0, atol=1e-12)

    def test_exact_ties_break_by_model_index(self):
        theta = np.full((40, 3, 2), 0.5)
        probabilities = posterior_rank_probabilities(manual_draws(theta))
        assert np.array_equal(probabilities, np.eye(3))


class TestDiagnostics:
    def test_split_rhat_flags_separated_chains(self):
        gen = substream(11, 9)
        mixed = gen.standard_normal((4, 400))
        separated = mixed + np.array([[0.0], [0.0], [3.0], [3.0]])
        assert split_rhat(mixed) < 1.05
        assert split_rhat(separated) > 1.5

    def test_split_rhat_constant_trace_is_one(self):
        assert split_rhat(np.ones((4, 100))) == 1.0

    def test_split_rhat_detects_within_chain_trend(self):
        # A strong trend inside each chain inflates the split statistic.
        trend = np.tile(np.linspace(0.0, 5.0, 400), (2, 1))
        gen = substream(12, 9)
        assert split_rhat(trend + 0.1 * gen.standard_normal((2, 400))) > 1.5

    def test_ess_near_sample_size_for_iid_draws(self):
        gen = substream(13, 9)
        chains = gen.standard_normal((4, 1_000))
        ess = effective_sample_size(chains)
        assert 0.75 * 4_000 <= ess <= 4_000

    def test_ess_small_for_sticky_chains(self):
        gen = substream(14, 9)
        x = np.empty((2, 2_000))
        noise = gen.standard_normal((2, 2_000))
        x[:, 0] = noise[:, 0]
        for t in range(1, 2_000):
            x[:, t] = 0.99 * x[:, t - 1] + math.sqrt(1 - 0.99**2) * noise[:, t]
        assert effective_sample_size(x) < 400
