"""Tests for the knot-grid sampler and the consistency experiment.

Likelihood values are checked against closed forms and the pointwise
hazard evaluator; sampler correctness against prior recovery, a
detailed-balance toy with a quadrature reference, and a short posterior
run on synthetic data.  The experiment is exercised end to end on a
small ladder.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist
from scipy.stats import multivariate_normal

from gphazard.errors import DomainError, NumericError
from gphazard.gp_paths import JITTER_FACTOR, _covariance_cholesky
from gphazard.hazard import (
    Covariate,
    HazardCurve,
    SurvivalDataset,
    Theta,
    UniformQ,
    generate_dataset,
    log_sigmoid,
)
from gphazard.inference import (
    CellResult,
    ExperimentReport,
    ExperimentSpec,
    McmcConfig,
    ModelPrior,
    OmegaPrior,
    ThetaRep,
    consistency_experiment,
    log_likelihood,
    log_posterior,
    mcmc_run,
    posterior_outside_mass,
)
from gphazard.inference import _pcn_step
from gphazard.kernels import StationaryKernel
from gphazard.vc import GridSpec


def se3():
    return StationaryKernel.se(lengthscale=3.0)


def flat_rep(omega, horizon=10.0):
    # constant-zero path: link is 1/2 everywhere, hazard omega/2
    return ThetaRep(omega, (0.0, horizon), ((0.0, 0.0),))


def single_record(t, horizon=10.0):
    return SurvivalDataset(
        times=(t,), covariates=((),), design="RD", q_descriptor={}, horizon=horizon
    )


class TestThetaRep:
    def test_props(self):
        rep = ThetaRep(1.5, (0.0, 2.0, 5.0), ((0.0, 1.0, -1.0), (0.5, 0.5, 0.5)))
        assert rep.d == 1
        assert rep.horizon == 5.0

    def test_round_trip_through_theta(self):
        knots = (0.0, 1.0, 3.0, 7.0)
        rows = ((0.2, -0.4, 1.1, 0.0), (1.0, 0.0, -1.0, 2.0))
        rep = ThetaRep(2.5, knots, rows)
        back = ThetaRep.from_theta(rep.to_theta(), knots)
        assert back.omega == rep.omega
        assert back.knots == rep.knots
        assert_allclose(back.values, rows, rtol=0, atol=1e-15)

    def test_from_theta_interpolates(self):
        rep = ThetaRep(1.0, (0.0, 2.0), ((0.0, 4.0),))
        coarse = ThetaRep.from_theta(rep.to_theta(), (0.0, 1.0, 2.0))
        assert_allclose(coarse.values[0], (0.0, 2.0, 4.0))

    def test_from_theta_past_horizon(self):
        rep = ThetaRep(1.0, (0.0, 2.0), ((0.0, 0.0),))
        with pytest.raises(DomainError, match="past the theta horizon"):
            ThetaRep.from_theta(rep.to_theta(), (0.0, 3.0))

    @pytest.mark.parametrize(
        "omega,knots,values",
        [
            (0.0, (0.0, 1.0), ((0.0, 0.0),)),
            (-2.0, (0.0, 1.0), ((0.0, 0.0),)),
            (math.nan, (0.0, 1.0), ((0.0, 0.0),)),
            (1.0, (0.0,), ((0.0,),)),
            (1.0, (1.0, 2.0), ((0.0, 0.0),)),
            (1.0, (0.0, 1.0, 1.0), ((0.0, 0.0, 0.0),)),
            (1.0, (0.0, 1.0), ()),
            (1.0, (0.0, 1.0), ((0.0, 0.0, 0.0),)),
            (1.0, (0.0, 1.0), ((0.0, math.inf),)),
        ],
    )
    def test_rejects(self, omega, knots, values):
        with pytest.raises(DomainError):
            ThetaRep(omega, knots, values)


class TestOmegaPrior:
    def test_matches_reference_gamma(self):
        prior = OmegaPrior(2.3, 1.7)
        for omega in (0.1, 0.9, 2.3, 11.0):
            assert_allclose(
                prior.logpdf(omega),
                gamma_dist.logpdf(omega, a=2.3, scale=1.0 / 1.7),
                rtol=1e-12,
            )

    def test_mean(self):
        assert OmegaPrior(3.0, 1.5).mean == 2.0

    def test_support_edge(self):
        prior = OmegaPrior(1.0, 1.0)
        assert prior.logpdf(0.0) == -math.inf
        assert prior.logpdf(-1.0) == -math.inf

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects(self, shape, rate):
        with pytest.raises(DomainError):
            OmegaPrior(shape, rate)


class TestModelPrior:
    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="at least one kernel"):
            ModelPrior((), OmegaPrior(2.0, 1.0))

    def test_rejects_non_kernel(self):
        with pytest.raises(DomainError, match="StationaryKernel"):
            ModelPrior((1.0,), OmegaPrior(2.0, 1.0))


class TestMcmcConfig:
    def test_accepts_full_path_scale(self):
        cfg = McmcConfig(10, 2, 1, 0.5, 1.0, 0)
        assert cfg.proposal_scale_path == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iterations=0),
            dict(iterations=2.5),
            dict(iterations=True),
            dict(burn_in=0),
            dict(burn_in=10),
            dict(burn_in=12),
            dict(thinning=0),
            dict(proposal_scale_omega=0.0),
            dict(proposal_scale_omega=math.nan),
            dict(proposal_scale_path=0.0),
            dict(proposal_scale_path=1.5),
        ],
    )
    def test_rejects(self, kwargs):
        base = dict(
            iterations=10,
            burn_in=2,
            thinning=1,
            proposal_scale_omega=0.5,
            proposal_scale_path=0.5,
            seed=0,
        )
        base.update(kwargs)
        with pytest.raises(DomainError):
            McmcConfig(**base)


class TestLogLikelihood:
    def test_exponential_closed_form(self):
        # flat path at 0 with omega 2 is the unit exponential; density at
        # t=1 is e^{-1}, and the trapezoid rule is exact for a constant
        assert log_likelihood(flat_rep(2.0), single_record(1.0)) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_exponential_other_scale(self):
        # hazard 3/2, record at t=2: log(3/2) - 3
        ll = log_likelihood(flat_rep(3.0), single_record(2.0))
        assert_allclose(ll, math.log(1.5) - 3.0, rtol=1e-12)

    def test_sums_over_records(self):
        rep = flat_rep(2.0)
        both = SurvivalDataset(
            times=(1.0, 2.5),
            covariates=((), ()),
            design="RD",
            q_descriptor={},
            horizon=10.0,
        )
        total = log_likelihood(rep, both)
        split = log_likelihood(rep, single_record(1.0)) + log_likelihood(
            rep, single_record(2.5)
        )
        assert_allclose(total, split, rtol=1e-12)

    def test_matches_pointwise_hazard_evaluator(self):
        rng = np.random.default_rng(5)
        knots = tuple(np.linspace(0.0, 6.0, 5))
        values = tuple(tuple(rng.normal(0.0, 0.7, 5)) for _ in range(2))
        rep = ThetaRep(1.7, knots, values)
        theta = rep.to_theta()
        times = (0.4, 1.3, 2.2, 5.9, 0.05, 3.3)
        covs = ((0.2,), (0.9,), (0.5,), (0.0,), (1.0,), (0.77,))
        dataset = SurvivalDataset(
            times=times, covariates=covs, design="RD", q_descriptor={}, horizon=6.0
        )
        direct = sum(
            math.log(HazardCurve(theta, Covariate(x)).density_at(t))
            for t, x in zip(times, covs)
        )
        # refined trapezoid vs per-point quadrature in the evaluator
        assert_allclose(log_likelihood(rep, dataset), direct, atol=1e-4)

    def test_rejects_empty_dataset(self):
        empty = SurvivalDataset(
            times=(), covariates=(), design="RD", q_descriptor={}, horizon=10.0
        )
        with pytest.raises(DomainError, match="empty"):
            log_likelihood(flat_rep(2.0), empty)

    def test_rejects_d_mismatch(self):
        rep = ThetaRep(1.0, (0.0, 10.0), ((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(DomainError, match="d=1"):
            log_likelihood(rep, single_record(1.0))

    def test_rejects_dataset_past_horizon(self):
        rep = ThetaRep(1.0, (0.0, 20.0), ((0.0, 0.0),))
        far = SurvivalDataset(
            times=(1.0,), covariates=((),), design="RD", q_descriptor={}, horizon=25.0
        )
        with pytest.raises(DomainError, match="exceeds the representation horizon|exceeds representation horizon"):
            log_likelihood(rep, far)

    def test_overflow_names_the_record(self):
        # omega * integral overflows for the second record only
        huge = flat_rep(1e308)
        dataset = SurvivalDataset(
            times=(1.0, 4.0),
            covariates=((), ()),
            design="RD",
            q_descriptor={},
            horizon=10.0,
        )
        with pytest.raises(NumericError, match="record 1"):
            log_likelihood(huge, dataset)


class TestLogPosterior:
    def test_additivity(self):
        rng = np.random.default_rng(5)
        knots = np.linspace(0.0, 6.0, 5)
        values = tuple(tuple(rng.normal(0.0, 0.7, 5)) for _ in range(2))
        rep = ThetaRep(1.7, tuple(knots), values)
        dataset = SurvivalDataset(
            times=(0.4, 1.3, 2.2),
            covariates=((0.2,), (0.9,), (0.5,)),
            design="RD",
            q_descriptor={},
            horizon=6.0,
        )
        prior = ModelPrior(
            (StationaryKernel.ou(lengthscale=2.0), StationaryKernel.se(lengthscale=1.5)),
            OmegaPrior(2.0, 1.0),
        )
        manual = log_likelihood(rep, dataset)
        for row, kernel in zip(values, prior.kernels):
            cov = kernel(np.abs(knots[:, None] - knots[None, :]))
            cov = cov + JITTER_FACTOR * kernel.kappa0 * np.eye(knots.size)
            manual += multivariate_normal(mean=np.zeros(knots.size), cov=cov).logpdf(
                np.asarray(row)
            )
        manual += gamma_dist.logpdf(1.7, a=2.0, scale=1.0)
        assert_allclose(log_posterior(rep, dataset, prior), manual, rtol=1e-10)

    def test_rejects_kernel_count_mismatch(self):
        rep = ThetaRep(1.0, (0.0, 10.0), ((0.0, 0.0), (0.0, 0.0)))
        dataset = SurvivalDataset(
            times=(1.0,), covariates=((0.5,),), design="RD", q_descriptor={}, horizon=10.0
        )
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        with pytest.raises(DomainError, match="need 2"):
            log_posterior(rep, dataset, prior)

    def test_truth_scores_above_prior_draws(self):
        # the generating parameter should out-score nearly every draw
        # from a diffuse prior on a few hundred records
        theta0 = Theta.constant(2.0, 0, 10.0)
        dataset = generate_dataset(theta0, 300, "RD", UniformQ(0), 10.0, 21)
        knots = tuple(np.linspace(0.0, 10.0, 4))
        ll0 = log_likelihood(ThetaRep.from_theta(theta0, knots), dataset)
        chol = _covariance_cholesky(se3(), np.asarray(knots))
        rng = np.random.default_rng(33)
        beats = 0
        for _ in range(40):
            omega = float(rng.gamma(2.0, 1.0)) + 1e-9
            row = tuple(chol @ rng.standard_normal(4))
            beats += ll0 > log_likelihood(ThetaRep(omega, knots, (row,)), dataset)
        assert beats >= 38


class TestPcnStep:
    def test_flat_likelihood_keeps_prior(self):
        # with a constant log likelihood every move is accepted and the
        # chain leaves the path prior invariant
        knots = np.array([0.0, 1.5, 4.0])
        chol = _covariance_cholesky(StationaryKernel.se(lengthscale=1.0), knots)
        rng = np.random.default_rng(123)
        row = chol @ rng.standard_normal(3)
        current = 0.0
        samples = np.empty((20000, 3))
        accepted = 0
        for i in range(20000):
            row, current, ok = _pcn_step(row, chol, 0.5, lambda r: 0.0, current, rng)
            accepted += ok
            samples[i] = row
        assert accepted == 20000
        assert np.all(np.abs(samples.mean(axis=0)) < 0.06)
        assert_allclose(samples.var(axis=0), 1.0, atol=0.08)

    def test_matches_quadrature_posterior(self):
        # scalar target N(0,1) tilted by a sigmoid; P(v > 0) from the
        # chain against numerical integration
        def loglik(v):
            return log_sigmoid(2.0 * float(v[0]))

        rng = np.random.default_rng(77)
        chol = np.array([[1.0]])
        row = np.array([0.0])
        current = loglik(row)
        hits = 0
        steps = 40000
        for _ in range(steps):
            row, current, _ = _pcn_step(row, chol, 0.6, loglik, current, rng)
            hits += row[0] > 0
        density = lambda v: math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) / (1.0 + math.exp(-2.0 * v))
        # the normaliser is exactly 1/2 by the sigmoid's symmetry
        target = quad(density, 0.0, 12.0)[0] / 0.5
        assert abs(hits / steps - target) < 0.02


class TestMcmcRun:
    def small_dataset(self):
        theta0 = Theta.constant(2.0, 0, 8.0)
        return generate_dataset(theta0, 30, "RD", UniformQ(0), 8.0, 4)

    def test_deterministic_given_seed(self):
        dataset = self.small_dataset()
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        knots = tuple(np.linspace(0.0, 8.0, 5))
        cfg = McmcConfig(60, 20, 4, 0.3, 0.4, 9)
        a = mcmc_run(dataset, prior, cfg, knots)
        b = mcmc_run(dataset, prior, cfg, knots)
        assert len(a.draws) == len(b.draws) > 0
        for x, y in zip(a.draws, b.draws):
            assert x.omega == y.omega
            assert x.values == y.values

    def test_draw_count(self):
        dataset = self.small_dataset()
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(50, 10, 5, 0.3, 0.4, 1)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 8.0, 5)))
        # draws at iterations 10, 15, ..., 45
        assert len(run.draws) == 8

    def test_prior_only_recovers_prior(self):
        # with the likelihood dropped the draws must reproduce the gamma
        # law of the scale and the kernel marginals at the knots
        prior = ModelPrior((se3(),), OmegaPrior(3.0, 1.5))
        cfg = McmcConfig(30200, 200, 3, 1.0, 0.5, 42)
        knots = tuple(np.linspace(0.0, 20.0, 4))
        run = mcmc_run(None, prior, cfg, knots, prior_only=True)
        assert run.prior_only
        assert len(run.draws) == 10000
        assert run.acceptance_paths == 1.0
        omegas = np.array([d.omega for d in run.draws])
        mean, var = omegas.mean(), omegas.var()
        assert_allclose(mean * mean / var, 3.0, rtol=0.05)
        assert_allclose(mean / var, 1.5, rtol=0.05)
        rows = np.array([d.values[0] for d in run.draws])
        assert np.all(np.abs(rows.mean(axis=0)) < 0.05)
        assert_allclose(rows.var(axis=0), se3().kappa0, rtol=0.06)
        assert run.warnings == ()

    def test_flags_dead_omega_block(self):
        # log-scale steps of sd 60 accept about 0.1% of the time; over 3000
        # post-burn-in tries that is a handful of accepts, far below the 30
        # at the 1% warning line
        theta0 = Theta.constant(2.0, 0, 10.0)
        dataset = generate_dataset(theta0, 300, "RD", UniformQ(0), 10.0, 21)
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(3100, 100, 2, 60.0, 0.999, 2)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 10.0, 4)))
        assert run.acceptance_omega < 0.01
        assert any("omega acceptance rate" in w and "below 1%" in w for w in run.warnings)

    def test_posterior_covers_truth(self):
        # one covariate, constant truth: the posterior hazard at a fixed
        # point should land near the true value 1
        theta0 = Theta.constant(2.0, 1, 20.0)
        dataset = generate_dataset(theta0, 400, "RD", UniformQ(1), 20.0, 101)
        prior = ModelPrior((se3(), se3()), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(600, 250, 5, 0.15, 0.25, 7)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 20.0, 6)))
        point = Covariate((0.5,))
        hazards = np.array(
            [HazardCurve(d.to_theta(), point).hazard_at(1.0) for d in run.draws]
        )
        assert 0.8 < hazards.mean() < 1.2

    def test_rejects_bad_knots(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.3, 0.4, 0)
        with pytest.raises(DomainError, match="knots"):
            mcmc_run(self.small_dataset(), prior, cfg, (1.0, 2.0))

    def test_rejects_missing_dataset(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.3, 0.4, 0)
        with pytest.raises(DomainError, match="nonempty"):
            mcmc_run(None, prior, cfg, (0.0, 8.0))

    def test_rejects_d_mismatch(self):
        prior = ModelPrior((se3(), se3()), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.3, 0.4, 0)
        with pytest.raises(DomainError, match="prior covers d=1"):
            mcmc_run(self.small_dataset(), prior, cfg, (0.0, 8.0))

    def test_record_shape(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(40, 10, 3, 0.3, 0.4, 5)
        run = mcmc_run(self.small_dataset(), prior, cfg, tuple(np.linspace(0.0, 8.0, 5)))
        record = run.as_record()
        assert record["n_draws"] == len(run.draws)
        assert record["n_knots"] == 5
        assert record["prior_only"] is False
        assert isinstance(record["warnings"], list)


class TestPosteriorOutsideMass:
    def setup_method(self):
        self.theta0 = Theta.constant(2.0, 0, 10.0)
        self.doubled = Theta.constant(4.0, 0, 10.0)
        self.grid = GridSpec.regular(10.0, 33, 0)
        self.knots = tuple(np.linspace(0.0, 10.0, 4))

    def test_zero_when_at_truth(self):
        draws = [ThetaRep.from_theta(self.theta0, self.knots)]
        mass = posterior_outside_mass(draws, self.theta0, 0.2, "RD", UniformQ(0), self.grid)
        assert mass == 0.0

    def test_one_when_far(self):
        # doubling the scale moves the survival metric by about 1/4,
        # past an epsilon of 0.2
        draws = [ThetaRep.from_theta(self.doubled, self.knots)]
        mass = posterior_outside_mass(draws, self.theta0, 0.2, "RD", UniformQ(0), self.grid)
        assert mass == 1.0

    def test_mixed(self):
        draws = [
            ThetaRep.from_theta(self.theta0, self.knots),
            ThetaRep.from_theta(self.doubled, self.knots),
        ]
        mass = posterior_outside_mass(draws, self.theta0, 0.2, "RD", UniformQ(0), self.grid)
        assert mass == 0.5

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="at least one draw"):
            posterior_outside_mass([], self.theta0, 0.2, "RD", UniformQ(0), self.grid)

    def test_rejects_bad_epsilon(self):
        draws = [ThetaRep.from_theta(self.theta0, self.knots)]
        for epsilon in (0.0, -0.1, math.nan):
            with pytest.raises(DomainError, match="epsilon"):
                posterior_outside_mass(draws, self.theta0, epsilon, "RD", UniformQ(0), self.grid)


def small_spec(**overrides):
    theta0 = Theta.constant(2.0, 0, 8.0)
    base = dict(
        theta0=theta0,
        prior=ModelPrior((se3(),), OmegaPrior(2.0, 1.0)),
        n_ladder=(20, 80, 320),
        epsilon=0.08,
        design="RD",
        q=UniformQ(0),
        replications=2,
        mcmc=McmcConfig(900, 300, 6, 0.25, 0.3, 0),
        knots=tuple(np.linspace(0.0, 8.0, 5)),
        metric_grid=GridSpec.regular(8.0, 33, 0),
        horizon=8.0,
        seed=17,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_ladder=()),
            dict(n_ladder=(100, 50)),
            dict(n_ladder=(0, 10)),
            dict(replications=0),
            dict(replications=1.5),
            dict(replications=True),
            dict(epsilon=0.0),
            dict(epsilon=math.nan),
            dict(horizon=9.0),
            dict(horizon=0.0),
            dict(knots=(0.0, 4.0)),
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(DomainError):
            small_spec(**overrides)


class TestConsistencyExperiment:
    def test_outside_mass_decays_along_ladder(self):
        report = consistency_experiment(small_spec())
        assert len(report.cells) == 6
        assert all(not c.error for c in report.cells)
        masses = [m for _, m in report.per_n]
        assert len(masses) == 3
        assert masses[0] > masses[1] > masses[2]
        assert report.spearman <= -0.8
        assert report.consistent_trend

    def test_csv_round(self):
        report = consistency_experiment(small_spec(n_ladder=(20, 60), replications=1,
                                                   mcmc=McmcConfig(200, 80, 6, 0.25, 0.3, 0)))
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,rep,outside_mass,acceptance_omega,acceptance_paths,wall_time"
        assert len(lines) == 3
        assert lines[1].startswith("20,0,")
        assert lines[2].startswith("60,0,")

    def test_reproducible(self):
        spec = small_spec(n_ladder=(20, 60), replications=1,
                          mcmc=McmcConfig(200, 80, 6, 0.25, 0.3, 0))
        a = consistency_experiment(spec)
        b = consistency_experiment(spec)
        assert [c.outside_mass for c in a.cells] == [c.outside_mass for c in b.cells]
        assert a.spearman == b.spearman or (math.isnan(a.spearman) and math.isnan(b.spearman))

    def test_huge_epsilon_gives_flat_zero_masses(self):
        report = consistency_experiment(
            small_spec(n_ladder=(20, 60), replications=1, epsilon=5.0,
                       mcmc=McmcConfig(200, 80, 6, 0.25, 0.3, 0))
        )
        assert all(c.outside_mass == 0.0 for c in report.cells)
        assert math.isnan(report.spearman)
        assert not report.consistent_trend

    def test_failed_cell_is_recorded_not_fatal(self, monkeypatch):
        import gphazard.inference as inf

        real = inf.mcmc_run

        def flaky(dataset, prior, config, knots, prior_only=False):
            if dataset is not None and dataset.n == 20:
                raise NumericError("synthetic breakage")
            return real(dataset, prior, config, knots, prior_only)

        monkeypatch.setattr(inf, "mcmc_run", flaky)
        report = consistency_experiment(
            small_spec(n_ladder=(20, 80), replications=1,
                       mcmc=McmcConfig(200, 80, 6, 0.25, 0.3, 0))
        )
        bad = [c for c in report.cells if c.error]
        assert len(bad) == 1
        assert bad[0].n == 20
        assert "synthetic breakage" in bad[0].error
        assert math.isnan(bad[0].outside_mass)
        # only one rung survives, so no trend can be declared
        assert math.isnan(report.spearman)
        assert not report.consistent_trend
        assert report.as_record()["failures"] == 1

    def test_report_record(self):
        cells = (
            CellResult(10, 0, 0.5, 0.3, 0.4, 0.01),
            CellResult(40, 0, 0.1, 0.3, 0.4, 0.02),
        )
        report = ExperimentReport(
            cells=cells,
            per_n=((10, 0.5), (40, 0.1)),
            spearman=-1.0,
            consistent_trend=True,
            epsilon=0.1,
        )
        record = report.as_record()
        assert record == {
            "spearman": -1.0,
            "consistent_trend": True,
            "epsilon": 0.1,
            "per_n": {"10": 0.5, "40": 0.1},
            "cells": 2,
            "failures": 0,
        }
