"""Tests for the knot-grid sampler and the consistency experiment.

Likelihood values are checked against closed forms and adaptive
quadrature; sampler correctness against prior recovery, a
detailed-balance toy with a quadrature reference, and a short posterior
run on synthetic data.  The experiment is exercised end to end on a
small ladder.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest
from scipy.stats import multivariate_normal

from conftest import brute_metric
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
from gphazard.inference import _Likelihood, _pcn_step
from gphazard.kernels import StationaryKernel
from gphazard.vc import GridSpec, q_atoms_from_law


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
        cfg = McmcConfig(10, 2, 1, 1.0, 0)
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
            dict(thinning=2.5),
            dict(proposal_scale_path=math.nan),
            dict(proposal_scale_path=0.0),
            dict(proposal_scale_path=1.5),
        ],
    )
    def test_rejects(self, kwargs):
        base = dict(
            iterations=10,
            burn_in=2,
            thinning=1,
            proposal_scale_path=0.5,
            seed=0,
        )
        base.update(kwargs)
        with pytest.raises(DomainError):
            McmcConfig(**base)


class TestLogLikelihood:
    def test_exponential_closed_form(self):
        # flat path at 0 with omega 2 is the unit exponential; density at
        # t=1 is e^{-1}
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

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        knots = np.linspace(0.0, 6.0, 5)
        values = rng.normal(0.0, 0.7, (2, 5))
        rep = ThetaRep(1.7, tuple(knots), tuple(tuple(row) for row in values))
        times = (0.4, 1.3, 2.2, 5.9, 0.05, 3.3)
        covs = ((0.2,), (0.9,), (0.5,), (0.0,), (1.0,), (0.77,))
        dataset = SurvivalDataset(
            times=times, covariates=covs, design="RD", q_descriptor={}, horizon=6.0
        )
        direct = 0.0
        for t, (x,) in zip(times, covs):
            def link(s, x=x):
                return np.interp(s, knots, values[0]) + x * np.interp(s, knots, values[1])

            inner = [k for k in knots if 0.0 < k < t] or None
            integral, _ = quad(
                lambda s: expit(link(s)), 0.0, t, points=inner, epsabs=0.0, epsrel=1e-13
            )
            direct += math.log(1.7) + math.log(expit(link(t))) - 1.7 * integral
        assert_allclose(log_likelihood(rep, dataset), direct, rtol=0.0, atol=1e-10)

    def test_shared_row_matches_zero_covariate(self):
        # d = 0 integrates one link row shared by all records; d = 1 with
        # x = 0 and a zero eta_1 path gives every record that same row
        theta = Theta.constant(2.0, d=0, horizon=8.0)
        base = generate_dataset(theta, 200, "RD", UniformQ(0), horizon=8.0, seed=3)
        lifted = SurvivalDataset(
            times=base.times,
            covariates=((0.0,),) * base.n,
            design="RD",
            q_descriptor={},
            horizon=base.horizon,
        )
        knots = tuple(np.linspace(0.0, 8.0, 9))
        row = tuple(np.random.default_rng(4).normal(0.0, 1.0, 9))
        shared = log_likelihood(ThetaRep(1.3, knots, (row,)), base)
        per_row = log_likelihood(ThetaRep(1.3, knots, (row, (0.0,) * 9)), lifted)
        assert_allclose(shared, per_row, rtol=1e-14)

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
        for t in (21.0, -0.5, math.nan):
            with pytest.raises(DomainError, match="record time"):
                log_likelihood(rep, single_record(t))

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
        chol, _ = _covariance_cholesky(se3(), np.asarray(knots))
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
        chol, _ = _covariance_cholesky(StationaryKernel.se(lengthscale=1.0), knots)
        rng = np.random.default_rng(123)
        values = (chol @ rng.standard_normal(3))[None, :]
        flat = lambda v: (0.0, 0.0)
        current = flat(values)
        samples = np.empty((20000, 3))
        accepted = 0
        for i in range(20000):
            values, current, ok = _pcn_step(values, 0, chol, 0.5, 2.0, flat, current, rng)
            accepted += ok
            samples[i] = values[0]
        assert accepted == 20000
        assert np.all(np.abs(samples.mean(axis=0)) < 0.06)
        assert_allclose(samples.var(axis=0), 1.0, atol=0.08)

    def test_matches_quadrature_posterior(self):
        # scalar target N(0,1) tilted by a sigmoid; P(v > 0) from the
        # chain against numerical integration
        def parts(v):
            return log_sigmoid(2.0 * float(v[0, 0])), 0.0

        rng = np.random.default_rng(77)
        chol = np.array([[1.0]])
        values = np.array([[0.0]])
        current = parts(values)
        hits = 0
        steps = 40000
        for _ in range(steps):
            values, current, _ = _pcn_step(values, 0, chol, 0.6, 1.0, parts, current, rng)
            hits += values[0, 0] > 0
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
        cfg = McmcConfig(60, 20, 4, 0.4, 9)
        a = mcmc_run(dataset, prior, cfg, knots)
        b = mcmc_run(dataset, prior, cfg, knots)
        assert len(a.draws) == len(b.draws) > 0
        for x, y in zip(a.draws, b.draws):
            assert x.omega == y.omega
            assert x.values == y.values

    def test_draw_count(self):
        dataset = self.small_dataset()
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(50, 10, 5, 0.4, 1)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 8.0, 5)))
        # draws at iterations 10, 15, ..., 45
        assert len(run.draws) == 8

    def test_prior_only_recovers_prior(self):
        # with the likelihood dropped the draws must reproduce the gamma
        # law of the scale and the kernel marginals at the knots
        prior = ModelPrior((se3(),), OmegaPrior(3.0, 1.5))
        cfg = McmcConfig(30200, 200, 3, 0.5, 42)
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

    def test_prior_only_keeps_underflowing_omega_draws(self):
        # at prior shape 0.01 about one exact Gamma draw in a thousand
        # rounds to 0.0; it is recorded as the smallest normal double
        prior = ModelPrior((se3(),), OmegaPrior(0.01, 1.0))
        cfg = McmcConfig(3000, 100, 1, 0.3, 0)
        run = mcmc_run(None, prior, cfg, (0.0, 5.0, 10.0), prior_only=True)
        omegas = np.array([draw.omega for draw in run.draws])
        assert len(omegas) == 2900
        assert np.all(omegas > 0)
        assert np.any(omegas == np.finfo(float).tiny)

    @pytest.mark.parametrize("d", [0, 1])
    def test_omega_draws_follow_their_gamma_conditional(self, d):
        # each recorded omega is drawn after its own paths, so given those
        # paths it is exactly Gamma(a + n, rate b + I): the probability
        # integral transforms of the 1000 draws are uniform
        theta0 = Theta.constant(2.0, d, 10.0)
        dataset = generate_dataset(theta0, 300, "RD", UniformQ(d), 10.0, 21)
        prior = ModelPrior((se3(),) * (d + 1), OmegaPrior(2.0, 1.0))
        knots = tuple(np.linspace(0.0, 10.0, 6))
        run = mcmc_run(dataset, prior, McmcConfig(2100, 100, 2, 0.3, 2), knots)
        assert run.acceptance_omega == 1.0
        lik = _Likelihood(dataset, knots)
        omegas = np.array([draw.omega for draw in run.draws])
        rates = np.array([1.0 + lik.parts(draw.values)[1] for draw in run.draws])
        u = gamma_dist.cdf(omegas, 2.0 + 300, scale=1.0 / rates)
        assert len(u) == 1000
        assert kstest(u, "uniform").pvalue > 0.01
        # the same transform under a wrong shape is far from uniform
        wrong = gamma_dist.cdf(omegas, 2.0 + 300 + 30, scale=1.0 / rates)
        assert kstest(wrong, "uniform").pvalue < 1e-6

    def test_posterior_covers_truth(self):
        # one covariate, constant truth: the posterior hazard at a fixed
        # point should land near the true value 1
        theta0 = Theta.constant(2.0, 1, 20.0)
        dataset = generate_dataset(theta0, 400, "RD", UniformQ(1), 20.0, 101)
        prior = ModelPrior((se3(), se3()), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(600, 250, 5, 0.25, 7)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 20.0, 6)))
        point = Covariate((0.5,))
        hazards = np.array(
            [HazardCurve(d.to_theta(), point).hazard_at(1.0) for d in run.draws]
        )
        assert 0.8 < hazards.mean() < 1.2

    def test_rejects_bad_knots(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.4, 0)
        with pytest.raises(DomainError, match="knots"):
            mcmc_run(self.small_dataset(), prior, cfg, (1.0, 2.0))

    def test_rejects_missing_dataset(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.4, 0)
        with pytest.raises(DomainError, match="nonempty"):
            mcmc_run(None, prior, cfg, (0.0, 8.0))

    def test_rejects_d_mismatch(self):
        prior = ModelPrior((se3(), se3()), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.4, 0)
        with pytest.raises(DomainError, match="prior covers d=1"):
            mcmc_run(self.small_dataset(), prior, cfg, (0.0, 8.0))

    def test_record_shape(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(40, 10, 3, 0.4, 5)
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_per_draw_brute_force(self, d):
        # ten chain draws, each measured by literal rectangle enumeration;
        # at every midpoint between consecutive distances the outside mass
        # is exactly the brute-force fraction
        theta0 = Theta.constant(2.0, d, 4.0)
        dataset = generate_dataset(theta0, 40, "RD", UniformQ(d), 4.0, 3)
        prior = ModelPrior((se3(),) * (d + 1), OmegaPrior(2.0, 1.0))
        run = mcmc_run(dataset, prior, McmcConfig(60, 10, 5, 0.4, 7), tuple(np.linspace(0.0, 4.0, 5)))
        assert len(run.draws) == 10
        grid = GridSpec.regular(4.0, 6, d, covariate_knots=4)
        atoms = q_atoms_from_law(UniformQ(d), cells_per_axis=4)
        dist = np.array([brute_metric(rep.to_theta(), theta0, "RD", atoms, grid) for rep in run.draws])
        cuts = np.sort(dist)
        for epsilon in 0.5 * (cuts[:-1] + cuts[1:]):
            mass = posterior_outside_mass(run.draws, theta0, epsilon, "RD", atoms, grid)
            assert mass == np.mean(dist > epsilon)

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
        mcmc=McmcConfig(900, 300, 6, 0.3, 0),
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
            dict(knots=()),
            dict(knots=(0.0,)),
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(DomainError):
            small_spec(**overrides)


class TestConsistencyExperiment:
    def test_outside_mass_decays_along_ladder(self):
        # a 1:8:64 ladder; at 1:4:16 the strict decay of the per-n means
        # held at only about 18 of 20 seeds
        report = consistency_experiment(small_spec(n_ladder=(20, 160, 1280)))
        assert len(report.cells) == 6
        assert all(not c.error for c in report.cells)
        masses = [m for _, m in report.per_n]
        assert len(masses) == 3
        assert masses[0] > masses[1] > masses[2]
        assert report.spearman <= -0.8
        assert report.consistent_trend

    def test_csv_round(self):
        report = consistency_experiment(small_spec(n_ladder=(20, 60), replications=1,
                                                   mcmc=McmcConfig(200, 80, 6, 0.3, 0)))
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,rep,outside_mass,acceptance_paths,wall_time"
        assert len(lines) == 3
        assert lines[1].startswith("20,0,")
        assert lines[2].startswith("60,0,")

    def test_reproducible(self):
        spec = small_spec(n_ladder=(20, 60), replications=1,
                          mcmc=McmcConfig(200, 80, 6, 0.3, 0))
        a = consistency_experiment(spec)
        b = consistency_experiment(spec)
        assert [c.outside_mass for c in a.cells] == [c.outside_mass for c in b.cells]
        assert a.spearman == b.spearman or (math.isnan(a.spearman) and math.isnan(b.spearman))

    def test_huge_epsilon_gives_flat_zero_masses(self):
        report = consistency_experiment(
            small_spec(n_ladder=(20, 60), replications=1, epsilon=5.0,
                       mcmc=McmcConfig(200, 80, 6, 0.3, 0))
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
                       mcmc=McmcConfig(200, 80, 6, 0.3, 0))
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
            CellResult(10, 0, 0.5, 0.4, 0.01),
            CellResult(40, 0, 0.1, 0.4, 0.02, warnings=("path acceptance rate low",)),
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
            "warnings": [{"n": 40, "rep": 0, "messages": ["path acceptance rate low"]}],
        }

