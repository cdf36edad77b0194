"""Tests for the knot-grid sampler and the consistency experiment.

Likelihood values are checked against closed forms and adaptive
quadrature; sampler correctness against prior recovery, a
detailed-balance toy with a quadrature reference, and a short posterior
run on synthetic data.  The experiment is exercised end to end on a
small ladder.
"""

import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest
from scipy.stats import multivariate_normal

from conftest import brute_metric
from gphazard.cli import _cells_csv, _consistency_record
from gphazard.errors import DomainError, NumericError
from gphazard.gp_paths import JITTER_FACTOR, TimeGrid, _covariance_cholesky
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
    consistency_experiment,
    log_likelihood,
    log_posterior,
    mcmc_run,
    posterior_outside_mass,
)
from gphazard.inference import _accepts, _chains, _Likelihood, _pcn_proposal
from gphazard.kernels import StationaryKernel
from gphazard.vc import GridSpec, q_atoms_from_law


def se3():
    return StationaryKernel.se(lengthscale=3.0)


def flat_theta(omega, horizon=10.0):
    # constant-zero path: link is 1/2 everywhere, hazard omega/2
    return Theta.from_values(omega, TimeGrid((0.0, horizon)), ((0.0, 0.0),))


def single_record(t, horizon=10.0):
    return SurvivalDataset(
        times=(t,), covariates=((),), design="RD", q_descriptor={}, horizon=horizon
    )


class TestThetaRep:
    """The sampler's θ representation: a `Theta` built by `Theta.from_values`
    on a `TimeGrid` of the knots, as `mcmc_run` records each draw."""

    def test_props(self):
        theta = Theta.from_values(
            1.5, TimeGrid((0.0, 2.0, 5.0)), ((0.0, 1.0, -1.0), (0.5, 0.5, 0.5))
        )
        assert theta.d == 1
        assert theta.horizon == 5.0

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
            (math.inf, (0.0, 1.0), ((0.0, 0.0),)),
        ],
    )
    def test_rejects(self, omega, knots, values):
        # a non-finite path value is GpPath's NumericError; every other case
        # lies outside the parameter's domain
        finite = all(math.isfinite(v) for row in values for v in row)
        with pytest.raises(DomainError if finite else NumericError):
            Theta.from_values(omega, TimeGrid(knots), values)


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
        cfg = McmcConfig(10, 2, 1, 1.0)
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
        )
        base.update(kwargs)
        with pytest.raises(DomainError):
            McmcConfig(**base)


class TestLogLikelihood:
    def test_exponential_closed_form(self):
        # flat path at 0 with omega 2 is the unit exponential; density at
        # t=1 is e^{-1}
        assert log_likelihood(flat_theta(2.0), single_record(1.0)) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_exponential_other_scale(self):
        # hazard 3/2, record at t=2: log(3/2) - 3
        ll = log_likelihood(flat_theta(3.0), single_record(2.0))
        assert_allclose(ll, math.log(1.5) - 3.0, rtol=1e-12)

    def test_sums_over_records(self):
        theta = flat_theta(2.0)
        both = SurvivalDataset(
            times=(1.0, 2.5),
            covariates=((), ()),
            design="RD",
            q_descriptor={},
            horizon=10.0,
        )
        total = log_likelihood(theta, both)
        split = log_likelihood(theta, single_record(1.0)) + log_likelihood(
            theta, single_record(2.5)
        )
        assert_allclose(total, split, rtol=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        knots = np.linspace(0.0, 6.0, 5)
        values = rng.normal(0.0, 0.7, (2, 5))
        theta = Theta.from_values(1.7, TimeGrid(knots), values)
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
        assert_allclose(log_likelihood(theta, dataset), direct, rtol=0.0, atol=1e-10)

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
        grid = TimeGrid(tuple(np.linspace(0.0, 8.0, 9)))
        row = tuple(np.random.default_rng(4).normal(0.0, 1.0, 9))
        shared = log_likelihood(Theta.from_values(1.3, grid, (row,)), base)
        per_row = log_likelihood(Theta.from_values(1.3, grid, (row, (0.0,) * 9)), lifted)
        assert_allclose(shared, per_row, rtol=1e-14)

    def test_rejects_empty_dataset(self):
        with pytest.raises(DomainError, match="empty"):
            empty = SurvivalDataset(
                times=(), covariates=(), design="RD", q_descriptor={}, horizon=10.0
            )
            log_likelihood(flat_theta(2.0), empty)

    def test_rejects_d_mismatch(self):
        theta = Theta.from_values(1.0, TimeGrid((0.0, 10.0)), ((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(DomainError, match="d=1"):
            log_likelihood(theta, single_record(1.0))

    def test_rejects_dataset_past_horizon(self):
        # negative and NaN times, and a NaN horizon, are refused when the
        # dataset is built (tests/test_hazard.py, TestDatasets)
        theta = flat_theta(1.0, 20.0)
        far = SurvivalDataset(
            times=(1.0,), covariates=((),), design="RD", q_descriptor={}, horizon=25.0
        )
        with pytest.raises(DomainError, match="exceeds representation horizon"):
            log_likelihood(theta, far)
        with pytest.raises(DomainError, match="record time"):
            log_likelihood(theta, single_record(21.0))

    def test_overflow_names_the_record(self):
        # omega * integral overflows for the second record only
        huge = flat_theta(1e308)
        dataset = SurvivalDataset(
            times=(1.0, 4.0),
            covariates=((), ()),
            design="RD",
            q_descriptor={},
            horizon=10.0,
        )
        with pytest.raises(NumericError, match="record 1"):
            log_likelihood(huge, dataset)


class TestBitIdentityPins:
    """Exact values of the likelihood and of two short chains.

    Recorded from the likelihood as it stood when every evaluation
    searched the knots for each record time afresh (np.searchsorted and
    np.clip per call).  Record times are now located once per dataset;
    every value still comes from the same floating-point operations in
    the same order, so these are compared with ==, not to a tolerance.
    They cover the shared d = 0 row, per-record rows at d = 1 and 2, and
    links from flat (every cell on the midpoint branch of _mean_sigmoid)
    to saturated (|Y| around 40).
    """

    SCALES = {"flat": 1e-5, "moderate": 1.0, "saturated": 40.0}
    PARTS = {
        (0, 1000, "flat"): (-693.1518919430828, 505.3549628390771),
        (0, 1000, "moderate"): (-1286.5022854450408, 287.2431483924941),
        (0, 1000, "saturated"): (-38442.241045250295, 52.46580645950743),
        (1, 100, "flat"): (-69.31500361530928, 58.730805555890974),
        (1, 100, "moderate"): (-111.10407587324889, 45.59209553428868),
        (1, 100, "saturated"): (-2926.873976744096, 42.17828351277051),
        (2, 60, "flat"): (-41.58882889015085, 25.01848634564698),
        (2, 60, "moderate"): (-43.238776653850195, 25.00304358398663),
        (2, 60, "saturated"): (-473.6323290466524, 22.952145456408505),
    }
    # (omega, values) of the first and the last recorded draw
    CHAINS = {
        0: (
            (4.396964401441146, ((-1.0049442728846185, -1.1201208503716487, -0.36138302548327406,
                                  -0.7017270164805974, -0.39477254951414487),)),
            (1.5720914896936464, ((0.6300798293331652, 0.39197180019386096, -0.06323873792210209,
                                   -1.2970045362134701, -0.654356936415462),)),
        ),
        1: (
            (1.9927065329083902, ((-0.590889474338163, -0.600321682238498, 0.4399740967054574,
                                   0.3886421384811401, -1.3063589487438536),
                                  (0.600039420568629, 0.5623681968104633, -0.5647332962925813,
                                   -1.8538085572893719, 0.4903760801691671))),
            (4.178538056853135, ((-1.3651650717215544, -1.4827357734299582, -1.2412901068970539,
                                  -1.2055892105637926, -1.535493133996143),
                                 (0.42700300516391876, 0.07503746617788526, 0.5260001849803376,
                                  0.2726175379473987, -1.3411398586651166))),
        ),
    }

    @pytest.mark.parametrize("d, n, link", sorted(PARTS))
    def test_likelihood_parts(self, d, n, link):
        theta0 = Theta.constant(2.0, d, 8.0)
        dataset = generate_dataset(theta0, n, "RD", UniformQ(d), 8.0, seed=30 + d)
        knots = np.linspace(0.0, 8.0, 9)
        unit = np.random.default_rng(40 + d).standard_normal((d + 1, knots.size))
        lik = _Likelihood([dataset], knots)
        assert lik.parts([self.SCALES[link] * unit]) == [self.PARTS[d, n, link]]

    @pytest.mark.parametrize("d", [0, 1])
    def test_chain_ends(self, d):
        theta0 = Theta.constant(2.0, d, 8.0)
        dataset = generate_dataset(theta0, 200, "RD", UniformQ(d), 8.0, seed=50 + d)
        prior = ModelPrior((se3(),) * (d + 1), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(120, 20, 10, 0.3)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 8.0, 5)), 60 + d)
        ends = tuple(
            (draw.omega, tuple(p.values for p in draw.paths)) for draw in (run.draws[0], run.draws[-1])
        )
        assert ends == self.CHAINS[d]


class TestLogPosterior:
    def test_additivity(self):
        rng = np.random.default_rng(5)
        knots = np.linspace(0.0, 6.0, 5)
        values = tuple(tuple(rng.normal(0.0, 0.7, 5)) for _ in range(2))
        theta = Theta.from_values(1.7, TimeGrid(knots), values)
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
        manual = log_likelihood(theta, dataset)
        for row, kernel in zip(values, prior.kernels):
            cov = kernel(np.abs(knots[:, None] - knots[None, :]))
            cov = cov + JITTER_FACTOR * kernel.kappa0 * np.eye(knots.size)
            manual += multivariate_normal(mean=np.zeros(knots.size), cov=cov).logpdf(
                np.asarray(row)
            )
        manual += gamma_dist.logpdf(1.7, a=2.0, scale=1.0)
        assert_allclose(log_posterior(theta, dataset, prior), manual, rtol=1e-10)

    def test_rejects_kernel_count_mismatch(self):
        theta = Theta.from_values(1.0, TimeGrid((0.0, 10.0)), ((0.0, 0.0), (0.0, 0.0)))
        dataset = SurvivalDataset(
            times=(1.0,), covariates=((0.5,),), design="RD", q_descriptor={}, horizon=10.0
        )
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        with pytest.raises(DomainError, match="need 2"):
            log_posterior(theta, dataset, prior)

    def test_truth_scores_above_prior_draws(self):
        # the generating parameter should out-score nearly every draw
        # from a diffuse prior on a few hundred records
        theta0 = Theta.constant(2.0, 0, 10.0)
        dataset = generate_dataset(theta0, 300, "RD", UniformQ(0), 10.0, 21)
        grid = TimeGrid(tuple(np.linspace(0.0, 10.0, 4)))
        ll0 = log_likelihood(theta0, dataset)
        chol, _ = _covariance_cholesky(se3(), grid.as_array())
        rng = np.random.default_rng(33)
        beats = 0
        for _ in range(40):
            omega = float(rng.gamma(2.0, 1.0)) + 1e-9
            row = tuple(chol @ rng.standard_normal(4))
            beats += ll0 > log_likelihood(Theta.from_values(omega, grid, (row,)), dataset)
        assert beats >= 38


def pcn_step(values, j, chol, beta, omega, parts, current, rng):
    """One move of path j as the sampler makes it: parts maps a values
    matrix to its likelihood pieces (s, i), and current is parts(values)."""
    prop = _pcn_proposal(values, j, chol, beta, rng)
    s, i = parts(prop)
    if _accepts((s - current[0]) - omega * (i - current[1]), rng):
        return prop, (s, i), True
    return values, current, False


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
            values, current, ok = pcn_step(values, 0, chol, 0.5, 2.0, flat, current, rng)
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
            values, current, _ = pcn_step(values, 0, chol, 0.6, 1.0, parts, current, rng)
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
        cfg = McmcConfig(60, 20, 4, 0.4)
        a = mcmc_run(dataset, prior, cfg, knots, 9)
        b = mcmc_run(dataset, prior, cfg, knots, 9)
        assert len(a.draws) == len(b.draws) > 0
        for x, y in zip(a.draws, b.draws):
            assert x.omega == y.omega
            assert tuple(p.values for p in x.paths) == tuple(p.values for p in y.paths)

    def test_draw_count(self):
        dataset = self.small_dataset()
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(50, 10, 5, 0.4)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 8.0, 5)), 1)
        # draws at iterations 10, 15, ..., 45, all on one grid of the knots
        assert len(run.draws) == 8
        assert run.draws[0].grid.points == run.knots
        assert all(draw.grid is run.draws[0].grid for draw in run.draws)

    def test_prior_only_recovers_prior(self):
        # with the likelihood dropped the draws must reproduce the gamma
        # law of the scale and the kernel marginals at the knots
        prior = ModelPrior((se3(),), OmegaPrior(3.0, 1.5))
        cfg = McmcConfig(30200, 200, 3, 0.5)
        knots = tuple(np.linspace(0.0, 20.0, 4))
        run = mcmc_run(None, prior, cfg, knots, 42, prior_only=True)
        assert run.prior_only
        assert len(run.draws) == 10000
        assert run.acceptance_paths == 1.0
        omegas = np.array([d.omega for d in run.draws])
        mean, var = omegas.mean(), omegas.var()
        assert_allclose(mean * mean / var, 3.0, rtol=0.05)
        assert_allclose(mean / var, 1.5, rtol=0.05)
        rows = np.array([d.paths[0].values for d in run.draws])
        assert np.all(np.abs(rows.mean(axis=0)) < 0.05)
        assert_allclose(rows.var(axis=0), se3().kappa0, rtol=0.06)
        assert run.warnings == ()

    def test_prior_only_keeps_underflowing_omega_draws(self):
        # at prior shape 0.01 about one exact Gamma draw in a thousand
        # rounds to 0.0; it is recorded as the smallest normal double
        prior = ModelPrior((se3(),), OmegaPrior(0.01, 1.0))
        cfg = McmcConfig(3000, 100, 1, 0.3)
        run = mcmc_run(None, prior, cfg, (0.0, 5.0, 10.0), 0, prior_only=True)
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
        run = mcmc_run(dataset, prior, McmcConfig(2100, 100, 2, 0.3), knots, 2)
        assert run.acceptance_omega == 1.0
        lik = _Likelihood([dataset], knots)
        omegas = np.array([draw.omega for draw in run.draws])
        rates = np.array(
            [1.0 + lik.parts([tuple(p.values for p in draw.paths)])[0][1] for draw in run.draws]
        )
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
        cfg = McmcConfig(600, 250, 5, 0.25)
        run = mcmc_run(dataset, prior, cfg, tuple(np.linspace(0.0, 20.0, 6)), 7)
        point = Covariate((0.5,))
        hazards = np.array(
            [HazardCurve(d, point).hazard_at(1.0) for d in run.draws]
        )
        assert 0.8 < hazards.mean() < 1.2

    def test_rejects_bad_knots(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.4)
        with pytest.raises(DomainError, match="knots"):
            mcmc_run(self.small_dataset(), prior, cfg, (1.0, 2.0), 0)

    def test_rejects_infinite_knot(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"knots.*\(0\.0, 4\.0, inf\)"):
                mcmc_run(self.small_dataset(), prior, cfg, (0.0, 4.0, math.inf), 0)

    def test_rejects_missing_dataset(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.4)
        with pytest.raises(DomainError, match="nonempty"):
            mcmc_run(None, prior, cfg, (0.0, 8.0), 0)

    def test_rejects_d_mismatch(self):
        prior = ModelPrior((se3(), se3()), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(10, 2, 1, 0.4)
        with pytest.raises(DomainError, match="prior covers d=1"):
            mcmc_run(self.small_dataset(), prior, cfg, (0.0, 8.0), 0)

    def test_record_shape(self):
        prior = ModelPrior((se3(),), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(40, 10, 3, 0.4)
        run = mcmc_run(self.small_dataset(), prior, cfg, tuple(np.linspace(0.0, 8.0, 5)), 5)
        record = asdict(run)
        assert len(record["draws"]) == len(run.draws)
        assert len(record["knots"]) == 5
        assert record["prior_only"] is False
        assert isinstance(record["warnings"], tuple)


def chain_record(run):
    """Every draw's omega and path values, the acceptance and the warnings."""
    draws = [(d.omega, tuple(p.values for p in d.paths)) for d in run.draws]
    return draws, run.acceptance_paths, run.warnings


class TestLockstepChains:
    """_chains advances several chains together, one likelihood call per
    move; each chain must be bit-identical to mcmc_run on its dataset."""

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_each_chain_matches_a_lone_run(self, d):
        theta0 = Theta.constant(2.0, d, 8.0)
        datasets = [
            generate_dataset(theta0, n, "RD", UniformQ(d), 8.0, seed=70 + n) for n in (15, 90, 40)
        ]
        prior = ModelPrior((se3(),) * (d + 1), OmegaPrior(2.0, 1.0))
        cfg = McmcConfig(90, 30, 3, 0.5)
        knots = tuple(np.linspace(0.0, 8.0, 6))
        seeds = [11, 12, 13]
        runs = _chains(datasets, prior, cfg, seeds, knots)
        assert len(runs) == 3
        for dataset, seed, run in zip(datasets, seeds, runs):
            alone = mcmc_run(dataset, prior, cfg, knots, seed)
            assert chain_record(run) == chain_record(alone)
            assert len(run.draws) == 20
        # moves were both accepted and refused, so every chain drew uniforms
        assert all(0.0 < run.acceptance_paths < 1.0 for run in runs)

    def test_prior_only_chains_match_lone_runs(self):
        prior = ModelPrior((se3(), se3()), OmegaPrior(3.0, 1.5))
        cfg = McmcConfig(60, 10, 5, 0.5)
        knots = (0.0, 3.0, 8.0)
        runs = _chains([None] * 3, prior, cfg, [5, 6, 7], knots, prior_only=True)
        for seed, run in zip([5, 6, 7], runs):
            alone = mcmc_run(None, prior, cfg, knots, seed, prior_only=True)
            assert chain_record(run) == chain_record(alone)
            assert run.prior_only and run.acceptance_paths == 1.0


class TestPosteriorOutsideMass:
    def setup_method(self):
        self.theta0 = Theta.constant(2.0, 0, 10.0)
        self.doubled = Theta.constant(4.0, 0, 10.0)
        self.grid = GridSpec.regular(10.0, 33, 0)

    def test_zero_when_at_truth(self):
        draws = [self.theta0]
        mass = posterior_outside_mass(draws, self.theta0, 0.2, "RD", UniformQ(0), self.grid)
        assert mass == 0.0

    def test_one_when_far(self):
        # doubling the scale moves the survival metric by about 1/4,
        # past an epsilon of 0.2
        draws = [self.doubled]
        mass = posterior_outside_mass(draws, self.theta0, 0.2, "RD", UniformQ(0), self.grid)
        assert mass == 1.0

    def test_mixed(self):
        draws = [self.theta0, self.doubled]
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
        run = mcmc_run(dataset, prior, McmcConfig(60, 10, 5, 0.4), tuple(np.linspace(0.0, 4.0, 5)), 7)
        assert len(run.draws) == 10
        grid = GridSpec.regular(4.0, 6, d, covariate_knots=4)
        atoms = q_atoms_from_law(UniformQ(d), cells_per_axis=4)
        dist = np.array([brute_metric(draw, theta0, "RD", atoms, grid) for draw in run.draws])
        cuts = np.sort(dist)
        for epsilon in 0.5 * (cuts[:-1] + cuts[1:]):
            mass = posterior_outside_mass(run.draws, theta0, epsilon, "RD", atoms, grid)
            assert mass == np.mean(dist > epsilon)

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="at least one draw"):
            posterior_outside_mass([], self.theta0, 0.2, "RD", UniformQ(0), self.grid)

    def test_rejects_bad_epsilon(self):
        draws = [self.theta0]
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
        mcmc=McmcConfig(900, 300, 6, 0.3),
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
            dict(knots=(1.0, 4.0, 8.0)),
            dict(knots=(0.0, 8.0, 8.0)),
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(DomainError):
            small_spec(**overrides)

    def test_rejects_infinite_knot(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"knots.*\(0\.0, 4\.0, inf\)"):
                small_spec(knots=(0.0, 4.0, math.inf))


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
                                                   mcmc=McmcConfig(200, 80, 6, 0.3)))
        text = _cells_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "n,rep,outside_mass,acceptance_paths,wall_time"
        assert len(lines) == 3
        assert lines[1].startswith("20,0,")
        assert lines[2].startswith("60,0,")

    def test_reproducible(self):
        spec = small_spec(n_ladder=(20, 60), replications=1,
                          mcmc=McmcConfig(200, 80, 6, 0.3))
        a = consistency_experiment(spec)
        b = consistency_experiment(spec)
        assert [c.outside_mass for c in a.cells] == [c.outside_mass for c in b.cells]
        assert a.spearman == b.spearman or (math.isnan(a.spearman) and math.isnan(b.spearman))

    def test_huge_epsilon_gives_flat_zero_masses(self):
        report = consistency_experiment(
            small_spec(n_ladder=(20, 60), replications=1, epsilon=5.0,
                       mcmc=McmcConfig(200, 80, 6, 0.3))
        )
        assert all(c.outside_mass == 0.0 for c in report.cells)
        assert math.isnan(report.spearman)
        assert not report.consistent_trend

    def test_failed_cell_is_recorded_not_fatal(self, monkeypatch):
        import gphazard.inference as inf

        real = inf.generate_dataset

        def flaky(theta0, n, *args):
            if n == 20:
                raise NumericError("synthetic breakage")
            return real(theta0, n, *args)

        monkeypatch.setattr(inf, "generate_dataset", flaky)
        spec = small_spec(n_ladder=(20, 80), replications=1, mcmc=McmcConfig(200, 80, 6, 0.3))
        report = consistency_experiment(spec)
        bad = [c for c in report.cells if c.error]
        assert len(bad) == 1
        assert bad[0].n == 20
        assert "synthetic breakage" in bad[0].error
        assert math.isnan(bad[0].outside_mass)
        # a cell that fails at generation joins no chain
        assert bad[0].wall_time == bad[0].generate_s and bad[0].score_s == 0.0
        # only one rung survives, so no trend can be declared
        assert math.isnan(report.spearman)
        assert not report.consistent_trend
        assert _consistency_record(report)["failures"] == 1
        # the surviving cell is the one a full ladder gives
        monkeypatch.setattr(inf, "generate_dataset", real)
        full = consistency_experiment(spec)
        assert report.cells[1].outside_mass == full.cells[1].outside_mass

    def test_dataset_past_the_knots_fails_only_its_cell(self):
        # the 20-record cell has a record past the knots at 8, the 80-record
        # one not
        import gphazard.inference as inf

        def short(theta0, n, *args):
            ds = generate_dataset(theta0, n, *args)
            return replace(ds, times=(9.5,) + ds.times[1:]) if n == 20 else ds

        spec = small_spec(n_ladder=(20, 80), replications=1, mcmc=McmcConfig(200, 80, 6, 0.3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inf, "generate_dataset", short)
            report = consistency_experiment(spec)
        assert [bool(c.error) for c in report.cells] == [True, False]
        assert "record time" in report.cells[0].error
        assert report.cells[1].outside_mass == consistency_experiment(spec).cells[1].outside_mass

    def test_chain_stage_error_is_recorded_on_every_live_cell(self, monkeypatch):
        import gphazard.inference as inf

        def broken(*args, **kwargs):
            raise NumericError("chain breakage")

        monkeypatch.setattr(inf, "_chains", broken)
        report = consistency_experiment(
            small_spec(n_ladder=(20, 80), replications=2, mcmc=McmcConfig(200, 80, 6, 0.3))
        )
        assert [(c.n, c.rep) for c in report.cells] == [(20, 0), (20, 1), (80, 0), (80, 1)]
        assert all(c.error == "chain breakage" for c in report.cells)
        assert all(math.isnan(c.outside_mass) and math.isnan(c.acceptance_paths)
                   for c in report.cells)
        assert all(c.score_s == 0.0 and c.wall_time >= c.generate_s for c in report.cells)
        assert _consistency_record(report)["failures"] == 4
        assert not report.consistent_trend

    def test_timings(self):
        report = consistency_experiment(
            small_spec(n_ladder=(20, 60), replications=1, mcmc=McmcConfig(200, 80, 6, 0.3))
        )
        timings = _consistency_record(report)["timings"]
        assert timings["chains_s"] == report.chains_s > 0
        assert [(t["n"], t["rep"]) for t in timings["cells"]] == [(20, 0), (60, 0)]
        for cell, t in zip(report.cells, timings["cells"]):
            assert t["generate_s"] == cell.generate_s > 0
            assert t["score_s"] == cell.score_s > 0
            assert cell.wall_time == cell.generate_s + report.chains_s + cell.score_s

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
        record = _consistency_record(report)
        assert record == {
            "spearman": -1.0,
            "consistent_trend": True,
            "epsilon": 0.1,
            "per_n": {"10": 0.5, "40": 0.1},
            "cells": 2,
            "failures": 0,
            "warnings": [{"n": 40, "rep": 0, "messages": ["path acceptance rate low"]}],
            "timings": {
                "chains_s": 0.0,
                "cells": [
                    {"n": 10, "rep": 0, "generate_s": 0.0, "score_s": 0.0},
                    {"n": 40, "rep": 0, "generate_s": 0.0, "score_s": 0.0},
                ],
            },
        }

