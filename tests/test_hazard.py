import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.integrate import quad
from scipy.special import expit, log_expit

from gphazard.errors import DomainError, GenerationError
from gphazard.gp_paths import DyadicGrid, GpPath, sample_path
from gphazard.hazard import (
    _FLAT_DY,
    MAX_HORIZON_DOUBLINGS,
    Covariate,
    HazardCurve,
    ProductBetaQ,
    SurvivalDataset,
    TableQ,
    Theta,
    UniformQ,
    evaluate,
    generate_dataset,
    law,
    mc_mean_hazard,
    sample_time,
    sample_times_batch,
    _link_integral,
    _mean_sigmoid,
    _softplus_tail,
    survival_matrix,
)
from gphazard.kernels import StationaryKernel


def random_theta(seed, d=1, omega=2.0, horizon=8.0, level=5):
    grid = DyadicGrid(horizon, level)
    paths = tuple(
        sample_path(StationaryKernel.se(), grid, seed=seed * 101 + j) for j in range(d + 1)
    )
    return Theta(omega, paths)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
GL_NODES, GL_WEIGHTS = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W   # 20-point rule on [0, 1]


def gl_mean_sigmoid(a, b):
    """Mean of sigmoid along the segments from a to b by Gauss-Legendre
    quadrature.  It takes no difference of softplus values, so near-flat
    segments lose no digits; sigmoid is smooth enough on the segments of
    these tests (|b - a| <= 1 or so) for 20 nodes to reach rounding."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return expit(a[..., None] + (b - a)[..., None] * GL_NODES) @ GL_WEIGHTS


def softplus_cdf(theta, xs, ts):
    """1 - S_x(t) per row: the integral of a sigmoid over each linear piece
    of Y = eta_0 + x . eta, by quadrature, independent of hazard's closed form."""
    knots = theta.grid.as_array()
    y = np.stack([np.asarray(p.values) for p in theta.paths])
    yk = np.concatenate([np.ones((len(xs), 1)), xs], axis=1) @ y
    whole = np.diff(knots) * gl_mean_sigmoid(yk[:, :-1], yk[:, 1:])
    cum = np.concatenate([np.zeros((len(xs), 1)), np.cumsum(whole, axis=1)], axis=1)
    rows = np.arange(len(xs))
    i = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(knots) - 2)
    frac = (ts - knots[i]) / (knots[i + 1] - knots[i])
    y_t = yk[rows, i] + frac * (yk[rows, i + 1] - yk[rows, i])
    lam = theta.omega * (cum[rows, i] + (ts - knots[i]) * gl_mean_sigmoid(yk[rows, i], y_t))
    return -np.expm1(-lam)


def retry_mixture_cdf(theta, xs, ts, horizon):
    """CDF of a time drawn by up to MAX_HORIZON_DOUBLINGS + 1 fresh
    thinning attempts on h_0 = horizon, h_k+1 = min(2 h_k, tau), given
    that one of them saw an event."""
    total = np.zeros(len(xs))
    survive = np.ones(len(xs))
    h = horizon
    for _ in range(MAX_HORIZON_DOUBLINGS + 1):
        total += survive * softplus_cdf(theta, xs, np.minimum(ts, h))
        survive *= 1.0 - softplus_cdf(theta, xs, np.full(len(xs), h))
        h = min(2.0 * h, theta.horizon)
    return total / (1.0 - survive)


class TestThetaAndCovariate:
    def test_covariate_validation(self):
        assert Covariate((0.0, 1.0)).d == 2
        assert Covariate(()).d == 0
        with pytest.raises(DomainError):
            Covariate((1.5,))
        with pytest.raises(DomainError):
            Covariate((-0.1, 0.5))
        with pytest.raises(DomainError):
            Covariate((math.nan,))

    def test_theta_validation(self):
        grid = DyadicGrid(1.0, 2)
        path = GpPath(grid, (0.0,) * 5)
        with pytest.raises(DomainError):
            Theta(0.0, (path,))
        other = GpPath(DyadicGrid(2.0, 2), (0.0,) * 5)
        with pytest.raises(DomainError):
            Theta(1.0, (path, other))
        assert Theta(1.0, (path,)).d == 0

    def test_constant_builder(self):
        th = Theta.constant(2.0, d=2, horizon=5.0, level=4)
        assert th.d == 2
        assert th.horizon == 5.0
        assert all(v == 0.0 for p in th.paths for v in p.values)

    def test_from_weighted_inverts_the_weight(self):
        from gphazard.gp_paths import h_weight, transform_hat

        grid = DyadicGrid(4.0, 4)
        hat = np.sin(grid.as_array())
        th = Theta.from_weighted(1.0, grid, [hat])
        back = transform_hat(th.paths[0], d=0)
        assert_allclose(back.values, hat, atol=1e-12)

    def test_csv_round_trip(self, tmp_path):
        th = random_theta(3, d=1)
        file = tmp_path / "theta.csv"
        th.to_csv(file)
        again = Theta.from_csv(file)
        assert again.omega == th.omega
        assert again.d == th.d
        for p, q in zip(th.paths, again.paths):
            assert p.values == q.values
            assert p.grid.points == q.grid.points


class TestEvaluate:
    def test_exponential_model_exact(self):
        th = Theta.constant(2.0, d=1, horizon=20.0, level=6)
        for t in (0.0, 0.5, 1.0, 7.3, 20.0):
            pt = evaluate(th, (0.4,), t)
            assert pt.hazard == 1.0
            assert abs(pt.cum_hazard - t) < 1e-9
            assert_allclose(pt.survival, math.exp(-t), rtol=1e-9)

    def test_survival_starts_at_one(self):
        pt = evaluate(random_theta(1), (0.5,), 0.0)
        assert pt.cum_hazard == 0.0
        assert pt.survival == 1.0

    def test_large_path_value_saturates_to_omega(self):
        grid = DyadicGrid(1.0, 2)
        th = Theta(3.0, (GpPath(grid, (10.0,) * 5),))
        pt = evaluate(th, (), 0.5)
        assert_allclose(pt.hazard, 3.0 * (1.0 / (1.0 + math.exp(-10.0))), rtol=1e-12)
        assert pt.hazard < 3.0

    def test_hazard_strictly_inside_zero_omega(self):
        th = random_theta(5, d=2, omega=4.0)
        curve = HazardCurve(th, (0.2, 0.9))
        h = curve.hazard_at(np.linspace(0, th.horizon, 200))
        assert np.all(h > 0)
        assert np.all(h < 4.0)

    def test_survival_nonincreasing(self):
        th = random_theta(9)
        curve = HazardCurve(th, (0.5,))
        s = curve.survival_at(np.linspace(0, th.horizon, 500))
        assert np.all(np.diff(s) <= 1e-15)

    def test_density_integrates_to_event_probability(self):
        # quadrature identity: int_0^H f = 1 - S(H), across random models
        for seed in range(100):
            th = random_theta(seed, d=1, omega=1.0 + (seed % 5))
            curve = HazardCurve(th, (seed % 11 / 10.0,))
            ts = np.linspace(0.0, th.horizon, 4097)
            integral = float(np.trapezoid(curve.density_at(ts), ts))
            assert abs(integral - (1.0 - float(curve.survival_at(th.horizon)))) < 1e-3

    def test_cum_hazard_matches_quadrature(self):
        th = random_theta(31, d=1, omega=2.5)
        curve = HazardCurve(th, (0.35,))
        knots = th.grid.as_array()
        for t in (0.01, 0.5, knots[7], 3.3, th.horizon):
            inner = [k for k in knots if 0.0 < k < t] or None
            want, _ = quad(curve.hazard_at, 0.0, t, points=inner, limit=200,
                           epsabs=0.0, epsrel=1e-13)
            assert_allclose(curve.cum_hazard_at(t), want, rtol=1e-12)

    def test_extrapolation_refused(self):
        th = random_theta(2)
        curve = HazardCurve(th, (0.5,))
        with pytest.raises(DomainError):
            curve.cum_hazard_at(th.horizon + 0.1)
        with pytest.raises(DomainError):
            evaluate(th, (0.5,), -0.5)
        for refuse in (curve.y_at, curve.hazard_at, curve.cum_hazard_at,
                       lambda t: evaluate(th, (0.5,), t)):
            with pytest.raises(DomainError):
                refuse(math.nan)

    def test_covariate_dimension_checked(self):
        th = random_theta(4, d=1)
        with pytest.raises(DomainError):
            evaluate(th, (0.2, 0.8), 1.0)


def mp_mean_sigmoid(y0, y1):
    """Mean of sigmoid over [y0, y1] in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(float(y0)), mpmath.mpf(float(y1))
        if a == b:
            return float(1 / (1 + mpmath.exp(-a)))
        softplus = lambda y: mpmath.log1p(mpmath.exp(y))
        return float((softplus(b) - softplus(a)) / (b - a))


class TestClosedForm:
    # _FLAT_DY * (1 -+ 1e-6) straddle the switch from the midpoint
    # expansion to the softplus quotient
    STEPS = [0.0, 1e-15, 1e-9, 1e-6, 1e-4, _FLAT_DY * (1 - 1e-6), _FLAT_DY * (1 + 1e-6),
             2e-3, 0.1, 1.0, 5.0]

    @pytest.mark.parametrize("step", STEPS + [-s for s in STEPS[1:]])
    def test_mean_sigmoid_matches_mpmath(self, step):
        y0 = np.linspace(-30.0, 30.0, 97)
        y1 = y0 + step
        got = _mean_sigmoid(y0, y1, _softplus_tail(y0), _softplus_tail(y1))
        want = [mp_mean_sigmoid(a, b) for a, b in zip(y0, y1)]
        assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("step", [1e-8, 1e-6, 1e-4, 1.0])
    def test_quadrature_oracle_matches_mpmath(self, step):
        # the oracle behind softplus_cdf, on near-flat and unit segments
        y0 = np.linspace(-30.0, 30.0, 97)
        want = [mp_mean_sigmoid(a, a + step) for a in y0]
        assert_allclose(gl_mean_sigmoid(y0, y0 + step), want, rtol=1e-13, atol=0.0)

    def test_mean_sigmoid_wide_segments(self):
        y0 = np.array([-30.0, 30.0, -30.0, 0.0, 12.5])
        y1 = np.array([30.0, -30.0, 0.0, -29.0, 12.5 + 1e-3])
        got = _mean_sigmoid(y0, y1, _softplus_tail(y0), _softplus_tail(y1))
        want = [mp_mean_sigmoid(a, b) for a, b in zip(y0, y1)]
        assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_link_integral_matches_quadrature(self):
        rng = np.random.default_rng(8)
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, 8))])
        y = rng.normal(0.0, 3.0, (3, knots.size))
        t = np.array([[0.0], [knots[3]], [knots[-1]]])
        t = np.concatenate([t, rng.uniform(0.0, knots[-1], (3, 4))], axis=1)
        y_t, softplus_t, integral = _link_integral(knots, y, t)
        for i in range(3):
            for j in range(t.shape[1]):
                ti = t[i, j]
                inner = [k for k in knots if 0.0 < k < ti] or None
                want, _ = quad(lambda s: expit(np.interp(s, knots, y[i])), 0.0, ti,
                               points=inner, epsabs=0.0, epsrel=1e-13)
                assert_allclose(integral[i, j], want, rtol=1e-12, atol=1e-300)
                assert_allclose(y_t[i, j], np.interp(ti, knots, y[i]), rtol=1e-14, atol=1e-14)
                assert_allclose(softplus_t[i, j], np.logaddexp(0.0, y_t[i, j]), rtol=1e-14)


class TestSampling:
    def test_exponential_oracle_ks(self):
        th = Theta.constant(2.0, d=0, horizon=40.0, level=6)
        times, censored = sample_times_batch(th, (), 40.0, 20_000, seed=17)
        assert not censored.any()
        stat = stats.kstest(times, stats.expon.cdf).statistic
        assert stat < 1.63 / math.sqrt(20_000)

    def test_scalar_and_mean(self):
        th = Theta.constant(4.0, d=0, horizon=30.0, level=5)
        rng_times = [sample_time(th, (), 30.0, seed=s) for s in range(500)]
        assert all(t is not None for t in rng_times)
        assert abs(np.mean(rng_times) - 0.5) < 0.06

    def test_tiny_horizon_censors(self):
        th = Theta.constant(0.1, d=0, horizon=10.0, level=4)
        assert sample_time(th, (), 1e-6, seed=1) is None

    def test_thinning_matches_model_cdf(self):
        # dual route: empirical CDF of thinning draws vs 1 - S from quadrature
        th = random_theta(23, d=1, omega=3.0, horizon=12.0)
        x = (0.7,)
        times, censored = sample_times_batch(th, x, 12.0, 30_000, seed=29)
        obs = times[~censored]
        curve = HazardCurve(th, x)
        for q in (0.5, 1.0, 2.0, 4.0):
            model = (1.0 - float(curve.survival_at(q))) / (1.0 - float(curve.survival_at(12.0)))
            empirical = float(np.mean(obs <= q))
            assert abs(model - empirical) < 0.01

    def test_horizon_validation(self):
        th = Theta.constant(1.0, d=0, horizon=5.0, level=3)
        with pytest.raises(DomainError):
            sample_time(th, (), 6.0, seed=0)
        with pytest.raises(DomainError):
            sample_times_batch(th, (), 0.0, 10, seed=0)
        with pytest.raises(DomainError):
            sample_time(th, (), math.nan, seed=0)
        with pytest.raises(DomainError):
            sample_times_batch(th, (), math.nan, 10, seed=0)

    def test_nonfinite_covariate_rejected(self):
        th = Theta.constant(1.0, d=1, horizon=5.0, level=3)
        with pytest.raises(DomainError):
            sample_times_batch(th, (math.nan,), 5.0, 10, seed=0)

    # values recorded from the scalar and single-covariate samplers that
    # preceded the shared kernel; it draws in their order, so a seed keeps
    # its times, censored or not
    def test_sample_time_pinned(self):
        th0 = random_theta(31, d=0, omega=1.5, horizon=3.0)
        assert [sample_time(th0, (), 3.0, seed=s) for s in range(6)] == [
            0.453287935979273, 1.0085759609690967, 0.08657409066932432,
            0.07334320845202655, None, 2.192015918407248,
        ]
        th1 = random_theta(37, d=1, omega=3.0, horizon=2.0)
        assert [sample_time(th1, (0.3,), 2.0, seed=s) for s in range(6)] == [
            0.23324618885265497, 1.2880274679777133, 0.2144467097961329,
            0.7625320346772045, None, 1.096007959203624,
        ]

    def test_sample_times_batch_pinned(self):
        th0 = random_theta(31, d=0, omega=1.5, horizon=3.0)
        times, censored = sample_times_batch(th0, (), 1.0, 6, seed=5)
        assert_array_equal(times, [
            math.nan, 0.5001276213313268, 0.8675692677322853, 0.3529520369126281,
            math.nan, math.nan,
        ])
        assert_array_equal(censored, np.isnan(times))
        th1 = random_theta(37, d=1, omega=3.0, horizon=2.0)
        times, _ = sample_times_batch(th1, (0.8,), 2.0, 6, seed=11)
        assert_array_equal(times, [
            0.07653081043914678, 1.213564803481567, 1.3665544462498056,
            1.260130976546978, 1.3128133099890826, 1.7153508576217387,
        ])


class TestDatasets:
    def test_rd_uniform(self):
        th = Theta.constant(2.0, d=1, horizon=40.0, level=5)
        ds = generate_dataset(th, 1000, "RD", UniformQ(1), horizon=40.0, seed=5)
        assert ds.n == 1000 and ds.d == 1 and ds.design == "RD"
        assert abs(np.mean(ds.times_array()) - 1.0) < 0.1
        xs = ds.covariates_array()
        assert xs.min() >= 0 and xs.max() <= 1
        assert abs(xs.mean() - 0.5) < 0.05

    def test_reproducible(self):
        th = Theta.constant(2.0, d=1, horizon=40.0, level=5)
        a = generate_dataset(th, 50, "RD", UniformQ(1), horizon=40.0, seed=9)
        b = generate_dataset(th, 50, "RD", UniformQ(1), horizon=40.0, seed=9)
        assert a.times == b.times and a.covariates == b.covariates

    def test_nrd_uses_given_covariates_in_order(self):
        th = Theta.constant(2.0, d=2, horizon=40.0, level=5)
        xs = np.random.default_rng(0).uniform(size=(60, 2))
        ds = generate_dataset(th, 50, "NRD", xs, horizon=40.0, seed=2)
        assert ds.design == "NRD"
        assert_allclose(ds.covariates_array(), xs[:50])
        with pytest.raises(DomainError):
            generate_dataset(th, 100, "NRD", xs, horizon=40.0, seed=2)

    def test_product_beta_and_table_laws(self):
        rng = np.random.default_rng(0)
        beta = ProductBetaQ((2.0, 5.0), (5.0, 1.0))
        draws = beta.sample(rng, 4000)
        assert abs(draws[:, 0].mean() - 2.0 / 7.0) < 0.02
        table = TableQ(((0.0,), (1.0,)), (0.25, 0.75))
        draws = table.sample(rng, 4000)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert abs(draws.mean() - 0.75) < 0.03
        with pytest.raises(DomainError):
            TableQ(((0.5,),), (0.9,))

    def test_generation_error_when_censoring_persists(self):
        # hazard ~ 1e-3 on a short grid: every retry stays censored
        grid = DyadicGrid(0.5, 3)
        th = Theta(0.01, (GpPath(grid, (-5.0,) * 9),))
        with pytest.raises(GenerationError, match="doubling"):
            generate_dataset(th, 1, "RD", UniformQ(0), horizon=0.5, seed=0)

    def test_covariates_come_from_the_first_spawned_stream(self):
        th = Theta.constant(2.0, d=2, horizon=40.0, level=4)
        for q, seed in ((UniformQ(2), 4), (ProductBetaQ((2.0, 0.5), (1.0, 3.0)), 8)):
            ds = generate_dataset(th, 40, "RD", q, horizon=40.0, seed=seed)
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            assert_array_equal(ds.covariates_array(), q.sample(rng, 40))

    def test_retry_heavy_generation_matches_mixture_cdf(self):
        # at horizon 0.25 most first attempts are censored; each retry
        # thins afresh from 0 on a doubled horizon, so a record's time has
        # the mixture law sum_k P_k F(min(t, h_k)) given success
        th = random_theta(11, d=1, omega=2.0, horizon=8.0)
        ds = generate_dataset(th, 4000, "RD", UniformQ(1), horizon=0.25, seed=3)
        xs, times = ds.covariates_array(), ds.times_array()
        first_censored = 1.0 - softplus_cdf(th, xs, np.full(len(xs), 0.25))
        assert first_censored.mean() > 0.5
        pit = retry_mixture_cdf(th, xs, times, 0.25)
        assert stats.kstest(pit, "uniform").pvalue > 0.01
        # the same times against the law without retries are rejected
        one_attempt = softplus_cdf(th, xs, times) / softplus_cdf(th, xs, np.full(len(xs), 8.0))
        assert stats.kstest(one_attempt, "uniform").pvalue < 1e-6

    def test_nan_horizon_and_covariates_rejected(self):
        th = Theta.constant(2.0, d=1, horizon=10.0, level=3)
        with pytest.raises(DomainError):
            generate_dataset(th, 5, "RD", UniformQ(1), math.nan, 0)
        with pytest.raises(DomainError, match="finite"):
            generate_dataset(th, 2, "NRD", [[0.5], [math.nan]], 10.0, 0)
        with pytest.raises(DomainError):
            generate_dataset(th, 5, "RD", UniformQ(2), 10.0, 0)

    def test_zero_n_rejected(self):
        th = Theta.constant(2.0, d=0, horizon=10.0, level=3)
        with pytest.raises(DomainError):
            generate_dataset(th, 0, "RD", UniformQ(0), horizon=10.0, seed=0)

    def test_csv_round_trip(self, tmp_path):
        th = Theta.constant(2.0, d=2, horizon=40.0, level=4)
        ds = generate_dataset(th, 25, "RD", UniformQ(2), horizon=40.0, seed=3)
        file = tmp_path / "data.csv"
        ds.to_csv(file)
        header = file.read_text().splitlines()[0]
        assert header == "t,x1,x2"
        again = SurvivalDataset.from_csv(file)
        assert again.times == ds.times
        assert again.covariates == ds.covariates
        assert again.design == ds.design
        assert again.q_descriptor == ds.q_descriptor


class TestMeanHazard:
    @pytest.mark.parametrize("omega", [2.0, 6.0])
    @pytest.mark.parametrize("family", [StationaryKernel.se, StationaryKernel.ou])
    def test_half_omega_identity(self, omega, family):
        kernels = [family(), family()]
        est, ci = mc_mean_hazard(omega, kernels, (0.5,), 1.5, reps=20_000, seed=13)
        assert abs(est - omega / 2.0) < 3.0 * ci

    def test_zero_covariate_dimension(self):
        est, ci = mc_mean_hazard(2.0, [StationaryKernel.se()], (), 0.5, reps=5000, seed=1)
        assert abs(est - 1.0) < 3.0 * ci

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_mean_hazard(0.0, [StationaryKernel.se()], (), 1.0, 1000, 0)
        with pytest.raises(DomainError):
            mc_mean_hazard(1.0, [StationaryKernel.se()], (), 1.0, 10, 0)


class TestSurvivalMatrix:
    def _random_theta(self, d, seed):
        grid = DyadicGrid(tau=3.0, level=4)
        kernel = StationaryKernel.se()
        paths = [sample_path(kernel, grid, seed=seed + j) for j in range(d + 1)]
        return Theta(omega=2.5, paths=tuple(paths))

    def test_matches_per_row_curves(self):
        theta = self._random_theta(d=2, seed=41)
        rng = np.random.default_rng(7)
        xs = rng.random((15, 2))
        ts = np.sort(rng.uniform(0.0, theta.horizon, size=23))
        mat = survival_matrix(theta, xs, ts)
        for i, row in enumerate(xs):
            assert_allclose(mat[i], HazardCurve(theta, row).survival_at(ts), rtol=1e-10)

    def test_matches_softplus_oracle(self):
        theta = random_theta(12, d=2, omega=3.0)
        rng = np.random.default_rng(13)
        xs = rng.random((9, 2))
        ts = np.concatenate([rng.uniform(0.05, theta.horizon, 30), theta.grid.as_array()[1:]])
        got = 1.0 - survival_matrix(theta, xs, ts)
        want = softplus_cdf(theta, np.repeat(xs, ts.size, axis=0), np.tile(ts, len(xs)))
        assert_allclose(got, want.reshape(len(xs), ts.size), rtol=1e-12)

    def test_zero_dimension_and_zero_time(self):
        theta = Theta.constant(omega=2.0, d=0, horizon=4.0)
        mat = survival_matrix(theta, np.empty((3, 0)), np.array([0.0, 1.0]))
        assert_allclose(mat[:, 0], 1.0)
        assert_allclose(mat[:, 1], math.exp(-1.0), rtol=1e-9)

    def test_rejects_extrapolation_and_bad_rows(self):
        theta = Theta.constant(omega=2.0, d=1, horizon=2.0)
        with pytest.raises(DomainError):
            survival_matrix(theta, [[0.5]], [3.0])
        with pytest.raises(DomainError):
            survival_matrix(theta, [[1.5]], [1.0])
        with pytest.raises(DomainError):
            survival_matrix(theta, [[0.5, 0.5]], [1.0])
        with pytest.raises(DomainError):
            survival_matrix(theta, [[0.5]], [0.5, math.nan])
        # no rows are a valid input at any d
        for th in (theta, Theta.constant(omega=2.0, d=0, horizon=2.0)):
            for xs in ([], np.empty((0, th.d))):
                assert survival_matrix(th, xs, [0.5, 1.0]).shape == (0, 2)


def mp_link(eta, x, knots, t):
    """Y(t) = eta_0 + x . eta, interpolated linearly, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        yk = [mpmath.mpf(float(e0)) + sum(mpmath.mpf(float(xj)) * mpmath.mpf(float(ej))
                                          for xj, ej in zip(x, es))
              for e0, *es in zip(*eta)]
        k = min(int(np.searchsorted(knots, t, side="right")) - 1, len(knots) - 2)
        frac = (mpmath.mpf(float(t)) - knots[k]) / (mpmath.mpf(knots[k + 1]) - knots[k])
        return yk, k, yk[k] + frac * (yk[k + 1] - yk[k])


def mp_cum_hazard(omega, eta, x, knots, t):
    """omega * int_0^t sigmoid(Y): on each knot cell the mean of sigmoid is
    (softplus(Y_b) - softplus(Y_a)) / (Y_b - Y_a), in 50-digit arithmetic."""
    with mpmath.workdps(50):
        yk, k, y_t = mp_link(eta, x, knots, t)
        ends = list(zip(knots[:k + 1], [*knots[1:k + 1], float(t)], yk[:k + 1], [*yk[1:k + 1], y_t]))
        softplus = lambda y: mpmath.log1p(mpmath.exp(y))
        total = mpmath.mpf(0)
        for a, b, ya, yb in ends:
            mean = 1 / (1 + mpmath.exp(-ya)) if ya == yb else (softplus(yb) - softplus(ya)) / (yb - ya)
            total += (mpmath.mpf(b) - a) * mean
        return float(omega * total)


class TestLaw:
    def test_matches_mpmath_on_saturated_steep_links(self):
        # |Y| up to 40, jumps of about 80 across a cell and one flat saturated cell
        grid = DyadicGrid(4.0, 3)
        eta0 = (-39.0, 39.5, -39.0, 38.0, 38.0, -39.0, -39.5, 5.0, -0.5)
        eta1 = (-1.0, 0.5, -1.0, 1.5, 1.5, 0.0, 1.0, -2.0, 0.5)
        theta = Theta(1.7, (GpPath(grid, eta0), GpPath(grid, eta1)))
        knots = theta.grid.as_array()
        rng = np.random.default_rng(3)
        xs = np.array([[0.0], [0.25], [0.5], [1.0]])
        ts = np.concatenate([knots, rng.uniform(0.0, theta.horizon, 20)])
        y, log_sig, lam = law(theta, xs, ts)
        assert y.shape == log_sig.shape == lam.shape == (len(xs), ts.size)
        assert np.max(np.abs(y)) > 39.0
        eta = [p.values for p in theta.paths]
        for i, x in enumerate(xs):
            for j, t in enumerate(ts):
                want_y = float(mp_link(eta, x, knots.tolist(), t)[2])
                assert_allclose(y[i, j], want_y, rtol=0, atol=1e-14 * max(1.0, abs(want_y)))
                want = mp_cum_hazard(theta.omega, eta, x, knots.tolist(), t)
                assert_allclose(lam[i, j], want, rtol=1e-12, atol=0)
        # Y - softplus(Y) keeps no relative digits for Y >> 0, harmlessly inside log f
        assert np.all(np.abs(log_sig - log_expit(y)) <= 1e-14 * np.maximum(1.0, np.abs(y)))
