import math
import sys
import threading
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg.blas import dtrmm

from gphazard import gp_paths
from gphazard.bounds import tau_star
from gphazard.errors import DomainError, NumericError
from gphazard.gp_paths import (
    JITTER_FACTOR,
    DyadicGrid,
    GpPath,
    SupConstraint,
    TimeGrid,
    _covariance_cholesky,
    _grid_factor,
    _path_blocks,
    dyadic_sup_bound,
    h_weight,
    mc_event_probability,
    sample_path,
    sample_path_matrix,
    transform_hat,
)
from gphazard.kernels import StationaryKernel

H0_AT_1 = 1.8473195743340918   # 1/(1 + ln(1 - e^-1))
H0_AT_2 = 0.5392037401775174   # 1/(2 + ln(1 - e^-2))

# (horizon, weighted) of the level-9 grids whose SE factors hold subnormals
LONG_GRIDS = [
    (tau_star(0, 1.0) + 40.0, True),   # compare_tail_bound's grid at the CLI defaults
    (140.0, True),                     # compare_centred_event's grid
    (140.0, False),                    # the cached factor itself
]


def serial_blocks(factor, reps, seed):
    """Rows z @ factor.T of the block loop's split, multiplied one block after another here."""
    n = len(factor)
    chunk = gp_paths._CHUNK_SCALARS // n
    z = np.random.Generator(np.random.Philox(key=seed)).standard_normal((reps, n))
    return np.concatenate([
        dtrmm(1.0, np.asfortranarray(factor), np.array(z[s:s + chunk].T, order="F"),
              side=0, lower=1).T
        for s in range(0, reps, chunk)
    ])


class TestGrids:
    def test_dyadic_grid_shape(self):
        g = DyadicGrid(2.0, 3)
        assert len(g.points) == 9
        assert g.points[0] == 0.0
        assert g.points[-1] == 2.0
        assert g.tau == 2.0
        assert_allclose(np.diff(g.as_array()), 0.25)

    def test_dyadic_grid_validation(self):
        with pytest.raises(DomainError):
            DyadicGrid(0.0, 3)
        with pytest.raises(DomainError):
            DyadicGrid(1.0, -1)

    def test_time_grid_validation(self):
        with pytest.raises(DomainError):
            TimeGrid((0.5, 1.0))
        with pytest.raises(DomainError):
            TimeGrid((0.0, 1.0, 1.0))
        assert TimeGrid((0.0,)).tau == 0.0

    @pytest.mark.parametrize("build, named", [
        (lambda: TimeGrid((0.0, 4.0, math.inf)), r"\(0\.0, 4\.0, inf\)"),
        (lambda: TimeGrid((0.0, math.nan)), r"\(0\.0, nan\)"),
        (lambda: TimeGrid((0.0, 1.0, -math.inf)), r"\(0\.0, 1\.0, -inf\)"),
        (lambda: DyadicGrid(math.inf, 3), "got inf"),
        (lambda: DyadicGrid(math.nan, 3), "got nan"),
        (lambda: DyadicGrid(-1.0, 3), "got -1.0"),
        (lambda: DyadicGrid(1.0, 2.5), "got 2.5"),
        (lambda: DyadicGrid(1.0, True), "got True"),
        (lambda: DyadicGrid(1.0, "3"), "got '3'"),
        (lambda: mc_event_probability(StationaryKernel.se(), 0, False,
                                      [SupConstraint((0.0, 1.0), 1.0)], math.inf, 3, 100, 0),
         "got inf"),
    ], ids=["time-inf", "time-nan", "time-neg-inf", "tau-inf", "tau-nan", "tau-negative",
            "level-float", "level-bool", "level-str", "mc-horizon-inf"])
    def test_grids_refuse_non_finite_and_non_integer_input(self, build, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=named):
                build()


class TestSampling:
    def test_deterministic_in_seed(self):
        k = StationaryKernel.se()
        g = DyadicGrid(1.0, 4)
        assert sample_path(k, g, seed=42).values == sample_path(k, g, seed=42).values
        assert sample_path(k, g, seed=42).values != sample_path(k, g, seed=43).values

    def test_single_point_grid_is_scaled_normal(self):
        k = StationaryKernel.se(variance=4.0)
        path = sample_path(k, TimeGrid((0.0,)), seed=9)
        z = np.random.default_rng(9).standard_normal(1)[0]
        assert_allclose(path.values[0], 2.0 * z, rtol=1e-9)

    def test_matrix_moments_match_kernel(self):
        k = StationaryKernel.se()
        g = DyadicGrid(1.0, 6)
        draws = sample_path_matrix(k, g, reps=10_000, seed=123)
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.05)
        i1 = g.points.index(1.0)
        cov = np.cov(draws[:, 0], draws[:, i1])[0, 1]
        assert abs(cov - math.exp(-1.0)) < 0.02

    def test_matrix_deterministic(self):
        k = StationaryKernel.ou()
        g = DyadicGrid(1.0, 3)
        a = sample_path_matrix(k, g, reps=50, seed=5)
        b = sample_path_matrix(k, g, reps=50, seed=5)
        assert np.array_equal(a, b)

    def test_constant_kernel_needs_jitter_but_samples(self):
        # rank-one covariance: only the escalating jitter makes it factorizable
        path = sample_path(StationaryKernel.constant(), DyadicGrid(1.0, 3), seed=1)
        vals = np.asarray(path.values)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals - vals[0])) < 1e-3

    def test_non_psd_table_raises_numeric_error(self):
        k = StationaryKernel("tabulated", table_t=(0.0, 1.0, 2.0), table_k=(1.0, 0.9, -0.9))
        with pytest.raises(NumericError, match="escalation"):
            sample_path(k, DyadicGrid(2.0, 1), seed=0)

    def test_sample_path_pinned(self):
        # recorded before the factor cache; the cached factor must not move a bit
        se = sample_path(StationaryKernel.se(lengthscale=0.7, variance=1.5), DyadicGrid(3.0, 4), 17)
        assert se.values == (
            1.3487655420548428, 1.4069297545272281, 1.1547547053723788, 0.5439010008463905,
            -0.4002534968644423, -1.444242296174214, -2.2314054627310558, -2.562966351675003,
            -2.520321041728917, -2.2931737869505793, -2.0330937056219134, -1.8621202538344581,
            -1.8478941600730903, -1.9211413381006954, -1.866929639475462, -1.4706396592707125,
            -0.7350662614374456,
        )
        ou = sample_path(StationaryKernel.ou(lengthscale=2.0), TimeGrid((0.0, 0.3, 1.1, 2.0, 4.5)), 23)
        assert ou.values == (
            0.5532605889164017, 0.5869760517968804, 0.3504290606133074, -1.562935768220239,
            -0.034383177028169676,
        )

    def test_matrix_pinned(self):
        # recorded with the dense product z @ L.T; the triangular multiply
        # gives the same bits on this 9-point grid
        m = sample_path_matrix(StationaryKernel.se(), DyadicGrid(2.0, 3), reps=6, seed=11)
        assert np.array_equal(m[[0, 4, 5]], [
            [-0.011708890342773014, 0.05034014072944465, 0.07861427875826947,
             -0.03675893549122934, -0.3023336471865393, -0.6587553903207204,
             -1.0183892386657665, -1.2961412898675042, -1.423698847511811],
            [0.3158348861045885, 0.3641965415376994, 0.2727994562325011,
             -0.050192846977791285, -0.5729992816086352, -1.149451783660897,
             -1.6183910635270655, -1.9075165865837953, -2.0119138187590964],
            [-0.7996272062657525, -0.5157490804703444, 0.0043621116049511735,
             0.611982641690913, 1.0652951832733475, 1.18720031123318,
             0.9668095995949019, 0.5163848204375165, -0.03190532982233297],
        ])

    def test_matrix_pinned_across_blocks(self):
        # 513 points: blocks of 487 rows, the last of 234 (rows 8766-8999);
        # sums over 513 terms are reordered by the triangular multiply, so
        # equal to 1e-12
        m = sample_path_matrix(StationaryKernel.ou(), DyadicGrid(2.0, 9), reps=9000, seed=4)
        assert_allclose(m[np.ix_([0, 7796, 7797, 8999], [0, 256, 512])], [
            [0.00021832635172935538, 0.08948222383709226, 1.2493776683741113],
            [-0.7014470736917868, -1.5593118113403972, -1.5176896826674076],
            [1.0674828790047406, 0.3031200454257308, -0.465395310294374],
            [-0.11037974156739357, -1.6549520379806117, 0.02721870970003104],
        ], rtol=0, atol=1e-12)
        assert_allclose(m.sum(), 6605.531836727064, rtol=1e-12)

    def test_blocks_keep_the_philox_stream(self):
        n = 513
        chunk = gp_paths._CHUNK_SCALARS // n
        # one block, an exact multiple of the block size, and a short tail;
        # frequent thread switches would expose a buffer reused too early
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for whole, tail in ((1, 0), (3, 0), (2, 17)):
                reps = whole * chunk + tail
                got = list(_path_blocks(np.eye(n), reps, 8, np.copy))
                assert [len(b) for b in got] == [chunk] * whole + [tail] * bool(tail)
                stream = np.random.Generator(np.random.Philox(key=8)).standard_normal((reps, n))
                assert np.array_equal(np.concatenate(got), stream)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_thread_is_joined(self):
        before = threading.active_count()
        factor, reps = np.eye(50), 3 * (gp_paths._CHUNK_SCALARS // 50)
        threads = set()

        def record(rows):
            threads.add(threading.get_ident())
            return len(rows)

        assert sum(_path_blocks(factor, reps, 1, record)) == reps
        assert threads and threading.get_ident() not in threads
        assert threading.active_count() == before

        early = _path_blocks(factor, reps, 1, len)
        next(early)
        early.close()
        assert threading.active_count() == before

        def fail(rows):
            raise ValueError("from each")

        with pytest.raises(ValueError, match="from each"):
            list(_path_blocks(factor, reps, 1, fail))
        assert threading.active_count() == before

    def test_path_refuses_extrapolation(self):
        path = sample_path(StationaryKernel.se(), DyadicGrid(1.0, 2), seed=0)
        with pytest.raises(DomainError):
            path.at(1.5)
        with pytest.raises(DomainError):
            path.at(-0.1)
        with pytest.raises(DomainError):
            path.at(float("nan"))


class TestWeight:
    def test_frozen_values(self):
        assert_allclose(h_weight(0, 1.0), H0_AT_1, rtol=1e-12)
        assert_allclose(h_weight(0, 2.0), H0_AT_2, rtol=1e-12)
        assert_allclose(h_weight(1, 1.0), 2.0 * H0_AT_1, rtol=1e-12)
        assert_allclose(h_weight(3, 2.0), 4.0 * H0_AT_2, rtol=1e-12)

    def test_constant_below_one_continuous_at_one(self):
        t = np.linspace(0.0, 1.0, 50)
        assert_allclose(h_weight(0, t), H0_AT_1, rtol=1e-12)
        assert abs(h_weight(0, 1.0 + 1e-9) - H0_AT_1) < 1e-6

    def test_strictly_decreasing_beyond_one(self):
        t = np.linspace(1.0, 100.0, 500)
        vals = h_weight(2, t)
        assert np.all(np.diff(vals) < 0)

    def test_maximum_attained_at_one(self):
        t = np.linspace(0.0, 50.0, 1000)
        assert np.max(h_weight(0, t)) <= h_weight(0, 1.0) + 1e-15

    def test_large_t_ratio_tends_to_one(self):
        ratio = h_weight(4, 1e3) * 1e3 / 5.0
        assert abs(ratio - 1.0) < 0.01

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            h_weight(-1, 1.0)
        with pytest.raises(DomainError):
            h_weight(0, -0.5)


class TestTransformHat:
    def test_ones_on_unit_interval(self):
        g = DyadicGrid(1.0, 3)
        hat = transform_hat(GpPath(g, (1.0,) * 9), d=0)
        assert_allclose(hat.values, H0_AT_1, rtol=1e-12)

    def test_value_at_two(self):
        g = DyadicGrid(2.0, 1)
        hat = transform_hat(GpPath(g, (0.0, 0.0, 1.0)), d=0)
        assert_allclose(hat.values[2], H0_AT_2, rtol=1e-12)

    def test_linearity(self):
        g = DyadicGrid(3.0, 4)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(17)
        b = rng.standard_normal(17)
        lhs = transform_hat(GpPath(g, tuple(a + b)), d=1)
        rhs_a = transform_hat(GpPath(g, tuple(a)), d=1)
        rhs_b = transform_hat(GpPath(g, tuple(b)), d=1)
        assert_allclose(lhs.values, np.asarray(rhs_a.values) + np.asarray(rhs_b.values), atol=1e-12)


class TestDyadicBound:
    def test_zero_path(self):
        assert dyadic_sup_bound(GpPath(DyadicGrid(1.0, 3), (0.0,) * 9)) == 0.0

    def test_linear_path_closed_form(self):
        # v(t) = t on [0,1]: bound = 0 + 1 + sum_{n<=4} 2^-n = 1.9375
        g = DyadicGrid(1.0, 4)
        path = GpPath(g, tuple(np.linspace(0, 1, 17)))
        assert_allclose(dyadic_sup_bound(path), 1.9375, rtol=1e-12)
        assert dyadic_sup_bound(path) <= 2.0

    def test_dominates_grid_sup_on_sampled_paths(self):
        k = StationaryKernel.se()
        g = DyadicGrid(2.0, 6)
        draws = sample_path_matrix(k, g, reps=1000, seed=77)
        for row in draws:
            path = GpPath(g, tuple(row))
            assert dyadic_sup_bound(path) >= path.sup_abs()

    def test_level_validation(self):
        path = GpPath(DyadicGrid(1.0, 3), (0.0,) * 9)
        with pytest.raises(DomainError):
            dyadic_sup_bound(path, max_level=4)
        plain = GpPath(TimeGrid((0.0, 0.3, 1.0)), (0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            dyadic_sup_bound(plain)


class TestEventProbability:
    def test_infinite_threshold_is_certain(self):
        rep = mc_event_probability(
            StationaryKernel.se(), 0, False,
            [SupConstraint((0.0, 1.0), math.inf, "le")],
            horizon=1.0, level=4, reps=200, seed=3,
        )
        assert rep.p_joint == 1.0
        assert rep.ci_halfwidth == 0.0

    def test_deterministic(self):
        args = (StationaryKernel.ou(), 0, False,
                [SupConstraint((0.0, 2.0), 1.0, "le")], 2.0, 5, 500, 21)
        assert mc_event_probability(*args).p_joint == mc_event_probability(*args).p_joint

    def test_joint_at_least_product_minus_ci(self):
        rep = mc_event_probability(
            StationaryKernel.se(), 0, False,
            [SupConstraint((0.0, 1.0), 1.0, "le"), SupConstraint((1.0, 3.0), 1.5, "le")],
            horizon=3.0, level=6, reps=4000, seed=101,
        )
        p1, p2 = rep.p_marginals
        assert rep.p_joint >= p1 * p2 - 3.0 * rep.ci_halfwidth

    def test_weighted_tail_monotone_in_tau(self):
        def prob(tau):
            return mc_event_probability(
                StationaryKernel.se(), 0, True,
                [SupConstraint((tau, tau + 20.0), 1.0, "ge")],
                horizon=tau + 20.0, level=7, reps=2000, seed=55,
            ).p_joint

        assert prob(20.0) <= prob(5.0)

    def test_validation(self):
        k = StationaryKernel.se()
        with pytest.raises(DomainError):
            mc_event_probability(k, 0, False, [], 1.0, 3, 200, 0)
        with pytest.raises(DomainError):
            mc_event_probability(k, 0, False,
                                 [SupConstraint((0.0, 2.0), 1.0, "le")], 1.0, 3, 200, 0)
        with pytest.raises(DomainError):
            mc_event_probability(k, 0, False,
                                 [SupConstraint((0.0, 1.0), 1.0, "le")], 1.0, 3, 50, 0)
        with pytest.raises(DomainError):
            mc_event_probability(k, 0, False,
                                 [SupConstraint((0.26, 0.30), 1.0, "le")], 1.0, 2, 200, 0)
        with pytest.raises(DomainError):
            SupConstraint((1.0, 0.5), 1.0, "le")
        with pytest.raises(DomainError):
            SupConstraint((0.0, 1.0), 1.0, "between")


class TestFactorCache:
    def test_cached_factor_is_read_only_and_exact(self):
        _grid_factor.cache_clear()
        k = StationaryKernel.se(lengthscale=0.5)
        pts = DyadicGrid(2.0, 5).as_array()
        chol, jitter = _covariance_cholesky(k, pts)
        assert jitter == JITTER_FACTOR * k.kappa0
        assert not chol.flags.writeable
        with pytest.raises(ValueError):
            chol[0, 0] = 1.0
        cov = k(np.abs(pts[:, None] - pts[None, :])) + jitter * np.eye(pts.size)
        assert np.array_equal(chol, np.linalg.cholesky(cov))
        again, _ = _covariance_cholesky(k, tuple(pts))
        assert again is chol
        assert _grid_factor.cache_info().hits == 1

    def test_failed_factorisation_is_not_cached(self):
        _grid_factor.cache_clear()
        k = StationaryKernel("tabulated", table_t=(0.0, 1.0, 2.0), table_k=(1.0, 0.9, -0.9))
        for _ in range(2):
            with pytest.raises(NumericError, match="escalation"):
                _covariance_cholesky(k, (0.0, 1.0, 2.0))
        info = _grid_factor.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 2)

    @pytest.mark.parametrize("horizon, weighted", LONG_GRIDS)
    def test_flushed_blocks_equal_unflushed_product(self, horizon, weighted):
        # The block loop zeroes the subnormal entries of its copy of the
        # factor; the rows must equal the product with the factor as given.
        points = DyadicGrid(horizon, 9).as_array()
        chol, _ = _covariance_cholesky(StationaryKernel.se(), points)
        cached = chol.copy()
        factor = h_weight(0, points)[:, None] * chol if weighted else chol
        assert np.count_nonzero((factor != 0) & (np.abs(factor) < np.finfo(float).tiny)) > 500
        reps = 8000  # 16 blocks of 487 rows and a tail of 208
        blocks = np.concatenate(list(_path_blocks(factor, reps, 3, np.copy)))
        assert np.array_equal(blocks, serial_blocks(factor, reps, 3))
        assert np.array_equal(chol, cached)
        assert not chol.flags.writeable
        assert _covariance_cholesky(StationaryKernel.se(), points)[0] is chol

    @pytest.mark.parametrize("horizon, weighted", LONG_GRIDS)
    def test_pipelined_blocks_equal_serial_loop(self, horizon, weighted):
        # The worker thread multiplies what the caller drew: same stream,
        # same block split and the same flushed factor as a serial loop.
        points = DyadicGrid(horizon, 9).as_array()
        chol, _ = _covariance_cholesky(StationaryKernel.se(), points)
        factor = h_weight(0, points)[:, None] * chol if weighted else chol
        flushed = np.where(np.abs(factor) < np.finfo(float).tiny, 0.0, factor)
        reps = 8000
        blocks = np.concatenate(list(_path_blocks(factor, reps, 3, np.copy)))
        assert np.array_equal(blocks, serial_blocks(flushed, reps, 3))

    def test_report_carries_escalated_jitter(self):
        # covariance 1 + 5e-10 off the diagonal: 1e-10 of jitter is too little
        k = StationaryKernel("tabulated", table_t=(0.0, 1.0), table_k=(1.0, 1.0 + 5e-10))
        rep = mc_event_probability(k, 0, False, [SupConstraint((0.0, 1.0), 1.0, "le")],
                                   1.0, 0, 200, 0)
        assert rep.jitter == pytest.approx(10.0 * JITTER_FACTOR, rel=1e-12)
        assert asdict(rep)["jitter"] == rep.jitter
