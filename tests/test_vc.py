import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from conftest import brute_metric
from gphazard import vc
from gphazard.cli import _test_stat_record
from gphazard.errors import CapacityError, DomainError
from gphazard.gp_paths import DyadicGrid, sample_path
from gphazard.hazard import (
    ProductBetaQ,
    SurvivalDataset,
    TableQ,
    Theta,
    UniformQ,
    generate_dataset,
    survival_matrix,
)
from gphazard.kernels import StationaryKernel
from gphazard.vc import (
    GridSpec,
    QAtoms,
    Rectangle,
    deviation_bounds,
    empirical_measure,
    measure_mu,
    q_atoms_from_law,
    q_atoms_from_rows,
    resolve_atoms,
    shatter_bound,
    sup_deviation_metric,
)

# aliased so pytest does not collect the library function as a test
anchored_statistic = vc.test_statistic

LN2 = math.log(2.0)


def random_theta(d, seed, omega=2.5, tau=3.0, level=4):
    grid = DyadicGrid(tau=tau, level=level)
    kernel = StationaryKernel.se()
    paths = tuple(sample_path(kernel, grid, seed=seed * 100 + j) for j in range(d + 1))
    return Theta(omega=omega, paths=paths)


class TestRectangleAndGrid:
    def test_rectangle_validation(self):
        Rectangle(time=(0.0, 2.0), box=((0.1, 0.9),))
        with pytest.raises(DomainError):
            Rectangle(time=(2.0, 1.0))
        with pytest.raises(DomainError):
            Rectangle(time=(-0.5, 1.0))
        with pytest.raises(DomainError):
            Rectangle(time=(0.0, 1.0), box=((0.5, 1.5),))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridSpec(time_knots=(0.0,))
        with pytest.raises(DomainError):
            GridSpec(time_knots=(0.0, 1.0), covariate_knots=((0.2, 0.1),))
        with pytest.raises(DomainError):
            GridSpec(time_knots=(1.0, 0.5))

    def test_rectangle_count(self):
        grid = GridSpec(time_knots=(0.0, 1.0, 2.0), covariate_knots=((0.0, 0.5, 1.0),))
        assert grid.rectangle_count() == 3 * 3
        reg = GridSpec.regular(horizon=5.0, time_knots=4, d=2, covariate_knots=3)
        assert reg.rectangle_count() == 6 * 3 * 3


class TestQAtoms:
    def test_uniform_midpoints(self):
        atoms = q_atoms_from_law(UniformQ(1))
        w = atoms.weights_array()
        assert len(w) == 64
        assert_allclose(w, 1.0 / 64)
        assert_allclose(atoms.nodes_array()[0, 0], 1.0 / 128)

    def test_uniform_2d_resolution(self):
        atoms = q_atoms_from_law(UniformQ(2))
        assert len(atoms.weights) == 16 * 16
        assert_allclose(sum(atoms.weights), 1.0)

    def test_beta_cell_masses(self):
        law = ProductBetaQ(alphas=(2.0,), betas=(5.0,))
        atoms = q_atoms_from_law(law, cells_per_axis=32)
        edges = np.linspace(0, 1, 33)
        assert_allclose(atoms.weights_array(), np.diff(stats.beta.cdf(edges, 2.0, 5.0)))
        mean = atoms.weights_array() @ atoms.nodes_array()[:, 0]
        assert abs(mean - 2.0 / 7.0) < 0.01

    def test_table_passthrough(self):
        law = TableQ(atoms=((0.2,), (0.8,)), probs=(0.3, 0.7))
        atoms = q_atoms_from_law(law)
        assert atoms.nodes == ((0.2,), (0.8,))
        assert atoms.weights == (0.3, 0.7)

    def test_rows_equal_weight(self):
        atoms = q_atoms_from_rows([[0.1], [0.5], [0.9]])
        assert_allclose(atoms.weights_array(), 1.0 / 3.0)

    def test_resolve_design(self):
        rows = np.array([[0.4], [0.6]])
        nrd = resolve_atoms("NRD", rows)
        assert nrd.nodes == ((0.4,), (0.6,))
        with pytest.raises(DomainError):
            resolve_atoms("XX", rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_refuses_bad_weights(self, bad):
        with pytest.raises(DomainError, match="weights must be finite and nonnegative"):
            QAtoms(nodes=((0.5,),), weights=(bad,))
        with pytest.raises(DomainError, match="weights must be finite and nonnegative"):
            q_atoms_from_rows([[0.2], [0.6]], weights=[0.5, bad])

    @pytest.mark.parametrize("total", [2.0, 0.1, 1.0 + 2e-9])
    def test_refuses_weights_that_do_not_sum_to_one(self, total):
        # scaled weights scale every measure: at weight 2.0 the metric
        # between constant omega 2 and 3 on one atom doubled, 0.1465 -> 0.2931
        with pytest.raises(DomainError, match=re.escape(f"weights must sum to 1, got {total!r}")):
            QAtoms(nodes=((0.5,),), weights=(total,))
        with pytest.raises(DomainError, match="weights must sum to 1, got"):
            q_atoms_from_rows([[0.2], [0.6]], weights=[total / 2, total / 2])
        assert q_atoms_from_rows([[0.2], [0.6]], weights=[0.5, 0.5 + 5e-10]).weights[1] > 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
    def test_refuses_nodes_outside_the_cube(self, bad):
        with pytest.raises(DomainError, match=r"nodes must lie in \[0,1\]\^d"):
            QAtoms(nodes=((bad,),), weights=(1.0,))
        with pytest.raises(DomainError, match=r"nodes must lie in \[0,1\]\^d"):
            QAtoms(nodes=((0.5, 0.5), (0.2, bad)), weights=(0.5, 0.5))


class TestMeasure:
    def test_exponential_half(self):
        theta = Theta.constant(omega=2.0, d=1, horizon=4.0)
        rect = Rectangle(time=(0.0, LN2), box=((0.0, 1.0),))
        value = measure_mu(theta, rect, "RD", UniformQ(1))
        assert abs(value - 0.5) < 1e-6

    def test_total_mass_grows_to_one(self):
        theta = Theta.constant(omega=2.0, d=1, horizon=12.0)
        vals = [
            measure_mu(theta, Rectangle((0.0, b), ((0.0, 1.0),)), "RD", UniformQ(1))
            for b in (2.0, 6.0, 12.0)
        ]
        assert vals[0] < vals[1] < vals[2] <= 1.0
        assert vals[2] > 0.999

    def test_full_space_equals_one_minus_survival(self):
        theta = random_theta(d=1, seed=3)
        h = theta.horizon
        value = measure_mu(theta, Rectangle((0.0, h), ((0.0, 1.0),)), "RD", UniformQ(1))
        atoms = q_atoms_from_law(UniformQ(1))
        surv = survival_matrix(theta, atoms.nodes_array(), np.array([h]))[:, 0]
        assert_allclose(value, 1.0 - atoms.weights_array() @ surv, rtol=1e-12)

    def test_nrd_exclusion(self):
        theta = Theta.constant(omega=2.0, d=1, horizon=4.0)
        rect = Rectangle(time=(0.0, 2.0), box=((0.5, 1.0),))
        assert measure_mu(theta, rect, "NRD", [[0.2]]) == 0.0

    def test_monotone_under_inclusion(self):
        theta = random_theta(d=1, seed=5)
        inner = Rectangle((0.5, 1.5), ((0.2, 0.6),))
        outer = Rectangle((0.2, 2.0), ((0.1, 0.8),))
        qa = q_atoms_from_law(UniformQ(1))
        assert measure_mu(theta, inner, "RD", qa) <= measure_mu(theta, outer, "RD", qa) + 1e-12

    def test_additive_over_time_split(self):
        theta = random_theta(d=1, seed=6)
        qa = q_atoms_from_law(UniformQ(1))
        box = ((0.1, 0.7),)
        left = measure_mu(theta, Rectangle((0.0, 1.2), box), "RD", qa)
        right = measure_mu(theta, Rectangle((1.2, 2.5), box), "RD", qa)
        both = measure_mu(theta, Rectangle((0.0, 2.5), box), "RD", qa)
        assert abs(left + right - both) < 1e-6

    def test_errors(self):
        theta = Theta.constant(omega=2.0, d=1, horizon=2.0)
        with pytest.raises(DomainError):
            measure_mu(theta, Rectangle((0.0, 3.0), ((0.0, 1.0),)), "RD", UniformQ(1))
        with pytest.raises(DomainError):
            measure_mu(theta, Rectangle((0.0, 1.0)), "RD", UniformQ(1))
        with pytest.raises(DomainError):
            measure_mu(theta, Rectangle((0.0, 1.0), ((0.0, 1.0),)), "RD", UniformQ(2))


class TestEmpiricalMeasure:
    def test_single_record(self):
        ds = SurvivalDataset(
            times=(0.5,), covariates=((0.2,),), design="NRD",
            q_descriptor={"family": "fixed"}, horizon=2.0,
        )
        assert empirical_measure(ds, Rectangle((0.0, 1.0), ((0.0, 1.0),))) == 1.0
        assert empirical_measure(ds, Rectangle((1.0, 2.0), ((0.0, 1.0),))) == 0.0

    def test_full_space(self):
        theta = Theta.constant(omega=2.0, d=1, horizon=8.0)
        ds = generate_dataset(theta, 50, "RD", UniformQ(1), horizon=8.0, seed=2)
        t_max = max(ds.times)
        assert empirical_measure(ds, Rectangle((0.0, t_max), ((0.0, 1.0),))) == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            ds = SurvivalDataset(times=(), covariates=(), design="RD",
                                 q_descriptor={"family": "uniform", "d": 0}, horizon=1.0)
            empirical_measure(ds, Rectangle((0.0, 1.0)))


METRIC_CASES = ["uniform", "table_on_knots", "nrd_repeats", "partial_span", "none_in_span"]


def metric_case(case, d, time_knots, covariate_knots, cells):
    """(design, q_grid, grid) on [0, 3] for a brute-force comparison.

    uniform: midpoint atoms on a regular grid.  table_on_knots: a finite
    law whose atoms sit exactly on covariate knots, 0 and 1 among them.
    nrd_repeats: fixed rows with repeated values, some on knots.
    partial_span: covariate knots (0.2, 0.5, 0.75), so atoms below 0.2 or
    above 0.75 fall in no box.  none_in_span: every atom above 0.75, so
    the metric is 0.
    """
    if case in ("partial_span", "none_in_span"):
        knots = (0.2, 0.5, 0.75)
    else:
        knots = tuple(np.linspace(0.0, 1.0, covariate_knots))
    grid = GridSpec(tuple(np.linspace(0.0, 3.0, time_knots)), (knots,) * d)
    rng = np.random.default_rng(7 + d)
    if case == "table_on_knots":
        atoms = rng.choice(knots, size=(8, d))
        atoms[0], atoms[1] = 0.0, 1.0
        probs = rng.dirichlet(np.ones(8))
        return "RD", TableQ(tuple(map(tuple, atoms)), tuple(probs / probs.sum())), grid
    if case == "nrd_repeats":
        return "NRD", rng.choice([0.0, 0.2, knots[1], 0.9, 1.0], size=(12, d)), grid
    if case == "none_in_span":
        return "NRD", rng.uniform(0.8, 1.0, size=(6, d)), grid
    return "RD", q_atoms_from_law(UniformQ(d), cells_per_axis=cells), grid


class TestMetric:
    def test_identity_is_zero(self):
        theta = random_theta(d=1, seed=11)
        grid = GridSpec.regular(horizon=theta.horizon, time_knots=9, d=1, covariate_knots=5)
        res = sup_deviation_metric(theta, theta, "RD", UniformQ(1), grid)
        assert res.value == 0.0

    def test_quarter_oracle(self):
        theta_a = Theta.constant(omega=2.0, d=1, horizon=5.0)
        theta_b = Theta.constant(omega=4.0, d=1, horizon=5.0)
        grid = GridSpec.regular(horizon=5.0, time_knots=512, d=1, covariate_knots=3)
        res = sup_deviation_metric(theta_a, theta_b, "RD", UniformQ(1), grid)
        assert abs(res.value - 0.25) < 0.005
        a, b = res.argmax.time
        assert a < 0.02
        assert abs(b - LN2) < 0.05

    @pytest.mark.parametrize("case", METRIC_CASES)
    def test_matches_brute_force_d1(self, case):
        theta_a = random_theta(d=1, seed=21)
        theta_b = random_theta(d=1, seed=22)
        design, q, grid = metric_case(case, d=1, time_knots=6, covariate_knots=4, cells=8)
        res = sup_deviation_metric(theta_a, theta_b, design, q, grid)
        assert_allclose(res.value, brute_metric(theta_a, theta_b, design, q, grid), atol=1e-10)

    @pytest.mark.parametrize("case", METRIC_CASES)
    def test_matches_brute_force_d2(self, case):
        theta_a = random_theta(d=2, seed=31)
        theta_b = random_theta(d=2, seed=32)
        design, q, grid = metric_case(case, d=2, time_knots=5, covariate_knots=3, cells=4)
        res = sup_deviation_metric(theta_a, theta_b, design, q, grid)
        assert_allclose(res.value, brute_metric(theta_a, theta_b, design, q, grid), atol=1e-10)

    def test_symmetry(self):
        theta_a = random_theta(d=1, seed=41)
        theta_b = random_theta(d=1, seed=42)
        grid = GridSpec.regular(horizon=3.0, time_knots=9, d=1, covariate_knots=5)
        ab = sup_deviation_metric(theta_a, theta_b, "RD", UniformQ(1), grid).value
        ba = sup_deviation_metric(theta_b, theta_a, "RD", UniformQ(1), grid).value
        assert abs(ab - ba) < 1e-14

    def test_triangle_inequality(self):
        grid = GridSpec.regular(horizon=3.0, time_knots=9, d=1, covariate_knots=5)
        qa = q_atoms_from_law(UniformQ(1), cells_per_axis=16)
        for trial in range(100):
            ta = random_theta(d=1, seed=3 * trial + 1, omega=1.5 + (trial % 4))
            tb = random_theta(d=1, seed=3 * trial + 2, omega=2.0 + (trial % 3))
            tc = random_theta(d=1, seed=3 * trial + 3, omega=2.5 + (trial % 2))
            dab = sup_deviation_metric(ta, tb, "RD", qa, grid).value
            dbc = sup_deviation_metric(tb, tc, "RD", qa, grid).value
            dac = sup_deviation_metric(ta, tc, "RD", qa, grid).value
            assert dac <= dab + dbc + 1e-12

    def test_refinement_monotone(self):
        theta_a = random_theta(d=1, seed=51)
        theta_b = random_theta(d=1, seed=52)
        coarse_t = tuple(np.linspace(0.0, 3.0, 7))
        fine_t = tuple(sorted(set(coarse_t) | set(np.linspace(0.0, 3.0, 19))))
        cov = (tuple(np.linspace(0.0, 1.0, 4)),)
        coarse = GridSpec(coarse_t, cov)
        fine = GridSpec(fine_t, cov)
        qa = q_atoms_from_law(UniformQ(1))
        v_coarse = sup_deviation_metric(theta_a, theta_b, "RD", qa, coarse).value
        v_fine = sup_deviation_metric(theta_a, theta_b, "RD", qa, fine).value
        assert v_fine >= v_coarse - 1e-12

    @pytest.mark.parametrize("d, time_knots, batch", [(0, 4097, 7), (1, 65, 3), (2, 17, 1)])
    def test_batched_values_equal_the_one_draw_metric(self, d, time_knots, batch):
        # draws on one grid, one on a coarser grid, then two on the first:
        # batches break at the batch size and where the grid changes
        theta0 = random_theta(d, seed=61)
        draws = [random_theta(d, seed=62 + s, omega=1.5 + 0.1 * s) for s in range(2 * batch + 1)]
        draws += [random_theta(d, seed=70, level=3)] + draws[:2]
        grid = GridSpec.regular(3.0, time_knots, d)
        table = vc._BoxTable(theta0, "RD", UniformQ(d), grid)
        assert table.batch == batch
        want = [sup_deviation_metric(draw, theta0, "RD", UniformQ(d), grid).value for draw in draws]
        assert table.values(draws).tolist() == want

    def test_capacity_error(self):
        theta = Theta.constant(omega=2.0, d=1, horizon=5.0)
        grid = GridSpec.regular(horizon=5.0, time_knots=4000, d=1, covariate_knots=4)
        with pytest.raises(CapacityError):
            sup_deviation_metric(theta, theta, "RD", UniformQ(1), grid)

    def test_dimension_checks(self):
        t1 = Theta.constant(omega=2.0, d=1, horizon=3.0)
        t2 = Theta.constant(omega=2.0, d=2, horizon=3.0)
        grid = GridSpec.regular(horizon=3.0, time_knots=5, d=1, covariate_knots=3)
        with pytest.raises(DomainError):
            sup_deviation_metric(t1, t2, "RD", UniformQ(1), grid)
        with pytest.raises(DomainError):
            sup_deviation_metric(t2, t2, "RD", UniformQ(2), grid)


class TestShatterAndDeviationBounds:
    def test_small_values(self):
        assert shatter_bound(3, 1).value == 256.0
        assert shatter_bound(1, 0).value == 4.0

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            shatter_bound(0, 1)

    def test_overflow_reported_in_log_form(self):
        sb = shatter_bound(10 ** 80, 1)
        assert sb.overflowed
        assert math.isinf(sb.value)
        assert_allclose(sb.log_value, 4.0 * math.log(10.0 ** 80 + 1.0))

    def test_type1_scalar(self):
        db = deviation_bounds(100, 1, 0.2)
        assert_allclose(db.type1_bound, 2.0 * math.exp(-2.0), rtol=1e-12)

    def test_expected_dev_scalar(self):
        db = deviation_bounds(10_000, 1, 0.2)
        assert abs(db.expected_dev_bound - 0.1225) < 5e-4

    def test_quadrupling_roughly_halves(self):
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            ratio = (
                deviation_bounds(4 * n, 1, 0.1).expected_dev_bound
                / deviation_bounds(n, 1, 0.1).expected_dev_bound
            )
            assert 0.45 <= ratio <= 0.55

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            deviation_bounds(10, 1, 0.0)


def brute_anchored(dataset, theta0, atoms, anchors_x=None, anchors_t=None):
    """Independent enumeration of the anchored supremum (small n only)."""
    times = dataset.times_array()
    n = dataset.n
    if anchors_t is None:
        anchors_t = np.unique(np.concatenate([[0.0, theta0.horizon], times]))
    fmat = 1.0 - survival_matrix(theta0, atoms.nodes_array(), anchors_t)
    w = atoms.weights_array()
    upper = np.triu(np.ones((len(anchors_t), len(anchors_t)), dtype=bool))
    if dataset.d == 0:
        boxes = [None]
    else:
        xs = dataset.covariates_array()[:, 0]
        if anchors_x is None:
            anchors_x = np.unique(np.concatenate([[0.0, 1.0], xs]))
        boxes = [
            (anchors_x[i], anchors_x[j])
            for i in range(len(anchors_x))
            for j in range(i, len(anchors_x))
        ]
    best = -1.0
    node_x = atoms.nodes_array()[:, 0] if dataset.d else None
    for box in boxes:
        if box is None:
            sel_rec = np.ones(n, dtype=bool)
            sel_node = np.ones(len(w), dtype=bool)
        else:
            lo, hi = box
            xs = dataset.covariates_array()[:, 0]
            sel_rec = (xs >= lo) & (xs <= hi)
            sel_node = (node_x >= lo) & (node_x <= hi)
        ref = w[sel_node] @ fmat[sel_node] if sel_node.any() else np.zeros(len(anchors_t))
        ts_in = np.sort(times[sel_rec])
        d_le = np.searchsorted(ts_in, anchors_t, side="right") / n - ref
        d_lt = np.searchsorted(ts_in, anchors_t, side="left") / n - ref
        dev = np.abs(d_le[None, :] - d_lt[:, None])
        best = max(best, float(dev[upper].max()))
    return best


def anchored_pair_values(dataset, theta0, atoms):
    """Best |mass| over time-anchor pairs for every covariate anchor pair
    i <= j (-inf below the diagonal), by prefix sums in O(m^2 K).

    Shares nothing with the library's search: record counts come from one
    2-D histogram over (x anchor, time anchor) summed along both axes, the
    reference from the atoms' CDFs, and each box [x_i, x_j] is scored over
    all time-anchor pairs a <= b by running extremes.
    """
    times = dataset.times_array()
    xs = dataset.covariates_array()[:, 0]
    anchors_t = np.unique(np.concatenate([[0.0, theta0.horizon], times]))
    anchors_x = np.unique(np.concatenate([[0.0, 1.0], xs]))
    m, K = len(anchors_x), len(anchors_t)
    hist = np.zeros((m + 1, K + 1))
    np.add.at(hist, (np.searchsorted(anchors_x, xs) + 1, np.searchsorted(anchors_t, times) + 1), 1.0)
    cum = hist.cumsum(axis=0).cumsum(axis=1) / dataset.n
    # cum[r, k]: share with x below anchor r and time below anchor k
    le, lt = cum[:, 1:], cum[:, :-1]
    node_x = atoms.nodes_array()[:, 0]
    wf = atoms.weights_array()[:, None] * (1.0 - survival_matrix(theta0, atoms.nodes_array(), anchors_t))
    ref_le = (node_x[None, :] <= anchors_x[:, None]).astype(float) @ wf
    ref_lt = (node_x[None, :] < anchors_x[:, None]).astype(float) @ wf
    values = np.full((m, m), -np.inf)
    for i in range(m):
        ref = ref_le[i:] - ref_lt[i]
        u = le[i + 1:] - le[i] - ref   # mass of [0, T_b] in [x_i, x_j], j >= i
        w = lt[i + 1:] - lt[i] - ref   # mass of [0, T_a)
        up = u - np.minimum.accumulate(w, axis=1)
        down = np.maximum.accumulate(w, axis=1) - u
        values[i, i:] = np.maximum(up.max(axis=1), down.max(axis=1))
    return values


def enumerate_anchored(dataset, theta0, atoms):
    """The anchored supremum as the largest of anchored_pair_values."""
    return float(anchored_pair_values(dataset, theta0, atoms).max())


def coarse_margins(rows, coarsen):
    """Coarse minus full bound for every pair whose bound the search takes
    on both time axes: block envelope pairs, run corner pairs, and left
    rows against right run corners, each side coarsened by coarsen."""
    blocks, runs = -(-rows.m // vc._BLOCK), -(-rows.m // vc._SUB)
    corners = list(zip(*map(rows.corners, range(blocks))))
    p_corner, q_corner = (np.concatenate(c, axis=1) for c in corners[:2])
    margins = []
    for p, q in ((rows.p_block, rows.q_block), (p_corner, q_corner)):
        fine = vc._pair_bound(p[:, :, None], q[:, None])
        margins.append(vc._pair_bound(coarsen(p)[:, :, None], coarsen(q)[:, None]) - fine)
    for r in range(runs):
        le, lt, _ = rows.rows("q", r)
        row = (le, lt, le, lt)
        fine = vc._pair_bound(p_corner[:, :, None], row)
        margins.append(vc._pair_bound(coarsen(p_corner)[:, :, None], coarsen(row)) - fine)
    return np.concatenate([x.ravel() for x in margins])


def coarse_with_wrong_le_up(summary):
    """vc._coarse, but taking each run's smallest le_up, not its largest."""
    coarse = vc._coarse(summary)
    at = np.arange(0, summary[0].shape[-1], vc._COARSE)
    coarse[0] = np.minimum.reduceat(summary[0], at, axis=-1)
    return coarse


# rows expanded by the search on the pruning guard's dataset: 3 when set
ROWS_EXPANDED_CEILING = 64

# test_every_bound_covers_its_pairs under RD, by cell count: sha256 of the
# run corners and of the right runs' envelopes that level 1 reads,
# recorded at commit c6f2411, whose construction sweep stored every run's
# summaries; the 2-cell digest was recorded again, after the covers checks
# below passed, when the atoms' link rows came from one product over the
# distinct rows.  Under NRD a run's rows evaluate their atoms' reference rows
# again, which may differ in the last bits, so there the summaries are
# only checked to cover.
SUMMARY_DIGESTS = {
    64: "a61902c7b9f8f04231e39ef81ff60170899db8d5d2147eaf166bbf2f1eafb36e",
    2: "406a1b1a4b26d46eb5364c8510b49b908f8f8148e350bbabf00f0f9d8f1b82ba",
}


class TestStatistic:
    def _uniform_dataset(self, theta0, n, seed):
        return generate_dataset(theta0, n, "RD", UniformQ(1), horizon=theta0.horizon, seed=seed)

    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_matches_brute_force_rd(self, n):
        theta0 = random_theta(d=1, seed=61, omega=2.0)
        ds = self._uniform_dataset(theta0, n, seed=100 + n)
        atoms = q_atoms_from_law(UniformQ(1))
        res = anchored_statistic(ds, theta0, "RD", atoms, epsilon=0.2)
        brute = brute_anchored(ds, theta0, atoms)
        assert_allclose(res.sup_dev, brute, atol=1e-10)
        assert_allclose(enumerate_anchored(ds, theta0, atoms), brute, atol=1e-12)
        assert res.phi == int(res.sup_dev > 0.05)

    def test_matches_brute_force_nrd(self):
        theta0 = random_theta(d=1, seed=62, omega=2.0)
        rows = np.linspace(0.05, 0.95, 12)[:, None]
        ds = generate_dataset(theta0, 12, "NRD", rows, horizon=theta0.horizon, seed=7)
        res = anchored_statistic(ds, theta0, "NRD", None, epsilon=0.2)
        atoms = q_atoms_from_rows(ds.covariates_array())
        assert_allclose(res.sup_dev, brute_anchored(ds, theta0, atoms), atol=1e-10)

    def test_matches_brute_force_d0(self):
        theta0 = Theta.constant(omega=2.0, d=0, horizon=6.0)
        ds = generate_dataset(theta0, 10, "RD", UniformQ(0), horizon=6.0, seed=3)
        atoms = q_atoms_from_law(UniformQ(0))
        res = anchored_statistic(ds, theta0, "RD", atoms, epsilon=0.2)
        assert_allclose(res.sup_dev, brute_anchored(ds, theta0, atoms), atol=1e-12)

    def test_single_tail_record(self):
        theta0 = Theta.constant(omega=2.0, d=1, horizon=8.0)
        ds = SurvivalDataset(
            times=(6.0,), covariates=((0.5,),), design="RD",
            q_descriptor={"family": "uniform", "d": 1}, horizon=8.0,
        )
        res = anchored_statistic(ds, theta0, "RD", None, epsilon=0.2)
        f_t1 = 1.0 - math.exp(-6.0)
        assert res.sup_dev >= f_t1 - 1e-9
        atoms = q_atoms_from_law(UniformQ(1))
        assert_allclose(res.sup_dev, brute_anchored(ds, theta0, atoms), atol=1e-10)

    @pytest.mark.parametrize("seed", [17, 19, 20])
    def test_fine_grid_sup_bounds_anchored(self, seed):
        # the statistic scores closed data-anchored rectangles; the fine
        # anchors include the data anchors, so their sup can only be larger
        theta0 = random_theta(d=1, seed=63, omega=2.0)
        ds = self._uniform_dataset(theta0, 8, seed=seed)
        atoms = q_atoms_from_law(UniformQ(1))
        anchored = anchored_statistic(ds, theta0, "RD", atoms, epsilon=0.2).sup_dev
        fine_t = np.unique(np.concatenate(
            [np.linspace(0.0, theta0.horizon, 80), ds.times_array(), [0.0, theta0.horizon]]
        ))
        fine_x = np.unique(np.concatenate(
            [np.linspace(0.0, 1.0, 25), ds.covariates_array()[:, 0]]
        ))
        fine = brute_anchored(ds, theta0, atoms, anchors_x=fine_x, anchors_t=fine_t)
        assert fine >= anchored - 1e-10
        assert fine - anchored <= 1.0 / ds.n + 0.02

    def test_null_accepts_and_power_rejects(self):
        theta0 = Theta.constant(omega=2.0, d=1, horizon=12.0)
        null_ds = self._uniform_dataset(theta0, 2000, seed=5)
        res0 = anchored_statistic(null_ds, theta0, "RD", None, epsilon=0.3)
        assert res0.phi == 0
        assert res0.sup_dev < 0.075

        theta_alt = Theta.constant(omega=4.0, d=1, horizon=12.0)
        alt_ds = generate_dataset(theta_alt, 2000, "RD", UniformQ(1), horizon=12.0, seed=6)
        res1 = anchored_statistic(alt_ds, theta0, "RD", None, epsilon=0.2)
        assert res1.phi == 1
        assert abs(res1.sup_dev - 0.25) < 0.06

    @pytest.mark.parametrize("case", ["rd_null", "rd_alternative", "nrd", "one_row_tail", "ties"])
    def test_matches_prefix_sum_enumeration(self, case):
        # m = n + 2 anchors: 302 is a multiple of neither block size, and
        # 321 = 5 * 64 + 1 leaves a one-row last block and last run
        theta0 = random_theta(d=1, seed=64, omega=2.0)
        if case == "rd_null":
            ds = self._uniform_dataset(theta0, 300, seed=31)
        elif case == "rd_alternative":
            truth = random_theta(d=1, seed=65, omega=4.0)
            ds = generate_dataset(truth, 300, "RD", UniformQ(1), horizon=truth.horizon, seed=32)
        elif case == "nrd":
            rows = np.random.default_rng(33).random((300, 1))
            ds = generate_dataset(theta0, 300, "NRD", rows, horizon=theta0.horizon, seed=34)
        elif case == "one_row_tail":
            theta0 = Theta.constant(omega=2.0, d=1, horizon=12.0)
            ds = self._uniform_dataset(theta0, 319, seed=35)
        else:
            base = self._uniform_dataset(theta0, 300, seed=36)
            xs = np.round(base.covariates_array()[:, 0] * 40.0) / 40.0
            times = np.minimum(np.round(base.times_array() * 20.0) / 20.0, theta0.horizon)
            ds = SurvivalDataset(
                times=tuple(times.tolist()), covariates=tuple((v,) for v in xs.tolist()),
                design="RD", q_descriptor=base.q_descriptor, horizon=base.horizon,
            )
            assert len(np.unique(xs)) < 50 and len(np.unique(times)) < 100
        res = anchored_statistic(ds, theta0, ds.design, None, epsilon=0.2)
        atoms = vc._reference_atoms(ds, None)
        assert_allclose(res.sup_dev, enumerate_anchored(ds, theta0, atoms), atol=1e-10)
        emp = empirical_measure(ds, res.argmax)
        ref = measure_mu(theta0, res.argmax, ds.design, atoms)
        assert_allclose(abs(emp - ref), res.sup_dev, atol=1e-10)

    @pytest.mark.parametrize("design, cells", [("RD", 64), ("RD", 2), ("NRD", None)])
    def test_every_bound_covers_its_pairs(self, design, cells):
        # 152 anchors: three blocks of 64, ten runs of 16, the last short.
        # With two atoms the reference is flat across most runs, where
        # summaries are tightest; under NRD it changes at every anchor.
        theta0 = random_theta(d=1, seed=66, omega=2.0)
        rows_x = np.random.default_rng(37).random((150, 1))
        q = UniformQ(1) if design == "RD" else rows_x
        ds = generate_dataset(theta0, 150, design, q, horizon=theta0.horizon, seed=38)
        atoms = vc.resolve_atoms(design, q, cells)
        values = anchored_pair_values(ds, theta0, atoms)
        anchors_t = np.unique(np.concatenate([[0.0, theta0.horizon], ds.times_array()]))
        rows = vc._AnchorRows(ds.times_array(), ds.covariates_array()[:, 0], atoms, theta0, anchors_t,
                              design)
        m, block, run = len(values), vc._BLOCK, vc._SUB
        blocks, runs = -(-m // block), -(-m // run)
        assert not rows.corner_cache and not rows.cache

        def covers(bound, i0, i1, j0, j1):
            assert bound + rows.slack >= values[i0:i1, j0:j1].max()

        # block envelopes are the elementwise extremes of their rows
        for side, block_env in (("p", rows.p_block), ("q", rows.q_block)):
            built = [rows.rows(side, r) for r in range(runs)]
            le_all = np.concatenate([x[0] for x in built])
            lt_all = np.concatenate([x[1] for x in built])
            for g in range(blocks):
                le, lt = le_all[g * block: g * block + block], lt_all[g * block: g * block + block]
                extremes = (le.max(axis=0), lt.min(axis=0), le.min(axis=0), lt.max(axis=0))
                for got, want in zip(block_env, extremes):
                    assert_allclose(got[g], want, rtol=0.0, atol=rows.slack)
        # corners built on demand, and the envelopes of the right runs' rows
        p_corner, q_corner, p_coarse, q_coarse = (
            np.concatenate(c, axis=1) for c in zip(*map(rows.corners, range(blocks)))
        )
        assert len(rows.corner_cache) == blocks
        p_env = np.stack([np.stack(rows.rows("p", r)[2]) for r in range(runs)], axis=1)
        assert_array_equal(p_env, np.stack(
            [np.stack(vc._envelope(*rows.rows("p", r)[:2])) for r in range(runs)], axis=1
        ))
        assert p_corner.shape == q_corner.shape == p_env.shape == (4, runs, len(anchors_t))
        if design == "RD":
            digest = hashlib.sha256()
            for x in (p_corner, q_corner, p_env):
                digest.update(x.tobytes())
            assert digest.hexdigest() == SUMMARY_DIGESTS[cells]
        # every bound the search takes covers the pairs it stands for
        for size, p, q in ((block, rows.p_block, rows.q_block), (run, p_corner, q_corner)):
            for jg in range(-(-m // size)):
                for ig in range(jg + 1):
                    bound = vc._pair_bound(p[:, jg], q[:, ig])
                    covers(bound, ig * size, ig * size + size, jg * size, jg * size + size)
        for i in range(m):
            le, lt = (x[i % run] for x in rows.rows("q", i // run)[:2])
            for jr in range(i // run, runs):
                for p in (p_corner, p_env):
                    bound = vc._pair_bound(p[:, jr], (le, lt, le, lt))
                    covers(bound, i, i + 1, jr * run, jr * run + run)
        # the coarse summaries kept beside them are _coarse of them, and
        # every coarse bound is at least the full bound it stands in for
        for coarse, summary in ((rows.p_coarse, rows.p_block), (rows.q_coarse, rows.q_block),
                                (p_coarse, p_corner), (q_coarse, q_corner)):
            assert_array_equal(coarse, vc._coarse(summary))
        for r in range(runs):
            le, lt, coarse = rows.rows("q", r)
            assert_array_equal(coarse, vc._coarse((le, lt, le, lt)))
        assert coarse_margins(rows, vc._coarse).min() >= 0.0

    @pytest.mark.parametrize("n, time_anchors", [(11, 13), (158, 160)])
    def test_coarse_bound_covers_the_full_bound(self, n, time_anchors):
        # fewer time anchors than one coarse run, and a whole number of runs
        theta0 = random_theta(d=1, seed=67, omega=2.0)
        ds = generate_dataset(theta0, n, "RD", UniformQ(1), horizon=theta0.horizon, seed=39)
        anchors_t = np.unique(np.concatenate([[0.0, theta0.horizon], ds.times_array()]))
        assert len(anchors_t) == time_anchors
        rows = vc._AnchorRows(ds.times_array(), ds.covariates_array()[:, 0],
                              q_atoms_from_law(UniformQ(1)), theta0, anchors_t, "RD")
        assert coarse_margins(rows, vc._coarse).min() >= 0.0
        # the check has teeth: the wrong extreme for le_up falls below
        assert coarse_margins(rows, coarse_with_wrong_le_up).min() < 0.0

    def test_pruning_ceiling(self):
        # counts repeat exactly, so this guards pruning without a clock:
        # the search this one replaced expanded 1360 rows on this dataset
        theta0 = Theta.constant(2.0, 1, 20.0)
        ds = generate_dataset(theta0, 2000, "RD", UniformQ(1), horizon=20.0, seed=2)
        res = anchored_statistic(ds, theta0, "RD", None, epsilon=0.3)
        assert res.rows_expanded <= ROWS_EXPANDED_CEILING
        assert res.block_pairs_bounded == 32 * 33 // 2

    @pytest.mark.parametrize("omega, n, seed, epsilon, want", [
        # recorded when every block built its own reference rows; the share
        # builds (last counter) were 51 and 50 while the construction sweep
        # stored every run's corners and envelopes, and 127 and 55 while
        # every node was bounded on the full time axis before it entered
        # the heap; the blocks whose corners are built on demand are all 32
        # and 5 of 47
        (2.0, 2000, 2, 0.3, (0.03922665531404829, (0.022629350939928503, 1.2557450074174716),
                             (0.25850636190238185, 0.9608195040934834), (528, 5976, 3, 32, 96))),
        (4.0, 3000, 3, 0.2, (0.26454024443918966, (4.2559547702804116e-06, 0.6675115527280868),
                             (0.008039102514709406, 0.9915557317953035), (1128, 64, 2, 5, 55))),
    ])
    def test_rd_reference_rows_built_once(self, monkeypatch, omega, n, seed, epsilon, want):
        # the benchmark's anchored-test sizes: n = 2000 and 3000 against 64 cells
        theta0 = Theta.constant(2.0, 1, 20.0)
        truth = Theta.constant(omega, 1, 20.0)
        ds = generate_dataset(truth, n, "RD", UniformQ(1), horizon=20.0, seed=seed)
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return survival_matrix(*args)

        monkeypatch.setattr(vc, "survival_matrix", counted)
        res = anchored_statistic(ds, theta0, "RD", None, epsilon=epsilon)
        # every atom's link row under the constant theta0 is the same, so
        # one row is evaluated for all 64
        assert calls == [1] and res.reference_rows == 1
        counters = (res.block_pairs_bounded, res.sub_pairs_bounded, res.rows_expanded,
                    res.corner_blocks, res.block_builds)
        assert (res.sup_dev, res.argmax.time, res.argmax.box[0], counters) == want
        # the per-block path (the NRD one) gives the same search, building
        # rows of the same atoms again
        per_block = vc._AnchorRows
        monkeypatch.setattr(vc, "_AnchorRows", lambda *args: per_block(*args[:-1], "NRD"))
        calls.clear()
        again = anchored_statistic(ds, theta0, "RD", None, epsilon=epsilon)
        assert again == res
        assert again.reference_rows == sum(calls) > 64

    def test_traced_peak_stays_below_the_run_summaries(self):
        # the n = 3000 case above: with every run's corners and envelopes
        # held, 77.5 MiB of them alone, the traced peak was 89.9 MiB
        theta0 = Theta.constant(2.0, 1, 20.0)
        truth = Theta.constant(4.0, 1, 20.0)
        ds = generate_dataset(truth, 3000, "RD", UniformQ(1), horizon=20.0, seed=3)
        tracemalloc.start()
        try:
            anchored_statistic(ds, theta0, "RD", None, epsilon=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45 * 2 ** 20

    def test_argmax_rectangle_reproduces_value(self):
        theta0 = Theta.constant(omega=2.0, d=1, horizon=12.0)
        ds = self._uniform_dataset(theta0, 200, seed=15)
        res = anchored_statistic(ds, theta0, "RD", None, epsilon=0.2)
        emp = empirical_measure(ds, res.argmax)
        ref = measure_mu(theta0, res.argmax, "RD", q_atoms_from_law(UniformQ(1)))
        assert_allclose(abs(emp - ref), res.sup_dev, atol=1e-10)

    def test_as_record(self):
        theta0 = Theta.constant(omega=2.0, d=1, horizon=12.0)
        ds = self._uniform_dataset(theta0, 50, seed=19)
        rec = _test_stat_record(anchored_statistic(ds, theta0, "RD", None, epsilon=0.2))
        assert set(rec) == {
            "n", "d", "epsilon", "sup_dev", "phi", "threshold",
            "expected_dev_bound", "type1_bound",
            "block_pairs_bounded", "sub_pairs_bounded", "rows_expanded", "block_builds",
            "timings",
        }
        assert rec["block_pairs_bounded"] == 1 and rec["block_builds"] >= 1
        assert set(rec["timings"]) == {"build_s", "search_s", "corner_blocks", "fine_bounds",
                                       "reference_rows"}
        assert rec["timings"]["build_s"] > 0 and rec["timings"]["search_s"] > 0
        assert rec["timings"]["corner_blocks"] == 1
        assert rec["timings"]["reference_rows"] == 1
        assert rec["n"] == 50
        assert rec["threshold"] == 0.05

    def test_errors(self):
        theta0 = Theta.constant(omega=2.0, d=1, horizon=6.0)
        ds = self._uniform_dataset(theta0, 20, seed=21)
        with pytest.raises(DomainError):
            anchored_statistic(ds, theta0, "NRD", None, epsilon=0.2)
        with pytest.raises(DomainError):
            anchored_statistic(ds, theta0, "RD", None, epsilon=0.0)
        with pytest.raises(DomainError):
            empty = SurvivalDataset(times=(), covariates=(), design="RD",
                                    q_descriptor={"family": "uniform", "d": 1}, horizon=6.0)
            anchored_statistic(empty, theta0, "RD", None, epsilon=0.2)
        far = SurvivalDataset(times=(9.0,), covariates=((0.5,),), design="RD",
                              q_descriptor={"family": "uniform", "d": 1}, horizon=9.0)
        with pytest.raises(DomainError):
            anchored_statistic(far, theta0, "RD", None, epsilon=0.2)
        unknown = SurvivalDataset(times=(1.0,), covariates=((0.5,),), design="RD",
                                  q_descriptor={"family": "mystery"}, horizon=6.0)
        with pytest.raises(DomainError):
            anchored_statistic(unknown, theta0, "RD", None, epsilon=0.2)
        ok = anchored_statistic(unknown, theta0, "RD", UniformQ(1), epsilon=0.2)
        assert ok.n == 1

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_refused(self, epsilon):
        theta0 = Theta.constant(omega=2.0, d=1, horizon=6.0)
        ds = self._uniform_dataset(theta0, 20, seed=21)
        with pytest.raises(DomainError, match="epsilon must be a positive real"):
            anchored_statistic(ds, theta0, "RD", None, epsilon)
        with pytest.raises(DomainError, match="epsilon must be a positive real"):
            deviation_bounds(20, 1, epsilon)


class TestAnchorRowKernels:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 65])
    def test_row_adds_equal_cumsum(self, dtype, rows):
        rng = np.random.default_rng(rows)
        a = (rng.integers(0, 9, (rows, 103)) if dtype is np.int64
             else rng.standard_normal((rows, 103)) * 10.0 ** rng.integers(-8, 8, (rows, 1)))
        want = np.cumsum(a, axis=0)
        got = vc._cumsum_rows(a)
        assert got is a and got.dtype == want.dtype
        assert_array_equal(got, want)

    @pytest.mark.parametrize("theta0, cells, want_calls", [
        (Theta.constant(2.0, 1, 3.0), 64, [1]),
        (random_theta(d=1, seed=68, omega=2.0), 64, [16, 16, 16, 16]),
    ])
    def test_reference_rows_once_per_distinct_link_row(self, monkeypatch, theta0, cells, want_calls):
        ds = generate_dataset(theta0, 100, "RD", UniformQ(1), horizon=theta0.horizon, seed=40)
        atoms = vc.resolve_atoms("RD", UniformQ(1), cells)
        anchors_t = np.unique(np.concatenate([[0.0, theta0.horizon], ds.times_array()]))
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return survival_matrix(*args)

        monkeypatch.setattr(vc, "survival_matrix", counted)
        rows = vc._AnchorRows(ds.times_array(), ds.covariates_array()[:, 0], atoms, theta0,
                              anchors_t, "RD")
        assert calls == want_calls and rows.reference_rows == sum(want_calls)
        per_atom = np.concatenate([
            rows.node_w[i] * (1.0 - survival_matrix(theta0, rows.node_rows[i: i + 1], anchors_t))
            for i in range(cells)
        ])
        if len(want_calls) == 1:
            assert_array_equal(rows.ref_rows, per_atom)
        else:
            assert_allclose(rows.ref_rows, per_atom, rtol=0.0, atol=rows.slack)
