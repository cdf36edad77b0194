"""Tests for the divergence diagnostics and neighborhood checks.

With all paths identically zero the model is a constant-hazard law, so
the log ratio and its first two moments have textbook closed forms; those
anchor the quadrature, and adaptive quad on every knot cell pins it on
random truths.  The neighborhood, sup-inequality, and bound assembly checks
exercise every displayed inequality on sampled members.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import expit, polygamma

from gphazard.errors import DomainError, GenerationError, NumericError
from gphazard.gp_paths import DyadicGrid, TimeGrid
from gphazard.hazard import Covariate, HazardCurve, TableQ, Theta, UniformQ
from gphazard.kl import (
    BSetParams,
    KlBounds,
    MomentInputs,
    analytic_kl_bounds,
    b_set_membership,
    default_cutoff,
    kl_aggregate,
    kl_terms,
    link_sup_check,
    moment_checks,
    moments_for,
    sample_b_member,
    upsilon,
)

from conftest import random_theta0

LN2 = math.log(2.0)


def exp_pair(horizon=20.0):
    """Omega 2 vs 1 with zero paths: true law Exp(1), candidate Exp(1/2)."""
    return Theta.constant(2.0, 0, horizon), Theta.constant(1.0, 0, horizon)


def knot_edges(t_cut, *thetas, cuts=()):
    """Breakpoints of the oracle: 0, t_cut, the cuts and every knot below t_cut."""
    knots = np.concatenate([theta.grid.as_array() for theta in thetas])
    return np.union1d(knots[knots < t_cut], [0.0, t_cut, *cuts])


def cell_law(c, a, b):
    """Y and the cumulative hazard of curve c on the cell [a, b], scalar in t.

    Y is linear on the cell, so int_a^t sigmoid(Y) is
    log1p(sigmoid(Y(a)) expm1(dY)) / slope: exact, and cheap enough for quad.
    """
    ya = float(c.y_at(a))
    slope = (float(c.y_at(b)) - ya) / (b - a)
    lam_a, sig_a = float(c.cum_hazard_at(a)), expit(ya)

    def law(t):
        dy = slope * (t - a)
        rise = sig_a * (t - a) if slope == 0.0 else math.log1p(sig_a * math.expm1(dy)) / slope
        return ya + dy, lam_a + c.theta.omega * rise

    return law


def cell_quad(integrand, edges):
    """Adaptive quad on each cell between edges; integrand(a, b) is f on [a, b]."""
    return np.array([
        quad(integrand(a, b), a, b, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    ])


def body_oracle(theta0, theta, x, t_cut):
    """int_0^t_cut of ups f0 and ups^2 f0, the log ratio ups = log f0 - log f."""
    c0, c1 = HazardCurve(theta0, x), HazardCurve(theta, x)

    def log_f(law, omega, t):
        y, lam = law(t)
        return math.log(omega) - math.log1p(math.exp(-y)) - lam

    def moment(p):
        def integrand(a, b):
            law0, law1 = cell_law(c0, a, b), cell_law(c1, a, b)

            def f(t):
                log_f0 = log_f(law0, theta0.omega, t)
                return (log_f0 - log_f(law1, theta.omega, t)) ** p * math.exp(log_f0)

            return f

        return integrand

    edges = knot_edges(t_cut, theta0, theta)
    return cell_quad(moment(1), edges).sum(), cell_quad(moment(2), edges).sum()


def moment_oracle(theta0, x, t_cut, cuts):
    """E(T 1{T>a}), E(T^2 1{T>a}) and S(a) per cut a: the body by quad, the
    part past t_cut by the envelope S(t_cut) e^{-omega0 sigma_min (t - t_cut)}."""
    c = HazardCurve(theta0, x)
    knots = theta0.grid.as_array()
    rate = theta0.omega * expit(np.min(c.y_at(np.append(knots[knots <= t_cut], t_cut))))
    s_h = c.survival_at(t_cut)
    edges = knot_edges(t_cut, theta0, cuts=cuts)

    def moment(p):
        def integrand(a, b):
            law = cell_law(c, a, b)
            return lambda t: p * t ** (p - 1) * math.exp(-law(t)[1])

        return integrand

    first, second = cell_quad(moment(1), edges), cell_quad(moment(2), edges)
    out = []
    for a in cuts:
        past, s_a = edges[:-1] >= a, c.survival_at(a)
        out.append((
            a * s_a + first[past].sum() + s_h / rate,
            a * a * s_a + second[past].sum() + 2.0 * s_h * (t_cut / rate + 1.0 / rate ** 2),
            s_a,
        ))
    return np.array(out).T


class TestBSetParams:
    def test_accepts_tau_one(self):
        p = BSetParams(delta=0.1, tau=1.0, d=1)
        assert p.sup_limit == pytest.approx(0.05)

    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.1, 0.7])
    def test_rejects_delta_outside_open_interval(self, delta):
        with pytest.raises(DomainError):
            BSetParams(delta=delta, tau=2.0, d=0)

    def test_rejects_tau_below_one(self):
        with pytest.raises(DomainError):
            BSetParams(delta=0.1, tau=0.99, d=0)

    @pytest.mark.parametrize("d", [-1, math.nan, True, 1.5], ids=["negative", "nan", "bool", "fraction"])
    def test_rejects_bad_d(self, d):
        with pytest.raises(DomainError, match="d must be"):
            BSetParams(delta=0.1, tau=2.0, d=d)


class TestUpsilon:
    def test_zero_at_equal_parameters(self):
        theta = random_theta0(1, seed=3)
        assert upsilon(theta, theta, (0.3,), 2.5) == 0.0

    def test_constant_hazard_log_ratio_at_one(self):
        theta0, theta1 = exp_pair()
        # log(1/0.5) + (0.5 - 1) * t at t = 1
        assert_allclose(upsilon(theta0, theta1, (), 1.0), LN2 - 0.5, rtol=0, atol=1e-10)

    def test_constant_hazard_log_ratio_at_two(self):
        theta0, theta1 = exp_pair()
        assert_allclose(upsilon(theta0, theta1, (), 2.0), LN2 - 1.0, rtol=0, atol=1e-10)

    def test_rejects_time_past_horizon(self):
        theta0, theta1 = exp_pair(horizon=5.0)
        with pytest.raises(DomainError):
            upsilon(theta0, theta1, (), 6.0)

    def test_rejects_nonpositive_time(self):
        theta0, theta1 = exp_pair()
        with pytest.raises(DomainError):
            upsilon(theta0, theta1, (), 0.0)


class TestQuadrature:
    def test_default_clips_to_horizon(self):
        theta0 = Theta.constant(2.0, 0, 12.0)
        assert default_cutoff(theta0) == pytest.approx(12.0)
        theta_long = Theta.constant(2.0, 0, 50.0)
        assert default_cutoff(theta_long) == pytest.approx(20.0)

    def test_rejects_nonpositive_cutoff(self):
        theta0, theta1 = exp_pair()
        with pytest.raises(DomainError):
            kl_terms(theta0, theta1, (), 0.0)

    @pytest.mark.parametrize("t_cut", [math.nan, 0.0, -1.0, 15.0, 25.0])
    @pytest.mark.parametrize("entry", ["kl_terms", "kl_aggregate", "moments_for", "moment_checks"])
    def test_rejects_bad_cutoff(self, entry, t_cut):
        # theta0 lives on [0, 20] and theta on [0, 12], so 15 is past the second only
        theta0, theta = Theta.constant(2.0, 0, 20.0), Theta.constant(1.0, 0, 12.0)
        calls = {
            "kl_terms": lambda: kl_terms(theta0, theta, (), t_cut),
            "kl_aggregate": lambda: kl_aggregate(theta0, theta, "NRD", xs=[()], t_cut=t_cut),
            "moments_for": lambda: moments_for(theta, (), 2.0, t_cut),
            "moment_checks": lambda: moment_checks(theta, "NRD", xs=[()], t_cut=t_cut),
        }
        with pytest.raises(DomainError):
            calls[entry]()

    @pytest.mark.parametrize("omega0", [0.3, 2.0, 6.0])
    @pytest.mark.parametrize("d", [0, 1])
    def test_body_matches_cellwise_quad(self, d, omega0):
        # The candidate's knots (horizon 22) interleave the truth's (horizon
        # 24).  Its scale is 1.5 to 3 times omega0, which keeps K above about
        # 0.07: the log ratio is a difference of cumulative hazards of size up
        # to 40, so rule and oracle each carry about 1e-14 absolute error.
        rng = np.random.default_rng([d, int(10 * omega0)])
        for _ in range(3):
            theta0 = random_theta0(d, seed=int(rng.integers(1 << 30)), omega0=omega0)
            theta = random_theta0(d, seed=int(rng.integers(1 << 30)), horizon=22.0,
                                  omega0=omega0 * float(rng.uniform(1.5, 3.0)))
            x = tuple(rng.uniform(0.0, 1.0, d))
            terms = kl_terms(theta0, theta, x)
            want = body_oracle(theta0, theta, x, terms.t_cut)
            assert_allclose([terms.k_body, terms.v2_body], want, rtol=1e-12, atol=0)

    def test_body_resolves_a_steep_cell(self):
        # Y rises by 30 across [4, 4.5], where omega0 * width is only 1
        grid = TimeGrid((0.0, 4.0, 4.5, 12.0))
        theta0 = Theta.from_values(2.0, grid, [[-5.0, -5.0, 25.0, 25.0]])
        theta = Theta.from_values(1.5, grid, [[0.0, 0.5, 0.3, -0.2]])
        terms = kl_terms(theta0, theta, ())
        want = body_oracle(theta0, theta, (), terms.t_cut)
        assert_allclose([terms.k_body, terms.v2_body], want, rtol=1e-12, atol=0)


class TestKlTerms:
    def test_equal_parameters_give_exact_zeros(self):
        theta = random_theta0(1, seed=11)
        terms = kl_terms(theta, theta, (0.6,))
        assert terms.k == 0.0 and terms.v == 0.0
        assert terms.k_tail_bound == 0.0 and terms.v2_tail_bound == 0.0

    def test_equal_valued_copy_gives_exact_zeros(self):
        theta = random_theta0(0, seed=12)
        copy = Theta.from_values(theta.omega, theta.grid, [p.values for p in theta.paths])
        assert kl_terms(theta, copy, ()).k == 0.0

    def test_sigma_min_reaches_a_knot_between_nodes(self):
        # Y dips to -3 at a knot that no uniform grid of [0, 20] hits
        grid = TimeGrid((0.0, 1.2345, 20.0))
        theta0 = Theta.from_values(2.0, grid, [[0.0, -3.0, 0.0]])
        terms = kl_terms(theta0, Theta.constant(1.0, 0, 20.0), ())
        assert terms.sigma_min == expit(-3.0)

    def test_sigma_min_is_the_minimum_over_knots_and_cut(self):
        for seed in range(20):
            theta0 = random_theta0(0, seed=seed)
            knots, y = np.asarray(theta0.grid.points), np.asarray(theta0.paths[0].values)
            for t_cut in (default_cutoff(theta0), 7.3):
                exact = float(np.min(expit(np.append(y[knots <= t_cut], np.interp(t_cut, knots, y)))))
                assert kl_terms(theta0, theta0, (), t_cut).sigma_min == exact

    def test_constant_hazard_divergence(self):
        theta0, theta1 = exp_pair()
        terms = kl_terms(theta0, theta1, ())
        # KL(Exp(1) || Exp(1/2)) = log 2 + 1/2 - 1
        assert_allclose(terms.k, LN2 - 0.5, rtol=0, atol=1e-6)

    def test_constant_hazard_variance(self):
        theta0, theta1 = exp_pair()
        terms = kl_terms(theta0, theta1, ())
        # Var(log 2 - T/2) under Exp(1) is 1/4
        assert_allclose(terms.v, 0.25, rtol=0, atol=1e-4)

    def test_body_and_tail_decomposition(self):
        theta0, theta1 = exp_pair()
        terms = kl_terms(theta0, theta1, ())
        assert terms.k == pytest.approx(terms.k_body + terms.k_tail_bound, abs=1e-15)
        assert terms.k_tail_bound > 0.0
        assert terms.v == pytest.approx(
            terms.v2_body + terms.v2_tail_bound - terms.k ** 2, abs=1e-15
        )

    def test_divergence_nonnegative_for_random_pairs(self):
        rng = np.random.default_rng(40)
        for rep in range(30):
            d = int(rng.integers(0, 2))
            theta0 = random_theta0(d, seed=int(rng.integers(1 << 30)))
            other = random_theta0(d, seed=int(rng.integers(1 << 30)),
                                  omega0=float(rng.uniform(1.0, 4.0)))
            x = tuple(rng.uniform(0.0, 1.0, d))
            assert kl_terms(theta0, other, x).k >= -1e-6

    def test_underflowed_link_raises_numeric_error(self):
        grid = DyadicGrid(20.0, 4)
        low = Theta.from_values(2.0, grid, [[-800.0] * len(grid.points)])
        ref = Theta.constant(2.0, 0, 20.0, level=4)
        with pytest.raises(NumericError):
            kl_terms(low, ref, ())

    def test_runaway_link_raises_numeric_error(self):
        # Y climbs by 2e4 across one cell, which would take 2e4 pieces
        grid = TimeGrid((0.0, 1.0, 20.0))
        steep = Theta.from_values(2.0, grid, [[0.0, 2e4, 2e4]])
        with pytest.raises(NumericError):
            kl_terms(steep, Theta.constant(1.0, 0, 20.0), ())
        assert moment_checks(steep, "NRD", xs=[()], m=5.0).inconclusive

    def test_cutoff_past_horizon_rejected(self):
        theta0, theta1 = exp_pair(horizon=10.0)
        with pytest.raises(DomainError):
            kl_terms(theta0, theta1, (), 15.0)

    def test_dimension_mismatch_rejected(self):
        theta0 = Theta.constant(2.0, 0, 10.0)
        theta1 = Theta.constant(2.0, 1, 10.0)
        with pytest.raises(DomainError):
            kl_terms(theta0, theta1, ())

    def test_record_is_flat_json(self):
        theta0, theta1 = exp_pair()
        rec = asdict(kl_terms(theta0, theta1, ()))
        assert set(rec) == {
            "k", "v", "k_body", "k_tail_bound", "v2_body", "v2_tail_bound",
            "sigma_min", "t_cut",
        }
        json.dumps(rec)


class TestKlAggregate:
    def test_equal_parameters_rd(self):
        theta = Theta.constant(2.0, 1, 20.0)
        agg = kl_aggregate(theta, theta, "RD", q_grid=UniformQ(1))
        assert agg.value == 0.0

    def test_constant_pair_rd_matches_scalar_oracle(self):
        # zero paths make K independent of x, so the Q-average equals it
        theta0 = Theta.constant(2.0, 1, 20.0)
        theta1 = Theta.constant(1.0, 1, 20.0)
        agg = kl_aggregate(theta0, theta1, "RD", q_grid=UniformQ(1))
        assert_allclose(agg.value, LN2 - 0.5, rtol=0, atol=1e-6)
        assert agg.design == "RD" and agg.n is None

    def test_rd_accepts_table_atoms(self):
        theta0 = Theta.constant(2.0, 1, 20.0)
        theta1 = Theta.constant(1.0, 1, 20.0)
        law = TableQ(atoms=((0.2,), (0.8,)), probs=(0.5, 0.5))
        agg = kl_aggregate(theta0, theta1, "RD", q_grid=law)
        assert_allclose(agg.value, LN2 - 0.5, rtol=0, atol=1e-6)
        assert len(agg.per_x) == 2

    def test_nrd_max_and_weighted_variance_sum(self):
        theta0, theta1 = exp_pair()
        n = 1000
        agg = kl_aggregate(theta0, theta1, "NRD", xs=[()] * n)
        assert_allclose(agg.value, LN2 - 0.5, rtol=0, atol=1e-6)
        # V_i identical, so the position-weighted sum is V * sum i^-2
        basel = 0.25 * math.pi ** 2 / 6.0
        assert agg.v_weighted_partial == pytest.approx(basel, abs=3.5e-4)
        assert agg.v_weighted_partial < basel
        v_max = max(v for (_, _, v, _) in agg.per_x)
        assert agg.v_weighted_tail_bound == pytest.approx(
            v_max * float(polygamma(1, n + 1)), rel=1e-12
        )
        assert agg.v_weighted_tail_bound <= v_max / n
        assert agg.v_weighted_partial + agg.v_weighted_tail_bound >= basel

    @staticmethod
    def random_pair(rng):
        """Non-constant d = 1 truth and candidate at 1.5 to 3 times its scale."""
        theta0 = random_theta0(1, seed=int(rng.integers(1 << 30)))
        theta = random_theta0(1, seed=int(rng.integers(1 << 30)), horizon=22.0,
                              omega0=2.0 * float(rng.uniform(1.5, 3.0)))
        return theta0, theta

    def test_rd_rows_match_kl_terms_on_random_pairs(self):
        rng = np.random.default_rng(71)
        for _ in range(3):
            theta0, theta = self.random_pair(rng)
            law = TableQ(atoms=rng.uniform(0.0, 1.0, (5, 1)), probs=rng.dirichlet(np.ones(5)))
            agg = kl_aggregate(theta0, theta, "RD", q_grid=law)
            assert [row for row, _, _, _ in agg.per_x] == list(law.atoms)
            assert [w for _, _, _, w in agg.per_x] == list(law.probs)
            for row, k, v, _ in agg.per_x:
                terms = kl_terms(theta0, theta, row)
                assert_allclose([k, v], [terms.k, terms.v], rtol=1e-12, atol=0)
            want = sum(w * k for _, k, _, w in agg.per_x)
            assert_allclose(agg.value, want, rtol=1e-12, atol=0)

    def test_nrd_rows_match_kl_terms_with_repeats(self):
        rng = np.random.default_rng(72)
        for _ in range(3):
            theta0, theta = self.random_pair(rng)
            atoms = [(float(u),) for u in rng.uniform(0.0, 1.0, 4)]
            xs = [atoms[i] for i in rng.integers(0, 4, 15)]
            agg = kl_aggregate(theta0, theta, "NRD", xs=xs)
            first_seen = list(dict.fromkeys(xs))
            assert [row for row, _, _, _ in agg.per_x] == first_seen
            assert [w for _, _, _, w in agg.per_x] == [xs.count(r) / len(xs) for r in first_seen]
            assert math.fsum(w for _, _, _, w in agg.per_x) == pytest.approx(1.0, abs=1e-15)
            terms = {row: kl_terms(theta0, theta, row) for row in first_seen}
            for row, k, v, _ in agg.per_x:
                assert_allclose([k, v], [terms[row].k, terms[row].v], rtol=1e-12, atol=0)
            assert_allclose(agg.value, max(t.k for t in terms.values()), rtol=1e-12, atol=0)
            partial = sum(terms[x].v / i ** 2 for i, x in enumerate(xs, start=1))
            assert_allclose(agg.v_weighted_partial, partial, rtol=1e-12, atol=0)
            assert agg.n == len(xs)

    def test_nrd_tail_is_cauchy_in_n(self):
        theta0, theta1 = exp_pair()
        tails = [
            kl_aggregate(theta0, theta1, "NRD", xs=[()] * n).v_weighted_tail_bound
            for n in (10, 100, 1000)
        ]
        assert tails[0] > tails[1] > tails[2]

    def test_design_and_argument_validation(self):
        theta0, theta1 = exp_pair()
        with pytest.raises(DomainError):
            kl_aggregate(theta0, theta1, "RD")
        with pytest.raises(DomainError):
            kl_aggregate(theta0, theta1, "NRD", xs=[])
        with pytest.raises(DomainError):
            kl_aggregate(theta0, theta1, "panel", xs=[()])


class TestBSetMembership:
    def setup_method(self):
        self.theta0 = Theta.constant(2.0, 1, 8.0, level=5)
        self.params = BSetParams(delta=0.1, tau=2.0, d=1)

    def shifted(self, shift, omega=2.0):
        vals = [np.asarray(p.values) + shift for p in self.theta0.paths]
        return Theta.from_values(omega, self.theta0.grid, vals)

    def test_reference_is_member_of_its_own_neighborhood(self):
        report = b_set_membership(self.theta0, self.theta0, self.params)
        assert report.member and report.omega_ok
        assert all(report.sup_ok) and all(report.inf_ok)
        assert report.truncated

    def test_omega_outside_band_fails(self):
        theta = self.shifted(0.0, omega=2.0 * (1.0 + 0.2))
        report = b_set_membership(theta, self.theta0, self.params)
        assert not report.omega_ok and not report.member

    def test_sup_boundary_is_inclusive(self):
        theta = self.shifted(self.params.sup_limit)
        report = b_set_membership(theta, self.theta0, self.params)
        assert all(report.sup_ok)

    def test_sup_just_over_fails(self):
        theta = self.shifted(self.params.sup_limit * 1.01)
        report = b_set_membership(theta, self.theta0, self.params)
        assert not any(report.sup_ok) and not report.member

    def test_decay_floor_violation_detected(self):
        # constant path at -1.2 / h_d(tau) dips under the weighted floor
        tau = self.params.tau
        floor = (tau + math.log1p(-math.exp(-tau))) / 2.0
        theta = self.shifted(-1.2 * floor)
        report = b_set_membership(theta, self.theta0, self.params)
        assert not all(report.inf_ok) and not report.member

    def test_tau_at_or_past_horizon_rejected(self):
        with pytest.raises(DomainError):
            b_set_membership(self.theta0, self.theta0, BSetParams(0.1, 8.0, 1))

    def test_dimension_mismatch_rejected(self):
        other = Theta.constant(2.0, 0, 8.0)
        with pytest.raises(DomainError):
            b_set_membership(other, self.theta0, self.params)
        with pytest.raises(DomainError):
            b_set_membership(self.theta0, self.theta0, BSetParams(0.1, 2.0, 0))

    def test_record_is_flat_json(self):
        rec = asdict(b_set_membership(self.theta0, self.theta0, self.params))
        assert rec["member"] is True
        json.dumps(rec)


class TestLinkSupCheck:
    def test_equal_parameters_pass_with_zero_gaps(self):
        theta = Theta.constant(2.0, 1, 8.0)
        params = BSetParams(0.1, 2.0, 1)
        report = link_sup_check(theta, theta, params, [(0.0,), (1.0,)])
        assert report.max_sigma_gap == 0.0 and report.max_logsigma_gap == 0.0
        assert report.passed and not report.vacuous

    def test_boundary_shift_stays_under_cap(self):
        # both paths moved by exactly delta/(1+tau); x = 1 doubles the gap cap
        theta0 = Theta.constant(2.0, 1, 8.0)
        params = BSetParams(0.1, 1.0, 1)
        vals = [np.asarray(p.values) + params.sup_limit for p in theta0.paths]
        theta = Theta.from_values(2.0, theta0.grid, vals)
        report = link_sup_check(theta, theta0, params, [(1.0,)])
        assert report.bound == pytest.approx(0.1)
        assert 0.0 < report.max_sigma_gap <= report.bound
        assert 0.0 < report.max_logsigma_gap <= report.bound
        assert report.passed and not report.vacuous

    def test_every_sampled_member_passes(self):
        rng = np.random.default_rng(5150)
        checked = 0
        for delta in (0.05, 0.1):
            for tau in (2.0, 5.0):
                for d in (0, 1, 2):
                    params = BSetParams(delta, tau, d)
                    for rep in range(10):
                        theta0 = random_theta0(d, seed=int(rng.integers(1 << 30)))
                        theta = sample_b_member(theta0, params, seed=int(rng.integers(1 << 30)))
                        xs = [tuple(rng.uniform(0, 1, d)) for _ in range(5)]
                        report = link_sup_check(theta, theta0, params, xs)
                        assert report.passed and not report.vacuous
                        checked += 1
        assert checked == 120

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_maxima_match_a_per_sample_loop(self, d):
        rng = np.random.default_rng(d)
        params = BSetParams(0.1, 2.0, d)
        theta0 = random_theta0(d, seed=int(rng.integers(1 << 30)))
        theta = sample_b_member(theta0, params, seed=int(rng.integers(1 << 30)))
        xs = [tuple(rng.uniform(0, 1, d)) for _ in range(7)]
        knots = theta0.grid.as_array()  # both share it
        ts = np.union1d(knots[knots <= params.tau], np.linspace(0.0, params.tau, 257))
        sig_gap = log_gap = 0.0
        for x in xs:
            y, y0 = HazardCurve(theta, x).y_at(ts), HazardCurve(theta0, x).y_at(ts)
            sig_gap = max(sig_gap, np.max(np.abs(expit(y) - expit(y0))))
            log_gap = max(log_gap, np.max(np.abs(np.log(expit(y)) - np.log(expit(y0)))))
        report = link_sup_check(theta, theta0, params, xs)
        assert_allclose([report.max_sigma_gap, report.max_logsigma_gap], [sig_gap, log_gap],
                        rtol=1e-12, atol=0)

    def test_nonmember_is_flagged_vacuous(self):
        theta0 = Theta.constant(2.0, 0, 8.0)
        theta = Theta.constant(3.0, 0, 8.0)
        report = link_sup_check(theta, theta0, BSetParams(0.1, 2.0, 0), [()])
        assert report.vacuous

    def test_record_is_flat_json(self):
        theta = Theta.constant(2.0, 0, 8.0)
        rec = asdict(link_sup_check(theta, theta, BSetParams(0.1, 2.0, 0), [()]))
        json.dumps(rec)


class TestAnalyticKlBounds:
    def test_head_bound_example(self):
        bounds = analytic_kl_bounds(
            BSetParams(0.1, 1.0, 1), 2.0, MomentInputs(1.0, 0.0, 0.0, 0.0)
        )
        # 0.1 * (1/0.9 + 2/2 + 2*2 + 2*1) = 73/90
        assert_allclose(bounds.head_bound, 73.0 / 90.0, rtol=1e-12)

    def test_head_bound_vanishes_with_delta(self):
        moments = MomentInputs(1.0, 0.0, 0.0, 2.0)
        small = analytic_kl_bounds(BSetParams(1e-9, 2.0, 1), 2.0, moments)
        assert small.head_bound < 1e-7

    def test_tail_bound_zero_when_tail_moments_vanish(self):
        bounds = analytic_kl_bounds(
            BSetParams(0.1, 5.0, 0), 2.0, MomentInputs(1.0, 0.0, 0.0, 2.0)
        )
        assert bounds.tail_bound == 0.0

    def test_scale_log_constant(self):
        bounds = analytic_kl_bounds(
            BSetParams(0.1, 2.0, 0), 2.0, MomentInputs(0.0, 0.0, 0.0, 0.0)
        )
        assert bounds.k0 == pytest.approx(math.log(2.2), rel=1e-12)
        # below-one band: the lower edge dominates in absolute value
        low = analytic_kl_bounds(
            BSetParams(0.4, 2.0, 0), 1.0, MomentInputs(0.0, 0.0, 0.0, 0.0)
        )
        assert low.k0 == pytest.approx(-math.log(0.6), rel=1e-12)

    def test_variance_bounds_frozen_arithmetic(self):
        bounds = analytic_kl_bounds(
            BSetParams(0.1, 2.0, 1), 2.0, MomentInputs(1.0, 0.2, 0.1, 2.0)
        )
        # 12 d + 1.5 (d+1)^2 d + 6 w^2 d^2 E_T2 + 6 w^2 (d+1)^2 d^2, d = 0.1
        assert_allclose(bounds.var_head_bound, 1.2 + 0.6 + 0.48 + 0.96, rtol=1e-12)
        expected_tail = 2.0 * 5.0 * 0.1 + 6.0 * math.log(2.2) ** 2 * 0.1 + 12.0 + 58.08
        assert_allclose(bounds.var_tail_bound, expected_tail, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            MomentInputs(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            analytic_kl_bounds(BSetParams(0.1, 2.0, 0), 0.0, MomentInputs(0, 0, 0, 0))

    def test_record_is_flat_json(self):
        rec = asdict(analytic_kl_bounds(
            BSetParams(0.1, 2.0, 0), 2.0, MomentInputs(1, 0.1, 0.1, 2)
        ))
        assert isinstance(rec, dict) and "head_bound" in rec
        json.dumps(rec)


class TestMomentsFor:
    def test_constant_hazard_moments(self):
        theta0 = Theta.constant(2.0, 0, 20.0)
        mom = moments_for(theta0, (), tau=2.0)
        assert_allclose(mom.e_t, 1.0, rtol=0, atol=1e-4)
        assert_allclose(mom.e_t2, 2.0, rtol=0, atol=1e-4)
        assert_allclose(mom.p_tail, math.exp(-2.0), rtol=1e-10)
        true_tail = 3.0 * math.exp(-2.0)
        assert true_tail <= mom.e_t_tail <= true_tail + 1e-4

    def test_random_truth_matches_cellwise_quad(self):
        theta0 = random_theta0(1, seed=81)
        x, tau = (0.35,), 3.0
        e_t, e_t2, s = moment_oracle(theta0, x, 20.0, [0.0, tau])
        mom = moments_for(theta0, x, tau)
        assert_allclose(
            [mom.e_t, mom.e_t2, mom.e_t_tail, mom.p_tail], [e_t[0], e_t2[0], e_t[1], s[1]],
            rtol=1e-12, atol=0,
        )

    def test_tau_outside_cutoff_rejected(self):
        theta0 = Theta.constant(2.0, 0, 20.0)
        with pytest.raises(DomainError):
            moments_for(theta0, (), tau=25.0)


class TestMomentChecks:
    def test_constant_hazard_closed_forms(self):
        theta0 = Theta.constant(2.0, 0, 40.0)
        report = moment_checks(theta0, "NRD", xs=[()], m=10.0, delta=0.05)
        assert not report.inconclusive
        assert_allclose(report.a3_estimate, 1.0, rtol=0, atol=1e-4)
        oracle = (100.0 + 20.0 + 2.0) * math.exp(-10.0)
        assert_allclose(report.a3prime_worst, oracle, rtol=0, atol=1e-6)
        assert report.a3_pass and report.a3prime_pass

    def test_truncation_ladder_matches_closed_form_and_decreases(self):
        theta0 = Theta.constant(2.0, 0, 40.0)
        report = moment_checks(theta0, "NRD", xs=[()], m=10.0)
        assert report.ladder_decreasing
        for n, value in report.truncation_ladder:
            assert_allclose(value, (n + 1.0) * math.exp(-n), rtol=0, atol=1e-5)

    def test_random_truth_ladder_matches_cellwise_quad(self):
        theta0 = random_theta0(1, seed=82)
        ns = [1.0, 2.0, 4.0, 8.0]
        report = moment_checks(theta0, "NRD", xs=[(0.2,), (0.9,)], m=10.0)
        e_t, e_t2 = np.max([moment_oracle(theta0, x, 20.0, [0.0, 10.0, *ns])[:2]
                            for x in [(0.2,), (0.9,)]], axis=0)
        assert [n for n, _ in report.truncation_ladder] == ns
        assert_allclose(
            [report.a3_estimate, report.a3prime_worst, *(v for _, v in report.truncation_ladder)],
            [e_t[0], e_t2[1], *e_t[2:]], rtol=1e-12, atol=0,
        )

    def test_small_horizon_is_inconclusive(self):
        theta0 = Theta.constant(2.0, 0, 5.0)
        report = moment_checks(theta0, "NRD", xs=[()], m=10.0)
        assert report.inconclusive and not report.a3_pass

    def test_underflowed_link_is_inconclusive(self):
        grid = DyadicGrid(40.0, 4)
        low = Theta.from_values(2.0, grid, [[-800.0] * len(grid.points)])
        report = moment_checks(low, "NRD", xs=[()], m=10.0)
        assert report.inconclusive

    def test_rd_aggregates_over_law(self):
        theta0 = Theta.constant(2.0, 1, 40.0)
        report = moment_checks(theta0, "RD", q_grid=UniformQ(1), m=10.0)
        # zero paths: every x gives Exp(1), so the average is the scalar value
        assert_allclose(report.a3_estimate, 1.0, rtol=0, atol=1e-4)

    def test_threshold_flag_respects_delta(self):
        theta0 = Theta.constant(2.0, 0, 40.0)
        tight = moment_checks(theta0, "NRD", xs=[()], m=10.0, delta=1e-6)
        assert not tight.a3prime_pass

    def test_design_validation(self):
        theta0 = Theta.constant(2.0, 0, 40.0)
        with pytest.raises(DomainError):
            moment_checks(theta0, "RD", m=10.0)
        with pytest.raises(DomainError):
            moment_checks(theta0, "NRD", xs=[], m=10.0)
        with pytest.raises(DomainError):
            moment_checks(theta0, "RD", q_grid=UniformQ(1), m=10.0)

    def test_record_is_flat_json(self):
        theta0 = Theta.constant(2.0, 0, 40.0)
        json.dumps(asdict(moment_checks(theta0, "NRD", xs=[()], m=10.0)))


class TestSampleBMember:
    def test_samples_are_members_with_omega_in_band(self):
        rng = np.random.default_rng(99)
        for rep in range(40):
            d = int(rng.integers(0, 3))
            delta = float(rng.choice([0.05, 0.1]))
            tau = float(rng.choice([2.0, 5.0]))
            params = BSetParams(delta, tau, d)
            theta0 = random_theta0(d, seed=int(rng.integers(1 << 30)))
            theta = sample_b_member(theta0, params, seed=int(rng.integers(1 << 30)))
            assert b_set_membership(theta, theta0, params).member
            assert abs(theta.omega / theta0.omega - 1.0) < delta

    def test_floor_hugging_reference_raises(self):
        grid = DyadicGrid(24.0, 5)
        low = Theta.from_values(2.0, grid, [[-1000.0] * len(grid.points)])
        with pytest.raises(GenerationError):
            sample_b_member(low, BSetParams(0.05, 2.0, 0), seed=1)

    def test_dimension_mismatch_rejected(self):
        theta0 = Theta.constant(2.0, 1, 8.0)
        with pytest.raises(DomainError):
            sample_b_member(theta0, BSetParams(0.1, 2.0, 0), seed=1)


class TestBoundChain:
    def test_divergence_and_variance_sit_under_their_caps(self):
        # smoke-scale version of the full 200-config acceptance sweep
        rng = np.random.default_rng(2024)
        for delta in (0.05, 0.1):
            for tau in (2.0, 5.0):
                for rep in range(5):
                    d = int(rng.integers(0, 3))
                    omega0 = float(rng.uniform(1.5, 3.0))
                    theta0 = random_theta0(d, seed=int(rng.integers(1 << 30)), omega0=omega0)
                    params = BSetParams(delta, tau, d)
                    theta = sample_b_member(theta0, params, seed=int(rng.integers(1 << 30)))
                    x = tuple(rng.uniform(0.0, 1.0, d))
                    terms = kl_terms(theta0, theta, x)
                    bounds = analytic_kl_bounds(params, omega0, moments_for(theta0, x, tau))
                    assert terms.k >= -1e-6
                    assert terms.k <= bounds.head_bound + bounds.tail_bound + 1e-5
                    assert terms.v <= bounds.var_head_bound + bounds.var_tail_bound + 1e-5
