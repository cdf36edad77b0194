"""Tests for the excursion series, small-ball bound, and their comparators.

The threshold and both series are checked against hand-evaluated terms,
bracketing grids for the monotonicity claims, and small Monte Carlo runs
for the asserted inequality directions.  The bounds are loose, so the
MC checks certify direction only.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gphazard import bounds, cli
from gphazard.bounds import (
    DEFAULT_J_MAX,
    DEFAULT_N_MAX,
    BoundReport,
    TailBoundSpec,
    centred_event_bound,
    compare_centred_event,
    compare_small_ball,
    compare_tail_bound,
    first_positive_centred_tau,
    small_ball_lower_bound,
    tail_bound_series,
    tau_star,
)
from gphazard.errors import DomainError
from gphazard.gp_paths import h_weight, mc_event_probability
from gphazard.kernels import StationaryKernel

LOG2 = math.log(2.0)


def se_kernel():
    return StationaryKernel.se(lengthscale=1.0)


def threshold_holds(d, m, tau):
    # the defining inequality, restated from scratch
    return 9.0 * m * m / (4.0 * math.pi ** 4 * h_weight(d, tau) ** 2) > LOG2


class TestTauStar:
    def test_low_level_oracle(self):
        # root of 9 g(t)^2 m^2 / (4 pi^4) = log 2 for m = 1/6, g the
        # reciprocal weight; bisection against the closed condition
        t = tau_star(0, 1.0 / 6.0)
        assert_allclose(t, 32.867939, atol=1e-3)

    def test_large_level_near_one(self):
        t = tau_star(0, 10.0)
        assert 1.0 < t < 1.01

    def test_huge_level_returns_one(self):
        assert tau_star(0, 1e6) == 1.0

    def test_increasing_in_d(self):
        vals = [tau_star(d, 1.0) for d in range(4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d,m", [(0, 1.0 / 6.0), (0, 1.0), (2, 1.0)])
    def test_brackets_defining_inequality(self, d, m):
        t = tau_star(d, m)
        assert threshold_holds(d, m, t + 1e-3)
        assert not threshold_holds(d, m, t - 1e-3)

    def test_first_double_of_the_strict_inequality(self):
        # the condition as the series evaluates it, c0 > 0, holds at
        # tau_star and fails one double below, over random (d, m)
        rng = np.random.default_rng(20)
        cases = [(0, 1.0 / 6.0), (0, 1.0), (2, 1.0), (5, 1e3 / 6.0)] + list(
            zip(rng.integers(0, 7, 300).tolist(), (10.0 ** rng.uniform(-0.8, 3.0, 300)).tolist())
        )
        for d, m in cases:
            t = tau_star(d, m)
            if t == 1.0:
                continue
            a_chain = 9.0 * m * m / (4.0 * math.pi ** 4)
            below = math.nextafter(t, 0.0)
            assert a_chain * float(bounds._inv_weight_sq(d, below)) - LOG2 <= 0.0, (d, m)
            assert tail_bound_series(TailBoundSpec(d, m, 1.0, t, j_max=1)).c0 > 0.0, (d, m)

    def test_overflowing_threshold_refused(self):
        assert math.isfinite(tau_star(0, 1e-150))
        with pytest.raises(DomainError, match="overflows"):
            tau_star(0, 1e-160)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            tau_star(0, 0.0)
        with pytest.raises(DomainError):
            tau_star(0, -1.0)
        with pytest.raises(DomainError):
            tau_star(0, math.nan)
        with pytest.raises(DomainError):
            tau_star(-1, 1.0)
        with pytest.raises(DomainError):
            tau_star(True, 1.0)


class TestTailBoundSpec:
    def test_defaults(self):
        spec = TailBoundSpec(d=0, m=1.0, kappa0=1.0, tau=10.0)
        assert spec.j_max == DEFAULT_J_MAX == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=-1, m=1.0, kappa0=1.0, tau=10.0),
            dict(d=0, m=0.0, kappa0=1.0, tau=10.0),
            dict(d=0, m=1.0, kappa0=0.0, tau=10.0),
            dict(d=0, m=1.0, kappa0=1.0, tau=1.0),
            dict(d=0, m=1.0, kappa0=1.0, tau=math.inf),
            dict(d=0, m=1.0, kappa0=1.0, tau=10.0, j_max=0),
            dict(d=0, m=1.0, kappa0=1.0, tau=10.0, j_max=True),
            dict(d=0.5, m=1.0, kappa0=1.0, tau=10.0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(DomainError):
            TailBoundSpec(**kwargs)


class TestTailBoundSeries:
    def test_precondition_names_threshold(self):
        with pytest.raises(DomainError, match="32.86"):
            tail_bound_series(TailBoundSpec(d=0, m=1.0 / 6.0, kappa0=1.0, tau=20.0))
        with pytest.raises(DomainError, match="tau_star"):
            tail_bound_series(TailBoundSpec(d=0, m=1.0, kappa0=1.0, tau=2.0))

    def test_terms_positive_and_counted(self):
        r = tail_bound_series(TailBoundSpec(d=0, m=1.0, kappa0=1.0, tau=50.0, j_max=30))
        assert len(r.terms) == 31
        assert all(t > 0 for t in r.terms)
        assert r.value > 0

    def test_value_decreasing_in_tau(self):
        vals = [
            tail_bound_series(TailBoundSpec(d=0, m=1.0, kappa0=1.0, tau=tau)).value
            for tau in (50.0, 60.0, 80.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_value_decreasing_in_level_grid(self):
        vals = [
            tail_bound_series(TailBoundSpec(d=0, m=m, kappa0=1.0, tau=40.0)).value
            for m in (1.0 / 6.0, 0.4, 0.7, 1.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_value_decreasing_in_tau_grid_low_level(self):
        thr = tau_star(0, 1.0 / 6.0)
        vals = [
            tail_bound_series(TailBoundSpec(d=0, m=1.0 / 6.0, kappa0=1.0, tau=thr + off)).value
            for off in (1.0, 4.0, 9.0, 16.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_value_increasing_in_kappa0(self):
        lo = tail_bound_series(TailBoundSpec(d=0, m=1.0, kappa0=1.0, tau=50.0)).value
        hi = tail_bound_series(TailBoundSpec(d=0, m=1.0, kappa0=2.0, tau=50.0)).value
        assert hi > lo

    @pytest.mark.parametrize("d,m,kappa0,tau,j", [(0, 1.0, 1.0, 50.0, 0), (1, 0.8, 1.7, 25.0, 7)])
    def test_term_matches_hand_evaluation(self, d, m, kappa0, tau, j):
        r = tail_bound_series(TailBoundSpec(d=d, m=m, kappa0=kappa0, tau=tau))
        w0 = 1.0 / h_weight(d, tau) ** 2
        wj = 1.0 / h_weight(d, tau + j) ** 2
        c0 = 9.0 * w0 * m * m / (4.0 * math.pi ** 4) - LOG2
        cj = 9.0 * wj * m * m / (4.0 * math.pi ** 4) - LOG2
        ktilde = 2.0 / (1.0 - math.exp(-c0))
        expected = 4.0 * math.exp(-wj * m * m / (32.0 * kappa0)) + ktilde * math.exp(-cj)
        assert_allclose(r.terms[j], expected, rtol=1e-12)
        assert_allclose(r.c0, c0, rtol=1e-12)
        assert_allclose(r.ktilde0, ktilde, rtol=1e-12)

    def test_frozen_value(self):
        r = tail_bound_series(TailBoundSpec(d=0, m=1.0, kappa0=1.0, tau=50.0))
        assert_allclose(r.value, 3.692492961448647e-25, rtol=1e-9)

    def test_truncation_certificate_covers_longer_sums(self):
        # summing far more terms must stay within the short sum's cap
        short = tail_bound_series(TailBoundSpec(d=0, m=1.0 / 6.0, kappa0=1.0, tau=33.0, j_max=5))
        long = tail_bound_series(TailBoundSpec(d=0, m=1.0 / 6.0, kappa0=1.0, tau=33.0, j_max=400))
        assert long.value <= short.value + short.tail_cap
        assert short.tail_cap > 0
        assert "geometric" in short.truncation_note

    def test_record_round_trip(self):
        r = tail_bound_series(TailBoundSpec(d=0, m=1.0, kappa0=1.0, tau=50.0))
        rec = json.loads(json.dumps(asdict(r)))
        assert len(rec["terms"]) == 201
        assert rec["value"] == pytest.approx(r.value)
        assert rec["threshold"] == pytest.approx(tau_star(0, 1.0))


class TestSmallBallLowerBound:
    def test_psi_oracle(self):
        s = small_ball_lower_bound(se_kernel(), 0, 0.1, 2.0)
        assert_allclose(s.psi, 0.009730, atol=1e-6)
        assert_allclose(s.psi, 0.009729479541944542, rtol=1e-12)

    def test_psi_dimension_invariant(self):
        # the weight ratio cancels the d+1 factor
        ps = [small_ball_lower_bound(se_kernel(), d, 0.1, 2.0).psi for d in (0, 1, 3)]
        assert_allclose(ps, ps[0], rtol=1e-14)

    def test_small_radius_reports_nonconvergent_zero(self):
        s = small_ball_lower_bound(se_kernel(), 0, 0.1, 2.0)
        assert s.converged is False
        assert s.bound == 0.0
        assert s.series_sum == math.inf
        assert "n_max" in s.diagnostic

    def test_bound_in_unit_interval(self):
        for delta in (0.5, 2.0, 5.0, 10.0, 30.0):
            for tau in (1.0, 1.5, 3.0):
                s = small_ball_lower_bound(se_kernel(), 0, delta, tau)
                assert 0.0 <= s.bound <= 1.0

    def test_monotone_nondecreasing_in_delta(self):
        deltas = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
        bounds = [small_ball_lower_bound(se_kernel(), 0, d_, 1.5).bound for d_ in deltas]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] > 0

    def test_converged_case_frozen(self):
        s = small_ball_lower_bound(se_kernel(), 0, 10.0, 1.5)
        assert s.converged is True
        assert_allclose(s.bound, 0.01111052771158121, rtol=1e-10)
        assert_allclose(s.marginal, math.erf(s.psi / (4.0 * math.sqrt(2.0))), rtol=1e-12)

    def test_bound_brackets_partial_sum(self):
        # reported sum includes a tail cap, so the bound sits at or
        # below the bare partial-sum evaluation
        s = small_ball_lower_bound(se_kernel(), 0, 10.0, 1.5)
        a = 9.0 * s.psi ** 2 / (4.0 * math.pi ** 2)
        partial = sum(
            math.exp(-a * n * n + n * LOG2) / -math.expm1(-a * n * n)
            for n in range(1, DEFAULT_N_MAX + 1)
        )
        assert s.series_sum >= partial
        assert s.bound <= s.marginal ** 2 * math.exp(-partial)

    def test_ou_kernel_accepted(self):
        s = small_ball_lower_bound(StationaryKernel.ou(lengthscale=1.0), 0, 10.0, 1.5)
        assert s.converged and s.bound > 0

    def test_constant_kernel_rejected(self):
        with pytest.raises(DomainError, match="increment"):
            small_ball_lower_bound(StationaryKernel.constant(variance=1.0), 0, 1.0, 1.5)

    def test_rejects_bad_inputs(self):
        k = se_kernel()
        with pytest.raises(DomainError):
            small_ball_lower_bound(k, 0, 0.0, 1.5)
        with pytest.raises(DomainError):
            small_ball_lower_bound(k, 0, 1.0, 0.9)
        with pytest.raises(DomainError):
            small_ball_lower_bound(k, 0, 1.0, 1.5, n_max=0)
        with pytest.raises(DomainError):
            small_ball_lower_bound(k, 0, 1.0, 1.5, n_max=True)
        with pytest.raises(DomainError):
            small_ball_lower_bound(k, -1, 1.0, 1.5)

    def test_record_round_trip(self):
        s = small_ball_lower_bound(se_kernel(), 0, 10.0, 1.5)
        rec = json.loads(json.dumps(asdict(s)))
        assert rec["converged"] is True
        assert rec["bound"] == pytest.approx(s.bound)


class TestCentredEventBound:
    def test_threshold_enforced(self):
        with pytest.raises(DomainError, match="32.86"):
            centred_event_bound(se_kernel(), 0, 1.0, 30.0)

    def test_lower_in_unit_interval(self):
        thr = tau_star(0, 1.0 / 6.0)
        ce = centred_event_bound(se_kernel(), 0, 1.0, thr + 2.0)
        assert 0.0 <= ce.lower <= 1.0

    def test_tail_factor_improves_with_tau(self):
        thr = tau_star(0, 1.0 / 6.0)
        tails = [
            centred_event_bound(se_kernel(), 0, 1.0, thr + off).tail_value
            for off in (1.0, 5.0, 15.0)
        ]
        assert tails[0] > tails[1] > tails[2]

    def test_uses_halved_delta_radius(self):
        thr = tau_star(0, 1.0 / 6.0)
        ce = centred_event_bound(se_kernel(), 0, 3.0, thr + 2.0)
        direct = small_ball_lower_bound(se_kernel(), 0, 1.5, thr + 2.0)
        assert_allclose(ce.small_ball.psi, direct.psi, rtol=1e-14)

    def test_positive_configuration_consistent(self):
        # delta far beyond the consistency range, chosen only so the
        # certificate clears double-precision underflow
        ce = centred_event_bound(se_kernel(), 0, 3e4, 130.0)
        assert ce.lower > 0
        expected = ce.small_ball.bound * max(0.0, 1.0 - ce.tail_value)
        assert_allclose(ce.lower, expected, rtol=1e-12)

    def test_first_positive_scan(self):
        k = se_kernel()
        assert first_positive_centred_tau(k, 0, 3e4, [40.0, 90.0, 130.0]) == 90.0
        assert first_positive_centred_tau(k, 0, 3e4, [5.0, 20.0]) is None
        assert first_positive_centred_tau(k, 0, 3e4, []) is None
        thr = tau_star(0, 1.0 / 6.0)
        assert first_positive_centred_tau(k, 0, 1.0, [thr + 1.0, thr + 3.0]) is None

    def test_record_round_trip(self):
        thr = tau_star(0, 1.0 / 6.0)
        ce = centred_event_bound(se_kernel(), 0, 1.0, thr + 2.0)
        rec = json.loads(json.dumps(asdict(ce)))
        assert rec["threshold"] == pytest.approx(thr)
        assert rec["lower"] == pytest.approx(ce.lower)


class TestComparators:
    def test_tail_comparator_direction(self):
        t = tau_star(0, 1.0) + 10.0
        rep = compare_tail_bound(se_kernel(), 0, 1.0, t, level=8, reps=2000, seed=11)
        assert rep.lemma_id == "tail_series"
        assert rep.verdict == "pass"
        assert rep.mc_estimate <= rep.analytic_value + 3.0 * rep.ci

    def test_small_ball_comparator_trivial_bound(self):
        rep = compare_small_ball(se_kernel(), 0, 1.0, 1.5, level=8, reps=2000, seed=12)
        assert rep.lemma_id == "small_ball"
        assert rep.verdict == "pass"
        assert rep.analytic_value == 0.0

    def test_small_ball_comparator_positive_bound(self):
        rep = compare_small_ball(se_kernel(), 0, 10.0, 1.5, level=8, reps=2000, seed=13)
        assert rep.verdict == "pass"
        assert rep.analytic_value > 0
        assert rep.mc_estimate >= rep.analytic_value - 3.0 * rep.ci

    def test_centred_comparator_direction(self):
        thr = tau_star(0, 1.0 / 6.0)
        rep = compare_centred_event(
            se_kernel(), 0, 1.0, thr + 2.0, horizon_pad=10.0, level=8, reps=1000, seed=14
        )
        assert rep.lemma_id == "centred_event"
        assert rep.verdict == "pass"
        assert rep.mc_estimate >= rep.analytic_value - 3.0 * rep.ci

    def test_cli_comparator_hits_pinned(self, tmp_path, monkeypatch):
        # The verify-bounds comparators at the CLI defaults (level 9, 20 000
        # reps) and seed 5: hit counts (joint, marginals), recorded before
        # the Monte Carlo copy of the factor had its subnormal entries
        # flushed.  The tail and centred grids ([0, tau* + 40] and [0, 140])
        # are the ones whose factors hold subnormals.  The tail event has no
        # hits at any seed tried, so the exactness test in test_gp_paths.py
        # carries that grid.
        seen = []

        def recording(*args, **kwargs):
            seen.append(mc_event_probability(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(bounds, "mc_event_probability", recording)
        cli._cmd_verify_bounds({"level": 9, "reps": 20_000}, 5, tmp_path)
        hits = [(round(rep.p_joint * rep.reps), tuple(round(p * rep.reps) for p in rep.p_marginals))
                for rep in seen]
        assert hits == [(0, (0,)), (35, (35,)), (15471, (15471,)), (1851, (1851, 20000))]

    def test_report_record(self):
        rep = BoundReport("tail_series", 0.5, 0.4, 0.01, "pass", 1e-10, 0.25)
        rec = json.loads(json.dumps(asdict(rep)))
        assert rec == {
            "lemma_id": "tail_series",
            "analytic_value": 0.5,
            "mc_estimate": 0.4,
            "ci": 0.01,
            "verdict": "pass",
            "jitter": 1e-10,
            "mc_seconds": 0.25,
        }
