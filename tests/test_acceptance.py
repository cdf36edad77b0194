"""End-to-end acceptance checks, one verdict line per headline property.

Each test prints `[ k/13] PASS|FAIL <name> (<detail>)` before asserting, so a
`pytest -s tests/test_acceptance.py` run shows the whole scorecard.  Budgets
are wall-clock seconds measured around the check itself.  Monte Carlo checks
run at frozen seeds; the asserted tolerances come from the closed forms or
from 3-standard-error guards, never tuned to the draw.
"""

import math
import time

import numpy as np
from scipy.stats import kstest

from gphazard.bounds import compare_small_ball, compare_tail_bound, tau_star
from gphazard.gp_paths import (
    CI_Z,
    DyadicGrid,
    SupConstraint,
    dyadic_sup_bound,
    mc_event_probability,
    sample_path,
)
from gphazard.hazard import (
    SurvivalDataset,
    Theta,
    UniformQ,
    mc_mean_hazard,
    sample_times_batch,
)
from gphazard.inference import (
    ExperimentSpec,
    McmcConfig,
    ModelPrior,
    OmegaPrior,
    consistency_experiment,
)
from gphazard.kernels import StationaryKernel, check_a1, check_sublinear_integral
from gphazard.kl import (
    BSetParams,
    analytic_kl_bounds,
    kl_terms,
    link_sup_check,
    moments_for,
    sample_b_member,
    upsilon,
)
from gphazard import vc
from gphazard.vc import GridSpec, deviation_bounds, sup_deviation_metric

anchored_statistic = vc.test_statistic

LN2 = math.log(2.0)


def verdict(idx, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{idx:2d}/13] {tag} {name}{suffix}")
    return ok


def se_kernel(lengthscale=1.0):
    return StationaryKernel.se(lengthscale=lengthscale)


def ou_kernel(lengthscale=1.0):
    return StationaryKernel.ou(lengthscale=lengthscale)


def random_theta0(d, seed, omega0=2.0, horizon=24.0, scale=0.3):
    # smooth random truth with amplitude shrinking in d
    grid = DyadicGrid(horizon, 7)
    kern = StationaryKernel.se(lengthscale=3.0, variance=(scale / (d + 1)) ** 2)
    rng = np.random.default_rng(seed)
    vals = [
        np.asarray(sample_path(kern, grid, seed=int(rng.integers(1 << 30))).values)
        for _ in range(d + 1)
    ]
    return Theta.from_values(omega0, grid, vals)


def test_01_exponential_kl_oracle():
    """Zero paths reduce the divergence terms to the two-exponential closed form."""
    start = time.perf_counter()
    theta0 = Theta.constant(2.0, 0, 20.0)
    theta1 = Theta.constant(1.0, 0, 20.0)
    terms = kl_terms(theta0, theta1, ())
    ups = upsilon(theta0, theta1, (), 1.0)
    truth = LN2 - 0.5
    ok_k = abs(terms.k - truth) <= 1e-6
    ok_u = abs(ups - truth) <= 1e-10
    ok_v = abs(terms.v - 0.25) <= 1e-4
    elapsed = time.perf_counter() - start
    ok = ok_k and ok_u and ok_v and elapsed < 1.0
    assert verdict(
        1,
        "exponential divergence oracle",
        ok,
        f"K off {abs(terms.k - truth):.1e}, ups off {abs(ups - truth):.1e}, "
        f"V off {abs(terms.v - 0.25):.1e}, {elapsed:.2f}s",
    )


def test_02_thinning_sampler_ks():
    """1e5 thinning draws from the flat omega=2 model look Exp(1)."""
    start = time.perf_counter()
    theta0 = Theta.constant(2.0, 0, 40.0)
    times, censored = sample_times_batch(theta0, (), 40.0, 100_000, seed=2024)
    pvalue = float(kstest(times[~censored], "expon").pvalue)
    elapsed = time.perf_counter() - start
    ok = pvalue >= 0.01 and int(censored.sum()) == 0 and elapsed < 10.0
    assert verdict(
        2,
        "thinning sampler vs Exp(1)",
        ok,
        f"KS p={pvalue:.3f}, censored={int(censored.sum())}, {elapsed:.2f}s",
    )


def test_03_mean_hazard_identity():
    """Marginal hazard at a point averages to omega/2 for any kernel."""
    start = time.perf_counter()
    gaps = []
    ok = True
    for kern in (se_kernel(), ou_kernel()):
        for omega in (2.0, 6.0):
            est, ci = mc_mean_hazard(omega, (kern,), (), 1.0, 100_000, seed=31)
            gap = abs(est - omega / 2.0)
            guard = 3.0 * ci / CI_Z
            gaps.append(f"{gap:.4f}<={guard:.4f}")
            ok = ok and gap <= guard
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert verdict(3, "mean hazard omega/2 identity", ok, f"{'; '.join(gaps)}, {elapsed:.1f}s")


def constant_model_dataset(theta, n, seed):
    """n records from a constant-path model: times by batch thinning,
    covariates uniform.  Constant paths make T independent of X, so this is
    the model's joint law; drawing it here rather than by generate_dataset
    keeps the check's datasets the same for a given seed."""
    time_ss, cov_ss = np.random.SeedSequence(seed).spawn(2)
    times, censored = sample_times_batch(theta, (0.5,), theta.horizon, n, seed=time_ss)
    assert not censored.any()
    xs = np.random.default_rng(cov_ss).uniform(size=n)
    return SurvivalDataset(
        times=tuple(float(t) for t in times),
        covariates=tuple((float(v),) for v in xs),
        design="RD",
        q_descriptor={"family": "uniform", "d": 1},
        horizon=float(theta.horizon),
    )


def test_04_vc_deviation_suite():
    """Null sup-deviations sit under the finite-sample mean bound; the
    anchored test keeps its level and detects a doubled hazard scale."""
    start = time.perf_counter()
    n, reps = 2000, 100
    theta0 = Theta.constant(2.0, 1, 20.0)
    doubled = Theta.constant(4.0, 1, 20.0)

    null_devs = []
    null_rejections = 0
    for i in range(reps):
        ds = constant_model_dataset(theta0, n, seed=4000 + i)
        r = anchored_statistic(ds, theta0, "RD", None, 0.3)
        null_devs.append(r.sup_dev)
        null_rejections += r.phi
    mean_dev = float(np.mean(null_devs))
    caps = deviation_bounds(n, 1, 0.3)
    rate = null_rejections / reps
    rate_cap = caps.type1_bound + 3.0 * math.sqrt(rate * (1.0 - rate) / reps)

    power_rejections = 0
    for i in range(reps):
        ds = constant_model_dataset(doubled, n, seed=4500 + i)
        power_rejections += anchored_statistic(ds, theta0, "RD", None, 0.2).phi

    elapsed = time.perf_counter() - start
    ok = (
        mean_dev <= caps.expected_dev_bound
        and rate <= rate_cap
        and power_rejections >= 95
        and elapsed < 300.0
    )
    assert verdict(
        4,
        "rectangle deviation suite",
        ok,
        f"mean dev {mean_dev:.3f}<={caps.expected_dev_bound:.3f}, "
        f"type-I {null_rejections}/100, power {power_rejections}/100, {elapsed:.0f}s",
    )


def test_05_metric_between_constant_models():
    """Flat omega=2 vs omega=4 models sit exactly 1/4 apart in sup deviation."""
    start = time.perf_counter()
    m = sup_deviation_metric(
        Theta.constant(4.0, 0, 20.0),
        Theta.constant(2.0, 0, 20.0),
        "RD",
        UniformQ(0),
        GridSpec.regular(20.0, 512, 0),
    )
    elapsed = time.perf_counter() - start
    ok = abs(m.value - 0.25) <= 0.005 and elapsed < 30.0
    assert verdict(
        5,
        "constant-model metric oracle",
        ok,
        f"value {m.value:.4f}, off {abs(m.value - 0.25):.1e}, {elapsed:.2f}s",
    )


def test_06_neighborhood_link_sup_property():
    """Every sampled neighborhood member keeps both sigmoid gaps under
    (d+1)*delta/(1+tau)."""
    start = time.perf_counter()
    theta0 = Theta.constant(2.0, 1, 12.0)
    params = BSetParams(0.1, 2.0, 1)
    xs = [(0.0,), (0.25,), (0.5,), (0.75,), (1.0,)]
    violations = vacuous = 0
    for i in range(1000):
        member = sample_b_member(theta0, params, seed=5000 + i)
        rep = link_sup_check(member, theta0, params, xs)
        violations += int(not rep.passed)
        vacuous += int(rep.vacuous)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and vacuous == 0 and elapsed < 60.0
    assert verdict(
        6,
        "neighborhood sigmoid sup property",
        ok,
        f"violations {violations}/1000, vacuous {vacuous}, {elapsed:.1f}s",
    )


def test_07_kl_bound_chain():
    """Divergence and its variance sit under the head+tail analytic caps for
    200 random neighborhood configurations."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    count = 0
    min_margin = math.inf
    for delta in (0.05, 0.1):
        for tau in (2.0, 5.0):
            for _ in range(50):
                d = int(rng.integers(0, 3))
                omega0 = float(rng.uniform(1.5, 3.0))
                theta0 = random_theta0(d, seed=int(rng.integers(1 << 30)), omega0=omega0)
                params = BSetParams(delta, tau, d)
                member = sample_b_member(theta0, params, seed=int(rng.integers(1 << 30)))
                x = tuple(rng.uniform(0.0, 1.0, d))
                terms = kl_terms(theta0, member, x)
                caps = analytic_kl_bounds(params, omega0, moments_for(theta0, x, tau))
                k_margin = caps.head_bound + caps.tail_bound - terms.k
                v_margin = caps.var_head_bound + caps.var_tail_bound - terms.v
                min_margin = min(min_margin, k_margin, v_margin)
                violations += int(k_margin < -1e-5 or v_margin < -1e-5)
                count += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and count == 200 and elapsed < 600.0
    assert verdict(
        7,
        "divergence bound chain",
        ok,
        f"violations {violations}/{count}, min margin {min_margin:.4f}, {elapsed:.1f}s",
    )


def test_08_tail_bound_domination():
    """The excursion series dominates the simulated weighted-path sup tail."""
    start = time.perf_counter()
    tau = tau_star(0, 1.0) + 10.0
    rep = compare_tail_bound(
        se_kernel(), 0, 1.0, tau, horizon_pad=30.0, level=9, reps=100_000, seed=42
    )
    se = rep.ci / CI_Z
    elapsed = time.perf_counter() - start
    ok = rep.mc_estimate <= rep.analytic_value + 3.0 * se and elapsed < 600.0
    assert verdict(
        8,
        "excursion tail series domination",
        ok,
        f"mc {rep.mc_estimate:.2e} <= {rep.analytic_value:.2e}+3se, {elapsed:.1f}s",
    )


def test_09_small_ball_domination():
    """The small-ball lower bound stays under the simulated band probability."""
    start = time.perf_counter()
    rep = compare_small_ball(se_kernel(), 0, 1.0, 1.5, level=9, reps=100_000, seed=42)
    se = rep.ci / CI_Z
    elapsed = time.perf_counter() - start
    ok = rep.mc_estimate >= rep.analytic_value - 3.0 * se and elapsed < 300.0
    assert verdict(
        9,
        "small-ball lower bound domination",
        ok,
        f"mc {rep.mc_estimate:.2e} >= {rep.analytic_value:.2e}-3se, {elapsed:.1f}s",
    )


CORRELATION_CONFIGS = (
    # kernel factory args, d, weighted, two same-sense sup constraints, horizon
    (("se", 1.0), 0, False, ((0.0, 1.0), 0.8, "le"), ((1.5, 3.0), 1.0, "le"), 3.0),
    (("se", 1.0), 0, False, ((0.0, 1.0), 0.6, "ge"), ((2.0, 3.0), 0.8, "ge"), 3.0),
    (("ou", 1.0), 0, False, ((0.0, 2.0), 1.0, "le"), ((2.0, 4.0), 1.2, "le"), 4.0),
    (("ou", 1.0), 0, False, ((0.0, 2.0), 0.7, "ge"), ((3.0, 4.0), 1.0, "ge"), 4.0),
    (("se", 1.0), 1, True, ((0.0, 2.0), 4.0, "le"), ((4.0, 8.0), 0.8, "le"), 8.0),
    (("se", 1.0), 1, True, ((0.0, 2.0), 0.3, "ge"), ((4.0, 8.0), 0.2, "ge"), 8.0),
    (("ou", 2.0), 0, False, ((0.0, 1.0), 0.9, "le"), ((1.0, 2.0), 0.9, "le"), 2.0),
    (("se", 0.5), 0, False, ((0.0, 1.0), 1.2, "ge"), ((1.5, 2.5), 1.5, "ge"), 3.0),
    (("ou", 1.0), 2, True, ((2.0, 6.0), 1.5, "le"), ((4.0, 9.0), 1.0, "le"), 9.0),
    (("se", 2.0), 0, False, ((0.0, 2.0), 1.5, "le"), ((3.0, 6.0), 2.0, "le"), 6.0),
)


def test_10_correlation_inequality():
    """Same-sense sup events are positively associated: joint >= product - 3se."""
    start = time.perf_counter()
    failures = []
    for i, (kspec, d, weighted, c1, c2, horizon) in enumerate(CORRELATION_CONFIGS):
        family, ell = kspec
        kern = se_kernel(ell) if family == "se" else ou_kernel(ell)
        rep = mc_event_probability(
            kern,
            d,
            weighted,
            [SupConstraint(*c1), SupConstraint(*c2)],
            horizon,
            9,
            100_000,
            seed=300 + i,
        )
        p1, p2 = rep.p_marginals
        se = rep.ci_halfwidth / CI_Z
        if rep.p_joint < p1 * p2 - 3.0 * se:
            failures.append(i)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 900.0
    assert verdict(
        10,
        "sup-event correlation inequality",
        ok,
        f"failing configs {failures or 'none'}, {elapsed:.0f}s",
    )


def test_11_dyadic_chaining_bound():
    """The chaining certificate never undercuts the realized grid sup."""
    start = time.perf_counter()
    grid = DyadicGrid(2.0, 9)
    violations = 0
    for i in range(1000):
        kern = se_kernel() if i % 2 == 0 else ou_kernel()
        path = sample_path(kern, grid, seed=9000 + i)
        if dyadic_sup_bound(path) < max(abs(v) for v in path.values):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    assert verdict(
        11,
        "dyadic chaining sup bound",
        ok,
        f"violations {violations}/1000, {elapsed:.1f}s",
    )


def test_12_consistency_trend():
    """Posterior outside-mass at epsilon = 1/sqrt(1000) should fall along the
    ladder n=250/1000/4000 with Spearman rank correlation <= -0.8.

    The theorem holds for every fixed epsilon, so the radius is set by a rule
    fixed before any draw: the n^(-1/2) contraction scale at the middle rung,
    1/sqrt(1000) ~ 0.032.  On this configuration the sup-deviation distance
    d(theta_draw, theta0) has median ~0.034 / 0.016 / 0.009 at the three rungs
    and stays below ~0.13 even at n=250.  A radius such as 0.2 therefore puts
    every rung's outside mass at exactly 0, the theorem's limit, which leaves
    no rank trend to measure; at the middle-rung scale the masses are nonzero
    and fall with n.
    """
    start = time.perf_counter()
    horizon = 20.0
    epsilon = 1.0 / math.sqrt(1000)
    theta0 = Theta.constant(2.0, 0, horizon)
    prior = ModelPrior(
        kernels=(StationaryKernel.se(lengthscale=3.0),),
        omega=OmegaPrior(2.0, 1.0),
    )
    spec = ExperimentSpec(
        theta0=theta0,
        prior=prior,
        n_ladder=(250, 1000, 4000),
        epsilon=epsilon,
        design="RD",
        q=UniformQ(0),
        replications=5,
        mcmc=McmcConfig(4000, 1500, 5, 0.15, 0.25, 0),
        knots=tuple(np.linspace(0.0, horizon, 8)),
        metric_grid=GridSpec.regular(horizon, 129, 0),
        horizon=horizon,
        seed=0,
    )
    report = consistency_experiment(spec)
    elapsed = time.perf_counter() - start

    masses = [m for _, m in report.per_n]
    decreasing = all(b < a for a, b in zip(masses, masses[1:]))
    ok = report.consistent_trend and decreasing and elapsed < 3600.0
    assert verdict(
        12,
        "posterior outside-mass ladder trend",
        ok,
        f"epsilon {epsilon:.4f}, per-n masses {[round(m, 4) for m in masses]}, "
        f"spearman {report.spearman:.3f}, {elapsed:.0f}s",
    )


def test_13_assumption_checkers():
    """Decaying kernels satisfy both prior assumptions; a constant kernel fails."""
    start = time.perf_counter()
    good = all(
        check_a1(k, 40).eventually_ok and check_sublinear_integral(k).passed
        for k in (se_kernel(), ou_kernel())
    )
    const = StationaryKernel.constant()
    flagged = (not check_a1(const, 40).eventually_ok) and (
        not check_sublinear_integral(const).passed
    )
    elapsed = time.perf_counter() - start
    ok = good and flagged and elapsed < 1.0
    assert verdict(
        13,
        "kernel assumption checkers",
        ok,
        f"se/ou pass {good}, constant flagged {flagged}, {elapsed:.2f}s",
    )
