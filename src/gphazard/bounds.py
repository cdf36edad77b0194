"""Explicit excursion and small-ball probability bounds for weighted paths.

Three related quantities for a stationary Gaussian path eta with the
decaying weight h_d applied:

  * an upper-bound series for P(sup_{t >= tau} |h_d(t) eta(t)| >= M),
    valid once tau clears an explicit threshold tau_star(d, M);
  * a lower bound for P(sup_{[0, tau]} |eta| <= psi), the small-ball
    probability at the radius psi the excursion analysis calls for;
  * a lower bound for the centred event that combines the two, the
    weighted path staying within a shrinking band on [0, tau] and below
    1/6 beyond it.

Constants are kept explicit rather than absorbed into unnamed factors,
so every number here can be checked against Monte Carlo.  Each bound
ships with a comparator that runs the matching path simulation and
reports whether the inequality held in the asserted direction.  The
bounds are loose by construction; the comparators check direction, not
sharpness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gp_paths import SupConstraint, h_weight, mc_event_probability
from .kernels import StationaryKernel, check_a1

__all__ = [
    "DEFAULT_J_MAX",
    "DEFAULT_N_MAX",
    "TailBoundSpec",
    "TailSeriesBound",
    "SmallBallBound",
    "CentredEventBound",
    "BoundReport",
    "tau_star",
    "tail_bound_series",
    "small_ball_lower_bound",
    "centred_event_bound",
    "first_positive_centred_tau",
    "compare_tail_bound",
    "compare_small_ball",
    "compare_centred_event",
]

LOG2 = math.log(2.0)

# Series truncation defaults.  j_max covers the excursion series, n_max
# the dyadic-increment series; 40 matches the default depth of
# kernels.check_a1, whose verdict gates the small-ball chain.
DEFAULT_J_MAX = 200
DEFAULT_N_MAX = 40

_PI2 = math.pi ** 2
_PI4 = math.pi ** 4


def _check_d(d) -> int:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0:
        raise DomainError(f"d must be a nonnegative integer, got {d!r}")
    return int(d)


def _inv_weight_sq(d: int, t):
    """h_d(t)^-2, vectorized."""
    h = h_weight(d, t)
    return 1.0 / (np.asarray(h, dtype=float) ** 2)


def tau_star(d: int, m: float) -> float:
    """Smallest tau > 1 from which the excursion series is usable.

    The series needs its chaining exponent positive at the first term,
    which reads 9 h_d(tau)^-2 m^2 / (4 pi^4) > log 2.  For tau > 1,
    (d+1) / h_d(tau) = tau + log(1 - e^-tau) = log(e^tau - 1), so the
    condition reads log(e^tau - 1) > c with
    c = (d+1) (2 pi^2 / 3) sqrt(log 2) / m, whose root is softplus(c).
    The condition is strict, so the double returned is the one near the
    root at which the condition, as tail_bound_series evaluates it, holds
    and fails at the previous double.  When it already holds at tau = 1
    (large m) the infimum over tau > 1 is 1 and 1.0 is returned.
    """
    d = _check_d(d)
    if not (np.isfinite(m) and m > 0):
        raise DomainError(f"m must be a positive real, got {m}")

    a_chain = 9.0 * m * m / (4.0 * _PI4)  # as tail_bound_series computes c0

    def holds(tau: float) -> bool:
        return a_chain * float(_inv_weight_sq(d, tau)) > LOG2

    if holds(1.0):
        return 1.0
    c = (d + 1) * (2.0 * _PI2 / 3.0) * math.sqrt(LOG2) / m
    tau = c + math.log1p(math.exp(-c))
    if not math.isfinite(tau * tau):  # the condition squares the weight
        raise DomainError(f"the threshold for m={m!r} overflows; m is too small to be meaningful")
    # rounding moves the evaluated condition a few doubles off the root
    while holds(math.nextafter(tau, 0.0)):
        tau = math.nextafter(tau, 0.0)
    while not holds(tau):
        tau = math.nextafter(tau, math.inf)
    return tau


@dataclass(frozen=True)
class TailBoundSpec:
    """Inputs for the excursion-probability series.

    d: covariate dimension entering the weight h_d.
    m: excursion level for the weighted path.
    kappa0: marginal variance kappa(0) of the path.
    tau: left end of the excursion window; must exceed 1.
    j_max: number of unit steps summed past tau.
    """

    d: int
    m: float
    kappa0: float
    tau: float
    j_max: int = DEFAULT_J_MAX

    def __post_init__(self):
        _check_d(self.d)
        if not (np.isfinite(self.m) and self.m > 0):
            raise DomainError(f"m must be a positive real, got {self.m}")
        if not (np.isfinite(self.kappa0) and self.kappa0 > 0):
            raise DomainError(f"kappa0 must be a positive real, got {self.kappa0}")
        if not (np.isfinite(self.tau) and self.tau > 1.0):
            raise DomainError(f"tau must be a real > 1, got {self.tau}")
        if isinstance(self.j_max, bool) or not isinstance(self.j_max, (int, np.integer)):
            raise DomainError(f"j_max must be a positive integer, got {self.j_max!r}")
        if self.j_max < 1:
            raise DomainError(f"j_max must be >= 1, got {self.j_max}")


@dataclass(frozen=True)
class TailSeriesBound:
    """Evaluated excursion series with its truncation certificate.

    value is the partial sum through j_max; tail_cap bounds everything
    dropped, by geometric comparison from the first omitted term.  c0
    and ktilde0 are the chaining exponent at j = 0 and the constant
    2 / (1 - e^-c0) it produces.
    """

    value: float
    terms: tuple
    truncation_note: str
    tail_cap: float
    c0: float
    ktilde0: float
    threshold: float


def tail_bound_series(spec: TailBoundSpec) -> TailSeriesBound:
    """Upper-bound series for P(sup_{t >= tau} |h_d(t) eta(t)| >= m).

    Splits [tau, inf) into unit windows tau + j and bounds each window by
    a Gaussian concentration piece plus a chaining piece:

        4 exp(-h_d(tau+j)^-2 m^2 / (32 kappa0))
          + ktilde0 exp(-c_j),   c_j = 9 h_d(tau+j)^-2 m^2 / (4 pi^4) - log 2,

    with ktilde0 = 2 / (1 - e^-c0).  Requires tau >= tau_star(d, m) so
    that c0 > 0.  The returned value is the sum through j = j_max; the
    dropped remainder is bounded geometrically (the exponents grow
    convexly in j, so term ratios only shrink) and reported separately
    rather than folded into value.
    """
    thr = tau_star(spec.d, spec.m)
    if spec.tau < thr:
        raise DomainError(
            f"tau must be >= tau_star(d={spec.d}, m={spec.m:g}) = {thr:.6f}, got {spec.tau:g}"
        )

    a_gauss = spec.m * spec.m / (32.0 * spec.kappa0)
    a_chain = 9.0 * spec.m * spec.m / (4.0 * _PI4)

    ts = spec.tau + np.arange(spec.j_max + 1, dtype=float)
    w = _inv_weight_sq(spec.d, ts)
    c = a_chain * w - LOG2
    c0 = float(c[0])
    if not c0 > 0:
        raise DomainError(f"chaining exponent nonpositive at tau={spec.tau:g}; need tau >= {thr:.6f}")
    ktilde0 = 2.0 / -math.expm1(-c0)

    gauss = 4.0 * np.exp(-a_gauss * w)
    chain = ktilde0 * np.exp(-c)
    terms = gauss + chain
    value = float(np.sum(terms))

    # Geometric cap on the dropped tail.  h_d^-2 grows convexly in t, so
    # the exponent increments from j_max+1 on are at least the first one
    # and each family is dominated by a geometric series.
    w1 = float(_inv_weight_sq(spec.d, spec.tau + spec.j_max + 1))
    w2 = float(_inv_weight_sq(spec.d, spec.tau + spec.j_max + 2))
    cap = 0.0
    for amp, rate in ((4.0, a_gauss), (ktilde0 * 2.0, a_chain)):
        first = amp * math.exp(-rate * w1)
        ratio = math.exp(-rate * (w2 - w1))
        cap += first / (1.0 - ratio)
    note = f"dropped tail (j > {spec.j_max}) <= {cap:.3e} by geometric comparison"
    if cap == 0.0:
        note += " (first omitted term underflows double precision)"

    return TailSeriesBound(
        value=value,
        terms=tuple(float(t) for t in terms),
        truncation_note=note,
        tail_cap=cap,
        c0=c0,
        ktilde0=ktilde0,
        threshold=thr,
    )


@dataclass(frozen=True)
class SmallBallBound:
    """Lower bound for the path staying inside a uniform band on [0, tau].

    bound multiplies the squared endpoint-marginal probability by the
    exponential of minus the dyadic-increment series.  converged records
    whether that series was still shrinking at n_max; when it is not the
    bound is reported as 0.0 with a diagnostic, never a negative number.
    """

    bound: float
    psi: float
    converged: bool
    marginal: float
    series_sum: float
    diagnostic: str = ""


def _increment_series_term(a: float, n: float) -> float:
    # exp(-a n^2 + n log 2) / (1 - exp(-a n^2)); a > 0, n >= 1
    expo = -a * n * n + n * LOG2
    if expo > 700.0:
        return math.inf
    return math.exp(expo) / -math.expm1(-a * n * n)


def small_ball_lower_bound(
    kernel: StationaryKernel,
    d: int,
    delta: float,
    tau: float,
    n_max: int = DEFAULT_N_MAX,
) -> SmallBallBound:
    """Lower bound for P(sup_{[0, tau]} |eta| <= psi).

    psi = delta h_d(tau) / (h_d(1) (1 + tau)), the radius at which a
    uniform band on the raw path forces the weighted path inside the
    delta-band the consistency argument needs.  The bound is

        P(|N(0, kappa0)| <= psi/4)^2
          * exp(-sum_{n>=1} exp(-9 psi^2 n^2 / (4 pi^2) + n log 2)
                            / (1 - exp(-9 psi^2 n^2 / (4 pi^2)))),

    where the n-th term controls the path increment at dyadic scale 2^-n
    through the substitution (kappa(0) - kappa(2^-n))^-1 >= n^6.  That
    substitution is the dyadic increment condition, so the kernel must
    pass check_a1 up to n_max.  The series is summed to n_max plus a
    geometric cap on the remainder; spending the cap inside exp(-.)
    only lowers the result, so the reported number stays a genuine
    lower bound.  When the terms are still growing at n_max (psi too
    small) the series cannot be certified and the bound is 0.0.
    """
    d = _check_d(d)
    if not (np.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be a positive real, got {delta}")
    if not (np.isfinite(tau) and tau >= 1.0):
        raise DomainError(f"tau must be a real >= 1, got {tau}")
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")

    a1 = check_a1(kernel, n_max=int(n_max))
    if not a1.eventually_ok:
        raise DomainError(
            f"kernel {kernel.describe()} fails the dyadic increment condition "
            f"through n_max={n_max}; the small-ball chain does not apply"
        )

    # The (d+1) factor in h_d cancels in the ratio; psi depends on d
    # only through that ratio, i.e. not at all.
    psi = delta * h_weight(d, tau) / (h_weight(d, 1.0) * (1.0 + tau))
    kappa0 = kernel.kappa0
    marginal = math.erf(psi / (4.0 * math.sqrt(2.0 * kappa0)))

    a = 9.0 * psi * psi / (4.0 * _PI2)
    terms = [_increment_series_term(a, n) for n in range(1, n_max + 1)]
    # Consecutive term ratios are below exp(-a(2n+1) + log 2), which is
    # strictly decreasing in n; requiring it below 1 at n_max certifies
    # every later ratio and survives term underflow at large psi.
    decay = a * (2.0 * n_max + 1.0) - LOG2
    converged = decay > 0.0
    if not converged:
        return SmallBallBound(
            bound=0.0,
            psi=psi,
            converged=False,
            marginal=marginal,
            series_sum=math.inf,
            diagnostic=(
                f"increment series not certified shrinking at n_max={n_max} "
                f"(psi={psi:.3g} too small); bound reported as 0"
            ),
        )

    ratio = math.exp(-decay)
    nxt = _increment_series_term(a, n_max + 1)
    series_sum = math.fsum(terms) + nxt / (1.0 - ratio)
    bound = marginal * marginal * math.exp(-series_sum) if math.isfinite(series_sum) else 0.0
    return SmallBallBound(
        bound=bound,
        psi=psi,
        converged=True,
        marginal=marginal,
        series_sum=series_sum,
    )


@dataclass(frozen=True)
class CentredEventBound:
    """Joint lower bound: band on [0, tau] and excursion control past it."""

    lower: float
    small_ball: SmallBallBound
    tail_value: float
    threshold: float


def centred_event_bound(
    kernel: StationaryKernel,
    d: int,
    delta: float,
    tau: float,
    n_max: int = DEFAULT_N_MAX,
    j_max: int = DEFAULT_J_MAX,
) -> CentredEventBound:
    """Lower bound for the centred event at (delta, tau).

    The event keeps the weighted path within delta h_d(tau) / (2(1+tau))
    on [0, tau] and within 1/6 beyond tau.  The two pieces are bounded
    separately, the band by the small-ball bound at half the delta (the
    halved radius), the excursion by one minus the tail series at level
    1/6, and multiplied; positively correlated symmetric-band events
    make the product a valid lower bound.  Requires tau at or beyond the
    tail threshold for level 1/6.
    """
    d = _check_d(d)
    thr = max(tau_star(d, 1.0 / 6.0), 1.0)
    if not (np.isfinite(tau) and tau >= thr):
        raise DomainError(
            f"tau must be >= max(tau_star(d={d}, m=1/6), 1) = {thr:.6f}, got {tau}"
        )
    sb = small_ball_lower_bound(kernel, d, delta / 2.0, tau, n_max=n_max)
    tail = tail_bound_series(
        TailBoundSpec(d=d, m=1.0 / 6.0, kappa0=kernel.kappa0, tau=tau, j_max=j_max)
    )
    lower = sb.bound * max(0.0, 1.0 - tail.value)
    return CentredEventBound(lower=lower, small_ball=sb, tail_value=tail.value, threshold=thr)


def first_positive_centred_tau(
    kernel: StationaryKernel,
    d: int,
    delta: float,
    taus,
    n_max: int = DEFAULT_N_MAX,
    j_max: int = DEFAULT_J_MAX,
):
    """Smallest tau on the given grid with a positive centred-event bound.

    A grid-scan proxy for the horizon past which the joint bound
    certifies positive mass; returns None when no grid point works.
    Grid points below the validity threshold are skipped, not errors.
    """
    d = _check_d(d)
    thr = max(tau_star(d, 1.0 / 6.0), 1.0)
    for tau in sorted(float(t) for t in taus):
        if tau < thr:
            continue
        if centred_event_bound(kernel, d, delta, tau, n_max=n_max, j_max=j_max).lower > 0.0:
            return tau
    return None


@dataclass(frozen=True)
class BoundReport:
    """One analytic bound next to its Monte Carlo comparator."""

    lemma_id: str
    analytic_value: float
    mc_estimate: float
    ci: float
    verdict: str
    jitter: float  # Cholesky jitter of the comparator's path sampler
    mc_seconds: float  # wall time of the comparator's Monte Carlo block loop


def _report(lemma_id: str, analytic_value: float, rep, ok: bool) -> BoundReport:
    return BoundReport(lemma_id, analytic_value, rep.p_joint, rep.ci_halfwidth,
                       "pass" if ok else "fail", rep.jitter, rep.seconds)


def compare_tail_bound(
    kernel: StationaryKernel,
    d: int,
    m: float,
    tau: float,
    j_max: int = DEFAULT_J_MAX,
    horizon_pad: float = 30.0,
    level: int = 9,
    reps: int = 20_000,
    seed: int = 0,
) -> BoundReport:
    """Check the excursion series against simulated weighted paths.

    The Monte Carlo event is sup over [tau, tau + horizon_pad] of the
    weighted path, a horizon truncation of the sup over all t >= tau.
    Truncation only lowers the estimate, so the asserted direction
    (estimate <= series value + 3 ci) is preserved.
    """
    series = tail_bound_series(
        TailBoundSpec(d=d, m=m, kappa0=kernel.kappa0, tau=tau, j_max=j_max)
    )
    rep = mc_event_probability(
        kernel,
        d,
        weighted=True,
        constraints=[SupConstraint((tau, tau + horizon_pad), m, "ge")],
        horizon=tau + horizon_pad,
        level=level,
        reps=reps,
        seed=seed,
    )
    ok = rep.p_joint <= series.value + 3.0 * rep.ci_halfwidth
    return _report("tail_series", series.value, rep, ok)


def compare_small_ball(
    kernel: StationaryKernel,
    d: int,
    delta: float,
    tau: float,
    n_max: int = DEFAULT_N_MAX,
    level: int = 9,
    reps: int = 20_000,
    seed: int = 0,
) -> BoundReport:
    """Check the small-ball bound against simulated raw paths.

    Asserted direction: estimate of P(sup_{[0,tau]} |eta| <= psi) is at
    least bound - 3 ci.  The grid sup underestimates the true sup, which
    can only raise the estimate, preserving the direction.
    """
    sb = small_ball_lower_bound(kernel, d, delta, tau, n_max=n_max)
    rep = mc_event_probability(
        kernel,
        d,
        weighted=False,
        constraints=[SupConstraint((0.0, tau), sb.psi, "le")],
        horizon=tau,
        level=level,
        reps=reps,
        seed=seed,
    )
    ok = rep.p_joint >= sb.bound - 3.0 * rep.ci_halfwidth
    return _report("small_ball", sb.bound, rep, ok)


def compare_centred_event(
    kernel: StationaryKernel,
    d: int,
    delta: float,
    tau: float,
    n_max: int = DEFAULT_N_MAX,
    j_max: int = DEFAULT_J_MAX,
    horizon_pad: float = 30.0,
    level: int = 9,
    reps: int = 20_000,
    seed: int = 0,
) -> BoundReport:
    """Check the joint centred-event bound against simulated paths.

    The joint Monte Carlo event applies both constraints to one weighted
    path: the halved band on [0, tau] and the 1/6 ceiling on
    [tau, tau + horizon_pad].  Both truncations push the estimate up,
    preserving the direction estimate >= lower - 3 ci.
    """
    ce = centred_event_bound(kernel, d, delta, tau, n_max=n_max, j_max=j_max)
    radius = delta * h_weight(d, tau) / (2.0 * (1.0 + tau))
    rep = mc_event_probability(
        kernel,
        d,
        weighted=True,
        constraints=[
            SupConstraint((0.0, tau), radius, "le"),
            SupConstraint((tau, tau + horizon_pad), 1.0 / 6.0, "le"),
        ],
        horizon=tau + horizon_pad,
        level=level,
        reps=reps,
        seed=seed,
    )
    ok = rep.p_joint >= ce.lower - 3.0 * rep.ci_halfwidth
    return _report("centred_event", ce.lower, rep, ok)
