"""Divergence diagnostics between hazard model parameters.

Given a reference parameter theta0 and a candidate theta, this module
computes the log density ratio and its first two moments under theta0,
decides membership in the perturbation neighborhood that the posterior
consistency argument relies on, checks the sigmoid-link sup inequalities
that neighborhood buys, and assembles the matching closed-form upper
bounds so every displayed inequality can be instantiated numerically.

All time integrals split at a finite cutoff: the body is Gauss-Legendre
on the knot cells of [0, t_cut], exact to rounding because the link is
linear between knots; the remainder is bounded analytically against the
envelope omega0 * exp(-omega0 * sigma_min * t), where sigma_min is the
least reference link value on [0, t_cut].  Tail bounds are reported
separately so callers can see what part of a number is quadrature and
what part is envelope.
One row-batched pass serves every entry point: one set of nodes for all
covariate rows, and log f and the cumulative hazard at them from one
hazard.law call per parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, polygamma

from .errors import DomainError, GenerationError, NumericError
from .gp_paths import h_weight
# HazardCurve is bound here for bench/tracing.py, which wraps it by name;
# this module evaluates every law through hazard.law instead
from .hazard import HazardCurve  # noqa: F401
from .hazard import Theta, _as_covariate, _link_rows, _paths_on, law, log_sigmoid
from .vc import resolve_atoms

T_CUT_SCALE = 40.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)
MAX_LINK_VARIATION = 1e4  # largest sum of |dY| over the cells; each unit costs a piece
B_GRID_REFINE = 129
SUP_GRID_REFINE = 257
B_MEMBER_TRIES = 20  # draws before sample_b_member gives up, the cap halving each time


@dataclass(frozen=True)
class BSetParams:
    """Size delta and changeover time tau of a perturbation neighborhood.

    delta must lie in (0, 1/2).  tau >= 1 is accepted; the sup and decay
    conditions are stated relative to it.
    """

    delta: float
    tau: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not self.tau >= 1.0:
            raise DomainError(f"tau must be >= 1, got {self.tau}")
        if int(self.d) != self.d or self.d < 0:
            raise DomainError(f"d must be a nonnegative integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def sup_limit(self) -> float:
        return self.delta / (1.0 + self.tau)


def default_cutoff(theta0: Theta, theta: Theta | None = None) -> float:
    """Cutoff 40/omega0 clipped to the shortest horizon involved."""
    horizons = [th.horizon for th in (theta0, theta) if th is not None]
    return min(T_CUT_SCALE / theta0.omega, *horizons)


def _cutoff(t_cut: float | None, *thetas: Theta) -> float:
    """t_cut, or the default cutoff when None; it must lie in (0, every horizon]."""
    if t_cut is None:
        return default_cutoff(*thetas)
    if not 0.0 < float(t_cut) <= min(theta.horizon for theta in thetas):
        raise DomainError(f"quadrature cutoff {t_cut} is not positive or exceeds a horizon")
    return float(t_cut)


def _cell_edges(t_cut: float, thetas, cuts=()) -> np.ndarray:
    """0, t_cut, the cut points and every knot below t_cut, sorted and distinct."""
    knots = np.concatenate([theta.grid.as_array() for theta in thetas])
    return np.union1d(knots[knots < t_cut], [0.0, t_cut, *cuts])


def _knot_cells(edges: np.ndarray, y: np.ndarray, omega: float) -> tuple:
    """Gauss-Legendre nodes and weights, six per piece, on the cells between edges.

    The edges hold every knot of the link rows y, shape (m, len(edges)),
    so each Y is linear on a cell and the integrands are analytic there.
    A cell is cut into equal pieces, as many as omega * width or the
    largest |dY| across it, and at least one, so that neither the decay of
    exp(-omega * int sigma(Y)) nor a steep sigmoid outruns the nodes.
    """
    width = np.diff(edges)
    rise = np.max(np.abs(np.diff(y, axis=1)), axis=0)
    if not rise.sum() <= MAX_LINK_VARIATION:
        raise NumericError(f"link varies by {rise.sum():.3g} before t_cut; too steep to integrate")
    pieces = np.ceil(np.maximum(np.maximum(omega * width, rise), 1.0)).astype(int)
    h = np.repeat(width / pieces, pieces)
    index = np.arange(h.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    mid = np.repeat(edges[:-1], pieces) + h * (index + 0.5)
    return (mid[:, None] + 0.5 * h[:, None] * _GL_X).ravel(), (0.5 * h[:, None] * _GL_W).ravel()


def _log_law(theta: Theta, rows: np.ndarray, ts: np.ndarray) -> tuple:
    """log f_x(t) = log omega + log sigmoid(Y) - Lambda and Lambda per
    covariate row and time, from hazard.law."""
    _, log_sigmoid_y, lam = law(theta, rows, ts)
    return math.log(theta.omega) + log_sigmoid_y - lam, lam


def upsilon(theta0: Theta, theta: Theta, x, t: float) -> float:
    """Log density ratio log f_x(t; theta0) - log f_x(t; theta).

    Finite for every t inside both horizons because the hazard is pinned
    inside (0, omega].  Refuses t outside either grid.
    """
    t = float(t)
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    row, ts = _as_covariate(x, theta0.d).as_array()[None, :], np.asarray([t])
    return float(_log_law(theta0, row, ts)[0][0, 0] - _log_law(theta, row, ts)[0][0, 0])


def _link_floor(y_edges: np.ndarray):
    """Least sigma(Y) on [0, t_cut] per link row, from Y at the cell edges,
    where the piecewise-linear Y attains it; raises NumericError on underflow."""
    floor = expit(np.min(y_edges, axis=-1))
    if np.any(floor <= 0.0):
        raise NumericError("link lower bound underflows to zero; tail envelope degenerate")
    return floor


def _exp_tail_moments(rate: float, t0: float) -> tuple:
    """Integrals of t^k e^{-rate (t - t0)} over [t0, inf) for k = 0, 1, 2."""
    e0 = 1.0 / rate
    e1 = t0 / rate + 1.0 / rate ** 2
    e2 = t0 ** 2 / rate + 2.0 * t0 / rate ** 2 + 2.0 / rate ** 3
    return e0, e1, e2


def _same_parameter(theta0: Theta, theta: Theta) -> bool:
    if theta0 is theta:
        return True
    if theta0.omega != theta.omega or theta0.d != theta.d:
        return False
    if theta0.grid.points != theta.grid.points:
        return False
    return all(a.values == b.values for a, b in zip(theta0.paths, theta.paths))


@dataclass(frozen=True)
class KlTerms:
    """First two moments of the log ratio, Gauss-Legendre body plus tail bound.

    k and v are the reported divergence and variance; k_tail_bound and
    v2_tail_bound are the envelope parts already included in them.
    """

    k: float
    v: float
    k_body: float
    k_tail_bound: float
    v2_body: float
    v2_tail_bound: float
    sigma_min: float
    t_cut: float

    def as_record(self) -> dict:
        return {
            "k": self.k,
            "v": self.v,
            "k_body": self.k_body,
            "k_tail_bound": self.k_tail_bound,
            "v2_body": self.v2_body,
            "v2_tail_bound": self.v2_tail_bound,
            "sigma_min": self.sigma_min,
            "t_cut": self.t_cut,
        }


def _kl_rows(theta0: Theta, theta: Theta, rows: np.ndarray, t_cut: float) -> np.ndarray:
    """The KlTerms fields k .. sigma_min per covariate row, shape (7, m): one
    set of nodes resolves both parameters' links at every row."""
    edges = _cell_edges(t_cut, (theta0, theta))
    y0, y1 = _link_rows(theta0, rows, edges), _link_rows(theta, rows, edges)
    sigma_min = _link_floor(y0)
    if _same_parameter(theta0, theta):
        return np.stack([*np.zeros((6, len(rows))), sigma_min])
    ts, w = _knot_cells(edges, np.concatenate([y0, y1]), theta0.omega)
    log_f0, lam0 = _log_law(theta0, rows, np.append(ts, t_cut))
    ups = log_f0[:, :-1] - _log_law(theta, rows, ts)[0]
    f0 = np.exp(log_f0[:, :-1])
    k_body = (ups * f0) @ w
    v2_body = (ups * ups * f0) @ w
    if not (np.all(np.isfinite(k_body)) and np.all(np.isfinite(v2_body))):
        raise NumericError("log-ratio quadrature is not finite")
    a = abs(math.log(theta0.omega / theta.omega))
    b = 2.0 + theta0.omega + theta.omega
    cap = theta0.omega * np.exp(-lam0[:, -1])  # omega0 * S0(t_cut)
    e0, e1, e2 = _exp_tail_moments(theta0.omega * sigma_min, t_cut)
    k_tail = cap * (a * e0 + b * e1)
    v2_tail = cap * (a * a * e0 + 2.0 * a * b * e1 + b * b * e2)
    k = k_body + k_tail
    return np.stack([k, v2_body + v2_tail - k * k, k_body, k_tail, v2_body, v2_tail, sigma_min])


def kl_terms(theta0: Theta, theta: Theta, x, t_cut: float | None = None) -> KlTerms:
    """Divergence K and variance V of the log ratio under theta0 at one x.

    The body integrates the exact log ratio against the theta0 density on
    [0, t_cut] by Gauss-Legendre on the cells between both parameters'
    knots, exact to rounding.  Beyond the cutoff the ratio obeys the linear
    growth envelope |log ratio| <= |log(omega0/omega)| + (2 + omega0 + omega) t,
    valid on the decay-regular class where the link stays above e^{-t};
    it is integrated against the density cap
    omega0 * S0(t_cut) * e^{-omega0 sigma_min (t - t_cut)}, which anchors
    the envelope at the survival already accumulated by the cutoff, and
    added.  Identical parameters short-circuit to exact zeros.
    """
    t_cut = _cutoff(t_cut, theta0, theta)
    row = _as_covariate(x, theta0.d).as_array()[None, :]
    return KlTerms(*(float(f) for f in _kl_rows(theta0, theta, row, t_cut)[:, 0]), t_cut)


@dataclass(frozen=True)
class KlAggregate:
    """Design-level reduction of per-covariate divergence terms."""

    design: str
    value: float
    per_x: tuple
    v_weighted_partial: float | None = None
    v_weighted_tail_bound: float | None = None
    n: int | None = None

    def as_record(self) -> dict:
        rec = {"design": self.design, "value": self.value}
        if self.design == "NRD":
            rec["v_weighted_partial"] = self.v_weighted_partial
            rec["v_weighted_tail_bound"] = self.v_weighted_tail_bound
            rec["n"] = self.n
        return rec


def _design_rows(d: int, design: str, q_grid, xs) -> tuple:
    """Rows (m, d), weights and, for NRD, each position's row index (None
    for RD).  RD rows are q_grid's atoms; NRD rows are the distinct rows of
    xs in first-seen order, weighted by count / n, in one pass over xs."""
    if design == "RD":
        if q_grid is None:
            raise DomainError("RD needs a covariate law or atoms")
        atoms = resolve_atoms("RD", q_grid)
        if atoms.d != d:
            raise DomainError(f"atoms have d={atoms.d}, model expects {d}")
        return atoms.nodes_array(), atoms.weights_array(), None
    if design == "NRD":
        if xs is None or not len(xs):
            raise DomainError("NRD needs the fixed covariate list")
        seen: dict = {}
        at = np.asarray([seen.setdefault(_as_covariate(x, d).coords, len(seen)) for x in xs])
        rows = np.asarray(list(seen), dtype=float).reshape(len(seen), d)
        return rows, np.bincount(at) / len(at), at
    raise DomainError(f"design must be 'RD' or 'NRD', got {design!r}")


def kl_aggregate(
    theta0: Theta,
    theta: Theta,
    design: str,
    q_grid=None,
    xs=None,
    t_cut: float | None = None,
) -> KlAggregate:
    """Average (RD) or worst-case (NRD) divergence over the covariates.

    RD needs a covariate law or explicit atoms and returns the weighted
    mean of K.  NRD needs the covariate sequence x_1..x_n and returns the
    max of K, plus the position-weighted variance sum Sum V_i / i^2 with
    its remainder bounded by (max V) * Sum_{i>n} i^{-2}.  per_x holds each
    distinct row with its K, V and weight, all rows from one _kl_rows pass.
    """
    t_cut = _cutoff(t_cut, theta0, theta)
    rows, weights, at = _design_rows(theta0.d, design, q_grid, xs)
    k, v = _kl_rows(theta0, theta, rows, t_cut)[:2]
    per = tuple(zip(map(tuple, rows.tolist()), k.tolist(), v.tolist(), weights.tolist()))
    if at is None:
        return KlAggregate("RD", float(weights @ k), per)
    n = len(at)
    partial = float(np.sum(v[at] / np.arange(1, n + 1, dtype=float) ** 2))
    tail = float(np.max(v)) * float(polygamma(1, n + 1))
    return KlAggregate("NRD", float(np.max(k)), per, partial, tail, n)


# -- neighborhood membership ---------------------------------------------


@dataclass(frozen=True)
class BSetReport:
    """Outcome of the three defining neighborhood conditions."""

    omega_ok: bool
    sup_ok: tuple
    inf_ok: tuple
    member: bool
    truncated: bool
    omega_gap: float
    sup_gaps: tuple
    inf_values: tuple

    def as_record(self) -> dict:
        return {
            "omega_ok": self.omega_ok,
            "sup_ok": list(self.sup_ok),
            "inf_ok": list(self.inf_ok),
            "member": self.member,
            "truncated": self.truncated,
            "omega_gap": self.omega_gap,
            "sup_gaps": list(self.sup_gaps),
            "inf_values": list(self.inf_values),
        }


def b_set_membership(theta: Theta, theta0: Theta, params: BSetParams) -> BSetReport:
    """Check the scale band, the sup band on [0, tau], and the decay floor.

    The scale condition |omega/omega0 - 1| < delta is strict, the sup
    condition is inclusive, and the weighted floor eta_j * h_d > -1 is
    strict, evaluated for t > tau on the grid only; the report is flagged
    truncated because the grid horizon cuts that infimum short.
    """
    if theta.d != theta0.d:
        raise DomainError("parameters must share the covariate dimension")
    if params.d != theta.d:
        raise DomainError(f"params expect d={params.d}, parameters have d={theta.d}")
    horizon = min(theta.horizon, theta0.horizon)
    if params.tau >= horizon:
        raise DomainError(
            f"tau={params.tau} leaves no grid beyond it inside horizon {horizon}"
        )
    knots = np.union1d(np.asarray(theta.grid.points), np.asarray(theta0.grid.points))
    omega_gap = abs(theta.omega / theta0.omega - 1.0)
    omega_ok = omega_gap < params.delta

    body = np.union1d(knots[knots <= params.tau], [0.0, params.tau])
    gaps = np.max(np.abs(_paths_on(theta, body) - _paths_on(theta0, body)), axis=1)
    sup_ok = tuple(bool(g <= params.sup_limit) for g in gaps)

    beyond = np.union1d(
        knots[(knots > params.tau) & (knots <= horizon)],
        np.linspace(params.tau, horizon, B_GRID_REFINE)[1:],
    )
    weighted = _paths_on(theta, beyond) * h_weight(theta.d, beyond)[None, :]
    inf_vals = np.min(weighted, axis=1)
    inf_ok = tuple(bool(v > -1.0) for v in inf_vals)

    member = omega_ok and all(sup_ok) and all(inf_ok)
    return BSetReport(
        omega_ok=bool(omega_ok),
        sup_ok=sup_ok,
        inf_ok=inf_ok,
        member=member,
        truncated=theta.horizon < math.inf,
        omega_gap=float(omega_gap),
        sup_gaps=tuple(float(g) for g in gaps),
        inf_values=tuple(float(v) for v in inf_vals),
    )


@dataclass(frozen=True)
class LinkSupReport:
    """Observed link gaps on [0, tau] against the (d+1) delta/(1+tau) cap."""

    max_sigma_gap: float
    max_logsigma_gap: float
    bound: float
    passed: bool
    vacuous: bool

    def as_record(self) -> dict:
        return {
            "max_sigma_gap": self.max_sigma_gap,
            "max_logsigma_gap": self.max_logsigma_gap,
            "bound": self.bound,
            "passed": self.passed,
            "vacuous": self.vacuous,
        }


def link_sup_check(theta: Theta, theta0: Theta, params: BSetParams, x_samples) -> LinkSupReport:
    """Max gap of sigmoid(Y_x) and log sigmoid(Y_x) over times and samples.

    Valid as an inequality only for neighborhood members; if membership
    fails (or cannot be established), the report is flagged vacuous but
    the maxima are still returned.
    """
    if theta.d != theta0.d or params.d != theta.d:
        raise DomainError("dimension mismatch between parameters and params")
    horizon = min(theta.horizon, theta0.horizon)
    if params.tau > horizon:
        raise DomainError(f"tau={params.tau} exceeds horizon {horizon}")
    try:
        vacuous = not b_set_membership(theta, theta0, params).member
    except DomainError:
        vacuous = True
    knots = np.union1d(np.asarray(theta.grid.points), np.asarray(theta0.grid.points))
    ts = np.union1d(knots[knots <= params.tau], np.linspace(0.0, params.tau, SUP_GRID_REFINE))
    rows = [_as_covariate(x, theta.d).coords for x in x_samples]
    y, y0 = (_link_rows(th, rows, ts) for th in (theta, theta0))
    sig_gap = float(np.max(np.abs(expit(y) - expit(y0)), initial=0.0))
    log_gap = float(np.max(np.abs(log_sigmoid(y) - log_sigmoid(y0)), initial=0.0))
    bound = (theta.d + 1) * params.delta / (1.0 + params.tau)
    return LinkSupReport(
        max_sigma_gap=sig_gap,
        max_logsigma_gap=log_gap,
        bound=bound,
        passed=sig_gap <= bound and log_gap <= bound,
        vacuous=vacuous,
    )


# -- closed-form bounds ----------------------------------------------------


@dataclass(frozen=True)
class MomentInputs:
    """Reference-law moments the closed-form bounds are assembled from.

    e_t and e_t2 are full first and second moments of the lifetime;
    e_t_tail and p_tail are E(T 1{T>tau}) and P(T>tau) at the params tau.
    """

    e_t: float
    e_t_tail: float
    p_tail: float
    e_t2: float

    def __post_init__(self):
        for name in ("e_t", "e_t_tail", "p_tail", "e_t2"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class KlBounds:
    """The four assembled upper bounds plus the scale-log constant."""

    head_bound: float
    tail_bound: float
    var_head_bound: float
    var_tail_bound: float
    k0: float

    def as_record(self) -> dict:
        return {
            "head_bound": self.head_bound,
            "tail_bound": self.tail_bound,
            "var_head_bound": self.var_head_bound,
            "var_tail_bound": self.var_tail_bound,
            "k0": self.k0,
        }


def analytic_kl_bounds(params: BSetParams, omega0: float, moments: MomentInputs) -> KlBounds:
    """Closed-form caps for K (head/tail) and V (head/tail) on the set.

    head_bound caps the body integral of the log ratio, tail_bound the
    remainder past tau using the density cap omega0 for the squared-density
    term; the variance pair does the same for the second moment.  k0 is
    the largest |log omega| over the admissible scale band.
    """
    if not omega0 > 0:
        raise DomainError(f"omega0 must be positive, got {omega0}")
    delta, tau, d = params.delta, params.tau, params.d
    k0 = max(
        abs(math.log(omega0 * (1.0 - delta))),
        abs(math.log(omega0 * (1.0 + delta))),
    )
    head = delta * (
        1.0 / (1.0 - delta)
        + (d + 1) / (tau + 1.0)
        + omega0 * (d + 1)
        + omega0 * moments.e_t
    )
    tail = (
        omega0 * moments.p_tail
        + k0 * moments.p_tail
        + (1.0 + omega0 * (1.0 + delta)) * moments.e_t_tail
    )
    var_head = (
        12.0 * delta
        + 1.5 * (d + 1) ** 2 * delta
        + 6.0 * omega0 ** 2 * delta ** 2 * moments.e_t2
        + 6.0 * omega0 ** 2 * (d + 1) ** 2 * delta ** 2
    )
    var_tail = (
        2.0 * (omega0 ** 2 + 1.0) * moments.p_tail
        + 6.0 * k0 ** 2 * moments.p_tail
        + 6.0 * moments.e_t2
        + 6.0 * omega0 ** 2 * (1.0 + delta) ** 2 * moments.e_t2
    )
    return KlBounds(head, tail, var_head, var_tail, k0)


def _survival_moments(theta0: Theta, xs: np.ndarray, t_cut: float, cuts) -> tuple:
    """E(T 1{T>a}), E(T^2 1{T>a}) and S(a) for each covariate row and cut a.

    E(T^p 1{T>a}) = a^p S(a) + int_a^inf p t^(p-1) S.  Every cut is a cell
    edge, so the integral from a is a suffix sum over the Gauss-Legendre
    cells past a, all rows from one hazard.law call.  Beyond the
    cutoff S is capped by S(t_cut) e^{-rate (t - t_cut)},
    rate = omega0 * sigma_min, so the values are upper estimates.  Returns
    the three stacked, shape (3, len(xs), len(cuts)).
    """
    cuts = np.asarray(cuts, dtype=float)
    edges = _cell_edges(t_cut, (theta0,), cuts)
    y = _link_rows(theta0, xs, edges)
    rate = theta0.omega * _link_floor(y)[:, None]
    ts, w = _knot_cells(edges, y, theta0.omega)
    surv = np.exp(-law(theta0, xs, np.concatenate([ts, cuts, [t_cut]]))[2])
    s_ts, s_a, s_h = surv[:, :ts.size], surv[:, ts.size:-1], surv[:, -1:]
    past = np.searchsorted(ts, cuts, side="right")  # first node beyond each cut
    moments = []
    for p, envelope in ((1, s_h / rate), (2, 2.0 * s_h * (t_cut / rate + 1.0 / rate ** 2))):
        terms = np.concatenate([s_ts * (p * ts ** (p - 1) * w), envelope], axis=1)
        suffix = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]  # smallest terms first
        moments.append(cuts ** p * s_a + suffix[:, past])
    return np.stack([*moments, s_a])


def moments_for(theta0: Theta, x, tau: float, t_cut: float | None = None) -> MomentInputs:
    """Survival-form moment estimates at one covariate, tails enveloped up.

    Uses E(T) = int S, E(T^2) = int 2 t S, E(T 1{T>tau}) = tau S(tau) +
    int_tau S, Gauss-Legendre on the knot cells of [0, t_cut] and exact to
    rounding; beyond it S is capped by S(t_cut) e^{-rate (t - t_cut)}, so
    the outputs are upper estimates and safe to feed the bound assembly.
    """
    t_cut = _cutoff(t_cut, theta0)
    if not 0 < tau < t_cut:
        raise DomainError(f"tau must sit inside (0, {t_cut}), got {tau}")
    row = _as_covariate(x, theta0.d).as_array()[None, :]
    (e_t, e_t_tail), (e_t2, _), (_, p_tail) = _survival_moments(theta0, row, t_cut, [0, tau])[:, 0]
    return MomentInputs(float(e_t), float(e_t_tail), float(p_tail), float(e_t2))


# -- moment condition checks ----------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    """First-moment and uniform-integrability estimates for a reference law."""

    a3_estimate: float
    a3prime_worst: float
    a3_pass: bool
    a3prime_pass: bool
    truncation_ladder: tuple
    ladder_decreasing: bool
    inconclusive: bool
    note: str

    def as_record(self) -> dict:
        return {
            "a3_estimate": self.a3_estimate,
            "a3prime_worst": self.a3prime_worst,
            "a3_pass": self.a3_pass,
            "a3prime_pass": self.a3prime_pass,
            "truncation_ladder": [list(p) for p in self.truncation_ladder],
            "ladder_decreasing": self.ladder_decreasing,
            "inconclusive": self.inconclusive,
            "note": self.note,
        }


def moment_checks(
    theta0: Theta,
    design: str,
    q_grid=None,
    xs=None,
    t_cut: float | None = None,
    m: float = 10.0,
    delta: float = 0.05,
) -> MomentReport:
    """Estimate E(T) and the worst second-moment tail past m.

    The first moment aggregates over the design (weighted mean for RD,
    max for NRD); the uniform-integrability surrogate is the max over
    covariate points of E(T^2 1{T>m}), which must fall below delta to
    pass.  Also reports E(T 1{T>n}) on a doubling ladder of n values.
    The report is inconclusive when the cutoff is not well past m or the
    envelope rate degenerates.
    """
    t_cut = _cutoff(t_cut, theta0)
    rows, weights, at = _design_rows(theta0.d, design, q_grid, xs)

    def inconclusive(note: str) -> MomentReport:
        return MomentReport(math.nan, math.nan, False, False, (), False, True, note)

    if t_cut < 2.0 * m:
        return inconclusive(f"cutoff {t_cut} is not well past m={m}; no usable tail estimate")
    ladder_ns = []
    n = 1.0
    while n <= t_cut / 2.0:
        ladder_ns.append(n)
        n *= 2.0
    try:
        e1, e2, _ = _survival_moments(theta0, rows, t_cut, [0.0, *ladder_ns, m])
    except NumericError as exc:
        return inconclusive(str(exc))
    reduced = weights @ e1[:, :-1] if at is None else np.max(e1[:, :-1], axis=0)
    a3 = float(reduced[0])
    worst = float(np.max(e2[:, -1]))
    ladder = tuple((float(nv), float(v)) for nv, v in zip(ladder_ns, reduced[1:]))
    decreasing = all(b[1] <= a[1] for a, b in zip(ladder, ladder[1:]))
    return MomentReport(
        a3_estimate=a3,
        a3prime_worst=worst,
        a3_pass=math.isfinite(a3),
        a3prime_pass=worst <= delta,
        truncation_ladder=ladder,
        ladder_decreasing=decreasing,
        inconclusive=False,
        note="",
    )


# -- neighborhood sampling -------------------------------------------------


def sample_b_member(theta0: Theta, params: BSetParams, seed: int) -> Theta:
    """Draw a random parameter inside the neighborhood around theta0.

    The scale moves inside 90% of the admissible band; each path gets a
    smooth cosine perturbation capped at 90% of the sup limit, so the sup
    condition holds by construction and membership is verified before
    returning.  Raises when theta0 sits too close to the decay floor for
    any perturbation to stay above it.
    """
    rng = np.random.default_rng(seed)
    if params.d != theta0.d:
        raise DomainError(f"params expect d={params.d}, theta0 has d={theta0.d}")
    ts = theta0.grid.as_array()
    cap = 0.9 * params.sup_limit
    for _ in range(B_MEMBER_TRIES):
        omega = theta0.omega * (1.0 + 0.9 * params.delta * rng.uniform(-1.0, 1.0))
        values = []
        for p in theta0.paths:
            amp = cap * rng.uniform(0.2, 1.0)
            freq = rng.uniform(0.3, 3.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            values.append(np.asarray(p.values) + amp * np.cos(freq * ts + phase))
        cand = Theta.from_values(omega, theta0.grid, values)
        if b_set_membership(cand, theta0, params).member:
            return cand
        cap *= 0.5
    raise GenerationError(
        "no neighborhood member found; reference parameter hugs the decay floor"
    )
