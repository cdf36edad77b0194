"""Posterior sampling on a knot grid and the empirical consistency experiment.

The sampler works on a finite-dimensional surrogate of the path prior:
each latent path is represented by its values at K fixed knots and
linearly interpolated in between, so the prior on a path is the
multivariate normal its kernel induces at the knots.  Each Gibbs
scan moves every path by a prior-reversible whole-path proposal,
accepted on the likelihood ratio alone, then draws the hazard scale
exactly from its Gamma full conditional: the likelihood in omega is
omega^n exp(-omega I), conjugate to the Gamma prior.  K is a
convergence knob, not part of the model; reports carry it.

The consistency experiment generates datasets of growing size from a
fixed truth, runs the sampler on each, and tracks how much posterior
mass sits outside a metric ball around the truth.  The decision device
is a rank correlation across the size ladder; the theory predicts decay
but no rate, so no rate is asserted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import spearmanr

from .errors import DomainError, GpHazardError, NumericError
from .gp_paths import TimeGrid, _covariance_cholesky
from .hazard import SurvivalDataset, Theta, _link_integral, _paths_on, generate_dataset
from .kernels import StationaryKernel
# sup_deviation_metric is bound here for bench/tracing.py, which wraps it
# in every module that imports it
from .vc import GridSpec, _BoxTable, sup_deviation_metric  # noqa: F401

__all__ = [
    "ThetaRep",
    "OmegaPrior",
    "ModelPrior",
    "McmcConfig",
    "McmcReport",
    "ExperimentSpec",
    "CellResult",
    "ExperimentReport",
    "log_likelihood",
    "log_posterior",
    "mcmc_run",
    "posterior_outside_mass",
    "consistency_experiment",
]


@dataclass(frozen=True)
class ThetaRep:
    """Finite-dimensional state: hazard scale plus path values at knots.

    knots are shared by all d+1 paths, strictly increasing from 0;
    values holds one row of K reals per path.
    """

    omega: float
    knots: tuple
    values: tuple

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise DomainError(f"omega must be a positive real, got {self.omega}")
        kn = np.asarray(self.knots, dtype=float)
        if kn.ndim != 1 or kn.size < 2:
            raise DomainError("need at least 2 knots")
        if kn[0] != 0.0 or not np.all(np.diff(kn) > 0):
            raise DomainError("knots must start at 0 and increase strictly")
        rows = tuple(tuple(float(v) for v in row) for row in self.values)
        if not rows:
            raise DomainError("need at least one path row")
        k = kn.size
        for j, row in enumerate(rows):
            if len(row) != k:
                raise DomainError(f"path {j} has {len(row)} values for {k} knots")
            if not all(np.isfinite(row)):
                raise DomainError(f"path {j} has non-finite values")
        object.__setattr__(self, "knots", tuple(float(t) for t in kn))
        object.__setattr__(self, "values", rows)

    @property
    def d(self) -> int:
        return len(self.values) - 1

    @property
    def horizon(self) -> float:
        return self.knots[-1]

    def to_theta(self) -> Theta:
        return Theta.from_values(self.omega, TimeGrid(self.knots), self.values)

    @classmethod
    def from_theta(cls, theta: Theta, knots) -> "ThetaRep":
        """Sample the theta's paths at the given knots."""
        kn = np.asarray(knots, dtype=float)
        if kn.size and kn[-1] > theta.horizon:
            raise DomainError("knots extend past the theta horizon")
        rows = tuple(tuple(row) for row in _paths_on(theta, kn).tolist())
        return cls(theta.omega, tuple(float(t) for t in kn), rows)


@dataclass(frozen=True)
class OmegaPrior:
    """Gamma law for the hazard scale, by shape and rate."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise DomainError(f"shape must be a positive real, got {self.shape}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise DomainError(f"rate must be a positive real, got {self.rate}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def logpdf(self, omega: float) -> float:
        if not omega > 0:
            return -math.inf
        return (
            self.shape * math.log(self.rate)
            - math.lgamma(self.shape)
            + (self.shape - 1.0) * math.log(omega)
            - self.rate * omega
        )


@dataclass(frozen=True)
class ModelPrior:
    """One kernel per path plus the law of the hazard scale."""

    kernels: tuple
    omega: OmegaPrior

    def __post_init__(self):
        ks = tuple(self.kernels)
        if not ks:
            raise DomainError("need at least one kernel")
        for k in ks:
            if not isinstance(k, StationaryKernel):
                raise DomainError(f"kernels must be StationaryKernel, got {type(k).__name__}")
        object.__setattr__(self, "kernels", ks)


@dataclass(frozen=True)
class McmcConfig:
    iterations: int
    burn_in: int
    thinning: int
    proposal_scale_path: float
    seed: int

    def __post_init__(self):
        for name in ("iterations", "burn_in", "thinning"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {v!r}")
        if self.iterations < 1:
            raise DomainError(f"iterations must be >= 1, got {self.iterations}")
        if self.burn_in < 1:
            raise DomainError(f"burn_in must be >= 1, got {self.burn_in}")
        if self.burn_in >= self.iterations:
            raise DomainError(
                f"burn_in must be < iterations, got {self.burn_in} >= {self.iterations}"
            )
        if self.thinning < 1:
            raise DomainError(f"thinning must be >= 1, got {self.thinning}")
        if not (np.isfinite(self.proposal_scale_path) and 0 < self.proposal_scale_path <= 1):
            raise DomainError("proposal_scale_path must lie in (0, 1]")


class _Likelihood:
    """Per-dataset workspace for the observed-data log likelihood.

    Each record needs log sigmoid(Y_i(t_i)) and the integral of
    sigmoid(Y_i) over [0, t_i], both exact from hazard._link_integral.
    With no covariates every record shares one link row, so its whole
    knot cells are integrated once per evaluation and each record adds
    only its partial cell.
    """

    def __init__(self, dataset: SurvivalDataset, knots):
        kn = np.asarray(knots, dtype=float)
        t = dataset.times_array()
        horizon = float(kn[-1])
        if dataset.horizon > horizon:
            raise DomainError(
                f"dataset horizon {dataset.horizon:g} exceeds representation horizon {horizon:g}"
            )
        if t.size and not (t.min() >= 0.0 and t.max() <= horizon):  # NaN fails too
            raise DomainError(f"a record time lies outside [0, {horizon:g}]")
        self.knots = kn
        self.x = dataset.covariates_array()
        self.d = dataset.d
        self.n = dataset.n
        # the shared row (d = 0) takes the times along its one row
        self.t = t[None, :] if self.d == 0 else t[:, None]

    def pieces(self, values) -> tuple:
        """(log link at each record time, integrated link over [0, t_i])."""
        vals = np.asarray(values, dtype=float)
        y = vals[:1] if self.d == 0 else vals[0] + self.x @ vals[1:]
        y_t, softplus_t, lam = _link_integral(self.knots, y, self.t)
        return (y_t - softplus_t).ravel(), lam.ravel()

    def parts(self, values) -> tuple:
        logsig, lam = self.pieces(values)
        return float(np.sum(logsig)), float(np.sum(lam))

    def per_record(self, omega: float, values) -> np.ndarray:
        logsig, lam = self.pieces(values)
        with np.errstate(over="ignore"):
            # overflow here is the non-finite case the caller reports
            return math.log(omega) + logsig - omega * lam


def _require_compatible(rep: ThetaRep, dataset: SurvivalDataset):
    if rep.d != dataset.d:
        raise DomainError(f"representation has d={rep.d}, dataset has d={dataset.d}")


def log_likelihood(rep: ThetaRep, dataset: SurvivalDataset) -> float:
    """Sum of log densities of the observed records under rep."""
    _require_compatible(rep, dataset)
    if dataset.n == 0:
        raise DomainError("dataset is empty")
    per = _Likelihood(dataset, rep.knots).per_record(rep.omega, rep.values)
    bad = np.flatnonzero(~np.isfinite(per))
    if bad.size:
        raise NumericError(f"record {int(bad[0])}: non-finite log-likelihood")
    return float(np.sum(per))


def _path_log_prior(values, knots, kernels) -> float:
    kn = np.asarray(knots, dtype=float)
    k = kn.size
    lp = 0.0
    for row, kernel in zip(values, kernels):
        chol, _ = _covariance_cholesky(kernel, kn)
        z = solve_triangular(chol, np.asarray(row, dtype=float), lower=True)
        lp += -0.5 * float(z @ z) - float(np.sum(np.log(np.diag(chol)))) - 0.5 * k * math.log(2.0 * math.pi)
    return lp


def log_posterior(rep: ThetaRep, dataset: SurvivalDataset, prior: ModelPrior) -> float:
    """Log likelihood plus log prior of the knot values and the scale."""
    if len(prior.kernels) != rep.d + 1:
        raise DomainError(
            f"prior has {len(prior.kernels)} kernels for d={rep.d} (need {rep.d + 1})"
        )
    lik = log_likelihood(rep, dataset)
    return lik + _path_log_prior(rep.values, rep.knots, prior.kernels) + prior.omega.logpdf(rep.omega)


def _pcn_step(values, j, chol, beta, omega, parts, current, rng):
    """One prior-reversible move of path j, accepted on the likelihood ratio.

    The proposal sqrt(1-beta^2) row + beta noise leaves the path prior
    invariant, so the prior density cancels from the acceptance ratio.
    parts maps a values matrix to its likelihood pieces (s, i), with log
    likelihood s - omega * i up to terms free of the paths; current is
    parts(values).  A zero log ratio accepts without drawing a uniform.
    Returns (values, pieces, accepted); the input matrix is not modified.
    """
    prop = values.copy()
    noise = chol @ rng.standard_normal(values.shape[1])
    prop[j] = math.sqrt(1.0 - beta * beta) * values[j] + beta * noise
    s, i = parts(prop)
    delta = (s - current[0]) - omega * (i - current[1])
    if delta >= 0.0 or rng.random() < math.exp(max(delta, -745.0)):
        return prop, (s, i), True
    return values, current, False


@dataclass(frozen=True)
class McmcReport:
    """Thinned post-burn-in draws plus path acceptance accounting."""

    draws: tuple
    acceptance_paths: float
    warnings: tuple
    knots: tuple
    prior_only: bool

    @property
    def acceptance_omega(self) -> float:
        """Always 1.0: the scale is an exact Gibbs draw, never rejected."""
        return 1.0

    def as_record(self) -> dict:
        return {
            "n_draws": len(self.draws),
            "acceptance_paths": self.acceptance_paths,
            "warnings": list(self.warnings),
            "n_knots": len(self.knots),
            "prior_only": self.prior_only,
        }


def mcmc_run(
    dataset,
    prior: ModelPrior,
    config: McmcConfig,
    knots,
    prior_only: bool = False,
) -> McmcReport:
    """Gibbs sampler over (omega, path values at knots).

    One scan per iteration: a prior-reversible move per path, accepted
    on the likelihood ratio at the current omega, then an exact draw
    omega ~ Gamma(a + n, b + I) from its full conditional, where I sums
    the integrated link over [0, t_i] at the current paths.  Each
    recorded omega is therefore an exact draw given that draw's paths.
    With prior_only the likelihood is dropped (n = 0, I = 0): path moves
    always accept and omega is drawn from its prior, which makes the
    draws a prior sample for calibration checks.  Deterministic given
    config.seed.

    Path acceptance is measured after burn_in; a rate below 1% or above
    99% is reported as a warning, not an error.
    """
    kn = tuple(float(t) for t in np.asarray(knots, dtype=float))
    if len(kn) < 2 or kn[0] != 0.0 or not all(b > a for a, b in zip(kn, kn[1:])):
        raise DomainError("knots must start at 0 and increase strictly")
    d = len(prior.kernels) - 1
    if prior_only:
        n, parts = 0, lambda values: (0.0, 0.0)
    else:
        if dataset is None or dataset.n == 0:
            raise DomainError("dataset must be nonempty unless prior_only")
        if dataset.d != d:
            raise DomainError(f"dataset has d={dataset.d}, prior covers d={d}")
        n, parts = dataset.n, _Likelihood(dataset, kn).parts

    chols = [_covariance_cholesky(kernel, kn)[0] for kernel in prior.kernels]
    rng = np.random.default_rng(config.seed)
    shape, rate = prior.omega.shape + n, prior.omega.rate

    omega = prior.omega.mean
    values = np.vstack([chol @ rng.standard_normal(len(kn)) for chol in chols])
    current = parts(values)
    draws = []
    accepted = 0
    for it in range(config.iterations):
        for j, chol in enumerate(chols):
            values, current, ok = _pcn_step(
                values, j, chol, config.proposal_scale_path, omega, parts, current, rng
            )
            accepted += ok and it >= config.burn_in
        # at a small prior shape (prior-only runs) the exact draw can fall
        # below the smallest subnormal and round to 0.0; it is stored as the
        # smallest normal double, which keeps the law up to representation
        omega = float(rng.gamma(shape, 1.0 / (rate + current[1]))) or np.finfo(float).tiny
        if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0:
            draws.append(
                ThetaRep(omega, kn, tuple(tuple(float(v) for v in row) for row in values))
            )

    rate_paths = accepted / ((config.iterations - config.burn_in) * (d + 1))
    warnings = []
    if not prior_only:
        # prior-only path moves accept by construction, nothing to flag
        if rate_paths < 0.01:
            warnings.append(f"path acceptance rate {rate_paths:.4f} below 1% after burn-in")
        elif rate_paths > 0.99:
            warnings.append(f"path acceptance rate {rate_paths:.4f} above 99% after burn-in")

    return McmcReport(
        draws=tuple(draws),
        acceptance_paths=rate_paths,
        warnings=tuple(warnings),
        knots=kn,
        prior_only=prior_only,
    )


def posterior_outside_mass(
    draws,
    theta0: Theta,
    epsilon: float,
    design: str,
    q_grid,
    grid: GridSpec,
) -> float:
    """Fraction of draws farther than epsilon from theta0 in the sup metric.

    The atoms and theta0's survival rows are resolved once per call; each
    draw then costs one survival_matrix call and one box table, the same
    computation as sup_deviation_metric(draw, theta0, ...), with the same
    memory bound per table.
    """
    draws = tuple(draws)
    if not draws:
        raise DomainError("need at least one draw")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be a positive real, got {epsilon}")
    table = _BoxTable(theta0, design, q_grid, grid)
    outside = sum(table.deviation(rep.to_theta()).value > epsilon for rep in draws)
    return outside / len(draws)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one consistency run needs, fixed up front.

    Datasets are generated from theta0 at each ladder size, the sampler
    runs with mcmc (its seed field is replaced per cell), and the
    outside mass is measured with (design, q, metric_grid) at epsilon.
    Per-cell streams derive from (seed, n, rep).
    """

    theta0: Theta
    prior: ModelPrior
    n_ladder: tuple
    epsilon: float
    design: str
    q: object
    replications: int
    mcmc: McmcConfig
    knots: tuple
    metric_grid: GridSpec
    horizon: float
    seed: int = 0

    def __post_init__(self):
        ladder = tuple(int(n) for n in self.n_ladder)
        if not ladder or any(n < 1 for n in ladder):
            raise DomainError("n_ladder must be nonempty positive integers")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise DomainError("n_ladder must increase strictly")
        object.__setattr__(self, "n_ladder", ladder)
        if isinstance(self.replications, bool) or not isinstance(self.replications, (int, np.integer)):
            raise DomainError(f"replications must be an integer, got {self.replications!r}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise DomainError(f"epsilon must be a positive real, got {self.epsilon}")
        if not 0 < self.horizon <= self.theta0.horizon:
            raise DomainError("horizon must be positive and within the truth's grid")
        kn = tuple(float(t) for t in self.knots)
        if len(kn) < 2:
            raise DomainError(f"need at least 2 knots, got {len(kn)}")
        if kn[-1] < self.theta0.horizon:
            raise DomainError(
                "knots must cover the truth horizon; censored records are retried "
                "with doubled horizons up to it"
            )
        object.__setattr__(self, "knots", kn)


@dataclass(frozen=True)
class CellResult:
    n: int
    rep: int
    outside_mass: float
    acceptance_paths: float
    wall_time: float
    error: str = ""
    warnings: tuple = ()    # the chain's McmcReport.warnings


@dataclass(frozen=True)
class ExperimentReport:
    """Per-cell results plus the ladder-level trend verdict."""

    cells: tuple
    per_n: tuple
    spearman: float
    consistent_trend: bool
    epsilon: float

    def to_csv(self) -> str:
        lines = ["n,rep,outside_mass,acceptance_paths,wall_time"]
        for c in self.cells:
            lines.append(f"{c.n},{c.rep},{c.outside_mass!r},{c.acceptance_paths!r},{c.wall_time!r}")
        return "\n".join(lines) + "\n"

    def as_record(self) -> dict:
        return {
            "spearman": self.spearman,
            "consistent_trend": self.consistent_trend,
            "epsilon": self.epsilon,
            "per_n": {str(n): m for n, m in self.per_n},
            "cells": len(self.cells),
            "failures": sum(1 for c in self.cells if c.error),
            "warnings": [
                {"n": c.n, "rep": c.rep, "messages": list(c.warnings)}
                for c in self.cells if c.warnings
            ],
        }


def consistency_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Outside-mass trend across a ladder of dataset sizes.

    Every (n, replication) cell generates its own dataset, runs its own
    chain, and records the posterior mass outside the epsilon ball; a
    cell that raises a package error is recorded with the message and
    the rest of the grid still runs.  The trend statistic is the
    Spearman correlation between n and outside mass over successful
    cells; at or below -0.8 the report declares a consistent trend.
    """
    cells = []
    for n in spec.n_ladder:
        for rep in range(spec.replications):
            seq = np.random.SeedSequence(spec.seed, spawn_key=(n, rep))
            data_seed, chain_seed = (int(s) for s in seq.generate_state(2))
            start = time.perf_counter()
            try:
                dataset = generate_dataset(
                    spec.theta0, n, spec.design, spec.q, spec.horizon, data_seed
                )
                run = mcmc_run(
                    dataset, spec.prior, replace(spec.mcmc, seed=chain_seed), spec.knots
                )
                mass = posterior_outside_mass(
                    run.draws, spec.theta0, spec.epsilon, spec.design, spec.q, spec.metric_grid
                )
                cells.append(
                    CellResult(
                        n=n,
                        rep=rep,
                        outside_mass=mass,
                        acceptance_paths=run.acceptance_paths,
                        wall_time=time.perf_counter() - start,
                        warnings=run.warnings,
                    )
                )
            except GpHazardError as exc:
                cells.append(
                    CellResult(
                        n=n,
                        rep=rep,
                        outside_mass=math.nan,
                        acceptance_paths=math.nan,
                        wall_time=time.perf_counter() - start,
                        error=str(exc),
                    )
                )

    good = [c for c in cells if not c.error]
    per_n = []
    for n in spec.n_ladder:
        masses = [c.outside_mass for c in good if c.n == n]
        if masses:
            per_n.append((n, float(np.mean(masses))))
    ns = np.array([c.n for c in good], dtype=float)
    ms = np.array([c.outside_mass for c in good], dtype=float)
    if ns.size < 2 or np.all(ms == ms[0]) or np.all(ns == ns[0]):
        rho = math.nan
    else:
        rho = float(spearmanr(ns, ms).statistic)
    consistent = bool(np.isfinite(rho) and rho <= -0.8)
    return ExperimentReport(
        cells=tuple(cells),
        per_n=tuple(per_n),
        spearman=rho,
        consistent_trend=consistent,
        epsilon=spec.epsilon,
    )
