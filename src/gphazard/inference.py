"""Posterior sampling on a knot grid and the empirical consistency experiment.

The sampler works on a finite-dimensional surrogate of the path prior:
each latent path is represented by its values at K fixed knots and
linearly interpolated in between, so the prior on a path is the
multivariate normal its kernel induces at the knots.  A draw is a
hazard.Theta whose paths all share the sampler's one knot grid, so the
laws and metrics read a draw as they read the truth.  Each Gibbs
scan moves every path by a prior-reversible whole-path proposal,
accepted on the likelihood ratio alone, then draws the hazard scale
exactly from its Gamma full conditional: the likelihood in omega is
omega^n exp(-omega I), conjugate to the Gamma prior.  K is a
convergence knob, not part of the model; reports carry it.

The consistency experiment generates datasets of growing size from a
fixed truth, runs the sampler on each, and tracks how much posterior
mass sits outside a metric ball around the truth.  The decision device
is a rank correlation across the size ladder; the theory predicts decay
but no rate, so no rate is asserted.  Its chains run in lockstep, one
likelihood call per path move for every chain, each chain bit-identical
to a lone mcmc_run; so the ladder never calls mcmc_run, and a tracer
that wraps mcmc_run sees the chain loop in consistency_experiment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import spearmanr

from .errors import DomainError, GpHazardError, NumericError
from .gp_paths import TimeGrid, _covariance_cholesky
from .hazard import SurvivalDataset, Theta, _link_integral, _locate, generate_dataset
from .kernels import StationaryKernel
# sup_deviation_metric is bound here for bench/tracing.py, which wraps it
# in every module that imports it
from .vc import GridSpec, _BoxTable, sup_deviation_metric  # noqa: F401

__all__ = [
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


def _check_records(dataset: SurvivalDataset, horizon: float) -> None:
    """Refuse a dataset that reaches past the knot horizon; the dataset
    itself has refused negative and non-finite times."""
    if not dataset.horizon <= horizon:
        raise DomainError(
            f"dataset horizon {dataset.horizon:g} exceeds representation horizon {horizon:g}"
        )
    if dataset.times_array().max() > horizon:
        raise DomainError(f"a record time lies outside [0, {horizon:g}]")


class _Likelihood:
    """Workspace for the observed-data log likelihood of several datasets.

    Each record needs log sigmoid(Y_i(t_i)) and the integral of
    sigmoid(Y_i) over [0, t_i], both exact from hazard._link_integral.
    The records of all datasets are laid end to end, checked, and located
    in their knot cells once, so one evaluation of every dataset's paths
    is one _link_integral call with no search, and each dataset's pieces
    are summed over its own slice.  With no covariates all records of a
    dataset share one link row, so its whole knot cells are integrated
    once per evaluation and each record adds only its partial cell.
    """

    def __init__(self, datasets, knots):
        kn = np.asarray(knots, dtype=float)
        for dataset in datasets:
            _check_records(dataset, float(kn[-1]))
        self.knots = kn
        self.d = datasets[0].d
        sizes = [dataset.n for dataset in datasets]
        self.ends = np.cumsum([0] + sizes).tolist()
        self.x = [dataset.covariates_array() for dataset in datasets]
        cell, self.width = _locate(kn, np.concatenate([ds.times_array() for ds in datasets]))
        # the link row of each record: its dataset's shared row at d = 0
        row = np.repeat(np.arange(len(sizes)), sizes) if self.d == 0 else np.arange(cell.size)
        self.at = row * kn.size + cell
        self.rows = np.empty((len(sizes) if self.d == 0 else cell.size, kn.size))

    def pieces(self, values) -> tuple:
        """(log link at each record time, integrated link over [0, t_i]),
        all records end to end; values holds one path matrix per dataset."""
        for k, vals in enumerate(values):
            vals = np.asarray(vals, dtype=float)
            if self.d == 0:
                self.rows[k] = vals[0]
            else:
                a, b = self.ends[k], self.ends[k + 1]
                np.add(vals[0], self.x[k] @ vals[1:], out=self.rows[a:b])
        y_t, softplus_t, lam = _link_integral(self.knots, self.rows, self.at, self.width)
        return y_t - softplus_t, lam

    def parts(self, values) -> list:
        """(sum of log links, sum of integrated links) for each dataset."""
        logsig, lam = self.pieces(values)
        return [
            (float(logsig[a:b].sum()), float(lam[a:b].sum()))
            for a, b in zip(self.ends, self.ends[1:])
        ]

    def per_record(self, omega: float, values) -> np.ndarray:
        logsig, lam = self.pieces(values)
        with np.errstate(over="ignore"):
            # overflow here is the non-finite case the caller reports
            return math.log(omega) + logsig - omega * lam


def log_likelihood(theta: Theta, dataset: SurvivalDataset) -> float:
    """Sum of log densities of the observed records under theta."""
    if theta.d != dataset.d:
        raise DomainError(f"theta has d={theta.d}, dataset has d={dataset.d}")
    values = [p.values for p in theta.paths]
    per = _Likelihood([dataset], theta.grid.points).per_record(theta.omega, [values])
    bad = np.flatnonzero(~np.isfinite(per))
    if bad.size:
        raise NumericError(f"record {int(bad[0])}: non-finite log-likelihood")
    return float(np.sum(per))


def _path_log_prior(theta: Theta, kernels) -> float:
    kn = theta.grid.as_array()
    k = kn.size
    lp = 0.0
    for path, kernel in zip(theta.paths, kernels):
        chol, _ = _covariance_cholesky(kernel, kn)
        z = solve_triangular(chol, np.asarray(path.values), lower=True)
        lp += -0.5 * float(z @ z) - float(np.sum(np.log(np.diag(chol)))) - 0.5 * k * math.log(2.0 * math.pi)
    return lp


def log_posterior(theta: Theta, dataset: SurvivalDataset, prior: ModelPrior) -> float:
    """Log likelihood plus log prior of the knot values and the scale."""
    if len(prior.kernels) != theta.d + 1:
        raise DomainError(
            f"prior has {len(prior.kernels)} kernels for d={theta.d} (need {theta.d + 1})"
        )
    lik = log_likelihood(theta, dataset)
    return lik + _path_log_prior(theta, prior.kernels) + prior.omega.logpdf(theta.omega)


def _knot_grid(knots) -> TimeGrid:
    """The sampler's knot grid: a TimeGrid of at least 2 knots."""
    try:
        grid = TimeGrid(knots)
    except DomainError as exc:
        raise DomainError(f"bad knots: {exc}") from None
    if len(grid.points) < 2:
        raise DomainError(f"need at least 2 knots, got {len(grid.points)}")
    return grid


def _pcn_proposal(values, j, chol, beta, rng):
    """A copy of values with path j moved to sqrt(1-beta^2) row + beta noise.

    The move leaves the path prior invariant, so the prior density cancels
    from the acceptance ratio; the input matrix is not modified.
    """
    prop = values.copy()
    noise = chol @ rng.standard_normal(values.shape[1])
    prop[j] = math.sqrt(1.0 - beta * beta) * values[j] + beta * noise
    return prop


def _accepts(delta: float, rng) -> bool:
    """Metropolis test of a log ratio; a nonnegative one accepts without
    drawing a uniform."""
    return delta >= 0.0 or rng.random() < math.exp(max(delta, -745.0))


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


def mcmc_run(
    dataset,
    prior: ModelPrior,
    config: McmcConfig,
    knots,
    seed,
    prior_only: bool = False,
) -> McmcReport:
    """Gibbs sampler over (omega, path values at knots).

    Each recorded draw is a Theta; all draws share one TimeGrid of the knots.
    One scan per iteration: a prior-reversible move per path, accepted
    on the likelihood ratio at the current omega, then an exact draw
    omega ~ Gamma(a + n, b + I) from its full conditional, where I sums
    the integrated link over [0, t_i] at the current paths.  Each
    recorded omega is therefore an exact draw given that draw's paths.
    With prior_only the likelihood is dropped (n = 0, I = 0): path moves
    always accept and omega is drawn from its prior, which makes the
    draws a prior sample for calibration checks.  Deterministic given
    seed, which starts the chain's one generator.

    Path acceptance is measured after burn_in; a rate below 1% or above
    99% is reported as a warning, not an error.
    """
    return _chains([dataset], prior, config, [seed], knots, prior_only)[0]


def _chains(datasets, prior: ModelPrior, config: McmcConfig, seeds, knots, prior_only=False) -> list:
    """One mcmc_run chain per (dataset, seed) pair, advanced in lockstep.

    For each move of path j every chain draws its noise, and then its
    uniform, from its own generator in the order of a lone chain; all
    chains' proposals are scored by one _Likelihood evaluation.  So each
    report is bit-identical to mcmc_run on its dataset with that seed,
    and a ladder pays the per-call cost of the likelihood once per move,
    not once per chain.
    """
    grid = _knot_grid(knots)
    kn = grid.points
    d = len(prior.kernels) - 1
    if prior_only:
        ns = [0] * len(seeds)

        def parts(values):
            return [(0.0, 0.0)] * len(values)
    else:
        for dataset in datasets:
            if dataset is None:
                raise DomainError("dataset must be nonempty unless prior_only")
            if dataset.d != d:
                raise DomainError(f"dataset has d={dataset.d}, prior covers d={d}")
        ns = [dataset.n for dataset in datasets]
        parts = _Likelihood(datasets, kn).parts

    chols = [_covariance_cholesky(kernel, kn)[0] for kernel in prior.kernels]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    beta, rate = config.proposal_scale_path, prior.omega.rate
    shapes = [prior.omega.shape + n for n in ns]

    omegas = [prior.omega.mean] * len(rngs)
    values = [np.vstack([chol @ rng.standard_normal(len(kn)) for chol in chols]) for rng in rngs]
    current = parts(values)
    draws = [[] for _ in rngs]
    accepted = [0] * len(rngs)
    for it in range(config.iterations):
        kept = it >= config.burn_in
        for j, chol in enumerate(chols):
            props = [_pcn_proposal(v, j, chol, beta, rng) for v, rng in zip(values, rngs)]
            for c, new in enumerate(parts(props)):
                delta = (new[0] - current[c][0]) - omegas[c] * (new[1] - current[c][1])
                if _accepts(delta, rngs[c]):
                    values[c], current[c] = props[c], new
                    accepted[c] += kept
        for c, rng in enumerate(rngs):
            # at a small prior shape (prior-only runs) the exact draw can fall
            # below the smallest subnormal and round to 0.0; it is stored as
            # the smallest normal double, which keeps the law up to
            # representation
            omega = rng.gamma(shapes[c], 1.0 / (rate + current[c][1]))
            omegas[c] = float(omega) or np.finfo(float).tiny
        if kept and (it - config.burn_in) % config.thinning == 0:
            for chain, omega, v in zip(draws, omegas, values):
                chain.append(Theta.from_values(omega, grid, v))

    reports = []
    for chain, ok in zip(draws, accepted):
        rate_paths = ok / ((config.iterations - config.burn_in) * (d + 1))
        warnings = []
        if not prior_only:
            # prior-only path moves accept by construction, nothing to flag
            if rate_paths < 0.01:
                warnings.append(f"path acceptance rate {rate_paths:.4f} below 1% after burn-in")
            elif rate_paths > 0.99:
                warnings.append(f"path acceptance rate {rate_paths:.4f} above 99% after burn-in")
        reports.append(McmcReport(
            draws=tuple(chain),
            acceptance_paths=rate_paths,
            warnings=tuple(warnings),
            knots=kn,
            prior_only=prior_only,
        ))
    return reports


def posterior_outside_mass(
    draws,
    theta0: Theta,
    epsilon: float,
    design: str,
    q_grid,
    grid: GridSpec,
) -> float:
    """Fraction of draws farther than epsilon from theta0 in the sup metric.

    draws are Thetas, such as McmcReport.draws.  The atoms and theta0's
    survival rows are resolved once per call, and the draws are scored in
    batches by _BoxTable.values: one law call and one box table per batch,
    each distance equal to sup_deviation_metric(draw, theta0, ...).value.
    """
    draws = tuple(draws)
    if not draws:
        raise DomainError("need at least one draw")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be a positive real, got {epsilon}")
    table = _BoxTable(theta0, design, q_grid, grid)
    return int(np.count_nonzero(table.values(draws) > epsilon)) / len(draws)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one consistency run needs, fixed up front.

    Datasets are generated from theta0 at each ladder size, the sampler
    runs with mcmc, and the outside mass is measured with (design, q,
    metric_grid) at epsilon.  Each cell's data and chain streams derive
    from (seed, n, rep).
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
        kn = _knot_grid(self.knots).points
        if kn[-1] < self.theta0.horizon:
            raise DomainError(
                "knots must cover the truth horizon; censored records are retried "
                "with doubled horizons up to it"
            )
        object.__setattr__(self, "knots", kn)


@dataclass(frozen=True)
class CellResult:
    """One (n, replication) cell.  wall_time is the cell's own generation
    and scoring time plus the shared chain time (none for a cell that
    failed at generation, which joins no chain)."""

    n: int
    rep: int
    outside_mass: float
    acceptance_paths: float
    wall_time: float
    error: str = ""
    warnings: tuple = ()    # the chain's McmcReport.warnings
    generate_s: float = 0.0  # dataset generation and its check against the knots
    score_s: float = 0.0     # posterior_outside_mass


@dataclass(frozen=True)
class ExperimentReport:
    """Per-cell results plus the ladder-level trend verdict."""

    cells: tuple
    per_n: tuple
    spearman: float
    consistent_trend: bool
    epsilon: float
    chains_s: float = 0.0    # every cell's chain, run in lockstep


def consistency_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Outside-mass trend across a ladder of dataset sizes.

    Runs in three stages.  Every (n, replication) cell generates its own
    dataset and checks it against the knots; then all cells' chains run
    in lockstep, each bit-identical to a lone mcmc_run; then each cell
    records the posterior mass outside the epsilon ball.  A cell whose
    generation or scoring raises a package error is recorded with the
    message and the rest of the grid still runs; an error in the shared
    chain stage is recorded on every cell that reached it.  The trend
    statistic is the Spearman correlation between n and outside mass over
    successful cells; at or below -0.8 the report declares a consistent
    trend.
    """
    slots = [(n, rep) for n in spec.n_ladder for rep in range(spec.replications)]
    datasets, seeds, errors, generate_s = [], [], [], []
    for n, rep in slots:
        seq = np.random.SeedSequence(spec.seed, spawn_key=(n, rep))
        data_seed, chain_seed = (int(s) for s in seq.generate_state(2))
        start = time.perf_counter()
        dataset, error = None, ""
        try:
            dataset = generate_dataset(
                spec.theta0, n, spec.design, spec.q, spec.horizon, data_seed
            )
            _check_records(dataset, spec.knots[-1])
        except GpHazardError as exc:
            dataset, error = None, str(exc)
        generate_s.append(time.perf_counter() - start)
        datasets.append(dataset)
        seeds.append(chain_seed)
        errors.append(error)

    live = [i for i, dataset in enumerate(datasets) if dataset is not None]
    runs = {}
    start = time.perf_counter()
    try:
        if live:
            runs = dict(zip(live, _chains(
                [datasets[i] for i in live], spec.prior, spec.mcmc, [seeds[i] for i in live],
                spec.knots,
            )))
    except GpHazardError as exc:
        for i in live:
            errors[i] = str(exc)
    chains_s = time.perf_counter() - start

    cells = []
    for i, (n, rep) in enumerate(slots):
        run, mass, score_s = runs.get(i), math.nan, 0.0
        if run is not None:
            start = time.perf_counter()
            try:
                mass = posterior_outside_mass(
                    run.draws, spec.theta0, spec.epsilon, spec.design, spec.q, spec.metric_grid
                )
            except GpHazardError as exc:
                errors[i] = str(exc)
            score_s = time.perf_counter() - start
        ok = not errors[i]
        cells.append(
            CellResult(
                n=n,
                rep=rep,
                outside_mass=mass if ok else math.nan,
                acceptance_paths=run.acceptance_paths if ok else math.nan,
                wall_time=generate_s[i] + (chains_s if datasets[i] is not None else 0.0) + score_s,
                error=errors[i],
                warnings=run.warnings if ok else (),
                generate_s=generate_s[i],
                score_s=score_s,
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
        chains_s=chains_s,
    )
