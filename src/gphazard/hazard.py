"""GP-modulated hazard survival model.

A parameter theta = (omega, eta_0..eta_d) induces, for a covariate x in
[0,1]^d, the hazard

    lambda_x(t) = omega * sigmoid(eta_0(t) + sum_j x_j eta_j(t)),

so omega dominates the hazard everywhere and exact simulation by thinning
is available.  Paths are grid functions (GpPath) interpolated linearly,
so the link is linear on each grid cell and every cumulative hazard is
exact: the integral of a sigmoid is softplus.  One evaluator, law, gives
Y, log sigmoid(Y) and the cumulative hazard for many covariate rows at
shared times; survival_matrix, evaluate and HazardCurve (a one-row view)
read from it, and every time outside [0, horizon], NaN too, is refused.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import DomainError, GenerationError
from .gp_paths import CI_Z, MC_MIN_REPS, DyadicGrid, GpPath, TimeGrid, h_weight
from .kernels import _csv_table

MAX_HORIZON_DOUBLINGS = 10
# Below this change of the link across a segment the softplus quotient
# loses digits to cancellation and the midpoint expansion takes over;
# there the two agree to about 3e-13 relative.
_FLAT_DY = 1e-3


def log_sigmoid(y):
    """log(sigmoid(y)), stable for large |y|."""
    return -np.logaddexp(0.0, -np.asarray(y, dtype=float))


@dataclass(frozen=True)
class Covariate:
    """A point in the covariate cube [0,1]^d (d may be 0)."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        arr = np.asarray(coords, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise DomainError(f"covariate coordinates must lie in [0,1], got {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def d(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def _as_covariate(x, d: int) -> Covariate:
    """x as a Covariate of d coordinates; scalars and arrays of any shape
    give their coordinates in row-major order."""
    cov = x if isinstance(x, Covariate) else Covariate(tuple(np.asarray(x, dtype=float).ravel()))
    if cov.d != d:
        raise DomainError(f"covariate has {cov.d} coordinates, model expects {d}")
    return cov


def _check_horizon(theta: Theta, horizon: float) -> None:
    if not 0 < horizon <= theta.horizon:
        raise DomainError(f"horizon must lie in (0, {theta.horizon}], got {horizon}")


def _covariate_rows(theta: Theta, xs) -> np.ndarray:
    """xs as an (n, d) float array, checked against theta's d and [0,1]^d.

    The range test is written so that NaN fails it.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:  # zero rows carry no width, so they take theta's d
        xs = xs.reshape(len(xs), -1 if xs.size else theta.d)
    if xs.shape[1] != theta.d:
        raise DomainError(f"covariate rows have d={xs.shape[1]}, theta has d={theta.d}")
    if not np.all((xs >= 0) & (xs <= 1)):
        raise DomainError("covariates must be finite and lie in [0,1]^d")
    return xs


@dataclass(frozen=True)
class Theta:
    """Model parameter: positive scale omega plus d+1 paths on one grid."""

    omega: float
    paths: tuple

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise DomainError(f"omega must be positive, got {self.omega}")
        if not self.paths:
            raise DomainError("theta needs at least the baseline path eta_0")
        base = self.paths[0].grid.points
        if len(base) < 2:
            raise DomainError("theta paths need a grid with at least 2 points")
        for p in self.paths[1:]:
            if p.grid.points != base:
                raise DomainError("all paths of a theta must share one grid")
        object.__setattr__(self, "paths", tuple(self.paths))

    @property
    def d(self) -> int:
        return len(self.paths) - 1

    @property
    def grid(self) -> TimeGrid:
        return self.paths[0].grid

    @property
    def horizon(self) -> float:
        return self.grid.tau

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, omega: float, d: int, horizon: float, level: int = 6) -> "Theta":
        """All paths identically zero: hazard omega/2 for every x and t."""
        grid = DyadicGrid(horizon, level)
        zero = (0.0,) * len(grid.points)
        return cls(omega, tuple(GpPath(grid, zero, "zero") for _ in range(d + 1)))

    @classmethod
    def from_values(cls, omega: float, grid: TimeGrid, values_per_path, kernel_ids=None) -> "Theta":
        ids = kernel_ids or ["unspecified"] * len(values_per_path)
        if len(ids) != len(values_per_path):
            raise DomainError(f"{len(ids)} kernel_ids for {len(values_per_path)} paths")
        return cls(omega, tuple(
            GpPath(grid, tuple(v), kid) for v, kid in zip(values_per_path, ids)
        ))

    @classmethod
    def from_weighted(cls, omega: float, grid: TimeGrid, hat_values_per_path) -> "Theta":
        """Build paths whose weighted transform equals the given values.

        Divides by h_d pointwise, so a bounded weighted envelope that decays
        with h_d yields paths compatible with the weighting convention.
        """
        d = len(hat_values_per_path) - 1
        w = h_weight(d, grid.as_array())
        return cls(omega, tuple(
            GpPath(grid, tuple(np.asarray(v, dtype=float) / w)) for v in hat_values_per_path
        ))

    # -- persistence -----------------------------------------------------

    def to_csv(self, path) -> None:
        grid = self.grid
        grid_meta = ({"kind": "dyadic", "tau": grid.tau, "level": grid.level}
                     if isinstance(grid, DyadicGrid) else {"kind": "plain"})
        _write_table(
            path,
            ["t"] + [f"eta{j}" for j in range(len(self.paths))],
            np.column_stack([grid.as_array()] + [p.values for p in self.paths]),
            {"omega": self.omega, "kernel_ids": [p.kernel_id for p in self.paths], "grid": grid_meta},
        )

    @classmethod
    def from_csv(cls, path) -> "Theta":
        """Read a file that to_csv wrote: header t,eta0,...,etaD and a
        sidecar with omega, one kernel id per path and the grid; a dyadic
        grid must equal the file's t column."""
        with _csv_table(path) as (header, table):
            if len(header) < 2 or header != ["t"] + [f"eta{j}" for j in range(len(header) - 1)]:
                raise DomainError(f"line 1: header must be t,eta0,...,etaD, got {','.join(header)!r}")
            meta = _read_meta(path)
            if meta["grid"]["kind"] == "dyadic":
                grid = DyadicGrid(meta["grid"]["tau"], meta["grid"]["level"])
                if not np.array_equal(grid.as_array(), table[:, 0]):
                    raise DomainError(f"t column differs from the sidecar's dyadic grid {meta['grid']}")
            else:
                grid = TimeGrid(tuple(table[:, 0]))
            return cls.from_values(meta["omega"], grid, table[:, 1:].T, meta["kernel_ids"])


# -- evaluation ---------------------------------------------------------


def _softplus_tail(y):
    """log1p(exp(-|y|)), so that softplus(y) = max(y, 0) + _softplus_tail(y).

    Differences of tails keep their digits where softplus itself is large.
    """
    out = np.abs(y)
    return np.log1p(np.exp(np.negative(out, out=out), out=out), out=out)


def _mean_sigmoid(y0, y1, tail0, tail1):
    """Mean of sigmoid along the segments from y0 to y1 (arrays of one shape).

    tail0 and tail1 are the _softplus_tail of the ends.  The integral of
    sigmoid is softplus, so the mean is (softplus(y1) - softplus(y0)) /
    (y1 - y0); on near-flat segments the midpoint expansion
    s + s(1-s)(1-2s) dy^2 / 24 with s = sigmoid(midpoint) replaces it.
    """
    dy = y1 - y0
    flat = np.abs(dy) < _FLAT_DY
    out = np.maximum(y1, 0.0) - np.maximum(y0, 0.0) + (tail1 - tail0)
    if not np.count_nonzero(flat):
        return np.divide(out, dy, out=out)
    out /= np.where(flat, 1.0, dy)
    s = expit(0.5 * (y0[flat] + y1[flat]))
    out[flat] = s + s * (1.0 - s) * (1.0 - 2.0 * s) * dy[flat] ** 2 / 24.0
    return out


def _locate(knots, t):
    """Each time's knot cell and its offset into the cell.  Callers check
    that t lies in [0, knots[-1]]; the last knot falls in the last cell."""
    cell = np.minimum(np.searchsorted(knots, t, "right") - 1, len(knots) - 2)
    return cell, t - knots[cell]


def _link_integral(knots, y, at, width):
    """Y(t), softplus(Y(t)) and the integral of sigmoid(Y) over [0, t].

    y holds link rows at the knots, shape (m, K), and Y is their linear
    interpolant.  The times t come located, as a flat index at = i K + c
    into the (m, K) table, for row i and the knot cell c of _locate, and
    the width into that cell; the outputs take the shape of at.  law
    builds its index once per call, the likelihood once per dataset.  Y
    is linear on each knot cell, so each integral is exact: the whole
    cells are summed once per row, and each t adds only its partial cell,
    at the cost of one softplus.
    """
    m, k = y.shape
    # The rows laid end to end, plus a pad, so that every pass below runs
    # over contiguous memory: flat cell j runs from ends[j] to ends[j + 1].
    # As (m, K) tables, row i holds row i's K - 1 cells, then the cell that
    # joins it to row i + 1, which is never read.
    ends = np.zeros(m * k + 1)
    ends[:-1] = y.ravel()
    tail = _softplus_tail(ends)
    span = np.empty(k)  # the cell widths, then 1 under each joining cell
    span[-1] = 1.0
    np.subtract(knots[1:], knots[:-1], out=span[:-1])
    # cum[i, j], the integral over row i's cells before knot j: the whole
    # cells shifted one column right (the shift puts the joining cell in
    # column 0, which is set to 0), then summed along each row
    shifted = np.empty(m * k + 1)
    mean = _mean_sigmoid(ends[:-1], ends[1:], tail[:-1], tail[1:])
    np.multiply(mean.reshape(m, k), span, out=shifted[1:].reshape(m, k))
    cum = shifted[:-1].reshape(m, k)
    cum[:, 0] = 0.0
    cum.cumsum(axis=1, out=cum)
    slope = (ends[1:] - ends[:-1]).reshape(m, k) / span
    y0 = y.take(at)
    y_t = y0 + width * slope.take(at)
    tail_t = _softplus_tail(y_t)
    part = width * _mean_sigmoid(y0, y_t, tail.take(at), tail_t)
    return y_t, np.maximum(y_t, 0.0) + tail_t, cum.take(at) + part


def _check_times(theta: Theta, t) -> np.ndarray:
    """t as a float array in [0, horizon]; min and max carry NaN, so NaN fails it."""
    arr = np.asarray(t, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= theta.horizon):
        raise DomainError(f"time outside [0, {theta.horizon}]; evaluation does not extrapolate")
    return arr


def _paths_on(theta: Theta, ts) -> np.ndarray:
    """The d + 1 paths at the times ts, shape (d + 1, len(ts)); unchecked."""
    knots = theta.grid.as_array()
    return np.stack([np.interp(ts, knots, np.asarray(p.values, dtype=float)) for p in theta.paths])


def _link_rows(theta: Theta, xs, ts) -> np.ndarray:
    """Y = eta_0 + x . eta at the times ts for each covariate row, shape
    (len(xs), len(ts)); the rows are checked against theta's d and [0, 1]^d."""
    xs = _covariate_rows(theta, xs)
    return np.concatenate([np.ones((len(xs), 1)), xs], axis=1) @ _paths_on(theta, ts)


def law(theta: Theta, xs, ts) -> tuple:
    """Y, log sigmoid(Y) and Lambda = omega * int_0^t sigmoid(Y) for each
    covariate row and shared time, each shape (len(xs), len(ts)).

    Every object of the model is read from these: S = exp(-Lambda) and
    log f = log omega + log sigmoid(Y) - Lambda.  The one-parameter case
    of _laws; the times must lie in [0, horizon].
    """
    return _laws((theta,), xs, ts)


def _laws(thetas, xs, ts) -> tuple:
    """law for parameters on one grid, in one _link_integral call on the
    links of every (parameter, covariate row) pair at the knots.

    Each output stacks one (len(xs), len(ts)) block per parameter, in the
    order of thetas; the caller checks that their grids agree.
    """
    head = thetas[0]
    ts = _check_times(head, ts)
    knots = head.grid.as_array()
    rows = [_link_rows(theta, xs, knots) for theta in thetas]
    m = len(rows[0])
    cell, width = _locate(knots, ts.reshape(1, -1))
    at = np.arange(0, len(thetas) * m * len(knots), len(knots))[:, None] + cell
    y, soft, integral = _link_integral(
        knots, rows[0] if len(rows) == 1 else np.concatenate(rows), at, width
    )
    omega = np.repeat([theta.omega for theta in thetas], m)[:, None]
    return y, y - soft, omega * integral


@dataclass(frozen=True)
class HazardPoint:
    y: float
    hazard: float
    cum_hazard: float
    survival: float
    density: float


class HazardCurve:
    """Hazard, cumulative hazard, survival and density for one (theta, x):
    a one-row view of law.

    The link row at the knots is built once; y_at and hazard_at
    interpolate it, and the cumulative hazard is read from law.
    """

    def __init__(self, theta: Theta, x):
        self.theta = theta
        self.x = _as_covariate(x, theta.d)
        self._row = self.x.as_array()[None, :]
        self._knots = theta.grid.as_array()
        self._y_knots = _link_rows(theta, self._row, self._knots)[0]

    def y_at(self, t):
        arr = _check_times(self.theta, t)
        out = np.interp(arr, self._knots, self._y_knots)
        return out if arr.ndim else float(out)

    def hazard_at(self, t):
        y = self.y_at(t)
        out = self.theta.omega * expit(y)
        return out if np.ndim(y) else float(out)

    def cum_hazard_at(self, t):
        arr = np.asarray(t, dtype=float)
        out = law(self.theta, self._row, arr)[2].reshape(arr.shape)
        return out if arr.ndim else float(out)

    def survival_at(self, t):
        return np.exp(-self.cum_hazard_at(t))

    def density_at(self, t):
        return self.hazard_at(t) * self.survival_at(t)

    def point(self, t: float) -> HazardPoint:
        return evaluate(self.theta, self.x, t)


def evaluate(theta: Theta, x, t: float) -> HazardPoint:
    """Hazard, cumulative hazard, survival and density at one (x, t), from law."""
    row = _as_covariate(x, theta.d).as_array()[None, :]
    y, _, cum = (float(v[0, 0]) for v in law(theta, row, [float(t)]))
    hazard = theta.omega * float(expit(y))
    survival = float(np.exp(-cum))
    return HazardPoint(y, hazard, cum, survival, hazard * survival)


def survival_matrix(theta: Theta, xs, ts) -> np.ndarray:
    """S_x(t) = exp(-Lambda) for each covariate row x and shared times t,
    shape (nx, nt), from law."""
    return np.exp(-law(theta, xs, ts)[2])


# -- exact simulation by thinning ---------------------------------------


def _thin(theta: Theta, xs: np.ndarray, horizon: float, rng) -> np.ndarray:
    """One thinning attempt on [0, horizon] for every covariate row at once.

    Each round draws one rate-omega gap per live row, drops the rows that
    passed the horizon, then one uniform per remaining row, and accepts
    where u < sigmoid(eta_0(s) + sum_j x_j eta_j(s)).  Returns the event
    times, NaN where a row is censored at the horizon.  Inputs are not
    checked here.
    """
    knots = theta.grid.as_array()
    vals = [np.asarray(p.values) for p in theta.paths]
    times = np.full(len(xs), np.nan)
    s = np.zeros(len(xs))
    live = np.arange(len(xs))
    while live.size:
        s[live] += rng.exponential(1.0 / theta.omega, size=live.size)
        live = live[s[live] <= horizon]
        if not live.size:
            break
        at = s[live]
        y = np.interp(at, knots, vals[0])
        for j, v in enumerate(vals[1:]):
            y += xs[live, j] * np.interp(at, knots, v)
        accept = rng.uniform(size=live.size) < expit(y)
        times[live[accept]] = at[accept]
        live = live[~accept]
    return times


def sample_time(theta: Theta, x, horizon: float, seed=None):
    """Draw one survival time by thinning at the dominating rate omega.

    Returns the time, or None when no event occurs by the horizon.  The
    horizon must not exceed the path grid horizon.
    """
    times, censored = sample_times_batch(theta, x, horizon, 1, seed)
    return None if censored[0] else float(times[0])


def sample_times_batch(theta: Theta, x, horizon: float, n: int, seed):
    """Vectorized thinning: n survival times for one covariate.

    Returns (times, censored): censored entries of times hold NaN.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    _check_horizon(theta, horizon)
    xs = np.broadcast_to(_as_covariate(x, theta.d).as_array(), (n, theta.d))
    times = _thin(theta, xs, horizon, np.random.default_rng(seed))
    return times, np.isnan(times)


# -- covariate laws ------------------------------------------------------


@dataclass(frozen=True)
class UniformQ:
    """Uniform law on [0,1]^d."""

    d: int

    def sample(self, rng, n: int) -> np.ndarray:
        return rng.uniform(size=(n, self.d))

    def descriptor(self) -> dict:
        return {"family": "uniform", "d": self.d}


@dataclass(frozen=True)
class ProductBetaQ:
    """Independent Beta(alpha_j, beta_j) coordinates."""

    alphas: tuple
    betas: tuple

    def __post_init__(self):
        if len(self.alphas) != len(self.betas) or not self.alphas:
            raise DomainError("alphas and betas must be equal-length and nonempty")
        if any(a <= 0 for a in self.alphas) or any(b <= 0 for b in self.betas):
            raise DomainError("beta parameters must be positive")

    @property
    def d(self) -> int:
        return len(self.alphas)

    def sample(self, rng, n: int) -> np.ndarray:
        cols = [rng.beta(a, b, size=n) for a, b in zip(self.alphas, self.betas)]
        return np.stack(cols, axis=1)

    def descriptor(self) -> dict:
        return {"family": "product_beta", "alphas": list(self.alphas), "betas": list(self.betas)}


@dataclass(frozen=True)
class TableQ:
    """Finite support law: atoms (m, d) with probabilities (m,)."""

    atoms: tuple
    probs: tuple

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] != probs.size or not probs.size:
            raise DomainError("atoms must be (m, d) with one probability per atom")
        if np.any(atoms < 0) or np.any(atoms > 1):
            raise DomainError("atoms must lie in [0,1]^d")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise DomainError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", tuple(tuple(row) for row in atoms))
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))

    @property
    def d(self) -> int:
        return len(self.atoms[0])

    def sample(self, rng, n: int) -> np.ndarray:
        idx = rng.choice(len(self.probs), size=n, p=np.asarray(self.probs))
        return np.asarray(self.atoms, dtype=float)[idx]

    def descriptor(self) -> dict:
        return {"family": "table", "atoms": [list(a) for a in self.atoms], "probs": list(self.probs)}


# -- datasets -------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalDataset:
    """Observed times and covariates plus the design that produced them.

    Times must be finite and nonnegative, every record must have d
    covariates in [0,1] (NaN fails), and the horizon must be finite and
    positive; a refusal names the first bad record.  A time may lie past
    the horizon: data read from a file keep its sidecar's horizon, and
    the readers check times against their own grids.
    """

    times: tuple
    covariates: tuple       # n rows, each a d-tuple
    design: str             # 'RD' | 'NRD'
    q_descriptor: dict
    horizon: float

    def __post_init__(self):
        if self.design not in ("RD", "NRD"):
            raise DomainError(f"design must be 'RD' or 'NRD', got {self.design!r}")
        if len(self.times) != len(self.covariates):
            raise DomainError("times and covariates must have equal length")
        t = self.times_array()
        bad = np.flatnonzero(~((t >= 0) & (t < np.inf)))  # NaN fails both
        if bad.size:
            raise DomainError(
                f"record {int(bad[0])}: time {float(t[bad[0]])!r} is not finite and nonnegative"
            )
        bad = np.flatnonzero(np.fromiter(map(len, self.covariates), int, self.n) != self.d)
        if not bad.size:
            x = self.covariates_array()
            bad = np.flatnonzero(~((x >= 0) & (x <= 1)).all(axis=1))  # NaN fails too
        if bad.size:
            raise DomainError(
                f"record {int(bad[0])}: covariates {self.covariates[bad[0]]} are not d = {self.d} "
                f"values in [0,1]"
            )
        if not 0 < self.horizon < np.inf:  # NaN fails too
            raise DomainError(f"horizon must be finite and positive, got {self.horizon!r}")

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def d(self) -> int:
        return len(self.covariates[0]) if self.covariates else 0

    def times_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    def covariates_array(self) -> np.ndarray:
        return np.asarray(self.covariates, dtype=float).reshape(self.n, -1) if self.n else np.empty((0, 0))

    def to_csv(self, path) -> None:
        _write_table(
            path,
            ["t"] + [f"x{j + 1}" for j in range(self.d)],
            np.column_stack((self.times_array(), self.covariates_array())),
            {"design": self.design, "q_descriptor": self.q_descriptor, "horizon": self.horizon},
        )

    @classmethod
    def from_csv(cls, path) -> "SurvivalDataset":
        """Read a CSV with header t,x1,...,xd and one record per row.  A
        sidecar as to_csv writes gives the design, descriptor and horizon;
        without one they are NRD, {"family": "ingested", "n": n, "d": d}
        and the largest time, so a file whose times are all 0 needs one."""
        with _csv_table(path) as (header, table):
            d = len(header) - 1
            if header != ["t"] + [f"x{j + 1}" for j in range(d)]:
                raise DomainError(f"line 1: header must be t,x1,...,xd, got {','.join(header)!r}")
            default = {
                "design": "NRD",
                "q_descriptor": {"family": "ingested", "n": len(table), "d": d},
                "horizon": float(table[:, 0].max()),
            }
            meta = _read_meta(path, default)
            if meta is default and not table[:, 0].any():
                raise DomainError(
                    "every time is 0: without a sidecar the horizon is the largest time, "
                    "which must be positive"
                )
            return cls(
                times=tuple(table[:, 0].tolist()),
                covariates=tuple(map(tuple, table[:, 1:].tolist())),
                design=meta["design"],
                q_descriptor=meta["q_descriptor"],
                horizon=meta["horizon"],
            )


def _write_table(path, header, table, meta) -> None:
    """Write the header and the rows of the float matrix table as CSV,
    each value as its repr, and meta as the JSON sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())
    Path(f"{path}.meta.json").write_text(json.dumps(meta, indent=2))


def _read_meta(path, default=None):
    """The JSON sidecar that _write_table puts beside path, or default
    when there is none and a default is given."""
    sidecar = Path(f"{path}.meta.json")
    if default is not None and not sidecar.exists():
        return default
    try:
        return json.loads(sidecar.read_text())
    except (OSError, ValueError) as exc:
        raise DomainError(f"sidecar {sidecar.name}: {getattr(exc, 'strerror', None) or exc}") from exc


def generate_dataset(theta0: Theta, n: int, design: str, q, horizon: float, seed: int) -> SurvivalDataset:
    """Simulate n uncensored records from theta0.

    design 'RD': q is a covariate law (UniformQ / ProductBetaQ / TableQ)
    sampled i.i.d.  design 'NRD': q is a fixed (>= n, d) array of
    covariates used in order.  Every record is thinned at once on
    [0, horizon]; the records censored there are thinned afresh from time
    0 with the horizon doubled (capped at the path grid horizon), up to
    MAX_HORIZON_DOUBLINGS times before erroring.

    SeedSequence(seed) spawns two streams: the first draws the RD
    covariates, the second all the times, so the dataset is reproducible
    and its covariates do not depend on how the times are drawn.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    _check_horizon(theta0, horizon)
    cov_ss, time_ss = np.random.SeedSequence(seed).spawn(2)

    if design == "RD":
        xs = q.sample(np.random.default_rng(cov_ss), n)
        descriptor = q.descriptor()
    elif design == "NRD":
        xs = np.asarray(q, dtype=float).reshape(len(q), -1)
        if len(xs) < n:
            raise DomainError(f"NRD design needs >= {n} covariate rows, got {len(xs)}")
        xs = xs[:n]
        descriptor = {"family": "fixed", "n": int(n), "d": int(xs.shape[1])}
    else:
        raise DomainError(f"design must be 'RD' or 'NRD', got {design!r}")
    xs = _covariate_rows(theta0, xs)

    rng = np.random.default_rng(time_ss)
    h = float(horizon)
    times = _thin(theta0, xs, h, rng)
    for _ in range(MAX_HORIZON_DOUBLINGS):
        censored = np.isnan(times)
        if not censored.any():
            break
        h = min(2.0 * h, theta0.horizon)
        times[censored] = _thin(theta0, xs[censored], h, rng)
    if np.isnan(times).any():
        raise GenerationError(
            f"record {np.argmax(np.isnan(times))}: still censored after "
            f"{MAX_HORIZON_DOUBLINGS} horizon doublings (final horizon {h:g}); "
            f"extend the path grid or lower the horizon"
        )
    return SurvivalDataset(
        times=tuple(float(t) for t in times),
        covariates=tuple(tuple(float(v) for v in row) for row in xs),
        design=design,
        q_descriptor=descriptor,
        horizon=float(horizon),
    )


# -- marginal hazard Monte Carlo ------------------------------------------


def mc_mean_hazard(omega: float, kernels, x, t: float, reps: int, seed: int):
    """Estimate E[lambda_x(t)] over path draws; the exact value is omega/2.

    The combined path value at a fixed time is a centred normal, so the
    sigmoid averages to one half regardless of kernels, x, or t.  Returns
    (estimate, ci_halfwidth).
    """
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega}")
    if reps < MC_MIN_REPS:
        raise DomainError(f"reps must be >= {MC_MIN_REPS}, got {reps}")
    cov = _as_covariate(x, len(kernels) - 1)
    sds = np.sqrt([k.kappa0 for k in kernels])
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((reps, len(kernels))) * sds
    y = z[:, 0] + (z[:, 1:] @ cov.as_array() if cov.d else 0.0)
    hazards = omega * expit(y)
    estimate = float(hazards.mean())
    ci = CI_Z * float(hazards.std(ddof=1) / np.sqrt(reps))
    return estimate, ci
