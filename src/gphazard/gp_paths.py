"""Gaussian process paths on time grids.

Paths are sampled exactly on a finite grid from the Cholesky factor of
the kernel's covariance matrix, cached per (kernel, grid).  Batches of
paths come from one block loop over two small buffers: the calling
thread draws block k + 1 of normals from one Philox stream while a
worker thread multiplies block k in place by the triangular factor and
reduces it.  The draws release the interpreter lock and scipy's `dtrmm`
holds it, so the caller draws and the worker multiplies; on one CPU the
same steps run in turn.  The loop works on a copy of the factor whose
subnormal entries are zero, which spares the multiply the slow subnormal
path on long grids and leaves every path bit-identical: each dropped
term is far below half an ulp of the row sum it enters.  The module also
provides the decaying weight h_d used to damp paths at large times, the
dyadic chaining upper bound for the sup of a path, and Monte Carlo
estimates of sup-functional event probabilities with binomial
confidence intervals.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtrmm

from .errors import DomainError, NumericError
from .kernels import StationaryKernel

# Cholesky jitter starts at JITTER_FACTOR * kappa(0) and escalates tenfold
# up to JITTER_ESCALATIONS extra attempts before giving up.
JITTER_FACTOR = 1e-10
JITTER_ESCALATIONS = 3

MC_MIN_REPS = 100
CI_Z = 1.96  # normal quantile for the reported ~95% half-width

# Rows per Monte Carlo block: about this many scalars (2 MiB).  Small
# blocks keep the draws and the multiply, which run side by side, from
# contending for memory bandwidth.
_CHUNK_SCALARS = 250_000


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid of times starting at 0."""

    points: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise DomainError("grid needs at least one point")
        if pts[0] != 0.0:
            raise DomainError("grid must start at t = 0")
        if not np.all(np.isfinite(pts)):
            raise DomainError(f"grid points must be finite, got {self.points}")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise DomainError("grid points must be strictly increasing")
        object.__setattr__(self, "points", tuple(float(p) for p in pts))

    @property
    def tau(self) -> float:
        return self.points[-1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True)
class DyadicGrid(TimeGrid):
    """Grid {k * tau / 2^level : k = 0..2^level} on [0, tau]."""

    tau_: float = 0.0
    level: int = 0
    points: tuple = field(default=())

    def __init__(self, tau: float, level: int):
        if not (np.isfinite(tau) and tau > 0):
            raise DomainError(f"tau must be positive and finite, got {tau}")
        if isinstance(level, bool) or not isinstance(level, (int, np.integer)) or level < 0:
            raise DomainError(f"level must be >= 0 and an integer, got {level!r}")
        pts = tuple(float(p) for p in np.linspace(0.0, tau, 2 ** level + 1))
        object.__setattr__(self, "tau_", float(tau))
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "points", pts)
        self.__post_init__()


@dataclass(frozen=True)
class GpPath:
    """A path observed on a grid, linearly interpolated in between."""

    grid: TimeGrid
    values: tuple
    kernel_id: str = "unspecified"

    def __post_init__(self):
        if len(self.values) != len(self.grid.points):
            raise DomainError("one value per grid point required")
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericError("path values must be finite")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def at(self, t):
        """Linear interpolation; refuses to extrapolate beyond the grid."""
        arr = np.asarray(t, dtype=float)
        if not np.all((arr >= 0) & (arr <= self.grid.tau)):  # NaN fails too
            raise DomainError(f"time outside [0, {self.grid.tau}]")
        out = np.interp(arr, self.grid.as_array(), np.asarray(self.values))
        return out if arr.ndim else float(out)

    def sup_abs(self) -> float:
        """max_k |values_k| over the grid."""
        return float(np.max(np.abs(self.values)))


# -- decaying weight --------------------------------------------------------


def h_weight(d: int, t):
    """Decaying weight h_d(t).

    Equal to (d+1)/(1 + log(1 - e^-1)) for t <= 1 and
    (d+1)/(t + log(1 - e^-t)) for t > 1; continuous at t = 1, strictly
    decreasing beyond it, and t * h_d(t)/(d+1) -> 1 as t grows.
    """
    if d < 0:
        raise DomainError(f"d must be >= 0, got {d}")
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0):
        raise DomainError("weight argument must be nonnegative")
    out = np.empty_like(arr)
    head = arr <= 1.0
    out[head] = (d + 1) / (1.0 + np.log1p(-np.exp(-1.0)))
    tt = arr[~head]
    out[~head] = (d + 1) / (tt + np.log1p(-np.exp(-tt)))
    return float(out[0]) if scalar else out


def transform_hat(path: GpPath, d: int) -> GpPath:
    """Apply the decaying weight pointwise on the path's grid."""
    weights = h_weight(d, path.grid.as_array())
    return GpPath(
        grid=path.grid,
        values=tuple(np.asarray(path.values) * weights),
        kernel_id=path.kernel_id,
    )


# -- exact sampling on a grid ------------------------------------------------


@functools.lru_cache(maxsize=4)  # a 513-point factor is 2 MiB, a 4097-point one 128 MiB
def _grid_factor(kernel: StationaryKernel, points: tuple) -> tuple:
    pts = np.asarray(points)
    cov = np.asarray(kernel(np.abs(pts[:, None] - pts[None, :])), dtype=float)
    if not np.all(np.isfinite(cov)):
        raise NumericError(f"covariance of {kernel.describe()} not finite on the grid")
    jitter = JITTER_FACTOR * kernel.kappa0
    # each attempt writes diag + jitter onto cov's diagonal: the sums of
    # cov + jitter * I without its two n x n temporaries
    diag = cov.diagonal().copy()
    for used in (jitter * 10.0 ** attempt for attempt in range(JITTER_ESCALATIONS + 1)):
        np.fill_diagonal(cov, diag + used)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            continue
        chol.flags.writeable = False
        return chol, used
    raise NumericError(
        f"covariance factorization failed for {kernel.describe()} after "
        f"{JITTER_ESCALATIONS} jitter escalations from {jitter:g}"
    )


def _covariance_cholesky(kernel: StationaryKernel, points) -> tuple:
    """(Cholesky factor of the grid covariance, jitter used), cached; the factor is read-only."""
    return _grid_factor(kernel, tuple(np.asarray(points, dtype=float).tolist()))


def sample_path(kernel: StationaryKernel, grid: TimeGrid, seed: int) -> GpPath:
    """Draw one mean-zero path with covariance kernel(|s-t|) on the grid.

    Deterministic in (kernel, grid, seed).
    """
    chol, _ = _covariance_cholesky(kernel, grid.points)
    z = np.random.default_rng(seed).standard_normal(len(grid.points))
    return GpPath(grid=grid, values=tuple(chol @ z), kernel_id=kernel.describe())


def _path_blocks(factor: np.ndarray, reps: int, seed: int, each):
    """Yield each(rows) for `reps` rows z @ factor.T, block by block, in order.

    z is drawn in order from a Philox stream keyed by the seed, into two
    buffers of about _CHUNK_SCALARS scalars taken in turn.  While the
    calling thread draws block k + 1 into one buffer, one worker thread
    overwrites block k in the other with its product and applies `each`
    to it; `each` must not keep the rows, which the draw of block k + 2
    overwrites.  The roles go this way round because numpy releases the
    interpreter lock while it fills a buffer with normals and scipy's
    `dtrmm` wrapper holds it.  On one CPU the same steps run in turn, so
    the rows do not depend on the overlap.  The worker is joined before
    the generator returns, also when it is closed early or `each` raises.

    The multiply uses a Fortran-ordered copy of the factor whose subnormal
    entries are set to zero: on long grids the factor's entries decay with
    the kernel and underflow, and each product with a subnormal operand
    takes a slow path on x86.  The rows are bit-identical to those of the
    unflushed factor: a dropped term L_ij z_j is below 1e-306, which is
    under half an ulp of any partial row sum above 1e-290, and the row sums
    are of the size of their diagonal terms, far above that.  The block
    size is not free in the same way: OpenBLAS sums the last rows of a
    block on another path, so changing _CHUNK_SCALARS moves rows within
    about a dozen rows of a block end by rounding, at most about 3e-15 on
    paths of size up to 8.
    """
    chunk = min(reps, max(1, _CHUNK_SCALARS // len(factor)))
    lower = np.array(factor, order="F")
    lower[np.abs(lower) < np.finfo(float).tiny] = 0.0
    bufs = np.empty((2, chunk, len(factor)))
    rng = np.random.Generator(np.random.Philox(key=seed))

    def product(z):
        # z.T is Fortran-ordered: dtrmm overwrites it with lower @ z.T
        return each(dtrmm(1.0, lower, z.T, side=0, lower=1, overwrite_b=1).T)

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for k, done in enumerate(range(0, reps, chunk)):
            z = bufs[k % 2, : min(chunk, reps - done)]
            rng.standard_normal(out=z)  # the buffer's last block, k - 2, was collected
            previous, pending = pending, worker.submit(product, z)
            if previous is not None:
                yield previous.result()
        yield pending.result()


def sample_path_matrix(
    kernel: StationaryKernel, grid: TimeGrid, reps: int, seed: int
) -> np.ndarray:
    """Draw `reps` paths as a (reps, npoints) matrix.

    Uses a counter-based bit generator keyed by the seed, so replicate r's
    variates are an addressable block of the stream and the matrix is
    reproducible bit for bit.
    """
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    chol, _ = _covariance_cholesky(kernel, grid.points)
    out = np.empty((reps, len(grid.points)))
    done = 0

    def write(block):  # blocks arrive in order on one worker thread
        nonlocal done
        out[done : done + len(block)] = block
        done += len(block)

    for _ in _path_blocks(chol, reps, seed, write):
        pass
    return out


# -- dyadic chaining bound ---------------------------------------------------


def dyadic_sup_bound(path: GpPath, max_level: int | None = None) -> float:
    """Chaining upper bound |v(0)| + |v(tau)| + sum_n max_k level-n increments.

    The path must live on a DyadicGrid.  With max_level equal to the grid
    level (the default) the bound dominates the grid sup of |v|.
    """
    grid = path.grid
    if not isinstance(grid, DyadicGrid):
        raise DomainError("dyadic bound requires a path on a DyadicGrid")
    level = grid.level
    if max_level is None:
        max_level = level
    if max_level < 0 or max_level > level:
        raise DomainError(f"max_level must lie in [0, {level}], got {max_level}")
    vals = np.asarray(path.values)
    bound = abs(vals[0]) + abs(vals[-1])
    for n in range(1, max_level + 1):
        stride = 2 ** (level - n)
        sub = vals[::stride]
        bound += float(np.max(np.abs(np.diff(sub))))
    return float(bound)


# -- Monte Carlo event probabilities ----------------------------------------


@dataclass(frozen=True)
class SupConstraint:
    """Event {sup_{t in [a, b]} |path(t)| <sense> threshold} on the grid.

    sense is 'le' or 'ge'; interval endpoints are inclusive and must
    capture at least one grid point.  threshold may be +inf for 'le'.
    """

    interval: tuple
    threshold: float
    sense: str = "le"

    def __post_init__(self):
        a, b = self.interval
        if not (np.isfinite(a) and np.isfinite(b)) or a < 0 or b < a:
            raise DomainError(f"bad interval {self.interval}")
        if self.sense not in ("le", "ge"):
            raise DomainError(f"sense must be 'le' or 'ge', got {self.sense!r}")
        if np.isnan(self.threshold):
            raise DomainError("threshold must not be NaN")

    def describe(self) -> str:
        op = "<=" if self.sense == "le" else ">="
        return f"sup|.| on [{self.interval[0]:g},{self.interval[1]:g}] {op} {self.threshold:g}"


@dataclass(frozen=True)
class EventProbReport:
    p_joint: float
    ci_halfwidth: float
    p_marginals: tuple
    reps: int
    weighted: bool
    constraints: tuple
    jitter: float
    seconds: float  # wall time of the Monte Carlo block loop


def mc_event_probability(
    kernel: StationaryKernel,
    d: int,
    weighted: bool,
    constraints,
    horizon: float,
    level: int,
    reps: int,
    seed: int,
) -> EventProbReport:
    """Estimate the joint probability of sup constraints on one path.

    The path is sampled on DyadicGrid(horizon, level); with weighted=True
    constraints apply to h_d * path instead of the raw path.  Marginal
    probabilities for each constraint are reported alongside the joint,
    with a CI_Z * sqrt(p(1-p)/reps) half-width on the joint.
    """
    constraints = tuple(constraints)
    if not constraints:
        raise DomainError("need at least one constraint")
    if reps < MC_MIN_REPS:
        raise DomainError(f"reps must be >= {MC_MIN_REPS}, got {reps}")
    points = DyadicGrid(horizon, level).as_array()
    spans = []
    for c in constraints:
        a, b = c.interval
        if b > horizon:
            raise DomainError(f"interval {c.interval} exceeds horizon {horizon}")
        lo, hi = np.searchsorted(points, a, "left"), np.searchsorted(points, b, "right")
        if lo == hi:
            raise DomainError(f"interval {c.interval} contains no grid points")
        spans.append(slice(lo, hi))

    chol, jitter = _covariance_cholesky(kernel, points)
    # h_d * (L z) = (diag(h_d) L) z, so the weight is folded into the factor once
    factor = h_weight(d, points)[:, None] * chol if weighted else chol

    def count(paths):
        """[joint hits, hits of each constraint] in one block."""
        joint = np.ones(len(paths), dtype=bool)
        hits = np.empty(len(constraints) + 1, dtype=np.int64)
        for i, (c, span) in enumerate(zip(constraints, spans), start=1):
            view = paths[:, span]
            sup = np.maximum(view.max(axis=1), -view.min(axis=1))
            ind = sup <= c.threshold if c.sense == "le" else sup >= c.threshold
            hits[i] = ind.sum()
            joint &= ind
        hits[0] = joint.sum()
        return hits

    start = time.perf_counter()
    joint_hits, *marginal_hits = sum(_path_blocks(factor, reps, seed, count)).tolist()
    seconds = time.perf_counter() - start

    p_joint = joint_hits / reps
    ci = CI_Z * float(np.sqrt(p_joint * (1.0 - p_joint) / reps))
    return EventProbReport(
        p_joint=p_joint,
        ci_halfwidth=ci,
        p_marginals=tuple(float(h) / reps for h in marginal_hits),
        reps=reps,
        weighted=weighted,
        constraints=tuple(c.describe() for c in constraints),
        jitter=jitter,
        seconds=seconds,
    )
