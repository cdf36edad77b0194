"""Rectangle-class measures and deviation statistics.

The comparison class consists of rectangles [a,b] x B, where [a,b] is a
time interval and B a product of coordinate intervals in the covariate
cube.  A parameter theta induces a law mu_theta of (T, X); the distance
between parameters is the supremum over rectangles of the difference in
mass, realized as a maximum over grid-anchored rectangles, taken for all
covariate boxes at once from one prefix-sum table per parameter.  The test
statistic compares the empirical measure of a dataset against a reference
parameter over rectangles anchored on the data coordinates.  Its maximum
is found exactly by a best-first branch and bound over covariate anchor
pairs, with the time axis swept exactly per pair: anchor rows come from
one blockwise provider, and pairs are bounded on blocks of 64 anchors,
then on runs of 16, then row by row, before any pair is scored; each
bound is taken on a coarsened time axis first.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import stats

from .errors import CapacityError, DomainError
from .hazard import (
    ProductBetaQ,
    SurvivalDataset,
    TableQ,
    Theta,
    UniformQ,
    _laws,
    _link_rows,
    survival_matrix,
)

MAX_RECTANGLES = 10_000_000

# Default per-axis midpoint-rule resolution for covariate quadrature.
Q_CELLS_1D = 64
Q_CELLS_2D = 16

# Anchored search: anchor rows are built and bounded in blocks of _BLOCK
# anchors, refined into runs of _SUB anchors; the stores of the last
# _CACHE_RUNS runs the search built are kept.  Every bound is taken first
# on a time axis coarsened into runs of _COARSE time anchors.  On the
# benchmark's null case at n = 2000 the search reads 20 runs, so 32 keeps
# them all and each is built once, at a traced peak of 20 MiB; keeping 16
# builds 3 more times (19 MiB), keeping 8 builds 19 more (17 MiB).  NRD
# at n = 2000 builds as often with 16 as with 64.
_BLOCK = 64
_SUB = 16
_CACHE_RUNS = 32
_COARSE = 16

# Parameters are scored in batches whose largest table holds at most this
# many doubles (256 KiB), so memory stays flat in the number of draws; at
# d = 2 one parameter's box table exceeds it, and a batch is one parameter.
_BATCH_DOUBLES = 2 ** 15


@dataclass(frozen=True)
class Rectangle:
    """[a, b] x prod_j [lo_j, hi_j]; all intervals closed."""

    time: tuple
    box: tuple = ()

    def __post_init__(self):
        a, b = self.time
        if not 0 <= a <= b:
            raise DomainError(f"bad time interval {self.time}")
        for lo, hi in self.box:
            if not 0.0 <= lo <= hi <= 1.0:
                raise DomainError(f"bad covariate interval ({lo}, {hi})")
        object.__setattr__(self, "time", (float(a), float(b)))
        object.__setattr__(self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box))

    @property
    def d(self) -> int:
        return len(self.box)


@dataclass(frozen=True)
class GridSpec:
    """Anchor knots for rectangle enumeration, strictly increasing per axis."""

    time_knots: tuple
    covariate_knots: tuple = ()

    def __post_init__(self):
        tk = np.asarray(self.time_knots, dtype=float)
        if tk.size < 2 or not np.all(np.diff(tk) > 0) or tk[0] < 0:
            raise DomainError("time knots must be >= 2, nonnegative, strictly increasing")
        object.__setattr__(self, "time_knots", tuple(float(t) for t in tk))
        cleaned = []
        for knots in self.covariate_knots:
            ck = np.asarray(knots, dtype=float)
            if ck.size < 2 or not np.all(np.diff(ck) > 0) or ck[0] < 0 or ck[-1] > 1:
                raise DomainError("covariate knots must be >= 2, strictly increasing, in [0,1]")
            cleaned.append(tuple(float(c) for c in ck))
        object.__setattr__(self, "covariate_knots", tuple(cleaned))

    @classmethod
    def regular(cls, horizon: float, time_knots: int, d: int, covariate_knots: int = 17) -> "GridSpec":
        return cls(
            tuple(np.linspace(0.0, horizon, time_knots)),
            tuple(tuple(np.linspace(0.0, 1.0, covariate_knots)) for _ in range(d)),
        )

    def rectangle_count(self) -> int:
        k = len(self.time_knots)
        count = k * (k - 1) // 2
        for knots in self.covariate_knots:
            m = len(knots)
            count *= m * (m - 1) // 2
        return count


# -- covariate atoms ----------------------------------------------------------


@dataclass(frozen=True)
class QAtoms:
    """Weighted-atom reduction of a covariate law (quadrature or data)."""

    nodes: tuple    # (m, d) rows
    weights: tuple  # (m,)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).reshape(len(self.nodes), -1)
        weights = np.asarray(self.weights, dtype=float)
        if len(nodes) != weights.size or not weights.size:
            raise DomainError("one weight per node required")
        if not np.all((weights >= 0) & (weights < np.inf)):  # NaN fails too
            raise DomainError("weights must be finite and nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {total!r}")
        if not np.all((nodes >= 0) & (nodes <= 1)):  # NaN fails too
            raise DomainError("nodes must lie in [0,1]^d")
        object.__setattr__(self, "nodes", tuple(tuple(r) for r in nodes))
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))

    @property
    def d(self) -> int:
        return len(self.nodes[0]) if self.nodes else 0

    def nodes_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=float).reshape(len(self.nodes), -1)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def q_atoms_from_law(law, cells_per_axis: int | None = None) -> QAtoms:
    """Midpoint-rule atoms for a covariate law on [0,1]^d.

    Uniform and product-beta laws discretize each axis into equal-width
    cells carrying the cell probability; finite-table laws pass through
    exactly.
    """
    if isinstance(law, TableQ):
        return QAtoms(nodes=law.atoms, weights=law.probs)
    if isinstance(law, (UniformQ, ProductBetaQ)):
        d = law.d
        if d == 0:
            return QAtoms(nodes=((),), weights=(1.0,))
        cells = cells_per_axis or (Q_CELLS_1D if d == 1 else Q_CELLS_2D)
        edges = np.linspace(0.0, 1.0, cells + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        if isinstance(law, UniformQ):
            axis_masses = [np.full(cells, 1.0 / cells) for _ in range(d)]
        else:
            axis_masses = [
                np.diff(stats.beta.cdf(edges, a, b)) for a, b in zip(law.alphas, law.betas)
            ]
        grids = np.meshgrid(*[mids] * d, indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        mass = axis_masses[0]
        for w in axis_masses[1:]:
            mass = np.multiply.outer(mass, w)
        return QAtoms(nodes=tuple(tuple(r) for r in nodes), weights=tuple(mass.ravel()))
    raise DomainError(f"unsupported covariate law {type(law).__name__}")


def q_atoms_from_rows(rows, weights=None) -> QAtoms:
    """Equal-weight atoms at fixed covariate rows (the fixed-design case),
    or atoms with the given weights, which must sum to 1."""
    rows = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    n = len(rows)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return QAtoms(nodes=tuple(tuple(r) for r in rows), weights=tuple(w))


def resolve_atoms(design: str, q_grid, cells_per_axis: int | None = None) -> QAtoms:
    """Normalize the q_grid argument of measure operations to atoms."""
    if isinstance(q_grid, QAtoms):
        return q_grid
    if design == "RD":
        return q_atoms_from_law(q_grid, cells_per_axis)
    if design == "NRD":
        return q_atoms_from_rows(q_grid)
    raise DomainError(f"design must be 'RD' or 'NRD', got {design!r}")


# -- measures -----------------------------------------------------------------


def _box_mask(nodes: np.ndarray, box) -> np.ndarray:
    mask = np.ones(len(nodes), dtype=bool)
    for j, (lo, hi) in enumerate(box):
        mask &= (nodes[:, j] >= lo) & (nodes[:, j] <= hi)
    return mask


def measure_mu(theta: Theta, rect: Rectangle, design: str, q_grid) -> float:
    """mu_theta(rect): probability that (T, X) falls in the rectangle."""
    if rect.d != theta.d:
        raise DomainError(f"rectangle has {rect.d} covariate axes, theta has {theta.d}")
    a, b = rect.time
    if b > theta.horizon:
        raise DomainError(f"rectangle reaches past the grid horizon {theta.horizon}")
    atoms = resolve_atoms(design, q_grid)
    if atoms.d != theta.d:
        raise DomainError(f"atoms have d={atoms.d}, theta has d={theta.d}")
    nodes = atoms.nodes_array()
    mask = _box_mask(nodes, rect.box)
    if not mask.any():
        return 0.0
    weights = atoms.weights_array()[mask]
    surv = survival_matrix(theta, nodes[mask], np.asarray([a, b]))
    return float(np.sum(weights * (surv[:, 0] - surv[:, 1])))


def empirical_measure(dataset: SurvivalDataset, rect: Rectangle) -> float:
    """Fraction of records in the closed rectangle."""
    if rect.d != dataset.d:
        raise DomainError(f"rectangle has {rect.d} covariate axes, data has {dataset.d}")
    times = dataset.times_array()
    a, b = rect.time
    mask = (times >= a) & (times <= b) & _box_mask(dataset.covariates_array(), rect.box)
    return float(mask.mean())


# -- sup-deviation metric ------------------------------------------------------


@dataclass(frozen=True)
class MetricResult:
    value: float
    argmax: Rectangle
    rectangles: int


class _BoxTable:
    """The sup-deviation metric against one reference parameter.

    For a covariate box B the best time interval over the knots is the
    range of D_B(t) = sum_{x in B} w_x (S_x - S^ref_x)(t).  On an axis with
    knots k_0..k_{K-1} an atom falls in one of 2K + 1 slots: below k_0, on
    k_i (slot 2i + 1), between k_i and k_(i+1) (slot 2i + 2), or above
    k_(K-1); the closed box [k_i, k_j] covers slots 2i + 1..2j + 1.  The
    weighted difference rows are scattered into the slot table, and per
    axis one cumulative sum and one difference over the knot pairs i < j
    give D_B for every box at once, in row-major (i_0, j_0, i_1, j_1)
    order; at d = 0 the table is the sum of the rows.  Atoms, slots and
    the reference rows are resolved once for every compared parameter,
    and parameters on one grid are scored in batches of up to
    self.batch, each batch from one law call; survival rows refuse time
    knots past either horizon.
    """

    def __init__(self, theta_ref: Theta, design: str, q_grid, grid: GridSpec):
        d = theta_ref.d
        if len(grid.covariate_knots) != d:
            raise DomainError(f"grid has {len(grid.covariate_knots)} covariate axes, theta has {d}")
        if d > 2:
            raise DomainError("rectangle enumeration supports d <= 2")
        self.count = grid.rectangle_count()
        if self.count > MAX_RECTANGLES:
            raise CapacityError(
                f"{self.count} rectangles exceed the cap of {MAX_RECTANGLES}; use a coarser grid"
            )
        atoms = resolve_atoms(design, q_grid)
        if atoms.d != d:
            raise DomainError(f"atoms have d={atoms.d}, theta has d={d}")
        self.ts = np.asarray(grid.time_knots)
        self.nodes, self.weights = atoms.nodes_array(), atoms.weights_array()
        self.ref = survival_matrix(theta_ref, self.nodes, self.ts)
        self.knots = [np.asarray(k) for k in grid.covariate_knots]
        self.shape = tuple(2 * len(k) + 1 for k in self.knots)
        slots = [np.searchsorted(k, x, "left") + np.searchsorted(k, x, "right")
                 for k, x in zip(self.knots, self.nodes.T)]
        self.slot = np.ravel_multi_index(slots, self.shape) if d else np.zeros(len(self.nodes), int)
        self.pairs = [np.triu_indices(len(k), 1) for k in self.knots]
        # one parameter's largest table: the slot table, then each axis's
        # slots replaced by its knot pairs in turn
        sizes = list(self.shape)
        peak = math.prod(sizes)
        for axis, (i, _) in enumerate(self.pairs):
            sizes[axis] = len(i)
            peak = max(peak, math.prod(sizes))
        self.batch = max(1, _BATCH_DOUBLES // (peak * len(self.ts)))

    def _scores(self, batch) -> tuple:
        """(spread of the best box, that box, D_B(t) for every box) for
        each parameter of batch, which share one grid."""
        b, nt = len(batch), len(self.ts)
        diff = np.exp(-_laws(batch, self.nodes, self.ts)[2]).reshape(b, -1, nt) - self.ref
        diff *= self.weights[:, None]
        table = np.zeros((b, math.prod(self.shape), nt))
        np.add.at(table, (slice(None), self.slot), diff)
        table = table.reshape(b, *self.shape, nt)
        for axis, (i, j) in enumerate(self.pairs, start=1):
            cum = np.cumsum(table, axis=axis)
            table = np.take(cum, 2 * j + 1, axis=axis)
            table -= np.take(cum, 2 * i, axis=axis)
        table = table.reshape(b, -1, nt)
        spread = table.max(axis=2) - table.min(axis=2)
        box = spread.argmax(axis=1)
        return spread[np.arange(b), box], box, table

    def values(self, thetas) -> np.ndarray:
        """max over grid rectangles of |mu_theta - mu_ref| for each theta:
        consecutive parameters on one grid are scored a batch at a time."""
        out, batch = [], []
        for theta in thetas:
            if batch and (len(batch) == self.batch or theta.grid.points != batch[0].grid.points):
                out.append(self._scores(batch)[0])
                batch = []
            batch.append(theta)
        out.append(self._scores(batch)[0])
        return np.concatenate(out)

    def deviation(self, theta: Theta) -> MetricResult:
        """max over grid rectangles of |mu_theta - mu_ref|, with one maximizer:
        the one-parameter case of values."""
        (value,), (box,), (table,) = self._scores((theta,))
        hi_k, lo_k = int(np.argmax(table[box])), int(np.argmin(table[box]))
        at = np.unravel_index(box, [len(i) for i, _ in self.pairs])
        rect = Rectangle(
            time=tuple(sorted((self.ts[hi_k], self.ts[lo_k]))),
            box=tuple((k[i[p]], k[j[p]]) for k, (i, j), p in zip(self.knots, self.pairs, at)),
        )
        return MetricResult(float(value), rect, self.count)


def sup_deviation_metric(theta_a: Theta, theta_b: Theta, design: str, q_grid, grid: GridSpec) -> MetricResult:
    """max over grid rectangles of |mu_a - mu_b|, with one maximizer.

    The one-parameter case of _BoxTable with theta_b as the reference.
    Ties go to the first box in (i_0, j_0, i_1, j_1) order, then to the
    first time knots.  Each table built holds at most 5^d P T doubles for
    P boxes and T time knots, and P T = 2 rectangle_count() / (T - 1), so
    MAX_RECTANGLES bounds memory; the rectangle count is capped first.
    """
    if theta_a.d != theta_b.d:
        raise DomainError("thetas must share the covariate dimension")
    return _BoxTable(theta_b, design, q_grid, grid).deviation(theta_a)


# -- shatter and deviation bounds ----------------------------------------------


@dataclass(frozen=True)
class ShatterBound:
    n: int
    d: int
    log_value: float
    value: float
    overflowed: bool


def shatter_bound(n: int, d: int) -> ShatterBound:
    """(n+1)^(2(d+1)), reported in log form when it overflows a double."""
    if n < 1 or d < 0:
        raise DomainError("need n >= 1 and d >= 0")
    log_value = 2.0 * (d + 1) * math.log(n + 1.0)
    overflowed = log_value > math.log(np.finfo(float).max)
    value = math.inf if overflowed else float((n + 1) ** (2 * (d + 1)))
    return ShatterBound(n=n, d=d, log_value=log_value, value=value, overflowed=overflowed)


@dataclass(frozen=True)
class DeviationBounds:
    expected_dev_bound: float
    type1_bound: float


def deviation_bounds(n: int, d: int, epsilon: float) -> DeviationBounds:
    """Finite-sample deviation controls for the rectangle class.

    expected_dev_bound = 2 sqrt(log(2 (n+1)^(2(d+1))) / n) bounds the mean
    supremum deviation.  type1_bound = 2 exp(-n eps^2 / 2) is Hoeffding's
    bound for one fixed set at deviation eps/2.  It does not bound the
    test's rejection rate under the reference: the test rejects when a
    supremum over the class exceeds eps/4, and at n = 500, eps = 0.3, 29
    of 40 null datasets were rejected against a type1_bound of 3.4e-10
    (ROADMAP item 2).
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be a positive real, got {epsilon}")
    sb = shatter_bound(n, d)
    expected = 2.0 * math.sqrt((math.log(2.0) + sb.log_value) / n)
    rate = 2.0 * math.exp(-n * epsilon ** 2 / 2.0)
    return DeviationBounds(expected_dev_bound=expected, type1_bound=rate)


# -- anchored test statistic ----------------------------------------------------


@dataclass(frozen=True)
class TestStatResult:
    sup_dev: float
    threshold: float
    phi: int
    argmax: Rectangle
    n: int
    d: int
    epsilon: float
    # anchored-search work: pairs of 64-anchor blocks and of 16-anchor runs
    # bounded, left anchors scored exactly against a run, 2-D share builds,
    # blocks whose run corners were built and nodes whose coarse bound was
    # refined to the full time axis; zero at d = 0, where no covariate pair
    # is searched
    block_pairs_bounded: int = 0
    sub_pairs_bounded: int = 0
    rows_expanded: int = 0
    block_builds: int = 0
    corner_blocks: int = 0
    fine_bounds: int = 0
    # reference rows evaluated through survival_matrix, one per atom row
    # each time its reference CDF is computed, the bytes the search's run
    # and corner stores hold when it ends (0 at d = 0), and the seconds
    # spent building the anchor rows' kept summaries (at d = 0 the time
    # sweep's rows) and then searching; not compared
    reference_rows: int = field(default=0, compare=False)
    held_bytes: int = field(default=0, compare=False)
    build_s: float = field(default=0.0, compare=False)
    search_s: float = field(default=0.0, compare=False)


def _pair_bound(p, q) -> np.ndarray:
    """Upper bound on |mass([T_a, T_b] x [x_i, x_j])| over a <= b, for
    right anchors j in a group summarised by p and left anchors i in one
    summarised by q.

    A summary is (le_up, lt_up, le_down, lt_down): for every row of its
    group and every a <= b, le_up[b] - lt_up[a] bounds the row's mass of
    [T_a, T_b] from above and le_down[b] - lt_down[a] from below; one exact
    row is the summary (le, lt, le, lt), and then the bound is the row
    pair's exact value.  One forward pass gives both signs, u - cummin(w)
    and cummax(w) - u.  Summaries broadcast against each other over
    leading axes.
    """
    up = (p[0] - q[2]) - np.minimum.accumulate(p[1] - q[3], axis=-1)
    down = np.maximum.accumulate(p[3] - q[1], axis=-1) - (p[2] - q[0])
    return np.maximum(up.max(axis=-1), down.max(axis=-1))


def _coarse(summary) -> np.ndarray:
    """A summary on a time axis coarsened into runs of _COARSE anchors.

    Each component takes the extreme over a run that can only raise
    _pair_bound (the largest le_up and lt_down, the smallest lt_up and
    le_down), so the coarse bound of two coarse summaries is never below
    the bound of the summaries, as computed, and costs 1/_COARSE of it.
    Leading axes are kept; a short last run is reduced as it is.
    """
    at = np.arange(0, summary[0].shape[-1], _COARSE)
    return np.stack([
        extreme.reduceat(component, at, axis=-1)
        for extreme, component in zip(
            (np.maximum, np.minimum, np.minimum, np.maximum), summary
        )
    ])


def _cumsum_rows(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=0) in place, as one add per row: the same sums in
    the same order, without cumsum's strided walk down each column."""
    for r in range(1, len(a)):
        np.add(a[r - 1], a[r], out=a[r])
    return a


def _best_time_interval(u: np.ndarray, w: np.ndarray):
    """max over time-anchor pairs a <= b of |mass([T_a, T_b])|, with indices.

    u is the inclusive and w the exclusive prefix discrepancy, so the mass
    of [T_a, T_b] is u[b] - w[a].
    """
    up = u - np.minimum.accumulate(w)
    down = np.maximum.accumulate(w) - u
    b1 = int(np.argmax(up))
    b2 = int(np.argmax(down))
    if up[b1] >= down[b2]:
        return float(up[b1]), (int(np.argmin(w[: b1 + 1])), b1)
    return float(down[b2]), (int(np.argmax(w[: b2 + 1])), b2)


def _run_ends(s: int, e: int) -> tuple:
    """First and last anchors of the runs of _SUB anchors in s..e-1."""
    r0 = np.arange(s, e, _SUB)
    return r0, np.minimum(r0 + _SUB, e) - 1


class _Run(NamedTuple):
    """One run of _SUB anchors s..e-1, as the search keeps it for both
    sides.  Counts are at most n, so int32 holds them for any dataset that
    fits in memory."""

    counts: np.ndarray     # int32 count rows at anchors s..e: p's row r reads r + 1, q's r
    refs: np.ndarray       # the distinct R rows its rows subtract
    p_at: np.ndarray       # each p row's index into refs
    q_at: np.ndarray       # each q row's index into refs
    envelope: np.ndarray   # (4, K) envelope of the p rows (see _envelope)
    q_coarse: np.ndarray   # each q row's coarse summary (see _coarse)


class _Corners(NamedTuple):
    """One block's run corners, as the search keeps them."""

    counts: np.ndarray     # (2, 2, runs, K + 1) int32 count rows: p's at r1 + 1 and
                           # r0 + 1, then q's at r1 and r0
    p_coarse: np.ndarray   # (4, runs, K/_COARSE) coarse summaries of the corners
    q_coarse: np.ndarray


class _AnchorRows:
    """Prefix discrepancies at every anchor, kept as integer counts.

    For covariate anchor r and time anchor T_k the right side p holds
    S_p[r, k], the share of records with x <= x_r and time <= T_k (le) or
    < T_k (lt), minus R_p[r, k], the reference mass of atoms with x <= x_r
    up to T_k; the left side q holds the same with x < x_r.  The mass of
    [T_a, T_b] x [x_i, x_j] is p_le[j, b] - q_le[i, b] - (p_lt[j, a] -
    q_lt[i, a]).  Every anchor is an observed coordinate or an endpoint, so
    one count matrix serves all four: q's counts are p's one anchor
    earlier, and counts below T_k are counts up to T_(k-1).

    Counts at any anchors of a block of _BLOCK are built from the counts at
    the block's start in one 2-D kernel: the block's records are scattered
    into a rows x (K+1) increment matrix, summed along both axes and added
    to that state.  One sweep at construction keeps each block's start
    counts, per side the elementwise envelope of its rows (see _pair_bound)
    and that envelope's coarse summary (see _coarse), and the running
    reference R at every atom that bounds a run, one row per distinct atom
    index (at most 65 under RD on 64 cells).  While the reference term stays
    the same the shares only grow, so each maximum is taken at the last
    rows of those stretches and each minimum at their first.  Under RD
    every atom's reference row is built once, at construction, from one
    survival_matrix row per distinct link row of theta0 at its knots; under
    NRD each build evaluates its own atoms' rows.

    No float row is kept: every row and corner the search reads is formed
    on read as counts * inv_n minus R, the operations the sweep uses, so it
    is the same each time it is formed.  Besides the sweep's summaries
    (about m x K bytes) the search holds int32 counts, about m x K bytes
    more once every block is visited:
      - per block visited, its count rows at each run's first and last
        anchors and one past them, with the coarse summaries of its run
        corners (corners).  The mass of [T_a, T_b] grows with the box, so S
        at r1 minus R at r0 bounds every row's mass of the run r0..r1 from
        above and S at r0 minus R at r1 from below.  Corners are far tighter
        than envelopes on runs where the reference stays flat, and far
        looser on blocks.  Their R is the sweep's, so no reference row is
        evaluated for them.
      - per run visited, one store for both sides (run): its _SUB + 1 count
        rows, the distinct R rows they subtract, carried on from the kept R
        at the run's first anchor, and the summaries the search reads, the
        p rows' envelope and each q row's coarse summary.  p's row r and
        q's row r + 1 read one count row, and where no atom lies strictly
        between x_r and x_(r+1) one R row.  The last _CACHE_RUNS runs built
        are kept.
    Builds write into reused buffers, because fresh pages cost more than
    the arithmetic.
    """

    def __init__(self, times, xs, atoms: QAtoms, theta0: Theta, anchors_t, design: str):
        order = np.argsort(xs, kind="stable")
        self.anchors_x = np.unique(np.concatenate([[0.0, 1.0], xs]))
        self.m, self.K = len(self.anchors_x), len(anchors_t)
        # records below each anchor, then all n; every x is an anchor, so
        # the records up to and including anchor r are those below r + 1
        self.rec_pos = np.append(np.searchsorted(xs[order], self.anchors_x), len(xs))
        self.bins = np.searchsorted(anchors_t, times[order])   # time anchor of each record
        self.inv_n = 1.0 / len(xs)
        nodes = atoms.nodes_array()
        node_order = np.argsort(nodes[:, 0], kind="stable")
        self.node_rows = nodes[node_order]
        self.node_w = atoms.weights_array()[node_order]
        self.node_lo = np.searchsorted(self.node_rows[:, 0], self.anchors_x, side="left")
        self.node_hi = np.searchsorted(self.node_rows[:, 0], self.anchors_x, side="right")
        self.node_pos = np.append(self.node_lo, self.node_hi[-1])
        self.theta0, self.anchors_t = theta0, anchors_t
        # Under RD (few atoms, the cells of a covariate law) the rows are
        # built here.  Atoms are sorted by x, and at d = 1 each knot's link
        # value is monotone in x, so atoms with equal link rows are
        # neighbours and share one row; the distinct rows are evaluated
        # _SUB at a time, so no call holds every atom's temporaries.
        self.ref_rows, self.reference_rows = None, 0
        if design == "RD":
            links = _link_rows(theta0, self.node_rows, theta0.grid.as_array())
            new = np.any(links[1:] != links[:-1], axis=1)
            distinct = self.node_rows[np.append(True, new)]
            cdf = np.empty((len(distinct), self.K))
            for a in range(0, len(distinct), _SUB):
                cdf[a: a + _SUB] = survival_matrix(theta0, distinct[a: a + _SUB], anchors_t)
            np.subtract(1.0, cdf, out=cdf)
            self.reference_rows = len(distinct)
            self.ref_rows = cdf[np.cumsum(np.append(0, new))]
            self.ref_rows *= self.node_w[:, None]
        # Summaries bound rows in exact arithmetic.  Computed values can
        # miss by the rounding of the reference's running sum over up to
        # every atom, and rebuilt rows can differ from the sweep's in the
        # last bits, so every bound is raised by this allowance.
        self.slack = 8.0 * (len(self.node_w) + 8) * np.finfo(float).eps
        self.builds = 0
        self.runs: OrderedDict = OrderedDict()
        self.corner_store: dict = {}
        self._counts = np.empty((_BLOCK + 1, self.K + 1), np.int64)
        self._share = np.empty((_BLOCK + 1, self.K + 1))
        self._ref = np.empty((_SUB, self.K))
        self._rows = np.empty((2, _SUB, self.K))
        self._sweep()

    def _sweep(self) -> None:
        """Record every block's start counts, per side its (4, blocks, K)
        envelopes in _pair_bound's order and their coarse summaries, and R
        at every atom that bounds a run."""
        K, node_pos = self.K, self.node_pos
        nblock = -(-self.m // _BLOCK)
        self.p_block, self.q_block = np.empty((2, 4, nblock, K))
        # runs never cross blocks; a corner subtracts R at r0 from the
        # counts at r1 and R at r1 from those at r0 (see corners)
        r0, r1 = _run_ends(0, self.m)
        atoms = {"p": self.node_hi[[r0, r1]], "q": self.node_lo[[r0, r1]]}
        self.kept_atoms = np.unique(np.concatenate(list(atoms.values()), axis=None))
        self.kept_refs = np.empty((len(self.kept_atoms), K))
        self.corner_refs = {side: np.searchsorted(self.kept_atoms, a) for side, a in atoms.items()}
        self.starts = []
        counts0, ref0 = np.zeros(K + 1, np.int64), np.zeros(K)
        for b, s in enumerate(range(0, self.m, _BLOCK)):
            self.starts.append(counts0)
            e = min(self.m, s + _BLOCK)
            # rows counted from s; p's row r reads share row r + 1, q's row r
            sides = []
            for node, shift in ((self.node_hi[s:e], 1), (self.node_lo[s:e], 0)):
                # stretches of rows with one reference term: their last
                # rows, and (one after each last row) their first
                last = np.append(np.flatnonzero(node[:-1] != node[1:]), len(node) - 1)
                sides.append((node, shift, (last, np.append(0, last[:-1] + 1))))
            at = np.unique(np.concatenate([r + shift for _, shift, ends in sides for r in ends]))
            counts = self._count_rows(s, at)
            share = np.multiply(counts, self.inv_n, out=self._share[: len(at)])
            ref = self._running_reference(ref0, node_pos[s], node_pos[e])
            counts0, ref0 = counts[-1].copy(), ref[-1].copy()
            for (node, shift, ends), envelope in zip(sides, (self.p_block, self.q_block)):
                # shares grow along a stretch: maxima at its last rows,
                # minima at its first
                (s_hi, r_hi), (s_lo, r_lo) = (
                    (share[np.searchsorted(at, r + shift)], ref[node[r] - node_pos[s]]) for r in ends
                )
                envelope[:, b] = ((s_hi[:, 1:] - r_hi).max(axis=0), (s_lo[:, :-1] - r_lo).min(axis=0),
                                  (s_lo[:, 1:] - r_lo).min(axis=0), (s_hi[:, :-1] - r_hi).max(axis=0))
            # the kept atoms in node_pos[s]..node_pos[e]; one at a block
            # boundary is written by both blocks with the same row
            kept = slice(*np.searchsorted(self.kept_atoms, [node_pos[s], node_pos[e] + 1]))
            self.kept_refs[kept] = ref[self.kept_atoms[kept] - node_pos[s]]
        self.p_coarse, self.q_coarse = _coarse(self.p_block), _coarse(self.q_block)

    def _reference(self, a: int, b: int) -> np.ndarray:
        """Weighted reference CDF rows of atoms a..b-1."""
        if self.ref_rows is not None:
            return self.ref_rows[a:b]
        if a == b:
            return np.zeros((0, self.K))
        self.reference_rows += b - a
        f = 1.0 - survival_matrix(self.theta0, self.node_rows[a:b], self.anchors_t)
        return self.node_w[a:b, None] * f

    def _running_reference(self, base: np.ndarray, a: int, b: int) -> np.ndarray:
        """R at atoms a..b from R at atom a (base), summed one atom at a
        time as the sweep sums it, so a build from a kept R repeats the
        sweep's sums."""
        return _cumsum_rows(np.vstack([base, self._reference(a, b)]))

    def _count_rows(self, start: int, at: np.ndarray) -> np.ndarray:
        """Counts at the anchors start + at of the block beginning at
        anchor start (at increasing), in a reused buffer."""
        self.builds += 1
        counts0 = self.starts[start // _BLOCK]
        pos = self.rec_pos[start + at]
        records = np.arange(self.rec_pos[start], pos[-1])
        counts = self._counts[: len(at)]
        counts.fill(0)
        np.add.at(counts, (np.searchsorted(pos, records, side="right"), self.bins[records] + 1), 1)
        # integer sums are exact in any order: the start state joins the
        # first row, and the row adds carry it to the others
        np.cumsum(counts, axis=1, out=counts)
        counts[0] += counts0
        return _cumsum_rows(counts)

    def _corner(self, side: str, counts: np.ndarray, runs) -> np.ndarray:
        """Corners of one side ("p" or "q") in _pair_bound's order, (4, K)
        for one run or (4, runs, K) for a slice of runs, from that side's
        count rows of those runs (see _Corners)."""
        share = counts * self.inv_n
        refs = self.kept_refs[self.corner_refs[side][:, runs]]
        corner = np.empty((2, *refs.shape))
        np.subtract(share[..., 1:], refs, out=corner[:, 0])
        np.subtract(share[..., :-1], refs, out=corner[:, 1])
        return corner.reshape(4, *refs.shape[1:])

    def corners(self, block: int) -> _Corners:
        """One block's corner store: built on first use, then kept."""
        if block not in self.corner_store:
            s = block * _BLOCK
            r0, r1 = _run_ends(s, min(self.m, s + _BLOCK))
            ends = np.array([[r1 + 1, r0 + 1], [r1, r0]]) - s
            at = np.unique(ends)
            counts = self._count_rows(s, at)[np.searchsorted(at, ends)].astype(np.int32)
            runs = slice(s // _SUB, s // _SUB + len(r0))
            self.corner_store[block] = _Corners(counts, *(
                _coarse(self._corner(side, c, runs)) for side, c in zip("pq", counts)
            ))
        return self.corner_store[block]

    def corner(self, side: str, run: int) -> np.ndarray:
        """(4, K) corner of one side for one run, formed from its block's
        kept counts and the sweep's R."""
        block, t = divmod(run, _BLOCK // _SUB)
        return self._corner(side, self.corners(block).counts["pq".index(side)][:, t], run)

    def run(self, k: int) -> _Run:
        """The store of run k: built on first use; the last _CACHE_RUNS
        runs built are kept."""
        if k in self.runs:
            self.runs.move_to_end(k)
            return self.runs[k]
        s, e = k * _SUB, min(self.m, k * _SUB + _SUB)
        start = s - s % _BLOCK
        counts = self._count_rows(start, np.arange(s - start, e - start + 1)).astype(np.int32)
        a = self.node_pos[s]
        kept = self.kept_refs[np.searchsorted(self.kept_atoms, a)]   # the sweep's R at atom a
        ref = self._running_reference(kept, a, self.node_pos[e])
        p_at, q_at = self.node_hi[s:e] - a, self.node_lo[s:e] - a
        used = np.unique(np.concatenate([p_at, q_at]))
        refs, p_at, q_at = ref[used], np.searchsorted(used, p_at), np.searchsorted(used, q_at)
        envelope = np.stack(_envelope(*self._formed(counts[1:], refs, p_at)))
        le, lt = self._formed(counts[:-1], refs, q_at)
        if len(self.runs) >= _CACHE_RUNS:
            self.runs.popitem(last=False)
        self.runs[k] = _Run(counts, refs, p_at, q_at, envelope, _coarse((le, lt, le, lt)))
        return self.runs[k]

    def _formed(self, counts, refs, at) -> tuple:
        """(le, lt) of count rows less the R rows refs[at], formed into a
        reused buffer that the next call overwrites."""
        share = np.multiply(counts, self.inv_n, out=self._share[: len(at)])
        # indices are in range by construction; "clip" skips the
        # buffered bounds check that out= would otherwise cost
        gathered = np.take(refs, at, axis=0, out=self._ref[: len(at)], mode="clip")
        le, lt = self._rows[:, : len(at)]
        np.subtract(share[:, 1:], gathered, out=le)
        np.subtract(share[:, :-1], gathered, out=lt)
        return le, lt

    def run_rows(self, side: str, k: int) -> tuple:
        """(le, lt) of one side's rows of run k, valid until the next call."""
        run = self.run(k)
        if side == "p":
            return self._formed(run.counts[1:], run.refs, run.p_at)
        return self._formed(run.counts[:-1], run.refs, run.q_at)

    def row(self, side: str, r: int) -> tuple:
        """(le, lt) of one side's row at anchor r, formed from its run."""
        run = self.run(r // _SUB)
        i = r % _SUB
        counts, ref = ((run.counts[i + 1], run.refs[run.p_at[i]]) if side == "p"
                       else (run.counts[i], run.refs[run.q_at[i]]))
        share = counts * self.inv_n
        return share[1:] - ref, share[:-1] - ref

    def held_bytes(self) -> int:
        """Bytes held by the run and corner stores."""
        stores = (*self.runs.values(), *self.corner_store.values())
        return sum(x.nbytes for store in stores for x in store)


def _envelope(le: np.ndarray, lt: np.ndarray) -> tuple:
    """The summary of a group of (le, lt) rows as _pair_bound reads it:
    their elementwise extremes."""
    return le.max(axis=0), lt.min(axis=0), le.min(axis=0), lt.max(axis=0)


def _anchored_search(rows: _AnchorRows):
    """Best-first branch and bound over anchor pairs i <= j; returns the
    best value, (i*, j*) and the search counters.

    Nodes are pairs of blocks of _BLOCK anchors, pairs of runs of _SUB
    anchors, and left anchors against a right run.  Every block pair is
    bounded from the envelopes the sweep kept first; a block pair above
    the incumbent is split into its run pairs, bounded from corners that
    the first split to read them builds; a run pair into its left rows,
    each bounded from the right run's corners and, where that bound is
    above the incumbent, from the envelope of the right run's rows; and a
    row is expanded exactly against those rows.  A node enters the heap on
    its bound on the coarse time axis (see _coarse); when it reaches the
    top it is bounded again on the full axis and goes back if it still
    beats the incumbent, so nodes are expanded in order of their full
    bound, only those whose full bound exceeds the final maximum are
    expanded, and only their blocks' corners and their runs' stores are
    built.  Every bound carries the rows' rounding allowance, so the
    result is the largest computed pair value.
    """
    per = _BLOCK // _SUB

    def bound(p, q):
        return _pair_bound(p, q) + rows.slack

    heap = []
    for jb in range(rows.p_coarse.shape[1]):
        bounds = bound(rows.p_coarse[:, jb], rows.q_coarse[:, : jb + 1])
        heap.extend((-float(v), 0, ib, jb, False) for ib, v in enumerate(bounds))
    heapq.heapify(heap)
    counts = {"block_pairs_bounded": len(heap), "sub_pairs_bounded": 0, "rows_expanded": 0,
              "fine_bounds": 0}
    best, pair = -np.inf, None
    while heap and -heap[0][0] > best:
        _, level, i, j, fine = heapq.heappop(heap)
        if not fine:
            counts["fine_bounds"] += 1
            if level == 0:
                v = bound(rows.p_block[:, j], rows.q_block[:, i])
            elif level == 1:
                v = bound(rows.corner("p", j), rows.corner("q", i))
            else:
                le, lt = rows.row("q", i)
                row = (le, lt, le, lt)
                v = bound(rows.corner("p", j), row)
                if v > best:
                    # the envelope is the tighter summary where the reference
                    # moves inside the run, as it does at every anchor under NRD
                    v = min(v, bound(rows.run(j).envelope, row))
            if v > best:
                heapq.heappush(heap, (-float(v), level, i, j, True))
        elif level == 0:
            p, q = rows.corners(j).p_coarse, rows.corners(i).q_coarse
            iruns = np.arange(i * per, i * per + q.shape[1])
            jruns = np.arange(j * per, j * per + p.shape[1])
            bounds = bound(p[:, None], q[:, :, None])
            counts["sub_pairs_bounded"] += bounds.size
            for a, b in zip(*np.nonzero((bounds > best) & (iruns[:, None] <= jruns[None]))):
                heapq.heappush(heap, (-float(bounds[a, b]), 1, int(iruns[a]), int(jruns[b]), False))
        elif level == 1:
            bounds = bound(rows.corners(j // per).p_coarse[:, j % per], rows.run(i).q_coarse)
            for r in np.nonzero(bounds > best)[0]:
                heapq.heappush(heap, (-float(bounds[r]), 2, i * _SUB + int(r), j, False))
        else:
            counts["rows_expanded"] += 1
            q_le, q_lt = rows.row("q", i)
            p_le, p_lt = rows.run_rows("p", j)
            vals = _pair_bound((p_le, p_lt, p_le, p_lt), (q_le, q_lt, q_le, q_lt))
            vals[np.arange(j * _SUB, j * _SUB + len(vals)) < i] = -np.inf
            jj = int(np.argmax(vals))
            if vals[jj] > best:
                best, pair = float(vals[jj]), (i, j * _SUB + jj)
    counts["block_builds"] = rows.builds
    counts["corner_blocks"] = len(rows.corner_store)
    counts["held_bytes"] = rows.held_bytes()
    return best, pair, counts


def _reference_atoms(dataset: SurvivalDataset, q_grid) -> QAtoms:
    if q_grid is not None:
        return resolve_atoms(dataset.design, q_grid)
    if dataset.design == "NRD":
        return q_atoms_from_rows(dataset.covariates_array())
    desc = dataset.q_descriptor
    family = desc.get("family")
    if family == "uniform":
        return q_atoms_from_law(UniformQ(int(desc["d"])))
    if family == "product_beta":
        return q_atoms_from_law(ProductBetaQ(tuple(desc["alphas"]), tuple(desc["betas"])))
    if family == "table":
        return q_atoms_from_law(
            TableQ(tuple(tuple(a) for a in desc["atoms"]), tuple(desc["probs"]))
        )
    raise DomainError(
        f"cannot rebuild a covariate law from descriptor {desc!r}; pass q_grid explicitly"
    )


def test_statistic(dataset: SurvivalDataset, theta0: Theta, design: str, q_grid, epsilon: float) -> TestStatResult:
    """sup over data-anchored rectangles of |mu_n - mu_theta0|, and the test.

    Anchors are the observed coordinates plus the domain endpoints on each
    axis; the rejection threshold is epsilon / 4.  The time axis is swept
    exactly per covariate box via prefix discrepancies.  At d = 1 the
    covariate anchor pairs are searched best first: every pair of blocks
    of 64 anchors is bounded from elementwise envelopes, a block pair above
    the incumbent is split into pairs of runs of 16 anchors bounded from
    their corner rows, then into single left anchors, and only a row whose
    bound still exceeds the incumbent is scored exactly.  Each of these
    enters the search on its bound over runs of 16 time anchors, O(K/16)
    per pair for K time anchors, and pays the O(K) bound only when it
    reaches the top (fine_bounds counts these).  For m covariate anchors
    no float m x K matrix is held: one sweep keeps each block's start
    counts and envelopes, about m K bytes, and R at its runs' boundary
    atoms; the search keeps int32 counts, the corner rows of the blocks it
    visits (about m K bytes once it visits all) and one store for both
    sides of each of the last 32 runs it visits, and forms every row and
    corner it reads from them.  The result is the exact anchored maximum;
    the counters of this work, the bytes held and the seconds spent
    building and searching are returned with it.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be a positive real, got {epsilon}")
    if design != dataset.design:
        raise DomainError(f"dataset was generated under {dataset.design}, not {design}")
    if dataset.d != theta0.d:
        raise DomainError(f"dataset has d={dataset.d}, theta0 has d={theta0.d}")
    times = dataset.times_array()
    if times.max() > theta0.horizon:
        raise DomainError("observed times reach past the reference grid horizon")
    n = dataset.n
    d = dataset.d
    threshold = epsilon / 4.0
    if d > 1:
        raise DomainError("the anchored statistic supports d <= 1; use the metric for d = 2")

    start = time.perf_counter()
    anchors_t = np.unique(np.concatenate([[0.0, theta0.horizon], times]))
    atoms = _reference_atoms(dataset, q_grid)
    if atoms.d != d:
        raise DomainError(f"reference atoms have d={atoms.d}, data has d={d}")

    if d == 0:
        t_sorted = np.sort(times)
        emp_le = np.searchsorted(t_sorted, anchors_t, side="right") / n
        emp_lt = np.searchsorted(t_sorted, anchors_t, side="left") / n
        fmat = 1.0 - survival_matrix(theta0, atoms.nodes_array(), anchors_t)
        ref = atoms.weights_array() @ fmat
        built = time.perf_counter()
        value, (ka, kb) = _best_time_interval(emp_le - ref, emp_lt - ref)
        rect = Rectangle(time=(anchors_t[ka], anchors_t[kb]), box=())
        counts = {"reference_rows": len(fmat)}
    else:
        rows = _AnchorRows(times, dataset.covariates_array()[:, 0], atoms, theta0, anchors_t, design)
        built = time.perf_counter()
        _, (i_star, j_star), counts = _anchored_search(rows)
        # recover the maximizing time interval from the winning anchor pair
        (p_le, p_lt), (q_le, q_lt) = rows.row("p", j_star), rows.row("q", i_star)
        value, (ka, kb) = _best_time_interval(p_le - q_le, p_lt - q_lt)
        rect = Rectangle(
            time=(anchors_t[ka], anchors_t[kb]),
            box=((rows.anchors_x[i_star], rows.anchors_x[j_star]),),
        )
        counts["reference_rows"] = rows.reference_rows
    return TestStatResult(
        sup_dev=value, threshold=threshold, phi=int(value > threshold),
        argmax=rect, n=n, d=d, epsilon=epsilon, **counts,
        build_s=built - start, search_s=time.perf_counter() - built,
    )
