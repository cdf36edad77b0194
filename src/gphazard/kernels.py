"""Stationary covariance kernels and the checks the theory asks of them.

A kernel here is a one-argument stationary covariance t -> kappa(t) for
t >= 0.  Two families are built in (squared exponential and
Ornstein-Uhlenbeck), plus a constant kernel and tabulated kernels loaded
from CSV.  The checkers probe the two regularity conditions the results
downstream rely on: a lower bound on the inverse increment
(kappa(0) - kappa(2^-n))^-1 against n^6, and sublinear growth of the
integrated covariance.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError

# Default depth for the inverse-increment check.
A1_DEFAULT_NMAX = 40

_KINDS = ("se", "ou", "constant", "tabulated")


@dataclass(frozen=True)
class StationaryKernel:
    """Stationary covariance function kappa(t) for t >= 0.

    kind
        'se'         kappa(t) = variance * exp(-(t/lengthscale)^2)
        'ou'         kappa(t) = variance * exp(-t/lengthscale)
        'constant'   kappa(t) = variance
        'tabulated'  linear interpolation of (table_t, table_k); values
                     beyond the last tabulated point clamp to the last one.
    """

    kind: str
    lengthscale: float = 1.0
    variance: float = 1.0
    table_t: tuple = field(default=())
    table_k: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind in ("se", "ou") and not self.lengthscale > 0:
            raise DomainError(f"lengthscale must be positive, got {self.lengthscale}")
        if self.kind != "tabulated" and not self.variance > 0:
            raise DomainError(f"variance must be positive, got {self.variance}")
        if self.kind == "tabulated":
            t = np.asarray(self.table_t, dtype=float)
            k = np.asarray(self.table_k, dtype=float)
            if t.ndim != 1 or t.size < 2 or t.shape != k.shape:
                raise DomainError("tabulated kernel needs two equal-length columns with >= 2 rows")
            if t[0] != 0.0:
                raise DomainError("tabulated kernel must start at t = 0")
            if not np.all(np.diff(t) > 0):
                raise DomainError("tabulated kernel abscissae must be strictly increasing")
            if not np.all(np.isfinite(k)):
                raise DomainError("tabulated kernel values must be finite")
            if not k[0] > 0:
                raise DomainError("tabulated kernel needs kappa(0) > 0")

    # -- evaluation ----------------------------------------------------

    def __call__(self, t):
        """Evaluate kappa at t (scalar or array); t must be >= 0."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise DomainError("kernel argument must be nonnegative")
        if self.kind == "se":
            out = self.variance * np.exp(-((arr / self.lengthscale) ** 2))
        elif self.kind == "ou":
            out = self.variance * np.exp(-arr / self.lengthscale)
        elif self.kind == "constant":
            out = np.full_like(arr, self.variance)
        else:
            t_tab = np.asarray(self.table_t, dtype=float)
            k_tab = np.asarray(self.table_k, dtype=float)
            out = np.interp(arr, t_tab, k_tab)
        return out if arr.ndim else float(out)

    def gap_from_zero(self, t):
        """kappa(0) - kappa(t), computed without catastrophic cancellation.

        For the analytic families this uses expm1 so that gaps far below
        machine epsilon relative to kappa(0) are still resolved; the
        tabulated fallback is a direct subtraction.
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise DomainError("kernel argument must be nonnegative")
        if self.kind == "se":
            out = self.variance * -np.expm1(-((arr / self.lengthscale) ** 2))
        elif self.kind == "ou":
            out = self.variance * -np.expm1(-arr / self.lengthscale)
        elif self.kind == "constant":
            out = np.zeros_like(arr)
        else:
            out = self.kappa0 - np.asarray(self(arr), dtype=float)
        return out if arr.ndim else float(out)

    @property
    def kappa0(self) -> float:
        return float(self(0.0))

    def describe(self) -> str:
        if self.kind in ("se", "ou"):
            return f"{self.kind}(lengthscale={self.lengthscale:g},variance={self.variance:g})"
        if self.kind == "constant":
            return f"constant(variance={self.variance:g})"
        return f"tabulated({len(self.table_t)} rows)"

    # -- constructors ----------------------------------------------------

    @classmethod
    def se(cls, lengthscale: float = 1.0, variance: float = 1.0) -> "StationaryKernel":
        return cls("se", lengthscale=lengthscale, variance=variance)

    @classmethod
    def ou(cls, lengthscale: float = 1.0, variance: float = 1.0) -> "StationaryKernel":
        return cls("ou", lengthscale=lengthscale, variance=variance)

    @classmethod
    def constant(cls, variance: float = 1.0) -> "StationaryKernel":
        return cls("constant", variance=variance)

    @classmethod
    def from_csv(cls, path) -> "StationaryKernel":
        """Load a tabulated kernel from a two-column CSV with a header row."""
        with _csv_table(path) as (header, table):
            if len(header) != 2:
                raise DomainError(f"line 1: expected exactly 2 columns, got {len(header)}")
            try:
                float(header[0])
            except ValueError:
                pass
            else:
                raise DomainError("line 1: first row must be a (non-numeric) header")
            return cls("tabulated", table_t=tuple(table[:, 0].tolist()), table_k=tuple(table[:, 1].tolist()))


@contextmanager
def _csv_table(path):
    """The package's one CSV parser: the header row of a file and the rows
    below it as a float matrix, for the body of a with statement.

    An unreadable or empty file, a header alone, a row whose field count
    differs from the header's and a non-numeric field raise a DomainError
    naming the file and, but for the first, the line; the header is line
    1.  A DomainError, or a KeyError or TypeError from a malformed
    sidecar, in the body re-raises as a DomainError naming the file.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeError, csv.Error) as exc:
        raise DomainError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if len(rows) < 2:
        raise DomainError(f"{path}: line {len(rows) + 1}: expected a header and rows of data")
    header, data = rows[0], rows[1:]
    try:
        table = np.array(data, dtype=float).reshape(len(data), len(header))
    except ValueError:
        # only now walk the rows, to name the first bad line
        for line, row in enumerate(data, start=2):
            if len(row) != len(header):
                raise DomainError(f"{path}: line {line}: {len(row)} fields, header has {len(header)}") from None
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise DomainError(f"{path}: line {line}: {exc}") from None
        raise
    try:
        yield header, table
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path}: {'missing key ' if isinstance(exc, KeyError) else ''}{exc}") from exc


# -- inverse-increment check ------------------------------------------------


@dataclass(frozen=True)
class A1Row:
    n: int
    gap: float          # kappa(0) - kappa(2^-n)
    inverse: float      # 1/gap, inf when degenerate
    threshold: float    # n^6
    passed: bool
    degenerate: bool    # gap <= 0 at working precision


@dataclass(frozen=True)
class A1Report:
    kernel: str
    n_max: int
    rows: tuple
    all_pass: bool      # the inequality holds at every n in 1..n_max
    holds_from: int | None  # smallest n0 with the inequality holding on [n0, n_max]
    eventually_ok: bool     # the trailing run of passes reaches n_max


def check_a1(kernel: StationaryKernel, n_max: int = A1_DEFAULT_NMAX) -> A1Report:
    """Check (kappa(0) - kappa(2^-n))^-1 >= n^6 for n = 1..n_max.

    Reports the per-n outcomes rather than a single verdict: all_pass is the
    literal every-n result, while eventually_ok records whether the
    inequality holds from some n0 through n_max (the trailing run of
    passes reaches the last n checked).  The exponential beats the
    polynomial, so for smooth kernels failures concentrate at small n.
    A nonpositive gap is reported as degenerate and fails that n.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        gap = float(kernel.gap_from_zero(2.0 ** -n))
        degenerate = not gap > 0.0
        inverse = float("inf") if degenerate else 1.0 / gap
        threshold = float(n) ** 6
        passed = (not degenerate) and inverse >= threshold
        rows.append(A1Row(n, gap, inverse, threshold, passed, degenerate))
    all_pass = all(r.passed for r in rows)
    holds_from = None
    if rows[-1].passed:
        idx = len(rows) - 1
        while idx > 0 and rows[idx - 1].passed:
            idx -= 1
        holds_from = rows[idx].n
    return A1Report(
        kernel=kernel.describe(),
        n_max=n_max,
        rows=tuple(rows),
        all_pass=all_pass,
        holds_from=holds_from,
        eventually_ok=holds_from is not None,
    )


# -- sublinear integrated covariance ----------------------------------------


@dataclass(frozen=True)
class SublinearRow:
    horizon: float
    integral: float
    ratio: float        # integral / horizon


@dataclass(frozen=True)
class SublinearReport:
    kernel: str
    rows: tuple
    passed: bool


def _mean_kappa(kernel: StationaryKernel, horizon: float) -> float:
    """(1/T) * integral_0^T kappa in closed form; a constant kernel's is exact."""
    v, ell, t = kernel.variance, kernel.lengthscale, horizon
    if kernel.kind == "se":
        return v * ell * (math.sqrt(math.pi) / 2.0) * math.erf(t / ell) / t
    if kernel.kind == "ou":
        return v * ell * -math.expm1(-t / ell) / t
    if kernel.kind == "constant":
        return v
    # linear between breakpoints and flat past the last: trapezoids are exact
    t_tab = np.asarray(kernel.table_t, dtype=float)
    knots = np.append(t_tab[t_tab < t], t)
    return float(np.trapezoid(kernel(knots), knots)) / t


def check_sublinear_integral(kernel: StationaryKernel, horizons=(1.0, 10.0, 100.0)) -> SublinearReport:
    """Check that T -> (1/T) * integral_0^T kappa grows sublinearly.

    Each ratio is exact (see _mean_kappa).  Passes when the ratios are
    non-increasing across the given horizons and the last ratio is
    strictly below the first; a constant kernel keeps the ratio flat and
    fails.
    """
    horizons = tuple(float(h) for h in horizons)
    if len(horizons) < 2:
        raise DomainError("need at least two horizons to compare ratios")
    if any(h <= 0 for h in horizons):
        raise DomainError("horizons must be positive")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise DomainError("horizons must be strictly increasing")
    rows = []
    for horizon in horizons:
        ratio = _mean_kappa(kernel, horizon)
        if not math.isfinite(ratio):
            raise NumericError(f"kernel {kernel.describe()} has no finite mean on [0, {horizon}]")
        rows.append(SublinearRow(horizon, ratio * horizon, ratio))
    ratios = [r.ratio for r in rows]
    nonincreasing = all(b <= a * (1.0 + 1e-12) for a, b in zip(ratios, ratios[1:]))
    passed = nonincreasing and ratios[-1] < ratios[0]
    return SublinearReport(kernel=kernel.describe(), rows=tuple(rows), passed=passed)
