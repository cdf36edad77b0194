"""Correctness oracles for the benchmark workloads.

Every check here is computed without calling gphazard: closed forms,
enumeration and plain CSV/JSON parsing.  None compares against frozen
sampled values, so the checks survive a change of the samplers' seed
contract; they test the law of the output, not its bits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import expit

# A correct sampler fails the KS test with this probability per dataset.
KS_ALPHA = 1e-6
# Below this knot-to-knot change of the link the softplus quotient loses
# digits, so the midpoint expansion takes over.
_FLAT_DY = 1e-7


def read_csv_matrix(path) -> np.ndarray:
    """The numbers of a CSV file below its header row, one row per line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def mean_link(y0, y1):
    """Average of sigmoid over a linear segment from y0 to y1.

    The integral of sigmoid is softplus, so the mean over the segment is
    (softplus(y1) - softplus(y0)) / (y1 - y0); near-flat segments use the
    midpoint value plus its second-order term.
    """
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    dy = y1 - y0
    flat = np.abs(dy) < _FLAT_DY
    safe = np.where(flat, 1.0, dy)
    quotient = (np.logaddexp(0.0, y1) - np.logaddexp(0.0, y0)) / safe
    s = expit(0.5 * (y0 + y1))
    midpoint = s + s * (1.0 - s) * (1.0 - 2.0 * s) * dy * dy / 24.0
    return np.where(flat, midpoint, quotient)


def cumulative_hazard(omega: float, knots, y_knots, t):
    """omega * integral of sigmoid(Y_i) over [0, t_i] for piecewise-linear Y_i.

    y_knots holds one row of link values at the knots per record; t holds
    one time per record, inside [0, knots[-1]].
    """
    knots = np.asarray(knots, dtype=float)
    y = np.atleast_2d(np.asarray(y_knots, dtype=float))
    t = np.asarray(t, dtype=float)
    dt = np.diff(knots)
    cells = dt * mean_link(y[:, :-1], y[:, 1:])
    cum = np.concatenate([np.zeros((len(y), 1)), np.cumsum(cells, axis=1)], axis=1)
    rows = np.arange(len(y))
    k = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    frac = (t - knots[k]) / dt[k]
    y_t = y[rows, k] + frac * (y[rows, k + 1] - y[rows, k])
    return omega * (cum[rows, k] + (t - knots[k]) * mean_link(y[rows, k], y_t))


def retry_cdf(omega: float, knots, y_knots, t, horizon: float):
    """CDF of a record time drawn by thinning with horizon-doubling retries.

    Attempt k thins afresh on [0, h_k] with h_0 = horizon and
    h_{k+1} = min(2 h_k, tau), tau = knots[-1], and the first event wins.
    Conditioning on eventual success gives
    G(t) = sum_k P_k F(min(t, h_k)) + P_K F(min(t, tau)) / F(tau), where
    P_k is the chance that attempts 0..k-1 were censored and K is the
    first attempt whose horizon reaches tau.
    """
    tau = float(knots[-1])
    t = np.asarray(t, dtype=float)

    def cdf(s):
        return -np.expm1(-cumulative_hazard(omega, knots, y_knots, s))

    total = np.zeros_like(t)
    survive = np.ones_like(t)
    h = float(horizon)
    while h < tau:
        total += survive * cdf(np.minimum(t, h))
        survive *= 1.0 - cdf(np.full_like(t, h))
        h = min(2.0 * h, tau)
    return total + survive * cdf(np.minimum(t, tau)) / cdf(np.full_like(t, tau))


def pit_ks_pvalue(omega, knots, paths, xs, times, horizon) -> float:
    """KS p-value of the probability-integral transform of the times.

    paths holds eta_0..eta_d at the knots; xs the (n, d) covariates.
    """
    paths = np.asarray(paths, dtype=float)
    xs = np.asarray(xs, dtype=float).reshape(len(times), -1)
    y = paths[0][None, :] + xs @ paths[1:]
    u = retry_cdf(omega, knots, y, times, horizon)
    return float(stats.kstest(u, "uniform").pvalue)


# -- anchored rectangle statistic ---------------------------------------------


def anchored_deviation(times, xs, nodes, weights, rate, rect_time, rect_box) -> float:
    """|empirical - reference| mass of one closed rectangle [a,b] x [lo,hi].

    The reference is the constant-hazard law with the given rate over the
    weighted covariate nodes.
    """
    a, b = rect_time
    lo, hi = rect_box
    inside = (times >= a) & (times <= b) & (xs >= lo) & (xs <= hi)
    node_mass = weights[(nodes >= lo) & (nodes <= hi)].sum()
    ref = node_mass * (math.exp(-rate * a) - math.exp(-rate * b))
    return abs(inside.mean() - ref)


def brute_anchored(times, xs, nodes, weights, rate, horizon) -> float:
    """Maximum anchored deviation by enumerating every anchor rectangle.

    Anchors are the observed coordinates plus the domain ends on each
    axis; every closed box [x_i, x_j] and interval [T_a, T_b] is scored.
    Work grows as n^4, so keep n near a hundred.
    """
    n = len(times)
    at = np.unique(np.concatenate([[0.0, horizon], times]))
    ax = np.unique(np.concatenate([[0.0, 1.0], xs]))
    ref_cdf = -np.expm1(-rate * at)
    le = (times[:, None] <= at[None, :]).astype(float)
    lt = (times[:, None] < at[None, :]).astype(float)
    upper = np.triu(np.ones((len(at), len(at)), dtype=bool))
    best = 0.0
    for i, lo in enumerate(ax):
        his = ax[i:, None]
        in_box = ((xs[None, :] >= lo) & (xs[None, :] <= his)).astype(float)
        mass = ((nodes[None, :] >= lo) & (nodes[None, :] <= his)).astype(float) @ weights
        ref = mass[:, None] * ref_cdf[None, :]
        at_b = in_box @ le / n - ref
        at_a = in_box @ lt / n - ref
        dev = np.abs(at_b[:, None, :] - at_a[:, :, None])
        best = max(best, float(dev[:, upper].max()))
    return best


# -- strict JSON ---------------------------------------------------------------


def nonfinite_fields(root) -> int:
    """Count NaN/Infinity tokens in every report.json and manifest.json.

    Strict JSON has no such tokens, so each one is a field a strict parser
    rejects.
    """
    count = 0

    def tally(token):
        nonlocal count
        count += 1
        return None

    for path in sorted(Path(root).rglob("*.json")):
        if path.name in ("report.json", "manifest.json"):
            json.loads(path.read_text(), parse_constant=tally)
    return count
