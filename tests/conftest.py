"""Shared test helpers."""

import threading

import numpy as np
import pytest

from gphazard.gp_paths import DyadicGrid, sample_path
from gphazard.hazard import Theta
from gphazard.kernels import StationaryKernel
from gphazard.vc import Rectangle, measure_mu


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves running a thread it did not find at its start."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


def random_theta0(d, seed, omega0=2.0, horizon=24.0, scale=0.3):
    """Smooth random SE truth; the amplitude shrinks with d so the decay
    floor keeps a wide margin."""
    grid = DyadicGrid(horizon, 7)
    kern = StationaryKernel.se(lengthscale=3.0, variance=(scale / (d + 1)) ** 2)
    rng = np.random.default_rng(seed)
    vals = [
        np.asarray(sample_path(kern, grid, seed=int(rng.integers(1 << 30))).values)
        for _ in range(d + 1)
    ]
    return Theta.from_values(omega0, grid, vals)


def brute_metric(theta_a, theta_b, design, q_grid, grid):
    """Literal enumeration of |mu_a - mu_b| over all grid rectangles."""
    tk = grid.time_knots
    best = -1.0
    if not grid.covariate_knots:
        boxes = [()]
    elif len(grid.covariate_knots) == 1:
        ck = grid.covariate_knots[0]
        boxes = [
            (((ck[i], ck[j])),)
            for i in range(len(ck))
            for j in range(i + 1, len(ck))
        ]
    else:
        c0, c1 = grid.covariate_knots
        boxes = [
            ((c0[i0], c0[j0]), (c1[i1], c1[j1]))
            for i0 in range(len(c0))
            for j0 in range(i0 + 1, len(c0))
            for i1 in range(len(c1))
            for j1 in range(i1 + 1, len(c1))
        ]
    for box in boxes:
        for a in range(len(tk)):
            for b in range(a + 1, len(tk)):
                rect = Rectangle((tk[a], tk[b]), box)
                dev = abs(
                    measure_mu(theta_a, rect, design, q_grid)
                    - measure_mu(theta_b, rect, design, q_grid)
                )
                best = max(best, dev)
    return best
