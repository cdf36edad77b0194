"""Shared test helpers."""

import numpy as np

from gphazard.gp_paths import DyadicGrid, sample_path
from gphazard.hazard import Theta
from gphazard.kernels import StationaryKernel


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
