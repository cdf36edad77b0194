"""The four benchmark workloads: inputs, timed operations and oracles.

Each workload is built in three steps, which the worker times apart:
the constructor generates every input from the pass's seed sequence
(set-up), `run` issues the library operations back to back (the timed
region), and `verify` checks the outputs with the library-independent
oracles in `oracles.py`.  An operation fails when it raises or when its
oracle rejects its output; the benchmark keeps going either way.

Library names are looked up at call time (`cli.run`, `vc.test_statistic`)
so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from gphazard import cli, gp_paths, hazard, vc
from gphazard.gp_paths import DyadicGrid, TimeGrid
from gphazard.hazard import SurvivalDataset, Theta, UniformQ
from gphazard.kernels import StationaryKernel
from gphazard.vc import QAtoms

OMEGA0 = 2.0
TRUTH_HORIZON = 20.0
# Random truths are SE paths with lengthscale 3 and this variance, so the
# link stays near 0 and thinning accepts about half its proposals; with
# unit variance the cost per record swings with each drawn truth.
TRUTH_VARIANCE = 0.09
# Null datasets come from this fixed pool, not from --seed: their search
# time spreads over an order of magnitude between datasets, more than a
# run of seconds can average, so a seeded null set would make wall_s a
# draw of the data rather than a measure of the code.
NULL_POOL_ENTROPY = 4000


@dataclass(frozen=True)
class Sizes:
    sim_n: int
    retry_n: int
    dense_n: int          # anchored test below the dense/streamed switch
    streamed_n: int       # and above it
    sibling_n: int
    ladder_d1: tuple
    ladder_d0: tuple
    mcmc: dict            # overrides of the consistency MCMC defaults
    bounds_params: dict   # overrides of the verify-bounds defaults
    path_level: int
    paths: int
    kl_members: int


FULL = Sizes(
    sim_n=4000, retry_n=2000,
    dense_n=2000, streamed_n=3000,
    sibling_n=100,
    ladder_d1=(25, 100), ladder_d0=(1000, 4000), mcmc={},
    bounds_params={}, path_level=9, paths=100, kl_members=200,
)

# Reduced sizes for the benchmark's self-test; every code path still runs.
QUICK = Sizes(
    sim_n=200, retry_n=100,
    dense_n=200, streamed_n=300,
    sibling_n=30,
    ladder_d1=(20, 40), ladder_d0=(40, 80),
    mcmc={"iterations": 60, "burn_in": 20, "thinning": 4},
    bounds_params={"reps": 400, "level": 6}, path_level=6, paths=6, kl_members=4,
)


def _seeds(ss: np.random.SeedSequence, count: int) -> list:
    return [int(v) for v in ss.generate_state(count)]


class Workload:
    """Operation bookkeeping shared by the workloads."""

    def __init__(self, sizes: Sizes, work: Path):
        self.sizes = sizes
        self.work = work
        self.attempted = 0
        self.failed = {}

    def op(self, label: str, fn, *args):
        """Run one library operation; a raise is recorded as its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # count it and keep the loop closed
            traceback.print_exc(file=sys.stderr)
            self.failed[label] = f"raised {type(exc).__name__}: {exc}"
            return None

    def reject(self, label: str, reason: str) -> None:
        """Mark an operation whose output failed its oracle."""
        self.failed.setdefault(label, reason)

    def cli_config(self, label: str, command: str, seed: int, parameters: dict):
        doc = {"command": command, "seed": seed, "out": str(self.work / label),
               "parameters": parameters}
        return cli.parse_config(json.dumps(doc))

    def run_dir(self, label: str) -> Path:
        (run,) = (self.work / label).iterdir()
        return run

    def cli_ok(self, label: str, status, allowed=(0,)) -> bool:
        if status is None:
            return False
        if status not in allowed:
            self.reject(label, f"exit status {status}")
            return False
        return True


def _se_paths(rng, points: np.ndarray, count: int) -> list:
    """Truth path values drawn here, so the library receives only inputs."""
    gap = points[:, None] - points[None, :]
    cov = TRUTH_VARIANCE * np.exp(-((gap / 3.0) ** 2)) + 1e-10 * np.eye(len(points))
    chol = np.linalg.cholesky(cov)
    return [chol @ rng.standard_normal(len(points)) for _ in range(count)]


class Simulate(Workload):
    """CLI simulate at d=1 and d=2, a retry-heavy generation, CSV round trips."""

    RETRY_HORIZON = 0.5

    def __init__(self, ss, sizes, work):
        super().__init__(sizes, work)
        sim1, sim2, truth, data = _seeds(ss, 4)
        self.configs = {
            d: self.cli_config(f"simulate-d{d}", "simulate", seed, {
                "n": sizes.sim_n, "omega0": OMEGA0, "kernel": "se", "lengthscale": 3.0,
                "variance": TRUTH_VARIANCE, "d": d,
            })
            for d, seed in ((1, sim1), (2, sim2))
        }
        grid = TimeGrid(tuple(np.linspace(0.0, TRUTH_HORIZON, 129)))
        self.retry_paths = _se_paths(np.random.default_rng(truth), grid.as_array(), 2)
        self.retry_theta = Theta.from_values(OMEGA0, grid, self.retry_paths)
        self.retry_seed = data
        self.retry_csv = work / "retry.csv"

    def run(self):
        self.status = {d: self.op(f"simulate d={d}", cli.run, c) for d, c in self.configs.items()}
        self.retry = self.op(
            "generate_dataset retry", hazard.generate_dataset, self.retry_theta,
            self.sizes.retry_n, "RD", UniformQ(1), self.RETRY_HORIZON, self.retry_seed,
        )
        self.readback = None
        if self.retry is not None:
            self.op("to_csv", self.retry.to_csv, self.retry_csv)
            self.readback = self.op("from_csv retry", SurvivalDataset.from_csv, self.retry_csv)
        self.read = {}
        for d, status in self.status.items():
            if status is not None:
                path = self.run_dir(f"simulate-d{d}") / "dataset.csv"
                self.read[d] = self.op(f"from_csv d={d}", SurvivalDataset.from_csv, path)

    def _ks(self, label, omega, knots, paths, xs, times, horizon):
        p = oracles.pit_ks_pvalue(omega, knots, paths, xs, times, horizon)
        if p < oracles.KS_ALPHA:
            self.reject(label, f"KS p-value {p:.2e} below {oracles.KS_ALPHA:g}")

    def verify(self):
        for d, status in self.status.items():
            label = f"simulate d={d}"
            if not self.cli_ok(label, status):
                continue
            run = self.run_dir(f"simulate-d{d}")
            truth = oracles.read_csv_matrix(run / "truth.csv")
            omega = json.loads((run / "truth.csv.meta.json").read_text())["omega"]
            horizon = json.loads((run / "dataset.csv.meta.json").read_text())["horizon"]
            data = oracles.read_csv_matrix(run / "dataset.csv")
            if len(data) != self.sizes.sim_n:
                self.reject(label, f"{len(data)} records written")
                continue
            self._ks(label, omega, truth[:, 0], truth[:, 1:].T, data[:, 1:], data[:, 0], horizon)
            back = self.read.get(d)
            if back is not None and (
                back.times != tuple(data[:, 0]) or back.covariates != tuple(map(tuple, data[:, 1:]))
            ):
                self.reject(f"from_csv d={d}", "read-back differs from the CSV text")
        if self.retry is None:
            return
        ds = self.retry
        self._ks("generate_dataset retry", OMEGA0, self.retry_theta.grid.as_array(),
                 self.retry_paths, ds.covariates_array(), ds.times_array(), self.RETRY_HORIZON)
        back = self.readback
        if back is not None and (
            back.times, back.covariates, back.design, back.q_descriptor, back.horizon
        ) != (ds.times, ds.covariates, ds.design, ds.q_descriptor, ds.horizon):
            self.reject("from_csv retry", "CSV round trip is not exact")


def _constant_hazard_dataset(ss, n: int, omega: float) -> SurvivalDataset:
    """Times exactly Exp(omega/2) truncated to the horizon, covariates uniform."""
    rng = np.random.default_rng(ss)
    rate = omega / 2.0
    u = rng.uniform(size=n)
    times = -np.log1p(u * np.expm1(-rate * TRUTH_HORIZON)) / rate
    xs = rng.uniform(size=n)
    return SurvivalDataset(
        times=tuple(times.tolist()),
        covariates=tuple((v,) for v in xs.tolist()),
        design="RD",
        q_descriptor={"family": "uniform", "d": 1},
        horizon=TRUTH_HORIZON,
    )


class AnchoredTest(Workload):
    """The anchored test at d=1 on both sides of the dense/streamed switch."""

    CELLS = 64    # midpoint atoms of the uniform covariate law

    def __init__(self, ss, sizes, work):
        super().__init__(sizes, work)
        self.theta0 = Theta.constant(OMEGA0, 1, TRUTH_HORIZON)
        self.nodes = (np.arange(self.CELLS) + 0.5) / self.CELLS
        self.weights = np.full(self.CELLS, 1.0 / self.CELLS)
        self.atoms = QAtoms(nodes=tuple((v,) for v in self.nodes), weights=tuple(self.weights))
        dense_ss, streamed_ss, sibling_ss = ss.spawn(3)
        pool = np.random.SeedSequence(NULL_POOL_ENTROPY, spawn_key=(sizes.dense_n, 0))
        dense, streamed = sizes.dense_n, sizes.streamed_n
        self.cases = [
            (f"null n={dense}", _constant_hazard_dataset(pool, dense, OMEGA0), 0.3),
            (f"alternative n={dense}", _constant_hazard_dataset(dense_ss, dense, 2.0 * OMEGA0), 0.2),
            (f"alternative n={streamed}",
             _constant_hazard_dataset(streamed_ss, streamed, 2.0 * OMEGA0), 0.2),
        ]
        self.sibling = _constant_hazard_dataset(sibling_ss, sizes.sibling_n, OMEGA0)

    def run(self):
        self.results = [
            self.op(label, vc.test_statistic, data, self.theta0, "RD", self.atoms, eps)
            for label, data, eps in self.cases
        ]
        self.sibling_result = self.op(
            "sibling", vc.test_statistic, self.sibling, self.theta0, "RD", self.atoms, 0.3
        )

    def verify(self):
        rate = OMEGA0 / 2.0
        for (label, data, eps), r in zip(self.cases, self.results):
            if r is None:
                continue
            value = oracles.anchored_deviation(
                data.times_array(), data.covariates_array()[:, 0], self.nodes, self.weights,
                rate, r.argmax.time, r.argmax.box[0],
            )
            if abs(value - r.sup_dev) > 1e-9:
                self.reject(label, f"argmax rectangle scores {value!r}, sup_dev {r.sup_dev!r}")
            if r.phi != int(r.sup_dev > eps / 4.0):
                self.reject(label, f"phi {r.phi} disagrees with sup_dev {r.sup_dev!r}")
        r = self.sibling_result
        if r is not None:
            brute = oracles.brute_anchored(
                self.sibling.times_array(), self.sibling.covariates_array()[:, 0],
                self.nodes, self.weights, rate, TRUTH_HORIZON,
            )
            if abs(brute - r.sup_dev) > 1e-10:
                self.reject("sibling", f"brute force {brute!r}, sup_dev {r.sup_dev!r}")


class PosteriorLadder(Workload):
    """CLI consistency at d=1 (likelihood-bound) and d=0 (generation-bound)."""

    def __init__(self, ss, sizes, work):
        super().__init__(sizes, work)
        self.ladders = {1: sizes.ladder_d1, 0: sizes.ladder_d0}
        self.configs = {
            d: self.cli_config(f"consistency-d{d}", "consistency", seed, {
                "d": d, "n_ladder": list(ladder), "replications": 1, **sizes.mcmc,
            })
            for (d, ladder), seed in zip(self.ladders.items(), _seeds(ss, 2))
        }

    def run(self):
        self.status = {d: self.op(f"consistency d={d}", cli.run, c) for d, c in self.configs.items()}

    def verify(self):
        for d, status in self.status.items():
            label = f"consistency d={d}"
            # exit 2 is a verdict (no decreasing trend), not an execution error
            if not self.cli_ok(label, status, allowed=(0, 2)):
                continue
            report = json.loads((self.run_dir(f"consistency-d{d}") / "report.json").read_text())
            if report["failures"] != 0 or report["cells"] != len(self.ladders[d]):
                self.reject(label, f"{report['failures']} of {report['cells']} cells failed")


def _path_and_bound(kernel, grid, seed) -> tuple:
    path = gp_paths.sample_path(kernel, grid, seed)
    return np.asarray(path.values), gp_paths.dyadic_sup_bound(path)


class PathsBounds(Workload):
    """CLI verify-bounds, path draws with chaining bounds, CLI kl."""

    def __init__(self, ss, sizes, work):
        super().__init__(sizes, work)
        vb_seed, path_seed, kl_seed = _seeds(ss, 3)
        self.vb = self.cli_config("verify-bounds", "verify-bounds", vb_seed, sizes.bounds_params)
        self.kl = self.cli_config("kl", "kl", kl_seed, {
            "delta": 0.1, "tau": 2.0, "d": 1, "members": sizes.kl_members,
        })
        self.grid = DyadicGrid(2.0, sizes.path_level)
        kernels = (StationaryKernel.se(lengthscale=1.0), StationaryKernel.ou(lengthscale=1.0))
        seeds = _seeds(np.random.SeedSequence(path_seed), sizes.paths)
        self.draws = [(kernels[i % 2], s) for i, s in enumerate(seeds)]

    def run(self):
        self.vb_status = self.op("verify-bounds", cli.run, self.vb)
        self.paths = [
            self.op(f"path {i}", _path_and_bound, kernel, self.grid, seed)
            for i, (kernel, seed) in enumerate(self.draws)
        ]
        self.kl_status = self.op("kl", cli.run, self.kl)

    def verify(self):
        self.cli_ok("verify-bounds", self.vb_status)
        self.cli_ok("kl", self.kl_status)
        for i, drawn in enumerate(self.paths):
            if drawn is not None and drawn[1] < np.max(np.abs(drawn[0])):
                self.reject(f"path {i}", f"chaining bound {drawn[1]!r} below the grid sup")


WORKLOADS = {
    "simulate": Simulate,
    "anchored-test": AnchoredTest,
    "posterior-ladder": PosteriorLadder,
    "paths-bounds": PathsBounds,
}
