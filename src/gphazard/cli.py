"""Config-driven command line front end.

One JSON document describes a run: which command, its parameters, a
seed, and where outputs go.  Every run writes into a fresh timestamped
directory (append-only; reruns never touch prior outputs) containing the
command's report files plus a manifest with the config hash, the seed,
library versions, and wall time, so any result can be reproduced from
the manifest alone.

Exit status contract: 0 when the command ran and its verdict passed,
2 when it ran but the verdict failed (a bound violated, a test fired,
a trend absent, an assumption check failed), 1 on execution errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bounds import (
    compare_centred_event,
    compare_small_ball,
    compare_tail_bound,
    tau_star,
)
from .errors import ConfigError, GpHazardError
from .gp_paths import TimeGrid, _covariance_cholesky, sample_path
from .hazard import SurvivalDataset, Theta, UniformQ, generate_dataset
from .inference import (
    ExperimentReport,
    ExperimentSpec,
    McmcConfig,
    ModelPrior,
    OmegaPrior,
    consistency_experiment,
)
from .kernels import A1Report, StationaryKernel, SublinearReport, check_a1, check_sublinear_integral
from .kl import BSetParams, analytic_kl_bounds, kl_terms, moments_for, sample_b_member
from .vc import GridSpec, TestStatResult, deviation_bounds, test_statistic

__all__ = [
    "COMMANDS",
    "RunConfig",
    "parse_config",
    "emit_config",
    "run",
    "main",
]

COMMANDS = (
    "simulate",
    "verify-bounds",
    "test-stat",
    "kl",
    "consistency",
    "check-assumptions",
)

OUTPUT_ENV = "GPHAZARD_OUT"
DEFAULT_OUTPUT_ROOT = "runs"

_REQUIRED = object()

# parameter schemas: name -> (kind, default); _REQUIRED marks keys the
# config must provide.  kinds: int, number, string, number_list, int_list
_SCHEMAS = {
    "simulate": {
        "n": ("int", _REQUIRED),
        "omega0": ("number", _REQUIRED),
        "kernel": ("string", _REQUIRED),
        "lengthscale": ("number", 1.0),
        "variance": ("number", 1.0),
        "d": ("int", 0),
        "design": ("string", "RD"),
        "horizon": ("number", 20.0),
        "grid_points": ("int", 129),
    },
    "verify-bounds": {
        "reps": ("int", 20000),
        "level": ("int", 9),
    },
    "test-stat": {
        "epsilon": ("number", _REQUIRED),
        "data": ("string", None),
        "n": ("int", 2000),
        "d": ("int", 1),
        "omega0": ("number", 2.0),
        "design": ("string", "RD"),
        "horizon": ("number", 20.0),
    },
    "kl": {
        "delta": ("number", _REQUIRED),
        "tau": ("number", _REQUIRED),
        "d": ("int", 0),
        "omega0": ("number", 2.0),
        "horizon": ("number", 20.0),
        "members": ("int", 25),
        "x": ("number_list", None),
        "tolerance": ("number", 1e-5),
    },
    "consistency": {
        "n_ladder": ("int_list", (250, 1000, 4000)),
        "replications": ("int", 5),
        "epsilon": ("number", 0.2),
        "omega0": ("number", 2.0),
        "d": ("int", 0),
        "horizon": ("number", 20.0),
        "knots": ("int", 8),
        "lengthscale": ("number", 3.0),
        "iterations": ("int", 900),
        "burn_in": ("int", 300),
        "thinning": ("int", 6),
        "proposal_scale_path": ("number", 0.3),
        "metric_time_knots": ("int", 33),
    },
    "check-assumptions": {
        "kernel": ("string", _REQUIRED),
        "lengthscale": ("number", 1.0),
        "variance": ("number", 1.0),
        "n_max": ("int", 40),
    },
}

_CHOICES = {
    ("simulate", "kernel"): ("se", "ou", "constant"),
    ("simulate", "design"): ("RD", "NRD"),
    ("test-stat", "design"): ("RD", "NRD"),
    ("check-assumptions", "kernel"): ("se", "ou", "constant"),
}

# lower bounds of the counts a command body uses before any library call checks them
_MINIMA = {
    ("kl", "members"): 1,
    ("consistency", "knots"): 2,
    ("consistency", "metric_time_knots"): 2,
}


@dataclass(frozen=True)
class RunConfig:
    """One validated run request: command, its parameters, seed, output root."""

    command: str
    parameters: dict
    seed: int
    output_path: str | None


def _check_int(name: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"parameter '{name}' must be an integer, got {value!r}")
    return value


def _check_number(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"parameter '{name}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"parameter '{name}' must be finite, got {value!r}")
    return value


def _coerce(command: str, name: str, kind: str, value):
    if kind == "int":
        value = _check_int(name, value)
        least = _MINIMA.get((command, name))
        if least is not None and value < least:
            raise ConfigError(f"parameter '{name}' must be >= {least}, got {value}")
        return value
    if kind == "number":
        return _check_number(name, value)
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"parameter '{name}' must be a string, got {value!r}")
        choices = _CHOICES.get((command, name))
        if choices and value not in choices:
            raise ConfigError(
                f"parameter '{name}' must be one of {', '.join(choices)}, got {value!r}"
            )
        return value
    if kind == "int_list":
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"parameter '{name}' must be a nonempty list of integers")
        return tuple(_check_int(name, v) for v in value)
    if kind == "number_list":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"parameter '{name}' must be a list of numbers")
        return tuple(_check_number(name, v) for v in value)
    raise AssertionError(kind)


def _config_from_document(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"command", "parameters", "seed", "out"}
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in config")
    if "command" not in doc:
        raise ConfigError("missing required key 'command'")
    command = doc["command"]
    if command not in COMMANDS:
        raise ConfigError(
            f"unrecognized command {command!r}; expected one of {', '.join(COMMANDS)}"
        )
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"'out' must be a string path, got {out!r}")

    raw = doc.get("parameters", {})
    if not isinstance(raw, dict):
        raise ConfigError("'parameters' must be a JSON object")
    schema = _SCHEMAS[command]
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown parameter '{key}' for command '{command}'")
    params = {}
    for name, (kind, default) in schema.items():
        if name in raw:
            if raw[name] is None and default is not _REQUIRED:
                params[name] = default
            else:
                params[name] = _coerce(command, name, kind, raw[name])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required parameter '{name}' for command '{command}'")
        else:
            params[name] = default
    return RunConfig(command=command, parameters=params, seed=seed, output_path=out)


def parse_config(source: str) -> RunConfig:
    """Validate a JSON config document into a RunConfig.

    Unknown keys are rejected by name; missing required parameters and
    type mismatches raise a config error naming the key.
    """
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _config_from_document(doc)


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig back to canonical JSON (parse round trip)."""
    doc = {
        "command": config.command,
        "parameters": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in sorted(config.parameters.items())
        },
        "seed": config.seed,
    }
    if config.output_path is not None:
        doc["out"] = config.output_path
    return json.dumps(doc, indent=2, sort_keys=True)


def _kernel_from(name: str, lengthscale: float, variance: float) -> StationaryKernel:
    if name == "se":
        return StationaryKernel.se(lengthscale=lengthscale, variance=variance)
    if name == "ou":
        return StationaryKernel.ou(lengthscale=lengthscale, variance=variance)
    return StationaryKernel.constant(variance=variance)


def _finite_or_null(value):
    """value as JSON data: every dataclass inside it becomes its asdict,
    and every non-finite float None."""
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(directory: Path, name: str, payload) -> str:
    """Write payload as strict JSON: a result dataclass is written as its
    fields, and non-finite floats become null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    (directory / name).write_text(text + "\n")
    return name


# -- command bodies; each returns (exit status, report payload, files) -------


def _cmd_simulate(p: dict, seed: int, out: Path):
    kernel = _kernel_from(p["kernel"], p["lengthscale"], p["variance"])
    grid = TimeGrid(tuple(np.linspace(0.0, p["horizon"], p["grid_points"])))
    root = np.random.SeedSequence(seed)
    streams = root.generate_state(p["d"] + 3)
    paths = [sample_path(kernel, grid, int(s)) for s in streams[: p["d"] + 1]]
    theta = Theta(p["omega0"], tuple(paths))
    if p["design"] == "RD":
        q = UniformQ(p["d"])
    else:
        rng = np.random.default_rng(int(streams[p["d"] + 1]))
        q = rng.uniform(size=(p["n"], p["d"]))
    dataset = generate_dataset(
        theta, p["n"], p["design"], q, p["horizon"], int(streams[p["d"] + 2])
    )
    dataset.to_csv(out / "dataset.csv")
    theta.to_csv(out / "truth.csv")
    payload = {
        "n": dataset.n,
        "d": dataset.d,
        "design": dataset.design,
        "horizon": dataset.horizon,
        "kernel": kernel.describe(),
        # the cached factor behind sample_path; a cache hit here
        "jitter": _covariance_cholesky(kernel, grid.points)[1],
        "dataset": "dataset.csv",
        "truth": "truth.csv",
    }
    return 0, payload, ["dataset.csv", "dataset.csv.meta.json", "truth.csv"]


def _cmd_verify_bounds(p: dict, seed: int, out: Path):
    se1 = StationaryKernel.se(lengthscale=1.0)
    far = tau_star(0, 1.0) + 10.0
    reports = [
        compare_tail_bound(se1, 0, 1.0, far, level=p["level"], reps=p["reps"], seed=seed),
        compare_small_ball(se1, 0, 1.0, 1.5, level=p["level"], reps=p["reps"], seed=seed + 1),
        compare_small_ball(se1, 0, 10.0, 1.5, level=p["level"], reps=p["reps"], seed=seed + 2),
        compare_centred_event(
            se1, 0, 3e4, 130.0, horizon_pad=10.0, level=p["level"], reps=p["reps"], seed=seed + 3
        ),
    ]
    with open(out / "bounds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lemma_id", "analytic_value", "mc_estimate", "ci_halfwidth", "verdict"])
        for r in reports:
            writer.writerow([r.lemma_id, repr(r.analytic_value), repr(r.mc_estimate), repr(r.ci), r.verdict])
    payload = {"reports": reports}
    status = 0 if all(r.verdict == "pass" for r in reports) else 2
    return status, payload, ["bounds.csv"]


def _cmd_test_stat(p: dict, seed: int, out: Path):
    if p["data"] is not None:
        dataset = SurvivalDataset.from_csv(p["data"])
        horizon = max(dataset.horizon, max(dataset.times))
        theta0 = Theta.constant(p["omega0"], dataset.d, horizon)
    else:
        theta0 = Theta.constant(p["omega0"], p["d"], p["horizon"])
        q = UniformQ(p["d"]) if p["design"] == "RD" else np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(1)[0]
        ).uniform(size=(p["n"], p["d"]))
        dataset = generate_dataset(theta0, p["n"], p["design"], q, p["horizon"], seed)
    result = test_statistic(dataset, theta0, dataset.design, None, p["epsilon"])
    return (0 if result.phi == 0 else 2), _test_stat_record(result), []


def _test_stat_record(result: TestStatResult) -> dict:
    """The result's fields without the argmax rectangle, beside its
    deviation bounds, with the search's timings nested."""
    rec = asdict(result)
    del rec["argmax"]
    timings = {k: rec.pop(k) for k in (
        "build_s", "search_s", "corner_blocks", "fine_bounds", "reference_rows", "held_bytes"
    )}
    bounds = deviation_bounds(result.n, result.d, result.epsilon)
    return {**rec, **asdict(bounds), "timings": timings}


def _cmd_kl(p: dict, seed: int, out: Path):
    params = BSetParams(delta=p["delta"], tau=p["tau"], d=p["d"])
    theta0 = Theta.constant(p["omega0"], p["d"], p["horizon"])
    x = tuple(p["x"]) if p["x"] is not None else (0.5,) * p["d"]
    if len(x) != p["d"]:
        raise ConfigError(f"parameter 'x' must have d={p['d']} coordinates, got {len(x)}")
    moments = moments_for(theta0, x, p["tau"])
    bounds = analytic_kl_bounds(params, p["omega0"], moments)
    k_cap = bounds.head_bound + bounds.tail_bound
    v_cap = bounds.var_head_bound + bounds.var_tail_bound
    tol = p["tolerance"]
    rows = []
    violations = 0
    streams = np.random.SeedSequence(seed).generate_state(p["members"])
    for member_seed in streams:
        theta = sample_b_member(theta0, params, int(member_seed))
        terms = kl_terms(theta0, theta, x)
        ok = terms.k <= k_cap + tol and terms.v <= v_cap + tol
        violations += not ok
        rows.append(
            {
                "k": terms.k,
                "v": terms.v,
                "k_margin": k_cap - terms.k,
                "v_margin": v_cap - terms.v,
                "k_tail_bound": terms.k_tail_bound,
                "v2_tail_bound": terms.v2_tail_bound,
                "ok": int(ok),
            }
        )
    with open(out / "members.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    payload = {
        "members": p["members"],
        "violations": violations,
        "k_cap": k_cap,
        "v_cap": v_cap,
        "bounds": bounds,
        "min_k_margin": min(r["k_margin"] for r in rows),
        "min_v_margin": min(r["v_margin"] for r in rows),
        "max_k_tail_bound": max(r["k_tail_bound"] for r in rows),
        "max_v2_tail_bound": max(r["v2_tail_bound"] for r in rows),
    }
    return (0 if violations == 0 else 2), payload, ["members.csv"]


def _cmd_consistency(p: dict, seed: int, out: Path):
    theta0 = Theta.constant(p["omega0"], p["d"], p["horizon"])
    kernels = (StationaryKernel.se(lengthscale=p["lengthscale"]),) * (p["d"] + 1)
    spec = ExperimentSpec(
        theta0=theta0,
        prior=ModelPrior(kernels, OmegaPrior(2.0, 1.0)),
        n_ladder=p["n_ladder"],
        epsilon=p["epsilon"],
        design="RD",
        q=UniformQ(p["d"]),
        replications=p["replications"],
        mcmc=McmcConfig(
            iterations=p["iterations"],
            burn_in=p["burn_in"],
            thinning=p["thinning"],
            proposal_scale_path=p["proposal_scale_path"],
        ),
        knots=tuple(np.linspace(0.0, p["horizon"], p["knots"])),
        metric_grid=GridSpec.regular(p["horizon"], p["metric_time_knots"], p["d"]),
        horizon=p["horizon"],
        seed=seed,
    )
    report = consistency_experiment(spec)
    (out / "cells.csv").write_text(_cells_csv(report))
    payload = _consistency_record(report)
    # every cell's chain factors the same kernels on the same knots
    payload["jitter"] = [_covariance_cholesky(k, spec.knots)[1] for k in kernels]
    return (0 if report.consistent_trend else 2), payload, ["cells.csv"]


def _cells_csv(report: ExperimentReport) -> str:
    lines = ["n,rep,outside_mass,acceptance_paths,wall_time"]
    for c in report.cells:
        lines.append(f"{c.n},{c.rep},{c.outside_mass!r},{c.acceptance_paths!r},{c.wall_time!r}")
    return "\n".join(lines) + "\n"


def _consistency_record(report: ExperimentReport) -> dict:
    """The ladder's verdict, per-n masses, cell count and failures, each
    warned cell's chain warnings, and per-cell timings."""
    return {
        "spearman": report.spearman,
        "consistent_trend": report.consistent_trend,
        "epsilon": report.epsilon,
        "per_n": {str(n): m for n, m in report.per_n},
        "cells": len(report.cells),
        "failures": sum(1 for c in report.cells if c.error),
        "warnings": [
            {"n": c.n, "rep": c.rep, "messages": list(c.warnings)}
            for c in report.cells if c.warnings
        ],
        "timings": {
            "chains_s": report.chains_s,
            "cells": [
                {"n": c.n, "rep": c.rep, "generate_s": c.generate_s, "score_s": c.score_s}
                for c in report.cells
            ],
        },
    }


def _cmd_check_assumptions(p: dict, seed: int, out: Path):
    kernel = _kernel_from(p["kernel"], p["lengthscale"], p["variance"])
    a1 = check_a1(kernel, p["n_max"])
    sub = check_sublinear_integral(kernel)
    passed = a1.eventually_ok and sub.passed
    payload = {
        "kernel": kernel.describe(),
        "a1": _a1_record(a1),
        "sublinear": _sublinear_record(sub),
        "passed": passed,
    }
    return (0 if passed else 2), payload, []


def _a1_record(a1: A1Report) -> dict:
    """The report's fields without the per-n rows."""
    rec = asdict(a1)
    del rec["rows"]
    return rec


def _sublinear_record(sub: SublinearReport) -> dict:
    """Verdict and kernel, with each row's horizon and ratio flattened."""
    rec = {"kernel": sub.kernel, "passed": sub.passed}
    for i, row in enumerate(sub.rows):
        rec[f"horizon_{i}"] = row.horizon
        rec[f"ratio_{i}"] = row.ratio
    return rec


_DISPATCH = {
    "simulate": _cmd_simulate,
    "verify-bounds": _cmd_verify_bounds,
    "test-stat": _cmd_test_stat,
    "kl": _cmd_kl,
    "consistency": _cmd_consistency,
    "check-assumptions": _cmd_check_assumptions,
}


def _make_run_dir(config: RunConfig) -> Path:
    root = Path(config.output_path or os.environ.get(OUTPUT_ENV) or DEFAULT_OUTPUT_ROOT)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%f")
    base = f"{config.command}-{stamp}"
    for attempt in range(1000):
        candidate = root / (base if attempt == 0 else f"{base}-{attempt + 1}")
        try:
            candidate.mkdir(parents=True, exist_ok=False)
        except FileExistsError:
            continue
        return candidate
    raise ConfigError(f"could not allocate a fresh run directory under {root}")


def run(config: RunConfig) -> int:
    """Execute one validated config; returns the exit status.

    Creates a fresh timestamped directory under the output root (the
    config's path, else $GPHAZARD_OUT, else ./runs) and writes the
    command report, then a manifest recording the config hash, seed,
    versions, wall time, and status.  Execution errors surface on
    stderr and in the manifest with status 1.
    """
    out = _make_run_dir(config)
    config_text = emit_config(config)
    (out / "config.json").write_text(config_text + "\n")
    manifest = {
        "command": config.command,
        "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": config.seed,
        "versions": {
            "gphazard": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    start = time.perf_counter()
    try:
        status, payload, files = _DISPATCH[config.command](config.parameters, config.seed, out)
        _write_json(out, "report.json", payload)
        files = ["config.json", "report.json"] + files
    except GpHazardError as exc:
        manifest["error"] = str(exc)
        manifest["wall_time_s"] = time.perf_counter() - start
        manifest["exit_status"] = 1
        _write_json(out, "manifest.json", manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest["wall_time_s"] = time.perf_counter() - start
    manifest["exit_status"] = status
    manifest["outputs"] = files
    _write_json(out, "manifest.json", manifest)
    print(f"{config.command}: status {status}, outputs in {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gphazard",
        description="hazard model simulation, diagnostics, and bound verification",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="command to run")
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output root directory")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ConfigError("config must be a JSON object")
        else:
            doc = {}
        if args.command is not None:
            if "command" in doc and doc["command"] != args.command:
                raise ConfigError(
                    f"config says command {doc['command']!r} but {args.command!r} was requested"
                )
            doc["command"] = args.command
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.out is not None:
            doc["out"] = args.out
        config = _config_from_document(doc)
        return run(config)
    except GpHazardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
