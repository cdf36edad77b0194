"""gphazard benchmark: end-to-end metrics per workload, per-layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: simulate, anchored-test, posterior-ladder, paths-bounds (see
bench/README.md).  Load model: a closed loop with one client.  Each pass
of a workload runs in a fresh child process (worker.py) that generates
its inputs from (seed, pass), issues the operations back to back, then
checks the outputs outside the timed region.  An untimed child first
imports what a pass imports, so the first pass's set-up does not pay for
a cold page cache.  Passes repeat while a typical pass still ends within
S seconds, and at least MIN_PASSES times.

With --trace 0 the last stdout line is
{"correct", "attempted", "failed", "metrics"} holding setup_s, wall_s and
peak_rss_mb, each the median over passes.  With --trace 1 every pass
runs twice on the same inputs, untraced and traced; the metrics are
the per-layer medians over traced passes, trace.overhead_s (traced minus
untraced wall time) and process.cpu_s.  --workload all runs each
workload in turn; its last line maps each workload name to that
workload's result object.  The lines before the last print every
metric with its unit, fail_ratio included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("simulate", "anchored-test", "posterior-ladder", "paths-bounds")
MIN_PASSES = 3
# No pass starts unless the longest pass so far still ends before this,
# so a run ends within the 180 s a caller may allow it.
RUN_LIMIT_S = 150
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
# One BLAS thread per pass: with one thread per core, a second busy
# process on a 2-vCPU host slowed Monte Carlo matmuls four- to six-fold.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _worker(workload, seed, pass_index, trace, quick, spans=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(pass_index)]
    cmd += ["--trace"] * trace + ["--quick"] * quick
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_LIMIT_S,
                              text=True, env={**os.environ, **BLAS_ENV})
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {pass_index} ran past {RUN_LIMIT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass {pass_index} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _warm() -> None:
    """Import what a pass imports, untimed, so no pass pays for a cold page cache."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    try:
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                              cwd=ROOT, timeout=RUN_LIMIT_S, env={**os.environ, **BLAS_ENV})
    except subprocess.TimeoutExpired:
        raise BenchError(f"the warm-up import ran past {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"the warm-up import exited with status {proc.returncode}")


def _git_sha() -> str:
    if not (ROOT / ".git").exists():  # an exported tree, maybe inside another repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(seed: int, versions: dict) -> dict:
    """What a result depends on besides the code: versions, machine, seed."""
    return {
        "git_sha": _git_sha(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """All passes of one workload; returns the result line plus the stamp."""
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    plain, traced, durations = [], [], []
    start = time.monotonic()
    _warm()
    while True:
        begun = time.monotonic()
        if durations and (
            begun - start + max(durations) > RUN_LIMIT_S
            or len(plain) >= MIN_PASSES
            and begun - start + statistics.median(durations) > seconds
        ):
            break
        k = len(plain)
        if trace:
            # alternate which of the pair runs first, so drift in machine
            # speed does not bias trace.overhead_s
            spans = work / f"spans-{workload}.jsonl"
            for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
                result = _worker(workload, seed, k, traced_pass, quick,
                                 spans if traced_pass else None)
                (traced if traced_pass else plain).append(result)
        else:
            plain.append(_worker(workload, seed, k, False, quick))
        durations.append(time.monotonic() - begun)
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    violations = sum(r["self_check_violations"] for r in traced)
    for r in runs:
        for label, reason in r["failures"].items():
            print(f"FAILED {workload} {label}: {reason}", file=sys.stderr)
    if violations:
        print(f"FAILED {workload} trace self-check: {violations} spans", file=sys.stderr)

    median = statistics.median
    if trace:
        names = list(traced[0]["layers"])
        metrics = {m: median([r["layers"][m] for r in traced]) for m in names}
        metrics["cli.report.nonfinite_fields"] = median([r["nonfinite_fields"] for r in traced])
        metrics["trace.overhead_s"] = median(
            [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)])
        metrics["process.cpu_s"] = median([r["cpu_s"] for r in plain])
    else:
        metrics = {m: median([r[m] for r in plain]) for m in END_TO_END}
    return {
        "correct": failed == 0 and violations == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": {m: [r[m] for r in plain] for m in END_TO_END},
        "stamp": stamp(seed, plain[0]["versions"]),
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gphazard" / "__init__.py").is_file():
        print(f"no gphazard source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = _units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    for name, r in results.items():
        print(f"{name}: stamp {json.dumps(r['stamp'], sort_keys=True)}")
        for metric, values in r["passes"].items():
            print(f"{name}: {metric} per pass: {' '.join(f'{v:.4g}' for v in values)}")
        for metric, value in r["metrics"].items():
            print(f"{name}: {metric} = {value:.6g} {units[metric]}")
        print(f"{name}: fail_ratio = {r['failed'] / r['attempted']:.6g} ratio "
              f"({r['failed']} of {r['attempted']} operations), correct {r['correct']}")
    lines = {
        name: {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
               "metrics": {m: {"value": v, "unit": units[m]} for m, v in r["metrics"].items()}}
        for name, r in results.items()
    }
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
