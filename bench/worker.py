"""One pass of one workload, in a fresh process (started by run.py).

Usage: worker.py --workload NAME --seed N --pass K --spawned-at T
                 [--trace] [--quick] [--spans PATH]

T is the parent's time.monotonic() just before it started this process;
the monotonic clock is system-wide, so set-up time counts interpreter
start, imports and input generation.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import gphazard

    if Path(gphazard.__file__).resolve().parent != SRC / "gphazard":
        print(f"gphazard imported from {gphazard.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import oracles
    import tracing
    import workloads

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        sizes = workloads.QUICK if args.quick else workloads.FULL
        ss = np.random.SeedSequence(args.seed, spawn_key=(args.pass_index,))
        load = workloads.WORKLOADS[args.workload](ss, sizes, work)
        setup_s = time.monotonic() - args.spawned_at

        recorder = tracing.Recorder()
        tracer = tracing.installed(recorder) if args.trace else contextlib.nullcontext()
        sink = io.StringIO()  # the CLI prints one status line per run
        with tracer, contextlib.redirect_stdout(sink):
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            load.run()
            wall_s = time.perf_counter() - start
            cpu_s = _cpu_seconds() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        load.verify()
        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "cpu_s": cpu_s,
            "attempted": load.attempted,
            "failed": len(load.failed),
            "failures": load.failed,
            "nonfinite_fields": oracles.nonfinite_fields(work),
            "versions": {
                "gphazard": gphazard.__version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }
        if args.trace:
            layers, violations = tracing.layer_metrics(recorder, sizes.dense_n, sizes.streamed_n)
            result["layers"] = layers
            result["self_check_violations"] = violations
            if args.spans:
                recorder.dump(args.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
