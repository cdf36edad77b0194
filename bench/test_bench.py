"""Self-test of the benchmark at reduced sizes.

    python3 -m pytest bench/test_bench.py

Runs every workload, untraced and traced, through run.py and checks the
result lines against BENCHMARK.json; checks the oracles and the span
recorder on small cases of their own.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_reports_every_metric(trace):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == "0" else "per_layer"]}
    for name, r in results.items():
        _check_result_line(r, units)
    assert "fail_ratio" in proc.stdout


def _check_result_line(line, units):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_single_workload_result_line():
    proc = _bench("--workload", "simulate", "--seed", "5", "--seconds", "0", "--trace", "0",
                  "--quick")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_result_line(line, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- oracles ------------------------------------------------------------------


def test_cumulative_hazard_matches_quadrature():
    rng = np.random.default_rng(0)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, size=12))])
    y = rng.normal(scale=2.0, size=(1, len(knots)))
    y[0, 4] = y[0, 5]  # one flat segment
    for t in (0.0, knots[3], 0.5 * (knots[6] + knots[7]), knots[-1]):
        exact, _ = integrate.quad(lambda s: 1.7 * expit(np.interp(s, knots, y[0])), 0.0, t,
                                  points=knots[knots < t], limit=200, epsabs=1e-13)
        got = oracles.cumulative_hazard(1.7, knots, y, np.array([t]))[0]
        assert got == pytest.approx(exact, abs=1e-10)


def test_retry_cdf_is_a_cdf_and_reduces_without_retries():
    knots = np.linspace(0.0, 8.0, 9)
    y = np.sin(knots)[None, :]
    ts = np.linspace(0.0, 8.0, 50)
    rows = np.repeat(y, len(ts), axis=0)
    g = oracles.retry_cdf(2.0, knots, rows, ts, 0.5)
    assert g[0] == 0.0 and g[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g) >= 0)
    f = -np.expm1(-oracles.cumulative_hazard(2.0, knots, rows, ts))
    assert oracles.retry_cdf(2.0, knots, rows, ts, 8.0) == pytest.approx(f / f[-1], abs=1e-14)


def test_brute_anchored_matches_a_plain_enumeration():
    rng = np.random.default_rng(4)
    times = rng.exponential(size=6)
    xs = rng.uniform(size=6)
    nodes = np.array([0.125, 0.375, 0.625, 0.875])
    weights = np.full(4, 0.25)
    at = sorted({0.0, 5.0, *times})
    ax = sorted({0.0, 1.0, *xs})
    best = 0.0
    for i, lo in enumerate(ax):
        for hi in ax[i:]:
            for a_i, a in enumerate(at):
                for b in at[a_i:]:
                    best = max(best, oracles.anchored_deviation(
                        times, xs, nodes, weights, 1.0, (a, b), (lo, hi)))
    assert oracles.brute_anchored(times, xs, nodes, weights, 1.0, 5.0) == pytest.approx(best, abs=1e-15)


def test_nonfinite_fields_counts_tokens_strict_json_rejects(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "report.json").write_text('{"a": NaN, "b": [Infinity, 1.0]}')
    (tmp_path / "run" / "manifest.json").write_text('{"ok": 1}')
    (tmp_path / "run" / "other.json").write_text('{"c": NaN}')
    assert oracles.nonfinite_fields(tmp_path) == 2


# -- span recorder ------------------------------------------------------------


def test_self_times_exclude_children():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    selfs, violations = rec.self_times()
    assert violations == 0
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    outer_dur = rec.spans[0][2] - rec.spans[0][1]
    assert selfs[0] == pytest.approx(outer_dur - sum(selfs[1:]), abs=1e-12)
    assert all(s >= 0 for s in selfs)


def test_self_check_flags_children_longer_than_parent():
    rec = tracing.Recorder()
    rec.spans = [["p", 0.0, 1.0, -1, None], ["c", 0.0, 2.0, 0, None]]
    assert rec.self_times()[1] == 1


def test_spans_of_raising_calls_are_counted_without_attributes():
    rec = tracing.Recorder()
    failing = rec.wrap("gp_paths.cholesky", np.linalg.cholesky, lambda a, k, r: {"n": len(r)})
    with pytest.raises(np.linalg.LinAlgError):
        failing(-np.eye(3))
    failing(np.eye(3))
    metrics, violations = tracing.layer_metrics(rec, 2000, 3000)
    assert metrics["gp_paths.cholesky.calls"] == 2 and violations == 0
    assert metrics["gp_paths.cholesky.gflop"] == pytest.approx(9e-9)


def test_wrappers_are_removed_after_the_traced_block():
    from gphazard import gp_paths, hazard, vc

    before = (vc.survival_matrix, hazard.SurvivalDataset.__dict__["from_csv"], gp_paths.np)
    with tracing.installed(tracing.Recorder()):
        assert vc.survival_matrix is not before[0]
    after = (vc.survival_matrix, hazard.SurvivalDataset.__dict__["from_csv"], gp_paths.np)
    assert after == before
