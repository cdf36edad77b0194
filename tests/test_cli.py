"""Tests for config parsing, the data file of test-stat, and the run dispatcher.

Command bodies are exercised end to end at small sizes into temp
directories; the heavy default configurations belong to the acceptance
suite, not here.
"""

import json
import math
import re
from pathlib import Path

import pytest

from gphazard.cli import (
    COMMANDS,
    RunConfig,
    emit_config,
    main,
    parse_config,
    _write_json,
    run,
)
from gphazard.bounds import BoundReport
from gphazard.errors import ConfigError, DomainError
from gphazard.gp_paths import JITTER_FACTOR
from gphazard.hazard import SurvivalDataset, Theta, UniformQ, generate_dataset


def make_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_simulate(**extra):
    doc = {
        "command": "simulate",
        "seed": 5,
        "parameters": {"n": 20, "omega0": 2.0, "kernel": "se"},
    }
    doc.update(extra)
    return doc


class TestParseConfig:
    def test_minimal_simulate(self):
        cfg = parse_config(json.dumps(minimal_simulate()))
        assert cfg.command == "simulate"
        assert cfg.seed == 5
        assert cfg.parameters["n"] == 20
        assert cfg.parameters["omega0"] == 2.0
        # defaults filled
        assert cfg.parameters["d"] == 0
        assert cfg.parameters["design"] == "RD"
        assert cfg.parameters["horizon"] == 20.0
        assert cfg.output_path is None

    def test_integer_accepted_for_number(self):
        doc = minimal_simulate()
        doc["parameters"]["omega0"] = 2
        cfg = parse_config(json.dumps(doc))
        assert cfg.parameters["omega0"] == 2.0

    def test_round_trip_identity(self):
        doc = {
            "command": "consistency",
            "seed": 11,
            "out": "somewhere",
            "parameters": {"n_ladder": [10, 20], "replications": 2},
        }
        cfg = parse_config(json.dumps(doc))
        again = parse_config(emit_config(cfg))
        assert again == cfg
        assert again.parameters["n_ladder"] == (10, 20)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'foo'"):
            parse_config(json.dumps(minimal_simulate(foo=1)))

    def test_unknown_parameter(self):
        doc = minimal_simulate()
        doc["parameters"]["bar"] = 1
        with pytest.raises(ConfigError, match="'bar'"):
            parse_config(json.dumps(doc))
        # the hazard scale is a Gibbs draw with nothing to tune
        doc = {"command": "consistency", "parameters": {"proposal_scale_omega": 0.25}}
        with pytest.raises(ConfigError, match="unknown parameter 'proposal_scale_omega'"):
            parse_config(json.dumps(doc))

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="'command'"):
            parse_config(json.dumps({"parameters": {}}))

    def test_unrecognized_command(self):
        with pytest.raises(ConfigError, match="plot"):
            parse_config(json.dumps({"command": "plot"}))

    def test_missing_required_parameter(self):
        doc = minimal_simulate()
        del doc["parameters"]["omega0"]
        with pytest.raises(ConfigError, match="'omega0'"):
            parse_config(json.dumps(doc))

    def test_type_mismatches(self):
        doc = minimal_simulate()
        doc["parameters"]["n"] = "20"
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(json.dumps(doc))
        doc = minimal_simulate()
        doc["seed"] = "zero"
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps(doc))
        doc = minimal_simulate()
        doc["parameters"]["n"] = True
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(json.dumps(doc))

    def test_choice_parameter(self):
        doc = minimal_simulate()
        doc["parameters"]["kernel"] = "matern"
        with pytest.raises(ConfigError, match="kernel"):
            parse_config(json.dumps(doc))

    def test_empty_int_list(self):
        doc = {"command": "consistency", "parameters": {"n_ladder": []}}
        with pytest.raises(ConfigError, match="n_ladder"):
            parse_config(json.dumps(doc))

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config(json.dumps([1, 2]))

    def test_rejects_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{command:")

    def test_all_commands_have_schemas(self):
        for command in COMMANDS:
            doc = {"command": command, "parameters": {}}
            try:
                parse_config(json.dumps(doc))
            except ConfigError as exc:
                # only missing-required complaints are acceptable here
                assert "missing required parameter" in str(exc)


class TestIngestDataset:
    """The data file that test-stat reads, through SurvivalDataset.from_csv."""

    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_reads_valid_rows(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n1.5,0.2\n2.0,0.9\n0.4,1.0\n")
        ds = SurvivalDataset.from_csv(path)
        assert ds.n == 3
        assert ds.d == 1
        assert ds.design == "NRD"
        assert ds.q_descriptor == {"family": "ingested", "n": 3, "d": 1}
        assert ds.horizon == 2.0
        assert ds.times == (1.5, 2.0, 0.4)
        assert ds.covariates == ((0.2,), (0.9,), (1.0,))

    def test_no_covariates(self, tmp_path):
        path = self.write(tmp_path, "t\n1.0\n2.0\n")
        ds = SurvivalDataset.from_csv(path)
        assert ds.d == 0
        assert ds.n == 2

    def test_out_of_range_covariate_names_row(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n1.0,0.5\n2.0,1.5\n")
        with pytest.raises(DomainError, match=r"data\.csv: record 1: covariates \(1\.5,\)"):
            SurvivalDataset.from_csv(path)

    def test_nonpositive_time_names_row(self, tmp_path):
        # a time of exactly 0 is allowed, as for every dataset; a negative one is not
        path = self.write(tmp_path, "t,x1\n0.0,0.5\n1.0,0.5\n")
        assert SurvivalDataset.from_csv(path).times == (0.0, 1.0)
        path = self.write(tmp_path, "t,x1\n1.0,0.5\n-1.0,0.5\n")
        with pytest.raises(DomainError, match="record 1: time -1.0"):
            SurvivalDataset.from_csv(path)

    def test_all_zero_times_need_a_sidecar(self, tmp_path):
        # without a sidecar the horizon is the largest time, here 0
        path = self.write(tmp_path, "t\n0.0\n0.0\n")
        with pytest.raises(DomainError, match=r"data\.csv: every time is 0: without a sidecar "
                                              r"the horizon is the largest time, which must be positive"):
            SurvivalDataset.from_csv(path)
        # a bad time is still named first
        bad = self.write(tmp_path, "t\n0.0\n-1.0\n", name="bad.csv")
        with pytest.raises(DomainError, match="record 1: time -1.0"):
            SurvivalDataset.from_csv(bad)
        (tmp_path / "data.csv.meta.json").write_text(json.dumps(
            {"design": "NRD", "q_descriptor": {"family": "ingested", "n": 2, "d": 0}, "horizon": 1.0}
        ))
        ds = SurvivalDataset.from_csv(path)
        assert ds.times == (0.0, 0.0) and ds.horizon == 1.0

    def test_non_numeric_names_row(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n1.0,0.5\nfast,0.1\n")
        with pytest.raises(DomainError, match="line 3.*fast"):
            SurvivalDataset.from_csv(path)

    def test_field_count_mismatch(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n1.0\n")
        with pytest.raises(DomainError, match="line 2: 1 fields, header has 2"):
            SurvivalDataset.from_csv(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "time,x1\n1.0,0.5\n")
        with pytest.raises(DomainError, match="line 1: header"):
            SurvivalDataset.from_csv(path)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(DomainError, match="nope.csv"):
            SurvivalDataset.from_csv(missing)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DomainError, match="line 1: expected a header"):
            SurvivalDataset.from_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n")
        with pytest.raises(DomainError, match="line 2: expected a header and rows of data"):
            SurvivalDataset.from_csv(path)

    def test_generated_then_ingested_round_trip(self, tmp_path):
        theta0 = Theta.constant(2.0, 1, 10.0)
        ds = generate_dataset(theta0, 12, "RD", UniformQ(1), 10.0, 3)
        path = tmp_path / "gen.csv"
        ds.to_csv(path)
        back = SurvivalDataset.from_csv(path)
        assert back == ds
        assert back.design == "RD"

    def test_sidecar_metadata_wins(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n1.0,0.5\n")
        sidecar = tmp_path / "data.csv.meta.json"
        sidecar.write_text(json.dumps({"design": "RD", "q_descriptor": {"family": "uniform", "d": 1}, "horizon": 9.0}))
        ds = SurvivalDataset.from_csv(path)
        assert ds.design == "RD"
        assert ds.q_descriptor == {"family": "uniform", "d": 1}
        assert ds.horizon == 9.0


def reject_constant(token):
    """json parse_constant hook: NaN and infinities are not strict JSON."""
    raise ValueError(f"non-standard JSON token {token}")


def run_doc(tmp_path, doc):
    doc = dict(doc)
    doc["out"] = str(tmp_path / "out")
    status = run(parse_config(json.dumps(doc)))
    root = tmp_path / "out"
    dirs = sorted(p for p in root.iterdir() if p.is_dir())
    return status, dirs


def key_paths(value, prefix=""):
    """Every leaf path of a JSON value; the items of a list share one path."""
    if isinstance(value, dict) and value:
        return set().union(*(key_paths(v, f"{prefix}/{k}") for k, v in value.items()))
    if isinstance(value, list) and value:
        return set().union(*(key_paths(v, f"{prefix}[]") for v in value))
    return {prefix}


_BOUND_KEYS = {"analytic_value", "ci", "jitter", "lemma_id", "mc_estimate", "mc_seconds", "verdict"}
_A1_KEYS = {"all_pass", "eventually_ok", "holds_from", "kernel", "n_max"}

# each command at a tiny config and the leaf paths of its report.json
REPORT_LAYOUTS = {
    "simulate": (
        {"n": 20, "omega0": 2.0, "kernel": "se", "d": 1},
        {"/d", "/dataset", "/design", "/horizon", "/jitter", "/kernel", "/n", "/truth"},
    ),
    "verify-bounds": (
        {"reps": 400, "level": 6},
        {f"/reports[]/{k}" for k in _BOUND_KEYS},
    ),
    "test-stat": (
        {"epsilon": 0.3, "n": 100, "d": 1, "horizon": 10.0},
        {"/block_builds", "/block_pairs_bounded", "/d", "/epsilon", "/expected_dev_bound", "/n",
         "/phi", "/rows_expanded", "/sub_pairs_bounded", "/sup_dev", "/threshold",
         "/timings/build_s", "/timings/corner_blocks", "/timings/fine_bounds",
         "/timings/held_bytes", "/timings/reference_rows", "/timings/search_s", "/type1_bound"},
    ),
    "kl": (
        {"delta": 0.1, "tau": 2.0, "members": 2, "horizon": 12.0},
        {"/bounds/head_bound", "/bounds/k0", "/bounds/tail_bound", "/bounds/var_head_bound",
         "/bounds/var_tail_bound", "/k_cap", "/max_k_tail_bound", "/max_v2_tail_bound",
         "/members", "/min_k_margin", "/min_v_margin", "/v_cap", "/violations"},
    ),
    "consistency": (
        {"n_ladder": [20, 40], "replications": 1, "horizon": 8.0, "knots": 5,
         "iterations": 60, "burn_in": 20, "metric_time_knots": 9},
        {"/cells", "/consistent_trend", "/epsilon", "/failures", "/jitter[]", "/per_n/20",
         "/per_n/40", "/spearman", "/timings/cells[]/generate_s", "/timings/cells[]/n",
         "/timings/cells[]/rep", "/timings/cells[]/score_s", "/timings/chains_s", "/warnings"},
    ),
    "check-assumptions": (
        {"kernel": "se"},
        {"/kernel", "/passed", "/sublinear/kernel", "/sublinear/passed"}
        | {f"/a1/{k}" for k in _A1_KEYS}
        | {f"/sublinear/{k}_{i}" for k in ("horizon", "ratio") for i in range(3)},
    ),
}


class TestReportLayout:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_report_keys_pinned(self, tmp_path, command):
        parameters, paths = REPORT_LAYOUTS[command]
        status, dirs = run_doc(tmp_path, {"command": command, "seed": 3, "parameters": parameters})
        assert status in (0, 2)
        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        assert key_paths(report) == paths

    def test_dataclass_written_as_fields_with_nan_as_null(self, tmp_path):
        rep = BoundReport("tail_series", math.nan, 0.5, math.inf, "fail", 1e-10, 0.25)
        _write_json(tmp_path, "r.json", {"reports": [rep], "bounds": rep})
        text = (tmp_path / "r.json").read_text()
        record = {
            "lemma_id": "tail_series", "analytic_value": None, "mc_estimate": 0.5, "ci": None,
            "verdict": "fail", "jitter": 1e-10, "mc_seconds": 0.25,
        }
        assert json.loads(text, parse_constant=reject_constant) == {
            "reports": [record], "bounds": record,
        }


class TestRun:
    def test_simulate_writes_artifacts(self, tmp_path):
        status, dirs = run_doc(tmp_path, minimal_simulate())
        assert status == 0
        assert len(dirs) == 1
        d = dirs[0]
        for name in ("config.json", "report.json", "manifest.json", "dataset.csv",
                     "dataset.csv.meta.json", "truth.csv"):
            assert (d / name).exists()
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["exit_status"] == 0
        assert manifest["seed"] == 5
        assert re.fullmatch(r"[0-9a-f]{64}", manifest["config_hash"])
        assert manifest["wall_time_s"] > 0
        for lib in ("gphazard", "numpy", "scipy", "python"):
            assert lib in manifest["versions"]
        report = json.loads((d / "report.json").read_text(), parse_constant=reject_constant)
        assert report["n"] == 20
        assert report["jitter"] == JITTER_FACTOR  # kappa(0) = 1
        back = SurvivalDataset.from_csv(d / "dataset.csv")
        assert back.n == 20

    def test_reruns_append_new_directories(self, tmp_path):
        doc = minimal_simulate()
        run_doc(tmp_path, doc)
        first = sorted((tmp_path / "out").iterdir())[0]
        before = (first / "dataset.csv").read_bytes()
        status, dirs = run_doc(tmp_path, doc)
        assert status == 0
        assert len(dirs) == 2
        assert (first / "dataset.csv").read_bytes() == before

    def test_same_seed_reproduces_outputs(self, tmp_path):
        doc = minimal_simulate()
        _, _ = run_doc(tmp_path, doc)
        _, dirs = run_doc(tmp_path, doc)
        a = (dirs[0] / "dataset.csv").read_bytes()
        b = (dirs[1] / "dataset.csv").read_bytes()
        assert a == b
        ra = json.loads((dirs[0] / "report.json").read_text())
        rb = json.loads((dirs[1] / "report.json").read_text())
        assert ra == rb

    def test_different_seed_changes_dataset(self, tmp_path):
        run_doc(tmp_path, minimal_simulate())
        doc = minimal_simulate()
        doc["seed"] = 6
        _, dirs = run_doc(tmp_path, doc)
        a = (dirs[0] / "dataset.csv").read_bytes()
        b = (dirs[1] / "dataset.csv").read_bytes()
        assert a != b

    def test_check_assumptions_pass_and_fail(self, tmp_path):
        status, dirs = run_doc(
            tmp_path, {"command": "check-assumptions", "parameters": {"kernel": "se"}}
        )
        assert status == 0
        report = json.loads((dirs[0] / "report.json").read_text())
        assert report["passed"] is True
        status, dirs = run_doc(
            tmp_path, {"command": "check-assumptions", "parameters": {"kernel": "constant"}}
        )
        assert status == 2
        report = json.loads((dirs[-1] / "report.json").read_text())
        assert report["passed"] is False
        manifest = json.loads((dirs[-1] / "manifest.json").read_text())
        assert manifest["exit_status"] == 2

    def test_test_stat_null_data_accepts(self, tmp_path):
        doc = {
            "command": "test-stat",
            "seed": 3,
            "parameters": {"epsilon": 0.3, "n": 400, "d": 1, "horizon": 10.0},
        }
        status, dirs = run_doc(tmp_path, doc)
        assert status == 0
        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        assert report["phi"] == 0
        assert report["sup_dev"] <= report["threshold"]
        # n = 400 gives 402 covariate anchors: seven blocks of 64
        assert report["block_pairs_bounded"] == 7 * 8 // 2
        assert 0 < report["rows_expanded"] <= report["sub_pairs_bounded"] * 16
        assert report["block_builds"] >= 7
        timings = report["timings"]
        assert set(timings) == {"build_s", "search_s", "corner_blocks", "fine_bounds",
                                "reference_rows", "held_bytes"}
        assert timings["build_s"] > 0 and timings["search_s"] > 0
        # the constant theta0 gives all 64 atoms one reference row
        assert timings["reference_rows"] == 1
        # each block pair split builds the corners of its two blocks once
        assert 1 <= timings["corner_blocks"] <= 7
        assert report["sub_pairs_bounded"] <= timings["corner_blocks"] ** 2 * 16

    def test_test_stat_reads_ingested_file(self, tmp_path):
        theta0 = Theta.constant(2.0, 0, 10.0)
        ds = generate_dataset(theta0, 300, "RD", UniformQ(0), 10.0, 8)
        data = tmp_path / "obs.csv"
        ds.to_csv(data)
        doc = {
            "command": "test-stat",
            "seed": 1,
            "parameters": {"epsilon": 0.3, "data": str(data), "omega0": 2.0},
        }
        status, dirs = run_doc(tmp_path, doc)
        assert status == 0
        report = json.loads((dirs[0] / "report.json").read_text())
        assert report["phi"] == 0
        assert report["n"] == 300

    def test_verify_bounds_small(self, tmp_path):
        doc = {"command": "verify-bounds", "seed": 0, "parameters": {"reps": 4000, "level": 8}}
        status, dirs = run_doc(tmp_path, doc)
        assert status == 0
        lines = (dirs[0] / "bounds.csv").read_text().strip().split("\n")
        assert lines[0] == "lemma_id,analytic_value,mc_estimate,ci_halfwidth,verdict"
        assert len(lines) == 5
        assert all(line.endswith("pass") for line in lines[1:])
        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        ids = [r["lemma_id"] for r in report["reports"]]
        assert ids == ["tail_series", "small_ball", "small_ball", "centred_event"]
        assert all(r["mc_seconds"] > 0 for r in report["reports"])

    def test_verify_bounds_pinned_with_jitter(self, tmp_path):
        # default reps and level; estimates recorded with the dense-product sampler
        status, dirs = run_doc(tmp_path, {"command": "verify-bounds", "seed": 0})
        assert status == 0

        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        assert [r["mc_estimate"] for r in report["reports"]] == [0.0, 0.00125, 0.774, 0.09515]
        assert [r["jitter"] for r in report["reports"]] == [JITTER_FACTOR] * 4  # kappa(0) = 1

    def test_kl_small(self, tmp_path):
        doc = {
            "command": "kl",
            "seed": 1,
            "parameters": {"delta": 0.1, "tau": 2.0, "members": 5, "horizon": 12.0},
        }
        status, dirs = run_doc(tmp_path, doc)
        assert status == 0
        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        assert report["violations"] == 0
        assert report["min_k_margin"] > 0
        assert report["min_v_margin"] > 0
        lines = (dirs[0] / "members.csv").read_text().strip().split("\n")
        assert len(lines) == 6
        header = lines[0].split(",")
        assert header[4:6] == ["k_tail_bound", "v2_tail_bound"]
        for name, column in (("max_k_tail_bound", 4), ("max_v2_tail_bound", 5)):
            values = [float(line.split(",")[column]) for line in lines[1:]]
            assert report[name] == max(values) and 0.0 <= report[name] < math.inf

    def test_kl_rejects_wrong_x_length(self, tmp_path):
        doc = {
            "command": "kl",
            "parameters": {"delta": 0.1, "tau": 2.0, "d": 0, "x": [0.5]},
        }
        status, dirs = run_doc(tmp_path, doc)
        assert status == 1
        manifest = json.loads((dirs[0] / "manifest.json").read_text())
        assert manifest["exit_status"] == 1
        assert "x" in manifest["error"]

    def test_consistency_small(self, tmp_path):
        doc = {
            "command": "consistency",
            "seed": 17,
            "parameters": {
                "n_ladder": [20, 160, 1280],
                "replications": 2,
                "epsilon": 0.08,
                "horizon": 8.0,
                "knots": 5,
                "iterations": 900,
                "burn_in": 300,
            },
        }
        status, dirs = run_doc(tmp_path, doc)
        assert status == 0
        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        assert report["consistent_trend"] is True
        assert report["spearman"] <= -0.8
        assert report["jitter"] == [JITTER_FACTOR]  # one path, kappa(0) = 1
        cells = (dirs[0] / "cells.csv").read_text().strip().split("\n")
        assert cells[0] == "n,rep,outside_mass,acceptance_paths,wall_time"
        assert len(cells) == 7

    def test_default_consistency_writes_strict_json(self, tmp_path):
        # the default ladder puts no posterior mass outside the ball at any
        # n, so its rank correlation is undefined
        status, dirs = run_doc(tmp_path, {"command": "consistency"})

        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        json.loads((dirs[0] / "manifest.json").read_text(), parse_constant=reject_constant)
        assert status == 2
        assert report["spearman"] is None
        assert report["consistent_trend"] is False

    def test_consistency_reports_chain_warnings(self, tmp_path):
        # whole fresh prior paths (proposal scale 1) against 4000 records
        # almost never beat the current path's likelihood: 0.1-0.4% of
        # moves accept over seeds 0-3, where 2000 records straddle the 1% line
        doc = {
            "command": "consistency",
            "parameters": {
                "n_ladder": [4000], "replications": 1, "horizon": 10.0, "knots": 8,
                "iterations": 3100, "burn_in": 100, "thinning": 2,
                "proposal_scale_path": 1.0, "metric_time_knots": 17,
            },
        }
        _, dirs = run_doc(tmp_path, doc)

        report = json.loads((dirs[0] / "report.json").read_text(), parse_constant=reject_constant)
        (cell,) = report["warnings"]
        assert (cell["n"], cell["rep"]) == (4000, 0)
        assert any("path acceptance rate" in w and "below 1%" in w for w in cell["messages"])

    @pytest.mark.parametrize(
        "command, name, value, message",
        [
            ("kl", "members", 0, "'members' must be >= 1"),
            ("kl", "members", -3, "'members' must be >= 1"),
            ("kl", "d", -1, "d must be a nonnegative integer"),
            ("consistency", "knots", 1, "'knots' must be >= 2"),
            ("consistency", "knots", -3, "'knots' must be >= 2"),
            ("consistency", "metric_time_knots", -1, "'metric_time_knots' must be >= 2"),
            ("consistency", "replications", 0, "replications must be >= 1"),
            ("consistency", "iterations", 0, "iterations must be >= 1"),
            ("consistency", "thinning", -1, "thinning must be >= 1"),
            ("consistency", "d", -1, "baseline path"),
            ("simulate", "n", 0, "n must be >= 1"),
            ("simulate", "d", -1, "baseline path"),
            ("test-stat", "n", -1, "n must be >= 1"),
            ("verify-bounds", "reps", 0, "reps must be >= 100"),
            ("verify-bounds", "level", -1, "level must be >= 0"),
            ("check-assumptions", "n_max", 0, "n_max must be >= 1"),
        ],
    )
    def test_bad_counts_give_status_one(self, tmp_path, capsys, command, name, value, message):
        required = {
            "simulate": {"n": 20, "omega0": 2.0, "kernel": "se"},
            "test-stat": {"epsilon": 0.3},
            "kl": {"delta": 0.1, "tau": 2.0},
            "consistency": {"n_ladder": [10]},
            "check-assumptions": {"kernel": "se"},
        }
        parameters = {**required.get(command, {}), name: value}
        path = make_config(tmp_path, {"command": command, "parameters": parameters})
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_execution_error_gives_status_one(self, tmp_path, capsys):
        doc = {
            "command": "test-stat",
            "parameters": {"epsilon": 0.3, "data": str(tmp_path / "missing.csv")},
        }
        status, dirs = run_doc(tmp_path, doc)
        assert status == 1
        assert "missing.csv" in capsys.readouterr().err
        manifest = json.loads((dirs[0] / "manifest.json").read_text())
        assert manifest["exit_status"] == 1
        assert "missing.csv" in manifest["error"]

    def test_env_var_supplies_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GPHAZARD_OUT", str(tmp_path / "envout"))
        doc = {"command": "check-assumptions", "parameters": {"kernel": "ou"}}
        status = run(parse_config(json.dumps(doc)))
        assert status == 0
        assert any((tmp_path / "envout").iterdir())


class TestMain:
    def test_config_flag(self, tmp_path):
        doc = minimal_simulate(out=str(tmp_path / "out"))
        assert main(["--config", make_config(tmp_path, doc)]) == 0

    def test_command_positional_with_overrides(self, tmp_path):
        doc = {"parameters": {"kernel": "se"}}
        path = make_config(tmp_path, doc)
        status = main(["check-assumptions", "--config", path, "--out", str(tmp_path / "o")])
        assert status == 0

    def test_seed_override_lands_in_config(self, tmp_path):
        doc = minimal_simulate()
        path = make_config(tmp_path, doc)
        status = main(["--config", path, "--seed", "99", "--out", str(tmp_path / "o")])
        assert status == 0
        run_dir = sorted((tmp_path / "o").iterdir())[0]
        written = json.loads((run_dir / "config.json").read_text())
        assert written["seed"] == 99

    def test_command_conflict(self, tmp_path, capsys):
        path = make_config(tmp_path, minimal_simulate())
        assert main(["kl", "--config", path]) == 1
        assert "simulate" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json")]) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_no_command_at_all(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path)]) == 1
        assert "command" in capsys.readouterr().err

    def test_verdict_failure_propagates(self, tmp_path):
        doc = {"command": "check-assumptions", "parameters": {"kernel": "constant"}}
        path = make_config(tmp_path, doc)
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 2
