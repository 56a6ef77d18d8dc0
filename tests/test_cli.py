"""CLI tests (direct main() invocation; no subprocesses)."""

import json

import pytest

from repro.cli import main, parse_args
from repro.esm.grid import MIN_GRID_POINTS
from repro.workflow import WorkflowParams

SMALL_RUN = ("--param", "n_days=6", "--param", "n_lat=16", "--param", "n_lon=24",
             "--param", "min_length_days=4")
DIST_RUN = ("--param", "n_days=5", "--param", "n_lat=16", "--param", "n_lon=24",
            "--param", "min_length_days=4")
TOY = ("--param", "n_lat=8", "--param", "n_lon=12")

#: (argv, the WorkflowParams it must build): each bare workflow command,
#: then the invocations of CI (ci.yml) and tests/reach_driver.py.
WORKFLOW_ARGVS = {
    "run": (["run"], WorkflowParams(n_days=30, with_ml=False)),
    "run-distributed": (
        ["run-distributed"], WorkflowParams(n_days=30, with_ml=False)),
    "chaos": (["chaos"], WorkflowParams(
        n_days=12, with_ml=False, seed=7, min_length_days=6)),
    "simulate": (["simulate", "out"], WorkflowParams(n_days=30)),
    "ci-two-site": (
        ["run-distributed", "--param", "n_days=5", "--param", "n_lat=16",
         "--param", "n_lon=24", "--param", "min_length_days=3",
         "--scratch", "dist-scratch"],
        WorkflowParams(n_days=5, n_lat=16, n_lon=24, min_length_days=3,
                       with_ml=False)),
    "ci-paced": (
        ["run", "--param", "years=[2030, 2031]", "--param", "n_days=8", *TOY,
         "--param", "min_length_days=4", "--param", "pace_seconds=0.02",
         "--scratch", "perf-scratch", "--param", "runs_db=runs.db",
         "--param", "events_path=events.jsonl"],
        WorkflowParams(years=[2030, 2031], n_days=8, n_lat=8, n_lon=12,
                       min_length_days=4, pace_seconds=0.02, with_ml=False,
                       runs_db="runs.db", events_path="events.jsonl")),
    "ci-fast": (
        ["run", "--param", "years=[2030, 2031]", "--param", "n_days=8", *TOY,
         "--param", "min_length_days=4", "--scratch", "fast-scratch",
         "--param", "runs_db=runs.db"],
        WorkflowParams(years=[2030, 2031], n_days=8, n_lat=8, n_lon=12,
                       min_length_days=4, with_ml=False, runs_db="runs.db")),
    "ci-process": (
        ["run", "--param", "years=2032", "--param", "n_days=6", *TOY,
         "--param", "min_length_days=3",
         "--scratch", "proc-scratch", "--param", "runs_db=runs.db",
         "--param", "events_path=events.jsonl"],
        WorkflowParams(years=[2032], n_days=6, n_lat=8, n_lon=12,
                       min_length_days=3, with_ml=False, runs_db="runs.db",
                       events_path="events.jsonl")),
    "ci-chaos": (
        ["chaos", "--seed", "11", "--kill-node", "local1",
         "--fs-error-rate", "0.05"],
        WorkflowParams(n_days=12, with_ml=False, seed=11, min_length_days=6)),
    "reach-tiered": (
        ["run", "--param", "n_days=6", *TOY, "--param", "min_length_days=3",
         "--param", "slo_rules_path=loose.yaml",
         "--param", "ophidia_memory_budget_bytes=10485",
         "--scratch", "tiered"],
        WorkflowParams(n_days=6, n_lat=8, n_lon=12, min_length_days=3,
                       with_ml=False, slo_rules_path="loose.yaml",
                       ophidia_memory_budget_bytes=10485)),
    "reach-chaos": (
        ["chaos", "--seed", "7", "--kill-node", "local1",
         "--fs-error-rate", "0.05", "--param", "n_days=6", "--scratch", "c"],
        WorkflowParams(n_days=6, with_ml=False, seed=7, min_length_days=6)),
    "reach-simulate": (
        ["simulate", "sim", "--param", "n_days=8", *TOY],
        WorkflowParams(n_days=8, n_lat=8, n_lon=12)),
}


class TestWorkflowParamsFromArgv:
    @pytest.mark.parametrize("name", WORKFLOW_ARGVS)
    def test_argv_builds_params(self, name):
        argv, expected = WORKFLOW_ARGVS[name]
        assert parse_args(argv).params == expected

    @pytest.mark.parametrize("pair, message", [
        ("bogus=1", "unknown workflow parameters"),
        ("fs_cache_bytes=1", "unknown workflow parameters"),
        ("worker_cache_bytes=0", "unknown workflow parameters"),
        ("execution_backend=process", "unknown workflow parameters"),
        ("n_days", "expected KEY=VALUE"),
        ("with_ml=no", "'with_ml' must be bool"),
        ("tc_patch=0", "tc_patch must be >= 1"),
        ("n_workers=0", "n_workers must be >= 1"),
        ("ophidia_cores=0", "ophidia_cores must be >= 1"),
        ("ophidia_io_servers=0", "ophidia_io_servers must be >= 1"),
        ("pace_seconds=-1", "pace_seconds must be >= 0"),
        ("min_length_days=0", "min_length_days must be >= 1"),
        ("esm_restart_every=-1", "esm_restart_every must be >= 0"),
        ("n_lat=1", f"n_lat must be >= {MIN_GRID_POINTS}"),
        ("n_lon=3", f"n_lon must be >= {MIN_GRID_POINTS}"),
    ])
    def test_bad_param_is_a_usage_error(self, pair, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--param", pair])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestInfo:
    def test_info_lists_components(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for pkg in ("compss", "ophidia", "esm", "hpcwaas", "workflow"):
            assert f"repro.{pkg}" in out


class TestSimulate:
    def test_simulate_writes_files_and_truth(self, tmp_path, capsys):
        code = main([
            "simulate", str(tmp_path / "out"), "--param", "n_days=3",
            "--param", "n_lat=16", "--param", "n_lon=24",
            "--param", "years=[2030, 2031]",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2030:" in out and "2031:" in out
        files = sorted((tmp_path / "out").glob("cmcc_cm3_*.rnc"))
        assert len(files) == 6
        assert (tmp_path / "out" / "climatology.rnc").exists()


class TestIndices:
    def test_indices_from_simulated_dir(self, tmp_path, capsys):
        data = tmp_path / "out"
        assert main([
            "simulate", str(data), "--param", "n_days=8",
            "--param", "n_lat=16", "--param", "n_lon=24",
        ]) == 0
        capsys.readouterr()
        assert main([
            "indices", str(data), "--min-length", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Heat Wave Number" in out
        assert "cells_with_waves" in out

    def test_indices_empty_dir_fails(self, tmp_path, capsys):
        assert main(["indices", str(tmp_path)]) == 2
        assert "no cmcc_cm3" in capsys.readouterr().err


class TestRun:
    def test_run_prints_summary_json(self, tmp_path, capsys):
        code = main([
            "run", *SMALL_RUN, "--scratch", str(tmp_path / "scratch"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert "2030" in summary["years"]
        assert summary["task_graph"]["n_tasks"] > 10
        assert (tmp_path / "scratch" / "results" / "run_summary.json").exists()

    def test_run_distributed(self, capsys):
        code = main([
            "run-distributed", *DIST_RUN,
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["federation"]["transfers"] == 1

    def test_run_distributed_honours_scratch(self, tmp_path, capsys):
        scratch = tmp_path / "scratch"
        code = main([
            "run-distributed", *DIST_RUN, "--scratch", str(scratch),
            "--param", "cluster_cores_per_node=2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        results = scratch / "cloud-sim" / "results"
        assert (results / "run_summary.json").exists()
        assert (results / "provenance.json").exists()
        assert list((scratch / "hpc-sim" / "esm_output").glob("cmcc_cm3_*.rnc"))
        assert f"# artefacts: {results}/" in captured.err
        assert json.loads(captured.out)["federation"]["transfers"] == 1

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
