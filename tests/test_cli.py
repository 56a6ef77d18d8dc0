"""CLI tests (direct main() invocation; no subprocesses)."""

import json

import pytest

from repro.cli import main


class TestInfo:
    def test_info_lists_components(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for pkg in ("compss", "ophidia", "esm", "hpcwaas", "workflow"):
            assert f"repro.{pkg}" in out


class TestSimulate:
    def test_simulate_writes_files_and_truth(self, tmp_path, capsys):
        code = main([
            "simulate", str(tmp_path / "out"), "--days", "3",
            "--n-lat", "16", "--n-lon", "24", "--years", "2030", "2031",
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
            "simulate", str(data), "--days", "8",
            "--n-lat", "16", "--n-lon", "24",
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
            "run", "--days", "6", "--n-lat", "16", "--n-lon", "24",
            "--min-length", "4", "--scratch", str(tmp_path / "scratch"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert "2030" in summary["years"]
        assert summary["task_graph"]["n_tasks"] > 10
        assert (tmp_path / "scratch" / "results" / "run_summary.json").exists()

    def test_run_distributed(self, capsys):
        code = main([
            "run-distributed", "--days", "5", "--n-lat", "16",
            "--n-lon", "24", "--min-length", "4",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["federation"]["transfers"] == 1

    def test_run_distributed_honours_scratch(self, tmp_path, capsys):
        scratch = tmp_path / "scratch"
        code = main([
            "run-distributed", "--days", "5", "--n-lat", "16",
            "--n-lon", "24", "--min-length", "4",
            "--scratch", str(scratch), "--cores-per-node", "2",
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
