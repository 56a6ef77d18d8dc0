"""Smoke tests: every example script runs end-to-end at tiny scale.

Examples are executed in-process (import + ``main()`` with patched
``sys.argv``) so they stay cheap while still exercising their full code
paths.  Keeping them green keeps the documentation honest.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list, monkeypatch) -> None:
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "argv", [name] + argv)
    spec.loader.exec_module(module)
    module.main()


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        run_example("quickstart.py", ["--days", "6", "--no-ml"], monkeypatch)
        out = capsys.readouterr().out
        assert "science summary" in out
        assert "makespan" in out

    def test_heatwave_indices(self, monkeypatch, capsys):
        run_example("heatwave_indices.py", ["--days", "20"], monkeypatch)
        out = capsys.readouterr().out
        assert "Ophidia pipeline == NumPy reference: OK" in out

    def test_streaming_overlap(self, monkeypatch, capsys):
        run_example(
            "streaming_overlap.py",
            ["--days", "6", "--years", "1", "--pace", "0.01"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "science identical across schedules: OK" in out

    def test_hpcwaas_deployment(self, monkeypatch, capsys):
        run_example("hpcwaas_deployment.py", ["--days", "5"], monkeypatch)
        out = capsys.readouterr().out
        assert "published workflow id" in out
        assert "UNDEPLOYED" in out

    def test_distributed_federation(self, monkeypatch, capsys):
        run_example(
            "distributed_federation.py",
            ["--days", "4", "--years", "2030"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "data logistics:" in out

    def test_fault_tolerance(self, monkeypatch, capsys):
        run_example("fault_tolerance.py", [], monkeypatch)
        out = capsys.readouterr().out
        assert "RETRY:" in out
        assert "recovered from" in out

    # Warnings-as-errors: a 20-day window can contain zero wave cells,
    # which used to make the spread computation average an empty slice
    # (NaN + RuntimeWarning).  Keep it locked down.
    @pytest.mark.filterwarnings("error")
    def test_ensemble_analysis(self, monkeypatch, capsys):
        run_example(
            "ensemble_analysis.py", ["--members", "2", "--days", "20"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "r1i1p1f1" in out and "r2i1p1f1" in out
        assert "mean spread where waves occur:" in out

    def test_percentile_indices(self, monkeypatch, capsys):
        run_example(
            "percentile_indices.py", ["--hist-years", "3", "--days", "30"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "days above p90" in out

    def test_scenario_comparison(self, monkeypatch, capsys):
        run_example(
            "scenario_comparison.py", ["--days", "20", "--decades", "2"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "pathway divergence" in out

    def test_tc_detection(self, monkeypatch, capsys, tc_model_path):
        run_example(
            "tc_detection.py", ["--days", "6", "--model", tc_model_path],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "deterministic tracker:" in out
        assert "CNN localizer:" in out
