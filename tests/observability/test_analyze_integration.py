"""Round-trip acceptance: the `repro analyze` CLI.

A real (paced, two-year) workflow run is profiled three ways — in
process, from the exported ``trace.json``, and from the artifacts on
disk — and all three must agree.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import laptop_like
from repro.workflow import WorkflowParams, run_extreme_events_workflow


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("analyze") / "scratch"
    with laptop_like(scratch_root=str(scratch)) as cluster:
        params = WorkflowParams(
            years=[2030, 2031], n_days=8, n_lat=8, n_lon=12, n_workers=4,
            min_length_days=4, seed=7, pace_seconds=0.02,
        )
        summary = run_extreme_events_workflow(cluster, params)
    return summary, scratch / "results"


class TestInProcessProfile:
    def test_critical_path_within_5pct_of_makespan(self, run):
        summary, _ = run
        prof = summary["profile"]
        assert prof is not None
        assert prof["makespan_s"] > 0
        assert abs(prof["critical_path_s"] - prof["makespan_s"]) <= \
            0.05 * prof["makespan_s"]

    def test_esm_analytics_overlap_is_positive(self, run):
        summary, _ = run
        overlap = summary["profile"]["overlap"]
        assert overlap["esm_busy_s"] > 0
        assert overlap["analytics_busy_s"] > 0
        assert overlap["fraction"] > 0

    def test_categories_partition_the_makespan(self, run):
        summary, _ = run
        prof = summary["profile"]
        assert sum(prof["categories"].values()) == \
            pytest.approx(prof["makespan_s"], rel=1e-6)

    def test_profile_artifact_matches_summary(self, run):
        summary, results = run
        on_disk = json.loads((results / "profile.json").read_text())
        assert on_disk["critical_path_s"] == \
            summary["profile"]["critical_path_s"]
        assert on_disk["trace_id"] == summary["trace_id"]


class TestAnalyzeCLI:
    def test_trace_json_round_trip_agrees(self, run, capsys):
        summary, results = run
        assert main(["analyze", "--from", str(results / "trace.json"),
                     "--format", "json"]) == 0
        rt = json.loads(capsys.readouterr().out)
        prof = summary["profile"]
        # the export rounds timestamps to microseconds
        assert rt["makespan_s"] == pytest.approx(prof["makespan_s"],
                                                 abs=1e-3)
        assert rt["critical_path_s"] == pytest.approx(
            prof["critical_path_s"], abs=1e-3)
        assert rt["overlap"]["overlap_s"] == pytest.approx(
            prof["overlap"]["overlap_s"], abs=1e-3)
        assert rt["overlap"]["fraction"] > 0

    def test_run_summary_and_profile_inputs(self, run, capsys):
        _, results = run
        for name in ("run_summary.json", "profile.json"):
            assert main(["analyze", "--from", str(results / name)]) == 0
            out = capsys.readouterr().out
            assert "critical path" in out
            assert "what-if" in out

    def test_rejects_unrecognised_payload(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text(json.dumps({"hello": 1}))
        assert main(["analyze", "--from", str(p)]) == 2
