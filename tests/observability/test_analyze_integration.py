"""Acceptance: a real (paced, two-year) workflow run is profiled in
process, and ``repro explain`` reads the same record back whether the
run is named by its ``run_summary.json`` or by its id in ``runs.db``.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.cluster import laptop_like
from repro.workflow import WorkflowParams, run_extreme_events_workflow


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyze")
    scratch, db = root / "scratch", str(root / "runs.db")
    with laptop_like(scratch_root=str(scratch)) as cluster:
        params = WorkflowParams(
            years=[2030, 2031], n_days=8, n_lat=8, n_lon=12, n_workers=4,
            min_length_days=4, seed=7, pace_seconds=0.02, runs_db=db,
        )
        summary = run_extreme_events_workflow(cluster, params)
    return summary, scratch / "results", db


class TestInProcessProfile:
    def test_critical_path_within_5pct_of_makespan(self, run):
        summary, *_ = run
        prof = summary["profile"]
        assert prof is not None
        assert prof["makespan_s"] > 0
        assert abs(prof["critical_path_s"] - prof["makespan_s"]) <= \
            0.05 * prof["makespan_s"]

    def test_esm_analytics_overlap_is_positive(self, run):
        summary, *_ = run
        overlap = summary["profile"]["overlap"]
        assert overlap["esm_busy_s"] > 0
        assert overlap["analytics_busy_s"] > 0
        assert overlap["fraction"] > 0

    def test_categories_partition_the_makespan(self, run):
        summary, *_ = run
        prof = summary["profile"]
        assert sum(prof["categories"].values()) == \
            pytest.approx(prof["makespan_s"], rel=1e-6)

    def test_profile_artifact_matches_summary(self, run):
        """The profile's one artefact is run_summary.json's section."""
        summary, results, _ = run
        on_disk = json.loads((results / "run_summary.json").read_text())
        assert on_disk["profile"] == json.loads(
            json.dumps(summary["profile"]))
        assert on_disk["profile"]["trace_id"] == summary["trace_id"]
        written = {p.name for p in results.iterdir()}
        assert {"events.jsonl", "provenance.json", "run_summary.json",
                "task_graph.dot", "trace.json"} <= written
        assert not {"profile.json", "metrics.json", "metrics.prom"} & written


def explain(*argv):
    """``repro explain`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["explain", *map(str, argv)])
    return rc, out.getvalue(), err.getvalue()


class TestAnalyzeCLI:
    def test_id_and_path_name_the_same_run(self, run):
        summary, results, db = run
        path = results / "run_summary.json"
        by_id = [explain(summary["run_id"], "--db", db, "--format", fmt)
                 for fmt in ("json", "text", "prom")]
        by_path = [explain(path, "--format", fmt)
                   for fmt in ("json", "text", "prom")]
        assert all(rc == 0 for rc, _, _ in by_id + by_path)
        doc_id, doc_path = (json.loads(r[0][1]) for r in (by_id, by_path))
        assert doc_id["metrics"] == doc_path["metrics"]
        assert doc_id["profile"] == doc_path["profile"]
        for key in ("run_id", "kind", "status", "trace_id"):
            assert doc_id[key] == doc_path[key], key
        assert doc_id["run_id"] == summary["run_id"]
        # Same profile and metrics sections; only the header differs
        # (a summary carries no start time, wall clock or git revision).
        text_id, text_path = by_id[1][1], by_path[1][1]
        body = text_id[text_id.index("workflow profile"):]
        assert body == text_path[text_path.index("workflow profile"):]
        assert "metrics (summed over series)" in body
        assert by_id[2][1] == by_path[2][1]
        assert "# TYPE compss_tasks_total counter" in by_id[2][1]

    def test_run_summary_and_profile_inputs(self, run):
        """A run_summary.json path and a run-id prefix both render the
        critical path, what-ifs and metrics."""
        summary, results, db = run
        for argv in ([results / "run_summary.json"],
                     [summary["run_id"][:6], "--db", db]):
            rc, out, _ = explain(*argv)
            assert rc == 0
            assert "critical path" in out
            assert "what-if" in out
            assert "workflow_makespan_seconds" in out

    def test_rejects_unrecognised_payload(self, run, tmp_path, monkeypatch):
        """Each refusal exits 2 with one stderr line."""
        _, results, db = run
        monkeypatch.delenv("REPRO_RUNS_DB", raising=False)
        (tmp_path / "junk.json").write_text(json.dumps({"hello": 1}))
        (tmp_path / "garbage.json").write_text("not json {")
        (tmp_path / "list.json").write_text("[1, 2]")
        for argv in ([tmp_path / "junk.json"], [tmp_path / "garbage.json"],
                     [tmp_path / "list.json"], [tmp_path / "missing.json"],
                     [results / "trace.json"], ["nope", "--db", db],
                     ["nope"], ["_", "--db", db], ["%", "--db", db]):
            rc, out, err = explain(*argv)
            assert (rc, out, len(err.splitlines())) == (2, "", 1), argv
