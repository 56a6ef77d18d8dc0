"""End-to-end telemetry: one workflow run yields one correlated trace.

The issue's acceptance bar: a single run produces a Perfetto-loadable
trace whose spans cover at least four distinct layers under one
trace_id, non-empty metrics in its run summary, and ``repro explain``
printing them.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import laptop_like
from repro.observability import get_collector, snapshot_value
from repro.workflow import WorkflowParams, run_extreme_events_workflow


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("telemetry") / "scratch"
    with laptop_like(scratch_root=str(scratch)) as cluster:
        params = WorkflowParams(
            years=[2030], n_days=12, n_lat=16, n_lon=24, n_workers=4,
            min_length_days=4, seed=5,
        )
        summary = run_extreme_events_workflow(cluster, params)
    return summary, scratch / "results"


class TestCorrelatedTrace:
    def test_summary_carries_trace_id_and_metrics(self, run):
        summary, _ = run
        assert summary["trace_id"]
        assert summary["metrics"]

    def test_spans_cover_four_layers_one_trace(self, run):
        summary, _ = run
        spans = get_collector().for_trace(summary["trace_id"])
        layers = {s.layer for s in spans}
        assert {"workflow", "compss", "scheduler", "filesystem",
                "ophidia"} <= layers
        assert len({s.trace_id for s in spans}) == 1

    def test_span_tree_is_rooted(self, run):
        summary, _ = run
        spans = get_collector().for_trace(summary["trace_id"])
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["workflow.run"]
        # Every recorded parent_id referenced by an in-trace span either
        # resolves in-trace or belongs to a dropped/unrecorded ancestor;
        # spans recorded by the instrumented layers must resolve.
        resolved = [s for s in spans if s.parent_id in by_id]
        assert len(resolved) >= len(spans) - 1

    def test_trace_json_loads_in_perfetto_format(self, run):
        summary, results = run
        trace = json.loads((results / "trace.json").read_text())
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(events) > 20
        in_trace = {
            e["args"]["trace_id"] for e in events
            if "trace_id" in e.get("args", {})
        }
        assert in_trace == {summary["trace_id"]}
        # The COMPSs task schedule rides along as a second process.
        assert any(e["pid"] == 2 for e in events)

    def test_metrics_artefacts_written(self, run):
        """The run's metrics are written once, in run_summary.json."""
        summary, results = run
        assert not (results / "metrics.json").exists()
        assert not (results / "metrics.prom").exists()
        payload = json.loads((results / "run_summary.json").read_text())
        payload = payload["metrics"]
        assert snapshot_value(payload, "compss_tasks_total",
                              state="COMPLETED") > 0
        assert snapshot_value(payload, "workflow_makespan_seconds") == \
            summary["schedule"]["makespan_s"]

    def test_registry_counts_match_task_graph(self, run):
        summary, _ = run
        submitted = snapshot_value(summary["metrics"],
                                   "compss_tasks_submitted_total")
        assert submitted == summary["task_graph"]["n_tasks"]

    def test_fs_stats_view_matches_registry(self, run):
        summary, _ = run
        assert summary["storage"]["fs_bytes_read"] > 0
        assert snapshot_value(summary["metrics"], "fs_bytes_read_total") == \
            summary["storage"]["fs_bytes_read"]


class TestMetricsCLI:
    def test_from_metrics_json(self, run, capsys):
        """The run summary's metrics as Prometheus text."""
        _, results = run
        assert main(["explain", str(results / "run_summary.json"),
                     "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE compss_tasks_total counter" in prom
        assert "fs_operations_total" in prom

    def test_from_run_summary_json_format(self, run, capsys):
        _, results = run
        assert main([
            "explain", str(results / "run_summary.json"), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert snapshot_value(payload["metrics"], "compss_tasks_total") > 0
