"""Exporter tests: Perfetto merge, snapshot rebuild."""

import json

import pytest

from repro.observability import (
    MetricsRegistry,
    TraceCollector,
    build_perfetto_trace,
    snapshot_from_json,
    span,
)


@pytest.fixture()
def spans():
    c = TraceCollector()
    with span("root", layer="workflow", collector=c):
        with span("child", layer="compss", collector=c):
            pass
    return c.spans()


class TestPerfettoTrace:
    def test_spans_become_complete_events(self, spans):
        trace = json.loads(build_perfetto_trace(spans))
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in events} == {"root", "child"}
        for e in events:
            assert e["pid"] == 1
            assert e["ts"] >= 0
            assert e["dur"] >= 0
            assert e["args"]["trace_id"]

    def test_task_events_get_their_own_process(self):
        c = TraceCollector()
        with span("root", layer="workflow", collector=c):
            with span("esm_simulation#1", layer="compss", collector=c,
                      attrs={"task_id": 1, "worker_id": 0,
                             "category": "compute",
                             "function": "esm_simulation"}):
                pass
        trace = json.loads(build_perfetto_trace(c.spans()))
        task_events = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["pid"] == 2
        ]
        assert len(task_events) == 1
        assert task_events[0]["name"] == "esm_simulation#1"
        assert task_events[0]["tid"] == 0  # worker id is the lane

    def test_clock_alignment_shifts_to_zero(self, spans):
        trace = json.loads(build_perfetto_trace(spans))
        ts = [e["ts"] for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert min(ts) == 0.0

    def test_thread_metadata_present(self, spans):
        trace = json.loads(build_perfetto_trace(spans))
        meta = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)

    def test_empty_inputs(self):
        trace = json.loads(build_perfetto_trace([]))
        assert all(e.get("ph") == "M" for e in trace["traceEvents"])


class TestSnapshotFromJson:
    def test_bare_snapshot(self):
        """A bare snapshot is not a run summary: it is refused."""
        registry = MetricsRegistry()
        registry.counter("n_total").inc()
        with pytest.raises(ValueError):
            snapshot_from_json(registry.snapshot().to_json())

    def test_run_summary_wrapper(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc()
        summary = {"years": {}, "metrics": registry.snapshot().to_json()}
        assert snapshot_from_json(summary).value("n_total") == 1

    def test_garbage_rejected(self):
        for garbage in ({"foo": "bar"}, {"metrics": {"x": 1}}, [1, 2], None):
            with pytest.raises(ValueError):
                snapshot_from_json(garbage)
