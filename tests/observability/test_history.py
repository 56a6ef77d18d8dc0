"""Run-history store tests: persistence, queries, the compare view,
rendering, concurrency."""

import multiprocessing
import sqlite3

import pytest

from repro.observability.history import (
    SCHEMA_VERSION,
    RunHistory,
    compare_runs,
    new_run_id,
    params_digest,
    render_comparison,
    render_record,
    render_run_table,
)
from repro.observability.metrics import snapshot_value


def _snapshot_with(**values):
    """A minimal metrics-snapshot JSON holding the given gauge values."""
    return {
        name: {
            "type": "gauge", "help": name,
            "series": [{"labels": {}, "value": float(value)}],
        }
        for name, value in values.items()
    }


@pytest.fixture
def history(tmp_path):
    return RunHistory(str(tmp_path / "runs.db"))


class TestLifecycle:
    def test_start_then_end_roundtrip(self, history):
        rid = new_run_id()
        history.record_start(rid, "run", params={"years": [2030], "n_days": 6})
        running = history.get(rid)
        assert running.status == "running"
        assert running.params["years"] == [2030]

        history.record_end(
            rid, "completed", wall_clock_s=1.5,
            metrics=_snapshot_with(workflow_makespan_seconds=1.2),
            profile={"makespan_s": 1.2, "critical_path_s": 1.0,
                     "categories": {"compute": 0.9},
                     "by_name": {}, "overlap": {}},
            trace_id="deadbeef",
        )
        done = history.get(rid)
        assert done.status == "completed"
        assert done.wall_clock_s == pytest.approx(1.5)
        assert done.trace_id == "deadbeef"
        assert done.profile["critical_path_s"] == 1.0
        assert snapshot_value(done.metrics, "workflow_makespan_seconds") == \
            pytest.approx(1.2)

    def test_record_end_unknown_run_raises(self, history):
        with pytest.raises(KeyError):
            history.record_end("nope", "completed")

    def test_one_shot_record_run(self, history):
        rid = history.record_run("benchmark", "completed",
                                 params={"benchmark": "c1"},
                                 extra={"metrics": {"x": 1.0}})
        record = history.get(rid)
        assert record.kind == "benchmark"
        assert record.extra["metrics"] == {"x": 1.0}

    def test_failed_run_keeps_error(self, history):
        rid = new_run_id()
        history.record_start(rid, "run")
        history.record_end(rid, "failed", error="RuntimeError('boom')")
        assert history.get(rid).error == "RuntimeError('boom')"

    def test_list_runs_newest_first_with_kind_filter(self, history):
        a = history.record_run("run", "completed")
        b = history.record_run("chaos", "completed")
        c = history.record_run("run", "completed")
        ids = [r.run_id for r in history.list_runs()]
        assert ids.index(c) < ids.index(a)
        assert {r.run_id for r in history.list_runs(kind="chaos")} == {b}
        assert len(history) == 3

    def test_get_by_unique_prefix(self, history):
        rid = history.record_run("run", "completed")
        assert history.get(rid[:6]).run_id == rid
        # Prefixes match literally: SQL wildcards name no run.
        for prefix in ("ffffffffffff", "_", "%", rid[:2] + "%", ""):
            with pytest.raises(KeyError):
                history.get(prefix)

    def test_schema_version_stamped(self, history, tmp_path):
        conn = sqlite3.connect(str(tmp_path / "runs.db"))
        try:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == \
                SCHEMA_VERSION
        finally:
            conn.close()

    def test_reopen_is_idempotent(self, tmp_path):
        path = str(tmp_path / "runs.db")
        rid = RunHistory(path).record_run("run", "completed")
        assert RunHistory(path).get(rid).run_id == rid

    def test_params_digest_is_order_insensitive(self):
        assert params_digest({"a": 1, "b": 2}) == params_digest({"b": 2, "a": 1})
        assert params_digest({"a": 1}) != params_digest({"a": 2})


class TestCompare:
    def _two_runs(self, history, slow_factor=3.0):
        a = history.record_run(
            "run", "completed", params={"n_days": 6},
            metrics=_snapshot_with(workflow_makespan_seconds=1.0,
                                   workflow_critical_path_seconds=0.8),
            profile={"makespan_s": 1.0, "critical_path_s": 0.8,
                     "categories": {"compute": 0.7, "io": 0.1},
                     "by_name": {}, "overlap": {}},
        )
        b = history.record_run(
            "run", "completed", params={"n_days": 6},
            metrics=_snapshot_with(
                workflow_makespan_seconds=1.0 * slow_factor,
                workflow_critical_path_seconds=0.8 * slow_factor,
            ),
            profile={"makespan_s": 1.0 * slow_factor,
                     "critical_path_s": 0.8 * slow_factor,
                     "categories": {"compute": 0.7 * slow_factor, "io": 0.1},
                     "by_name": {}, "overlap": {}},
        )
        return a, b

    def test_compare_identical_runs_ok(self, history):
        a, b = self._two_runs(history, slow_factor=1.0)
        report = compare_runs(history.get(a), history.get(b))
        # A view only: metadata, params and attribution, no verdict.
        assert set(report) == {"a", "b", "params_match", "critical_path"}
        assert report["params_match"] is True
        assert (report["a"]["run_id"], report["b"]["run_id"]) == (a, b)
        assert all(entry["delta_s"] == 0.0
                   for entry in report["critical_path"]["categories"].values())
        rendered = render_comparison(report)
        assert f"compare {a} (run) -> {b} (run)" in rendered
        assert "params differ" not in rendered
        assert "compute" in rendered

    def test_compare_includes_critical_path_attribution(self, history):
        a, b = self._two_runs(history)
        report = compare_runs(history.get(a), history.get(b))
        attribution = report["critical_path"]["categories"]
        assert attribution["compute"]["a_s"] == pytest.approx(0.7)
        assert attribution["compute"]["b_s"] == pytest.approx(2.1)
        assert attribution["compute"]["delta_s"] == pytest.approx(1.4)

    def test_render_helpers(self, history):
        rid = history.record_run(
            "run", "completed", wall_clock_s=2.0,
            metrics=_snapshot_with(workflow_makespan_seconds=1.0),
        )
        table = render_run_table(history.list_runs())
        assert rid in table
        shown = render_record(history.get(rid))
        assert rid in shown
        assert "workflow_makespan_seconds" in shown


#: A profile as ``runs.db`` stored it before it kept the full
#: ``WorkflowProfile.to_json()`` form: the attribution summary only.
TRUNCATED_PROFILE = {
    "trace_id": "t1", "root_name": "workflow.run", "makespan_s": 2.0,
    "critical_path_s": 2.0, "categories": {"compute": 1.5, "io": 0.5},
    "overlap": {"esm_busy_s": 1.0, "analytics_busy_s": 0.5,
                "overlap_s": 0.25, "fraction": 0.25},
    "task_window_s": 1.8, "n_spans": 12, "n_task_events": 3,
    "by_name": [{"name": "esm_simulation", "category": "compute",
                 "seconds": 1.5, "segments": 1}],
}


class TestRenderRecord:
    def test_truncated_profile_renders(self, history):
        rid = history.record_run(
            "run", "completed", profile=TRUNCATED_PROFILE,
            metrics=_snapshot_with(workflow_makespan_seconds=2.0))
        text = render_record(history.get(rid))
        assert "critical path         2.000s" in text
        assert "esm_simulation" in text
        assert "ESM/analytics overlap: 0.250s" in text


def _write_rows(path, worker, n_rows):
    history = RunHistory(path)
    for i in range(n_rows):
        rid = f"w{worker}r{i:03d}zzzzzz"
        history.record_start(rid, "run", params={"worker": worker, "i": i})
        history.record_end(rid, "completed", wall_clock_s=0.01)


class TestConcurrentWriters:
    def test_parallel_processes_share_runs_db(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunHistory(path)  # migrate once up front
        procs = [
            multiprocessing.Process(target=_write_rows, args=(path, w, 20))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        history = RunHistory(path)
        assert len(history) == 80
        assert all(r.status == "completed"
                   for r in history.list_runs(limit=100))
