"""Acceptance tests: a real run persists history + events, and
``repro explain``, the ``repro history compare`` view and the
``repro slo check`` judge (drift against a reference run included) work
on the artifacts it leaves behind, exit codes included."""

import json

import pytest

from repro.cli import main
from repro.observability.events import read_events
from repro.observability.history import RunHistory
from repro.observability.metrics import MetricsRegistry, snapshot_value
from repro.workflow import (
    WorkflowParams,
    run_extreme_events_workflow,
)
from repro.cluster import laptop_like

TIGHT_SLO = """
slos:
  - name: makespan
    metric: workflow_makespan_seconds
    max: 0.000001
    severity: critical
"""

#: Drift rules for a paced run against the fast one: a ratio on the
#: clock, exact rules on counters that repeat exactly on this profile
#: (docs/OBSERVABILITY.md lists them): every filesystem read touches
#: disk, so the ``op=read`` count is as exact as the sum over ``op``.
DRIFT_RULES = """
slos:
  - name: makespan
    metric: workflow_makespan_seconds
    max_ratio: 1.25
    severity: critical
  - name: tasks-completed
    metric: compss_tasks_total
    max_ratio: 1
    severity: critical
    labels:
      state: COMPLETED
  - name: days-written
    metric: esm_days_written_total
    min_ratio: 1
    severity: critical
  - name: fs-operations
    metric: fs_operations_total
    max_ratio: 1
    severity: critical
  - name: fs-reads
    metric: fs_operations_total
    max_ratio: 1
    severity: critical
    labels:
      op: read
"""

#: Sleep per simulated day in the paced run.  Its floor, 8 days x 0.2 s
#: = 1.6 s, is 4x the slowest fast-run makespan measured beside two
#: busy-loop processes on a 2-core host (0.41 s), so the paced run
#: breaches ``max_ratio: 1.25`` with a 2x margin however loaded the
#: host is when the fast run goes.
PACE_SECONDS = 0.2

LOOSE_SLO = """
slos:
  - name: makespan
    metric: workflow_makespan_seconds
    max: 100000
    severity: critical
"""


@pytest.fixture(scope="module")
def instrumented_runs(tmp_path_factory, tc_model_path):
    """Two instrumented runs sharing one runs.db: a fast one and a paced
    (artificially slower) one, for compare/slo round-trips."""
    root = tmp_path_factory.mktemp("hist")
    db = str(root / "runs.db")
    slo = root / "slo.yaml"
    slo.write_text(TIGHT_SLO)
    summaries = []
    for name, pace in (("fast", 0.0), ("slow", PACE_SECONDS)):
        events = str(root / f"events_{name}.jsonl")
        params = WorkflowParams(
            years=[2030], n_days=8, n_lat=8, n_lon=12,
            n_workers=4, min_length_days=4,
            tc_model_path=tc_model_path, tc_target_grid=(16, 32),
            seed=5, pace_seconds=pace,
            runs_db=db, slo_rules_path=str(slo), events_path=events,
        )
        with laptop_like(scratch_root=str(root / f"scratch_{name}")) as c:
            summaries.append(run_extreme_events_workflow(c, params))
    return {"db": db, "root": root, "summaries": summaries}


class TestRunPersistence:
    def test_summary_carries_run_id_and_slo(self, instrumented_runs):
        for summary in instrumented_runs["summaries"]:
            assert summary["run_id"]
            assert summary["slo"]["breach_counts"] == {"makespan": 1}
            assert summary["slo"]["breached"] == ["makespan"]

    def test_history_row_is_queryable(self, instrumented_runs):
        history = RunHistory(instrumented_runs["db"])
        assert len(history) == 2
        for summary in instrumented_runs["summaries"]:
            record = history.get(summary["run_id"])
            assert record.kind == "run"
            assert record.status == "completed"
            assert record.trace_id == summary["trace_id"]
            assert record.wall_clock_s > 0
            assert record.params["years"] == [2030]
            assert snapshot_value(record.metrics,
                                  "workflow_makespan_seconds") > 0
            assert record.profile["critical_path_s"] > 0
            # The SLO breach counter made it into the recorded metrics.
            assert "slo_breaches_total" in record.metrics

    def test_events_correlated_with_run(self, instrumented_runs):
        summary = instrumented_runs["summaries"][0]
        events = read_events(
            str(instrumented_runs["root"] / "events_fast.jsonl"))
        assert events, "events.jsonl is empty"
        names = [e.name for e in events]
        assert names[0] == "run_started"
        assert "run_completed" in names
        assert "year_dispatched" in names
        # Satellite: ophidia's operator provenance rides the same log...
        assert "operator_executed" in names
        assert "slo_breach" in names
        # Every event belongs to this run; spanned ones share its trace.
        assert {e.run_id for e in events} == {summary["run_id"]}
        traced = {e.trace_id for e in events if e.trace_id}
        assert traced == {summary["trace_id"]}


class TestCliRoundTrip:
    def test_history_list_and_show(self, instrumented_runs, capsys):
        db = instrumented_runs["db"]
        assert main(["history", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        for summary in instrumented_runs["summaries"]:
            assert summary["run_id"][:8] in out
        rid = instrumented_runs["summaries"][0]["run_id"]
        assert main(["explain", rid, "--db", db, "--format", "json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == rid

    def test_compare_flags_paced_run_and_sets_exit_code(
            self, instrumented_runs, capsys, tmp_path):
        db = instrumented_runs["db"]
        fast, slow = [s["run_id"] for s in instrumented_runs["summaries"]]
        rules = tmp_path / "drift.yaml"
        rules.write_text(DRIFT_RULES)
        check = ["slo", "check", "--rules", str(rules), "--db", db]
        assert main(check + [slow, "--against", fast]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(check + [slow, "--against", fast,
                             "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [r["slo"] for r in report["results"] if not r["ok"]] == [
            "makespan"]
        # The paced run differs only in pacing: the same run passes.
        assert main(check + [fast, "--against", fast]) == 0
        assert "PASS" in capsys.readouterr().out
        # The compare view judges nothing and always exits 0.
        assert main(["history", "compare", fast, slow, "--db", db]) == 0
        assert "critical-path attribution (a -> b)" in capsys.readouterr().out

    def test_slo_check_exit_codes(self, instrumented_runs, capsys, tmp_path):
        db = instrumented_runs["db"]
        rid = instrumented_runs["summaries"][0]["run_id"]
        tight = tmp_path / "tight.yaml"
        tight.write_text(TIGHT_SLO)
        loose = tmp_path / "loose.yaml"
        loose.write_text(LOOSE_SLO)
        assert main(["slo", "check", "--rules", str(tight),
                     rid, "--db", db]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(["slo", "check", "--rules", str(loose),
                     rid, "--db", db]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_slo_check_from_run_summary_file(self, instrumented_runs, capsys,
                                             tmp_path):
        summary = instrumented_runs["summaries"][0]
        path = tmp_path / "run_summary.json"
        path.write_text(json.dumps(summary))
        tight = tmp_path / "tight.yaml"
        tight.write_text(TIGHT_SLO)
        assert main(["slo", "check", "--rules", str(tight),
                     str(path)]) == 1

    def test_tail_renders_the_run_events(self, instrumented_runs, capsys):
        path = str(instrumented_runs["root"] / "events_fast.jsonl")
        assert main(["tail", path, "--component", "slo"]) == 0
        out = capsys.readouterr().out
        assert "slo_breach" in out

    def test_missing_artifacts_exit_2(self, tmp_path, capsys):
        db = str(tmp_path / "empty.db")
        assert main(["explain", "nope", "--db", db]) == 2
        assert main(["tail", str(tmp_path / "missing.jsonl")]) == 2
        capsys.readouterr()

        registry = MetricsRegistry()
        registry.gauge("workflow_makespan_seconds", "").set(1.0)
        snapshot = registry.snapshot().to_json()
        summary = tmp_path / "run_summary.json"
        summary.write_text(json.dumps({"metrics": snapshot}))
        # A bare snapshot, as the retired metrics.json held: not a run.
        (tmp_path / "metrics.json").write_text(json.dumps(snapshot))
        loose, drift = tmp_path / "loose.yaml", tmp_path / "drift.yaml"
        loose.write_text(LOOSE_SLO)
        drift.write_text(DRIFT_RULES)
        (tmp_path / "garbage.json").write_text("not json {")
        (tmp_path / "list.json").write_text("[1, 2]")
        bad = ("missing.json", "garbage.json", "list.json", "metrics.json")
        for path in bad:
            assert main(["slo", "check", str(tmp_path / path),
                         "--rules", str(loose)]) == 2
        assert main(["slo", "check", str(summary), "--rules", str(loose),
                     "--against", "nope", "--db", db]) == 2
        assert main(["slo", "check", str(summary), "--rules", str(drift)]) == 2
        assert main(["slo", "check", str(summary), "--rules", str(loose)]) == 0
        err = capsys.readouterr().err.splitlines()
        # one line per refusal, no traceback
        assert len(err) == len(bad) + 2, err
        assert "--against" in err[-1]
