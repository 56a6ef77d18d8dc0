"""Profiler unit tests: synthetic DAGs with known answers.

The span trees here are built by hand so every quantity the profiler
reports — critical path, category split, utilization, blocked time,
overlap fraction, what-ifs — has a value computable on paper.
"""

import json
import math

import pytest

from repro.observability import (
    Span,
    build_perfetto_trace,
    profile_spans,
    render_profile,
)
from repro.observability.profile import ProfileError, categorize_span


def mk_span(name, span_id, parent_id, start, end, layer="compss",
            status="OK", **attrs):
    return Span(name=name, trace_id="t1", span_id=span_id,
                parent_id=parent_id, layer=layer, start=start, end=end,
                status=status, attrs=attrs)


def mk_event(task_id, func, worker, start, end):
    """A COMPSs task-attempt span under the root ``r``."""
    return mk_span(f"{func}#{task_id}", f"e{task_id}", "r", start, end,
                   task_id=task_id, worker_id=worker, category="compute",
                   function=func)


@pytest.fixture()
def diamond():
    """Root [0,10]; A [1,4] and B [2,7] in parallel; C [7,9] after B.

    Walking backwards from 10: root self [9,10], C [7,9], B [2,7]
    (it ends later than A, so A is entirely off the critical path),
    A [1,2] only up to B's start, root self [0,1].
    """
    return [
        mk_span("workflow.run", "r", None, 0.0, 10.0, layer="workflow"),
        mk_span("a#1", "a", "r", 1.0, 4.0),
        mk_span("b#2", "b", "r", 2.0, 7.0),
        mk_span("c#3", "c", "r", 7.0, 9.0),
    ]


class TestCriticalPath:
    def test_segments_partition_the_root_window(self, diamond):
        prof = profile_spans(diamond)
        assert prof.makespan_s == pytest.approx(10.0)
        assert prof.critical_path_s == pytest.approx(10.0)
        starts = [s["start_s"] for s in prof.critical_path]
        assert starts == sorted(starts)
        # chronological cover with no holes
        cursor = 0.0
        for seg in prof.critical_path:
            assert seg["start_s"] == pytest.approx(cursor)
            cursor += seg["duration_s"]
        assert cursor == pytest.approx(10.0)

    def test_known_hops(self, diamond):
        prof = profile_spans(diamond)
        hops = [(s["name"], round(s["start_s"], 6), round(s["duration_s"], 6))
                for s in prof.critical_path]
        assert hops == [
            ("workflow.run", 0.0, 1.0),
            ("a#1", 1.0, 1.0),       # only until b starts
            ("b#2", 2.0, 5.0),
            ("c#3", 7.0, 2.0),
            ("workflow.run", 9.0, 1.0),
        ]

    def test_nested_children_attribute_io_within_tasks(self):
        spans = [
            mk_span("workflow.run", "r", None, 0.0, 10.0, layer="workflow"),
            mk_span("task#1", "t", "r", 1.0, 9.0),
            mk_span("fs.read:x", "f", "t", 2.0, 5.0, layer="filesystem"),
        ]
        prof = profile_spans(spans)
        by_cat = prof.categories
        assert by_cat["io"] == pytest.approx(3.0)
        # task self-time: 8 - 3 = 5; root self: 2
        assert by_cat["compute"] == pytest.approx(5.0)
        assert by_cat["orchestration"] == pytest.approx(2.0)
        assert sum(by_cat.values()) == pytest.approx(prof.makespan_s)

    def test_children_clipped_to_parent_window(self):
        # Child overhangs its parent on both sides; the walk must not
        # attribute time outside the root window.
        spans = [
            mk_span("workflow.run", "r", None, 2.0, 8.0, layer="workflow"),
            mk_span("task#1", "t", "r", 1.0, 9.0),
        ]
        prof = profile_spans(spans)
        assert prof.critical_path_s == pytest.approx(6.0)

    def test_by_name_pools_task_ids_and_what_if_predicts(self, diamond):
        prof = profile_spans(diamond)
        pooled = {e["name"]: e["seconds"] for e in prof.by_name}
        assert pooled["b"] == pytest.approx(5.0)
        top = prof.what_if[0]
        assert top["name"] == "b"
        assert top["predicted_makespan_s"] == pytest.approx(5.0)
        assert top["predicted_speedup"] == pytest.approx(2.0)

    def test_empty_and_rootless_traces_raise(self):
        with pytest.raises(ProfileError):
            profile_spans([])

    def test_root_is_largest_orphan(self):
        spans = [
            mk_span("small", "s", "gone", 0.0, 1.0),
            mk_span("big", "b", None, 0.0, 5.0),
        ]
        prof = profile_spans(spans)
        assert prof.root_name == "big"


class TestCategorize:
    def test_explicit_attr_wins(self):
        s = mk_span("anything#1", "x", None, 0, 1, category="transfer")
        assert categorize_span(s) == "transfer"

    def test_name_and_layer_fallbacks(self):
        cases = [
            (mk_span("queue:f#1", "a", None, 0, 1, layer="app"), "queue"),
            (mk_span("retry:f#1", "b", None, 0, 1), "queue"),
            (mk_span("transfer:f#1", "c", None, 0, 1), "transfer"),
            (mk_span("fs.read:x", "d", None, 0, 1, layer="filesystem"), "io"),
            (mk_span("f#1", "e", None, 0, 1, layer="compss"), "compute"),
            (mk_span("workflow.run", "f", None, 0, 1, layer="workflow"),
             "orchestration"),
        ]
        for span_, want in cases:
            assert categorize_span(span_) == want, span_.name


class TestTimelines:
    def make(self):
        root = mk_span("workflow.run", "r", None, 0.0, 10.0, layer="workflow")
        events = [
            # worker 0 busy [0,4] and [6,10]; worker 1 busy [0,2]
            mk_event(1, "esm_simulation", 0, 0.0, 4.0),
            mk_event(2, "analyze", 0, 6.0, 10.0),
            mk_event(3, "analyze", 1, 0.0, 2.0),
        ]
        return root, events

    def test_busy_idle_utilisation(self):
        root, events = self.make()
        prof = profile_spans([root, *events])
        w0 = prof.workers["worker-0"]
        w1 = prof.workers["worker-1"]
        assert prof.task_window_s == pytest.approx(10.0)
        assert w0["busy_s"] == pytest.approx(8.0)
        assert w0["idle_s"] == pytest.approx(2.0)
        assert w0["utilisation"] == pytest.approx(0.8)
        assert w1["busy_s"] == pytest.approx(2.0)
        assert w1["idle_s"] == pytest.approx(8.0)

    def test_blocked_is_idle_while_work_waited(self):
        root, events = self.make()
        # ready work waited in the scheduler during [3, 7]
        queue = mk_span("queue:analyze#2", "q", "r", 3.0, 7.0,
                        layer="scheduler")
        prof = profile_spans([root, queue, *events])
        # worker 0 idle [4,6] ∩ waiting [3,7] = 2s blocked
        assert prof.workers["worker-0"]["blocked_s"] == pytest.approx(2.0)
        # worker 1 idle [2,10] ∩ [3,7] = 4s
        assert prof.workers["worker-1"]["blocked_s"] == pytest.approx(4.0)

    def test_overlap_fraction(self):
        root, events = self.make()
        prof = profile_spans([root, *events],
                             esm_functions=("esm_simulation",))
        # esm busy [0,4]; analytics busy [0,2] u [6,10] -> overlap [0,2]
        assert prof.overlap["esm_busy_s"] == pytest.approx(4.0)
        assert prof.overlap["analytics_busy_s"] == pytest.approx(6.0)
        assert prof.overlap["overlap_s"] == pytest.approx(2.0)
        assert prof.overlap["fraction"] == pytest.approx(0.5)

    def test_straggler_detection(self):
        root = mk_span("workflow.run", "r", None, 0.0, 100.0,
                       layer="workflow")
        events = [mk_event(i, "f", 0, i * 1.0, i * 1.0 + 0.1)
                  for i in range(9)]
        events.append(mk_event(9, "f", 1, 50.0, 60.0))  # 100x the median
        prof = profile_spans([root, *events])
        assert len(prof.stragglers) == 1
        assert prof.stragglers[0]["task"] == "f#9"
        assert prof.stragglers[0]["worker"] == 1

    def test_attempts_share_the_span_clock(self):
        root = mk_span("workflow.run", "r", None, 100.0, 110.0,
                       layer="workflow")
        events = [mk_event(1, "esm_simulation", 0, 100.0, 104.0),
                  mk_event(2, "analyze", 0, 102.0, 106.0)]
        prof = profile_spans([root, *events])
        assert prof.workers["worker-0"]["first_start_s"] == pytest.approx(0.0)
        assert prof.overlap["overlap_s"] == pytest.approx(2.0)


class TestSerialisation:
    def test_to_json_round_trips_through_json(self, diamond):
        prof = profile_spans(diamond)
        payload = json.loads(json.dumps(prof.to_json()))
        assert payload["makespan_s"] == pytest.approx(10.0)
        assert payload["n_critical_segments"] == 5

    def test_segment_cap_keeps_aggregates_exact(self, diamond):
        prof = profile_spans(diamond)
        capped = prof.to_json(max_segments=2)
        assert capped["critical_path_truncated"] is True
        assert len(capped["critical_path"]) == 2
        assert capped["critical_path_s"] == pytest.approx(10.0)
        assert capped["n_critical_segments"] == 5

    def test_render_profile_accepts_both_forms(self, diamond):
        prof = profile_spans(diamond)
        for form in (prof, prof.to_json()):
            text = render_profile(form)
            assert "critical path" in text
            assert "what-if" in text


def span_events(payload):
    """The pid-1 span events of an exported trace, by span id."""
    return {e["args"]["span_id"]: e for e in payload["traceEvents"]
            if e.get("ph") == "X" and e["pid"] == 1}


class TestPerfettoRoundTrip:
    """The exported ``trace.json`` carries every span the profiler reads,
    ids, attributes and status included, in its pid-1 process."""

    def test_profile_needs_only_the_span_process(self):
        """Every span is one pid-1 event carrying what profile_spans
        reads; the pid-2 schedule lane repeats the task attempts only."""
        import time

        from repro.compss import COMPSs, compss_wait_on, task
        from repro.observability import get_collector, span

        @task(returns=1)
        def esm_simulation():
            time.sleep(0.05)
            return 0

        @task(returns=1)
        def analyze(x):
            time.sleep(0.005)
            return x

        with span("workflow.run", layer="workflow") as root:
            with COMPSs(n_workers=2) as rt:
                compss_wait_on([esm_simulation()]
                               + [analyze(i) for i in range(9)])
        spans = get_collector().for_trace(root.context.trace_id)
        payload = json.loads(build_perfetto_trace(spans))
        events = span_events(payload)
        assert len(events) == len(spans)
        for s in spans:
            args = events[s.span_id]["args"]
            assert (events[s.span_id]["name"], args["parent_id"],
                    args["layer"], args["status"]) == (
                s.name, s.parent_id, s.layer, s.status)
            assert {k: args[k] for k in s.attrs} == s.attrs
        lane = [e for e in payload["traceEvents"]
                if e.get("ph") == "X" and e["pid"] == 2]
        assert len(rt.tracer.events) == len(lane) == 10
        assert profile_spans(spans).n_task_events == 10

    def test_span_attrs_survive_export(self, diamond):
        diamond[1].attrs["category"] = "transfer"
        events = span_events(json.loads(build_perfetto_trace(diamond)))
        assert events["a"]["args"]["category"] == "transfer"
        assert events["a"]["cat"] == "compss"

    def test_status_and_nan_free(self, diamond):
        diamond[3].status = "ERROR"
        events = span_events(json.loads(build_perfetto_trace(diamond)))
        assert events["c"]["args"]["status"] == "ERROR"
        prof = profile_spans(diamond)
        err = [s for s in prof.critical_path if s["name"] == "c#3"]
        assert err and err[0]["status"] == "ERROR"
        dumped = json.dumps(prof.to_json())
        assert not any(math.isnan(v) for v in prof.categories.values())
        assert "NaN" not in dumped
