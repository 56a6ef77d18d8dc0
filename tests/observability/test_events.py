"""Structured event log unit tests: emission, sinks, scope, tail."""

import json
import threading

import pytest

from repro.observability.events import (
    Event,
    EventLog,
    current_run_id,
    parse_event_line,
    read_events,
    render_event,
    run_scope,
    severity_at_least,
    tail_events,
)
from repro.observability.spans import TraceCollector, span


class TestSeverity:
    def test_ordering(self):
        assert severity_at_least("ERROR", "WARNING")
        assert severity_at_least("WARNING", "WARNING")
        assert not severity_at_least("INFO", "WARNING")

    def test_unknown_severity_treated_as_info(self):
        assert severity_at_least("BOGUS", "INFO")
        assert not severity_at_least("BOGUS", "WARNING")

    def test_case_insensitive(self):
        assert severity_at_least("error", "Warning")


class TestEmission:
    def test_emit_assigns_monotonic_sequence(self):
        log = EventLog()
        events = [log.emit("INFO", "test", f"e{i}") for i in range(5)]
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]

    def test_unknown_severity_coerced_to_info(self):
        log = EventLog()
        assert log.emit("NONSENSE", "test", "x").severity == "INFO"

    def test_attrs_are_json_safe(self):
        log = EventLog()
        event = log.emit("INFO", "test", "x", obj=object(), items=[1, object()])
        json.dumps(event.to_json())  # must not raise
        assert isinstance(event.attrs["obj"], str)
        assert event.attrs["items"][0] == 1

    def test_span_context_captured(self):
        log = EventLog()
        collector = TraceCollector()
        with span("root", layer="workflow", collector=collector) as handle:
            event = log.emit("INFO", "test", "inside")
        assert event.trace_id == handle.context.trace_id
        assert event.span_id == handle.context.span_id
        outside = log.emit("INFO", "test", "outside")
        assert outside.trace_id == ""

    def test_run_scope_attribution(self):
        log = EventLog()
        assert current_run_id() == ""
        with run_scope("abc123"):
            assert current_run_id() == "abc123"
            inside = log.emit("INFO", "test", "x")
        assert inside.run_id == "abc123"
        assert current_run_id() == ""
        assert log.emit("INFO", "test", "y").run_id == ""

    def test_run_scope_restores_previous(self):
        with run_scope("outer"):
            with run_scope("inner"):
                assert current_run_id() == "inner"
            assert current_run_id() == "outer"


class TestSinks:
    def test_file_sink_writes_jsonl(self, tmp_path):
        log = EventLog()
        path = str(tmp_path / "sub" / "events.jsonl")
        log.attach_file(path)  # creates the parent directory
        log.emit("INFO", "test", "one", "hello", n=1)
        log.emit("ERROR", "test", "two")
        log.detach_file()
        events = read_events(path)
        assert [e.name for e in events] == ["one", "two"]
        assert events[0].message == "hello"
        assert events[0].attrs == {"n": 1}

    def test_attach_is_append(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.attach_file(path)
        log.emit("INFO", "test", "first")
        log.detach_file()
        log.attach_file(path)
        log.emit("INFO", "test", "second")
        log.detach_file()
        assert [e.name for e in read_events(path)] == ["first", "second"]

    def test_dead_file_sink_is_disarmed_not_fatal(self, tmp_path):
        log = EventLog()
        path = str(tmp_path / "events.jsonl")
        log.attach_file(path)
        log._file.close()  # simulate the handle dying under the log
        event = log.emit("INFO", "test", "after-death")  # must not raise
        assert event.name == "after-death"
        assert log.file_path is None  # sink disarmed

    def test_concurrent_emitters_unique_seq(self, tmp_path):
        log = EventLog()
        log.attach_file(str(tmp_path / "events.jsonl"))

        def emit_many(worker):
            for i in range(50):
                log.emit("INFO", "test", "e", worker=worker, i=i)

        threads = [threading.Thread(target=emit_many, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.detach_file()
        on_disk = read_events(str(tmp_path / "events.jsonl"))
        assert len(on_disk) == 200  # no torn/interleaved lines
        assert len({e.seq for e in on_disk}) == 200


class TestParsing:
    def test_roundtrip(self):
        event = Event(seq=3, ts=123.4, severity="WARNING", component="lsf",
                      name="node_crashed", message="boom",
                      trace_id="t", span_id="s", run_id="r",
                      attrs={"node": "local1"})
        parsed = parse_event_line(json.dumps(event.to_json()))
        assert parsed == event

    def test_junk_lines_skipped(self):
        assert parse_event_line("") is None
        assert parse_event_line("not json") is None
        assert parse_event_line('{"no": "event key"}') is None

    def test_render_contains_the_essentials(self):
        event = Event(seq=1, ts=0.0, severity="ERROR", component="lsf",
                      name="node_crashed", message="node died",
                      attrs={"node": "local1"})
        line = render_event(event)
        assert "ERROR" in line
        assert "lsf/node_crashed" in line
        assert "node died" in line
        assert "node=local1" in line


class TestTail:
    def test_tail_reads_existing_file(self, tmp_path):
        log = EventLog()
        path = str(tmp_path / "events.jsonl")
        log.attach_file(path)
        log.emit("DEBUG", "ophidia", "op")
        log.emit("ERROR", "lsf", "crash")
        log.detach_file()
        names = [e.name for e in tail_events(path)]
        assert names == ["op", "crash"]
        errors = [e.name for e in tail_events(path, min_severity="ERROR")]
        assert errors == ["crash"]
        lsf = [e.name for e in tail_events(path, component="lsf")]
        assert lsf == ["crash"]

    def test_tail_never_yields_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        full = json.dumps({"seq": 1, "ts": 0, "severity": "INFO",
                           "component": "t", "event": "whole"})
        partial = '{"seq": 2, "ts": 0, "severity": "INFO"'
        path.write_text(full + "\n" + partial)  # writer mid-line
        names = [e.name for e in tail_events(str(path))]
        assert names == ["whole"]

    def test_tail_follow_picks_up_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        seen = []
        done = threading.Event()

        def consume():
            for event in tail_events(str(path), follow=True,
                                     poll_interval=0.01,
                                     stop=lambda: done.is_set()):
                seen.append(event.name)
                if event.name == "last":
                    done.set()

        thread = threading.Thread(target=consume)
        thread.start()
        log = EventLog()
        log.attach_file(str(path))
        log.emit("INFO", "test", "first")
        log.emit("INFO", "test", "last")
        log.detach_file()
        thread.join(timeout=5.0)
        done.set()
        assert not thread.is_alive()
        assert seen == ["first", "last"]
