"""Structured event log: the control-plane journal of a workflow run.

Where metrics answer "how much" and spans answer "how long", events
answer "what happened": node deaths, task retries, SLO breaches, year
dispatches — the discrete state changes an operator greps for at 3am.
Every layer (workflow drivers, COMPSs runtime, LSF scheduler, fault
injectors, Ophidia server) emits into one process-wide
:class:`EventLog` instead of ad-hoc prints or ``logging`` calls, so a
single JSONL file tells the whole run's story in order.

Each event carries:

* a wall-clock timestamp and a **monotonic sequence number** (total
  order even when timestamps collide),
* a severity (``DEBUG`` < ``INFO`` < ``WARNING`` < ``ERROR`` <
  ``CRITICAL``),
* the emitting component (``workflow``, ``compss``, ``lsf``,
  ``faults``, ``ophidia``, ``slo``, ...),
* trace correlation — the active span's ``trace_id``/``span_id`` are
  captured automatically, so an event row joins the Perfetto trace and
  the metrics snapshot of the same run,
* the active ``run_id`` (see :func:`run_scope`), linking the event to
  its row in the :mod:`~repro.observability.history` store.

The sink is an append-only JSONL file (:meth:`EventLog.attach_file`,
used by the workflow driver to write ``results/events.jsonl``);
``repro tail`` follows it with severity filtering.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.observability.spans import current_context

__all__ = [
    "Event",
    "EventLog",
    "SEVERITIES",
    "current_run_id",
    "emit_event",
    "get_event_log",
    "parse_event_line",
    "read_events",
    "render_event",
    "run_scope",
    "severity_at_least",
    "tail_events",
]

#: Severity names in ascending order of urgency.
SEVERITIES: Tuple[str, ...] = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_at_least(severity: str, floor: str) -> bool:
    """True when *severity* is at or above *floor* (unknown = INFO)."""
    return _SEVERITY_RANK.get(severity.upper(), 1) >= _SEVERITY_RANK.get(
        floor.upper(), 1
    )


@dataclass(frozen=True)
class Event:
    """One structured event row."""

    seq: int
    ts: float                    # wall clock (time.time())
    severity: str
    component: str
    name: str
    message: str = ""
    trace_id: str = ""
    span_id: str = ""
    run_id: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "seq": self.seq, "ts": round(self.ts, 6),
            "severity": self.severity, "component": self.component,
            "event": self.name,
        }
        if self.message:
            doc["message"] = self.message
        if self.trace_id:
            doc["trace_id"] = self.trace_id
        if self.span_id:
            doc["span_id"] = self.span_id
        if self.run_id:
            doc["run_id"] = self.run_id
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc


def parse_event_line(line: str) -> Optional[Event]:
    """Parse one JSONL line back into an :class:`Event` (None if junk)."""
    line = line.strip()
    if not line:
        return None
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not isinstance(doc, dict) or "event" not in doc:
        return None
    return Event(
        seq=int(doc.get("seq", 0)),
        ts=float(doc.get("ts", 0.0)),
        severity=str(doc.get("severity", "INFO")),
        component=str(doc.get("component", "")),
        name=str(doc.get("event", "")),
        message=str(doc.get("message", "")),
        trace_id=str(doc.get("trace_id", "")),
        span_id=str(doc.get("span_id", "")),
        run_id=str(doc.get("run_id", "")),
        attrs=dict(doc.get("attrs", {}) or {}),
    )


def read_events(path: str) -> List[Event]:
    """All parseable events of a JSONL file, in file order."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            event = parse_event_line(line)
            if event is not None:
                events.append(event)
    return events


def render_event(event: Event) -> str:
    """One human line: time, severity, component, name, message, attrs."""
    stamp = time.strftime("%H:%M:%S", time.localtime(event.ts))
    parts = [f"{stamp} {event.severity:8s} {event.component}/{event.name}"]
    if event.message:
        parts.append(event.message)
    if event.attrs:
        inner = " ".join(f"{k}={v}" for k, v in sorted(event.attrs.items()))
        parts.append(f"[{inner}]")
    return "  ".join(parts)


# ---------------------------------------------------------------------------
# Run-id scope
# ---------------------------------------------------------------------------

# A process runs one workflow at a time (like the registry/collector),
# and events are emitted from long-lived worker threads that do not
# inherit contextvars — so the active run id is a plain guarded global.
_run_id_lock = threading.Lock()
_run_id: str = ""


def current_run_id() -> str:
    """The run id events are being attributed to ('' outside a run)."""
    with _run_id_lock:
        return _run_id


@contextmanager
def run_scope(run_id: str) -> Iterator[str]:
    """Attribute every event emitted in this block to *run_id*."""
    global _run_id
    with _run_id_lock:
        previous, _run_id = _run_id, run_id
    try:
        yield run_id
    finally:
        with _run_id_lock:
            _run_id = previous


# ---------------------------------------------------------------------------
# The log
# ---------------------------------------------------------------------------

class EventLog:
    """Thread-safe event numbering and the JSONL file sink.

    Emission never raises: a broken file sink is disarmed rather than
    failing the workflow that logged.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._lock = threading.Lock()
        self._file: Optional[TextIO] = None
        self._file_path: Optional[str] = None

    # -- sinks --------------------------------------------------------------

    def attach_file(self, path: str) -> str:
        """Append events to *path* as JSONL (closing any previous file)."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        fh = open(path, "a", encoding="utf-8")
        with self._lock:
            old, self._file, self._file_path = self._file, fh, path
        if old is not None:
            try:
                old.close()
            except OSError:  # pragma: no cover - close of a dead handle
                pass
        return path

    def detach_file(self) -> None:
        with self._lock:
            old, self._file, self._file_path = self._file, None, None
        if old is not None:
            try:
                old.close()
            except OSError:  # pragma: no cover
                pass

    @property
    def file_path(self) -> Optional[str]:
        with self._lock:
            return self._file_path

    # -- emission -----------------------------------------------------------

    def emit(
        self,
        severity: str,
        component: str,
        name: str,
        message: str = "",
        **attrs: Any,
    ) -> Event:
        """Record one event; captures span context and run id."""
        severity = severity.upper()
        if severity not in _SEVERITY_RANK:
            severity = "INFO"
        ctx = current_context()
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq, ts=time.time(), severity=severity,
                component=component, name=name, message=message,
                trace_id=ctx.trace_id if ctx else "",
                span_id=ctx.span_id if ctx else "",
                run_id=_run_id,
                attrs=_jsonable(attrs),
            )
            fh = self._file
        if fh is not None:
            try:
                fh.write(json.dumps(event.to_json(), sort_keys=True) + "\n")
                fh.flush()
            except (OSError, ValueError):
                self.detach_file()  # dead sink: stop trying, keep running
        return event


def _jsonable(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars (repr fallback)."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [
                v if isinstance(v, (str, int, float, bool)) or v is None
                else repr(v)
                for v in value
            ]
        else:
            out[key] = repr(value)
    return out


# ---------------------------------------------------------------------------
# Tail
# ---------------------------------------------------------------------------

#: An idle tail's sleep backs off up to this many poll intervals.
_MAX_POLL_BACKOFF = 16


def tail_events(
    path: str,
    min_severity: str = "DEBUG",
    component: Optional[str] = None,
    follow: bool = False,
    poll_interval: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Event]:
    """Yield events from a JSONL file, optionally following appends.

    With *follow*, keeps polling for new lines until *stop* (when
    given) returns True; partial trailing lines are left unconsumed
    until their newline arrives, so a concurrent writer never yields a
    torn event.  While the file is idle the sleep backs off
    geometrically from *poll_interval* up to ``_MAX_POLL_BACKOFF`` times
    that and snaps back to *poll_interval* as soon as new bytes arrive,
    so a quiet tail costs almost nothing but a busy one stays responsive.
    """
    with open(path, "r", encoding="utf-8") as fh:
        buffer = ""
        sleep_for = poll_interval
        while True:
            chunk = fh.read(65536)
            if chunk:
                sleep_for = poll_interval
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    event = parse_event_line(line)
                    if event is None:
                        continue
                    if not severity_at_least(event.severity, min_severity):
                        continue
                    if component is not None and event.component != component:
                        continue
                    yield event
                continue
            if not follow or (stop is not None and stop()):
                return
            time.sleep(sleep_for)
            sleep_for = min(sleep_for * 1.5, poll_interval * _MAX_POLL_BACKOFF)


# ---------------------------------------------------------------------------
# Process-wide default log
# ---------------------------------------------------------------------------

_default_log = EventLog()


def get_event_log() -> EventLog:
    """The process-wide event log all instrumented layers emit into."""
    return _default_log


def emit_event(
    severity: str, component: str, name: str, message: str = "", **attrs: Any
) -> Event:
    """Shorthand: emit into the process-wide log."""
    return get_event_log().emit(severity, component, name, message, **attrs)
