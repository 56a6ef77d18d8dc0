"""Exporters: merged Chrome/Perfetto traces and metrics snapshots from JSON.

:func:`build_perfetto_trace` renders the span tree recorded by the
:class:`~repro.observability.spans.TraceCollector` as one trace-event
JSON that loads in ``chrome://tracing`` or https://ui.perfetto.dev:

* pid 1 ("spans") — one lane per executing thread; nested spans render
  as call stacks, with the layer in the event category.
* pid 2 ("compss schedule") — the COMPSs task-attempt spans again, one
  lane per worker: the classic Extrae/Paraver-style task gantt.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.observability.metrics import MetricsSnapshot
from repro.observability.profile import task_attempts
from repro.observability.spans import Span

__all__ = [
    "build_perfetto_trace",
    "snapshot_from_json",
]

_SPAN_PID = 1
_TASKS_PID = 2


def build_perfetto_trace(spans: Sequence[Span], dropped: int = 0) -> str:
    """Render spans, and their COMPSs task attempts again as the pid-2
    schedule, into trace-event JSON.

    Timestamps are shifted so the trace starts at 0.  *dropped* (the
    collector's drop count) is stamped into the trace as metadata so a
    truncated trace says so.
    """
    t0 = min((s.start for s in spans), default=0.0)

    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _SPAN_PID, "name": "process_name",
         "args": {"name": "spans"}},
    ]
    if dropped:
        events.append({
            "ph": "M", "pid": _SPAN_PID, "name": "spans_dropped",
            "args": {"dropped": int(dropped)},
        })

    seen_threads: Dict[int, str] = {}
    for s in spans:
        if s.thread_id not in seen_threads:
            seen_threads[s.thread_id] = s.thread_name or f"thread-{s.thread_id}"
        events.append({
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(max(s.duration, 0.0) * 1e6, 3),
            "pid": _SPAN_PID,
            "tid": s.thread_id,
            "args": {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "layer": s.layer,
                "status": s.status,
                **s.attrs,
            },
        })
    for tid, name in seen_threads.items():
        events.append({"ph": "M", "pid": _SPAN_PID, "tid": tid,
                       "name": "thread_name", "args": {"name": name}})

    attempts = task_attempts(spans)
    if attempts:
        events.append({"ph": "M", "pid": _TASKS_PID, "name": "process_name",
                       "args": {"name": "compss schedule"}})
        for w in sorted({s.attrs["worker_id"] for s in attempts}):
            events.append({"ph": "M", "pid": _TASKS_PID, "tid": w,
                           "name": "thread_name",
                           "args": {"name": f"worker-{w}"}})
        for s in attempts:
            events.append({
                "name": s.name,
                "cat": s.status,
                "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(max(s.duration, 0.0) * 1e6, 3),
                "pid": _TASKS_PID,
                "tid": s.attrs["worker_id"],
                "args": {"task_id": s.attrs["task_id"], "status": s.status},
            })

    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def snapshot_from_json(payload: Any) -> MetricsSnapshot:
    """Rebuild a :class:`MetricsSnapshot` from its JSON form.

    Accepts either a bare metrics snapshot or a workflow
    ``run_summary.json`` (whose ``"metrics"`` key holds one).
    """
    if isinstance(payload, dict) and not _looks_like_snapshot(payload):
        payload = payload.get("metrics")
    if not _looks_like_snapshot(payload):
        raise ValueError("not a metrics snapshot (no kind/series families)")
    return MetricsSnapshot(payload)


def _looks_like_snapshot(payload: Any) -> bool:
    return isinstance(payload, dict) and bool(payload) and all(
        isinstance(v, dict) and "kind" in v and "series" in v
        for v in payload.values()
    )
