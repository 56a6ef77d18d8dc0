"""Exporters: the merged Chrome/Perfetto trace, and a run summary's metrics.

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


def snapshot_from_json(summary: Any) -> MetricsSnapshot:
    """The metrics snapshot a workflow ``run_summary.json`` holds under
    its ``"metrics"`` key; ``ValueError`` for anything else."""
    payload = summary.get("metrics") if isinstance(summary, dict) else None
    if not (isinstance(payload, dict) and payload and all(
            isinstance(v, dict) and "kind" in v and "series" in v
            for v in payload.values())):
        raise ValueError("not a run summary (no metrics snapshot)")
    return MetricsSnapshot(payload)
