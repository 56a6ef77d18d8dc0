"""Post-hoc workflow profiler: critical path, timelines, what-ifs.

A finished run leaves its span tree behind, recorded by the
:class:`~repro.observability.spans.TraceCollector`: every layer —
COMPSs task attempts, scheduler queueing, transfers, filesystem I/O,
Ophidia sweeps, batch jobs — parents into one ``workflow.run`` root.
This module turns it into the quantities a performance engineer
actually acts on:

* **critical path** — the chain of span segments that bounds the
  makespan.  The walk descends from the root span: within any span's
  window, the child finishing last owns the tail of the window, the
  child finishing last before *that* child started owns the region
  before it, and so on; uncovered gaps are the span's own self-time.
  Segments therefore partition the root window exactly — their summed
  durations equal the measured makespan by construction — and each
  segment is attributed to a cost category (queue / transfer / compute /
  io / orchestration) from its span's attributes.
* **utilization timelines** — per-worker busy/idle/blocked intervals
  derived from the task-attempt spans ("blocked" = idle while ready
  work was waiting in the scheduler queue), plus straggler detection
  and the ESM-simulation / analytics overlap fraction (the paper's C1
  claim).
* **what-if estimates** — the predicted makespan if each of the top
  critical contributors were free, so each perf PR knows where to aim
  first.

The workflow driver profiles its own spans once, at the end of the run;
the result is stored in ``run_summary.json`` and ``runs.db`` and read
back by ``repro explain``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.observability.spans import Span

__all__ = [
    "CATEGORIES",
    "ProfileError",
    "WorkflowProfile",
    "categorize_span",
    "profile_spans",
    "render_profile",
    "task_attempts",
]

#: Cost categories every critical-path segment is attributed to.
CATEGORIES = ("compute", "io", "transfer", "queue", "orchestration")

#: Tasks slower than ``straggler_factor`` x their function's median (and
#: longer than this floor) are flagged; the floor keeps microsecond-scale
#: jitter from producing "stragglers" among trivially short tasks.
_STRAGGLER_FLOOR_S = 0.05

_TASK_SUFFIX = re.compile(r"#\d+$")

#: Critical contributors that get a what-if estimate, and the rows the
#: text report shows per table.
_WHAT_IF_TOP_K = 5
_REPORT_ROWS = 10


class ProfileError(ValueError):
    """The trace is unusable for profiling (empty, or no root span)."""


# ---------------------------------------------------------------------------
# Category attribution
# ---------------------------------------------------------------------------

def categorize_span(span: Span) -> str:
    """Cost category of one span.

    Instrumented layers stamp an explicit ``category`` attribute on the
    spans whose meaning is not implied by their layer (queue waits,
    transfers, batch pends); everything else falls back to a layer/name
    mapping so traces from older runs still profile.
    """
    explicit = span.attrs.get("category")
    if explicit in CATEGORIES:
        return explicit
    name = span.name
    if name.startswith(("queue:", "retry:", "pend:", "requeue:", "cancel:")):
        return "queue"
    if name.startswith("transfer:"):
        return "transfer"
    if span.layer == "filesystem":
        return "io"
    if span.layer == "scheduler":
        return "queue"
    if span.layer in ("compss", "esm", "ml", "ophidia", "cluster"):
        return "compute"
    return "orchestration"


def task_attempts(spans: Iterable[Span]) -> List[Span]:
    """The COMPSs task-attempt spans among *spans*: one per execution,
    each with ``task_id``, ``function`` and ``worker_id`` attributes."""
    return [s for s in spans
            if s.layer == "compss" and s.attrs.get("category") == "compute"]


def _name_key(name: str) -> str:
    """Aggregation key for a span name: the task-id suffix is stripped
    (``tc_inference#42`` → ``tc_inference``) so repeated invocations of
    one function pool together."""
    return _TASK_SUFFIX.sub("", name)


# ---------------------------------------------------------------------------
# Interval helpers (also the COMPSs tracer's overlap metric)
# ---------------------------------------------------------------------------

def _merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _overlap(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _complement(
    merged: List[Tuple[float, float]], lo: float, hi: float
) -> List[Tuple[float, float]]:
    """Gaps of *merged* within ``[lo, hi]``."""
    gaps: List[Tuple[float, float]] = []
    cursor = lo
    for start, end in merged:
        if start > cursor:
            gaps.append((cursor, min(start, hi)))
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return [(s, e) for s, e in gaps if e > s]


def _length(merged: List[Tuple[float, float]]) -> float:
    return sum(e - s for s, e in merged)


# ---------------------------------------------------------------------------
# The profile result
# ---------------------------------------------------------------------------

@dataclass
class WorkflowProfile:
    """Everything :func:`profile_spans` derives from one run's trace.

    All times are seconds relative to the root span's start; summed
    critical-path segment durations equal ``makespan_s`` exactly (the
    walk partitions the root window), which is the conservation property
    the acceptance tests pin down.
    """

    trace_id: str
    root_name: str
    makespan_s: float
    #: Chronological (start, end, name, layer, category, status) hops.
    critical_path: List[Dict[str, Any]] = field(default_factory=list)
    critical_path_s: float = 0.0
    #: Critical seconds by cost category; sums to ``critical_path_s``.
    categories: Dict[str, float] = field(default_factory=dict)
    #: Critical seconds pooled by span-name key (task ids stripped).
    by_name: List[Dict[str, Any]] = field(default_factory=list)
    #: Predicted makespans with the top contributors made free.
    what_if: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-worker busy/idle/blocked accounting over the task window.
    workers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Task attempts far over their function's median duration.
    stragglers: List[Dict[str, Any]] = field(default_factory=list)
    #: ESM-vs-analytics co-execution (the paper's C1 quantity).
    overlap: Dict[str, float] = field(default_factory=dict)
    task_window_s: float = 0.0
    n_spans: int = 0
    n_task_events: int = 0

    def to_json(self, max_segments: int = 200) -> Dict[str, Any]:
        """Plain-data form for ``run_summary.json`` and ``runs.db``.

        The segment list is capped at *max_segments* (longest first,
        re-sorted chronologically); the aggregate fields are always
        computed over the full path.
        """
        segments = self.critical_path
        truncated = len(segments) > max_segments
        if truncated:
            keep = sorted(segments, key=lambda s: -s["duration_s"])[:max_segments]
            segments = sorted(keep, key=lambda s: s["start_s"])
        return {
            "trace_id": self.trace_id,
            "root_name": self.root_name,
            "makespan_s": self.makespan_s,
            "critical_path_s": self.critical_path_s,
            "categories": dict(self.categories),
            "critical_path": [dict(s) for s in segments],
            "critical_path_truncated": truncated,
            "n_critical_segments": len(self.critical_path),
            "by_name": [dict(e) for e in self.by_name],
            "what_if": [dict(e) for e in self.what_if],
            "workers": {k: dict(v) for k, v in self.workers.items()},
            "stragglers": [dict(s) for s in self.stragglers],
            "overlap": dict(self.overlap),
            "task_window_s": self.task_window_s,
            "n_spans": self.n_spans,
            "n_task_events": self.n_task_events,
        }


# ---------------------------------------------------------------------------
# Critical-path walk
# ---------------------------------------------------------------------------

def _walk_critical(
    node: Span,
    lo: float,
    hi: float,
    children: Mapping[str, List[Span]],
    segments: List[Tuple[Span, float, float]],
) -> None:
    """Assign every instant of ``[lo, hi]`` to exactly one span.

    Walking backwards from *hi*: the child of *node* with the latest end
    owns the tail, the remaining window recurses the same way, and gaps
    no child covers are *node*'s self-time.  Children are clipped to the
    window, so overlapping (parallel) children never double-count — the
    one finishing later is, by definition, the critical one.
    """
    kids = sorted(
        (k for k in children.get(node.span_id, ()) if k.end > lo and k.start < hi),
        key=lambda s: s.end,
        reverse=True,
    )
    cursor = hi
    for kid in kids:
        k_hi = min(kid.end, cursor)
        k_lo = max(kid.start, lo)
        if k_hi <= k_lo:
            continue
        if k_hi < cursor:
            segments.append((node, k_hi, cursor))
        _walk_critical(kid, k_lo, k_hi, children, segments)
        cursor = k_lo
        if cursor <= lo:
            break
    if cursor > lo:
        segments.append((node, lo, cursor))


def _pick_root(spans: Sequence[Span]) -> Span:
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None or s.parent_id not in ids]
    if not roots:
        raise ProfileError("trace has no root span")
    return max(roots, key=lambda s: s.duration)


# ---------------------------------------------------------------------------
# The profiler
# ---------------------------------------------------------------------------

def profile_spans(
    spans: Sequence[Span],
    esm_functions: Iterable[str] = ("esm_simulation",),
    analytics_functions: Optional[Iterable[str]] = None,
    straggler_factor: float = 3.0,
) -> WorkflowProfile:
    """Profile one finished run from its span tree.

    The task schedule is read from the COMPSs task-attempt spans (see
    :func:`task_attempts`).  *analytics_functions* defaults to every
    task function that is not an ESM function.
    """
    spans = list(spans)
    if not spans:
        raise ProfileError("no spans to profile")
    root = _pick_root(spans)
    t0 = root.start

    # -- critical path ------------------------------------------------------
    children: Dict[str, List[Span]] = {}
    for s in spans:
        if s.parent_id is not None and s is not root:
            children.setdefault(s.parent_id, []).append(s)
    raw_segments: List[Tuple[Span, float, float]] = []
    _walk_critical(root, root.start, root.end, children, raw_segments)
    raw_segments.sort(key=lambda seg: seg[1])

    segments: List[Dict[str, Any]] = []
    categories: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
    pooled: Dict[str, Dict[str, Any]] = {}
    for span_, lo, hi in raw_segments:
        category = categorize_span(span_)
        duration = hi - lo
        segments.append({
            "name": span_.name,
            "layer": span_.layer,
            "category": category,
            "status": span_.status,
            "start_s": lo - t0,
            "duration_s": duration,
        })
        categories[category] += duration
        key = _name_key(span_.name)
        entry = pooled.setdefault(
            key, {"name": key, "category": category, "seconds": 0.0, "segments": 0}
        )
        entry["seconds"] += duration
        entry["segments"] += 1
    critical_path_s = sum(s["duration_s"] for s in segments)
    makespan_s = root.duration
    by_name = sorted(pooled.values(), key=lambda e: -e["seconds"])

    what_if: List[Dict[str, Any]] = []
    for entry in by_name[:_WHAT_IF_TOP_K]:
        predicted = max(0.0, makespan_s - entry["seconds"])
        what_if.append({
            "name": entry["name"],
            "category": entry["category"],
            "critical_s": entry["seconds"],
            "share": (entry["seconds"] / makespan_s) if makespan_s > 0 else 0.0,
            "predicted_makespan_s": predicted,
            "predicted_speedup": (makespan_s / predicted) if predicted > 0
            else float("inf"),
        })

    # -- task schedule: timelines, stragglers, overlap ----------------------
    attempts = task_attempts(spans)
    executed = [e for e in attempts if e.duration > 0.0]

    workers: Dict[str, Dict[str, Any]] = {}
    stragglers: List[Dict[str, Any]] = []
    overlap: Dict[str, float] = {
        "esm_busy_s": 0.0, "analytics_busy_s": 0.0,
        "overlap_s": 0.0, "fraction": 0.0,
    }
    task_window_s = 0.0
    if executed:
        w0 = min(e.start for e in executed)
        w1 = max(e.end for e in executed)
        task_window_s = w1 - w0
        # Ready work waiting anywhere in the scheduler: an idle worker
        # during these intervals was *blocked* (starved by placement or
        # constraints), not genuinely idle.
        waiting = _merge(
            (s.start, s.end) for s in spans
            if s.layer == "scheduler" or s.name.startswith("queue:")
        )
        by_worker: Dict[int, List[Span]] = {}
        for e in executed:
            by_worker.setdefault(e.attrs["worker_id"], []).append(e)
        for wid in sorted(by_worker):
            evts = by_worker[wid]
            busy = _merge((e.start, e.end) for e in evts)
            busy_s = _length(busy)
            idle_intervals = _complement(busy, w0, w1)
            blocked_s = _overlap(idle_intervals, waiting)
            idle_s = max(0.0, task_window_s - busy_s)
            workers[f"worker-{wid}"] = {
                "busy_s": busy_s,
                "idle_s": idle_s,
                "blocked_s": blocked_s,
                "utilisation": (busy_s / task_window_s)
                if task_window_s > 0 else 0.0,
                "n_tasks": len(evts),
                "first_start_s": min(e.start for e in evts) - t0,
                "last_end_s": max(e.end for e in evts) - t0,
            }

        by_func: Dict[str, List[float]] = {}
        for e in executed:
            by_func.setdefault(e.attrs["function"], []).append(e.duration)
        medians = {
            fn: sorted(ds)[len(ds) // 2] for fn, ds in by_func.items()
        }
        for e in executed:
            median = medians[e.attrs["function"]]
            if (e.duration > straggler_factor * median
                    and e.duration > _STRAGGLER_FLOOR_S):
                stragglers.append({
                    "task": e.name,
                    "worker": e.attrs["worker_id"],
                    "duration_s": e.duration,
                    "median_s": median,
                    "factor": e.duration / median if median > 0 else float("inf"),
                })
        stragglers.sort(key=lambda s: -s["duration_s"])

        esm = frozenset(esm_functions)
        if analytics_functions is None:
            analytics = {e.attrs["function"] for e in executed} - esm
        else:
            analytics = set(analytics_functions)
        esm_iv = _merge(
            (e.start, e.end) for e in executed if e.attrs["function"] in esm)
        ana_iv = _merge(
            (e.start, e.end) for e in executed
            if e.attrs["function"] in analytics
        )
        esm_busy = _length(esm_iv)
        overlap_s = _overlap(esm_iv, ana_iv)
        overlap = {
            "esm_busy_s": esm_busy,
            "analytics_busy_s": _length(ana_iv),
            "overlap_s": overlap_s,
            "fraction": (overlap_s / esm_busy) if esm_busy > 0 else 0.0,
        }

    return WorkflowProfile(
        trace_id=root.trace_id,
        root_name=root.name,
        makespan_s=makespan_s,
        critical_path=segments,
        critical_path_s=critical_path_s,
        categories={k: v for k, v in categories.items() if v > 0.0},
        by_name=by_name,
        what_if=what_if,
        workers=workers,
        stragglers=stragglers,
        overlap=overlap,
        task_window_s=task_window_s,
        n_spans=len(spans),
        n_task_events=len(attempts),
    )


# ---------------------------------------------------------------------------
# Rendering (`repro explain`)
# ---------------------------------------------------------------------------

def render_profile(profile: "WorkflowProfile | Mapping[str, Any]") -> str:
    """Plain-text report of a profile (object or its ``to_json`` form).

    Sections a stored profile lacks are skipped: rows ``runs.db`` kept
    before it stored the full form hold only the attribution summary.
    """
    data = profile.to_json() if isinstance(profile, WorkflowProfile) else profile
    makespan = data["makespan_s"]
    n_segments = data.get("n_critical_segments")
    lines = [
        f"workflow profile — {data.get('root_name', '-')} "
        f"(trace {data.get('trace_id', '-')})",
        f"  makespan          {makespan:9.3f}s",
        f"  critical path     {data['critical_path_s']:9.3f}s"
        + ("" if n_segments is None else f" over {n_segments} segments"),
    ]
    if data.get("task_window_s"):
        lines.append(f"  task window       {data['task_window_s']:9.3f}s "
                     f"({data['n_task_events']} task events)")

    lines.append("")
    lines.append("critical seconds by category")
    for cat, secs in sorted(data.get("categories", {}).items(),
                            key=lambda kv: -kv[1]):
        share = secs / makespan if makespan > 0 else 0.0
        lines.append(f"  {cat:<13} {secs:9.3f}s  {share:6.1%}")

    by_name = data.get("by_name") or []
    if by_name:
        lines.append("")
        lines.append(f"top critical contributors (of {len(by_name)})")
        for entry in by_name[:_REPORT_ROWS]:
            lines.append(
                f"  {entry['name']:<36} {entry['seconds']:9.3f}s  "
                f"[{entry['category']}]  x{entry['segments']}"
            )

    if data.get("what_if"):
        lines.append("")
        lines.append("what-if: makespan with a contributor made free")
        for entry in data["what_if"]:
            lines.append(
                f"  - {entry['name']:<34} {entry['predicted_makespan_s']:9.3f}s "
                f"(x{entry['predicted_speedup']:.2f})"
            )

    if data.get("workers"):
        lines.append("")
        lines.append("workers (busy / idle / blocked over the task window)")
        for name in sorted(data["workers"]):
            w = data["workers"][name]
            lines.append(
                f"  {name:<10} busy {w['busy_s']:8.3f}s  idle {w['idle_s']:8.3f}s"
                f"  blocked {w['blocked_s']:8.3f}s  util {w['utilisation']:6.1%}"
                f"  tasks {w['n_tasks']}"
            )

    if data.get("stragglers"):
        lines.append("")
        lines.append("stragglers (>3x their function's median)")
        for s in data["stragglers"][:_REPORT_ROWS]:
            lines.append(
                f"  {s['task']:<36} {s['duration_s']:8.3f}s on worker "
                f"{s['worker']} (median {s['median_s']:.3f}s, x{s['factor']:.1f})"
            )

    ovl = data.get("overlap") or {}
    if ovl:
        lines.append("")
        lines.append(
            f"ESM/analytics overlap: {ovl.get('overlap_s', 0.0):.3f}s "
            f"({ovl.get('fraction', 0.0):.1%} of {ovl.get('esm_busy_s', 0.0):.3f}s "
            f"ESM busy time)"
        )
    return "\n".join(lines) + "\n"
