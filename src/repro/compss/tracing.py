"""Execution tracing: per-task timing events and derived metrics.

The COMPSs runtime can emit Extrae traces; this stand-in records one
event per task attempt with wall-clock start/end and the executing
worker, and computes the quantities the run summary reports: makespan,
worker utilisation, and producer/consumer overlap (the paper's C1 claim
that analytics runs concurrently with the ESM).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.observability.metrics import MetricsRegistry, get_registry


@dataclass(frozen=True)
class TaskEvent:
    """One task attempt on one worker."""

    task_id: int
    func_name: str
    worker_id: int
    start: float
    end: float
    state: str          # COMPLETED / FAILED / CANCELLED

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Accumulates :class:`TaskEvent` records; thread-safe.

    The tracer is the single bookkeeping point for task attempts: every
    :meth:`record` also feeds the shared observability registry
    (``compss_tasks_total`` and ``compss_task_duration_seconds``), so
    the event list and the metrics snapshot can never disagree.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._events: List[TaskEvent] = []
        self._lock = threading.Lock()
        self.epoch = time.monotonic()
        self._registry = registry

    def now(self) -> float:
        """Seconds since the tracer was created."""
        return time.monotonic() - self.epoch

    def record(self, event: TaskEvent) -> None:
        with self._lock:
            self._events.append(event)
        registry = self._registry or get_registry()
        registry.counter(
            "compss_tasks_total", "Task attempts by function and final state",
            labels=("function", "state"),
        ).inc(function=event.func_name, state=event.state)
        registry.histogram(
            "compss_task_duration_seconds", "Task attempt wall time",
            labels=("function",),
        ).observe(event.duration, function=event.func_name)

    @property
    def events(self) -> List[TaskEvent]:
        with self._lock:
            return list(self._events)

    # -- metrics -----------------------------------------------------------

    def makespan(self) -> float:
        """Wall time from first task start to last task end."""
        events = self.events
        if not events:
            return 0.0
        return max(e.end for e in events) - min(e.start for e in events)

    def total_busy_time(self) -> float:
        return sum(e.duration for e in self.events)

    def worker_utilisation(self, n_workers: int) -> float:
        """Busy time / (workers x makespan); in [0, 1] for serial-attempt data."""
        span = self.makespan()
        if span <= 0 or n_workers <= 0:
            return 0.0
        return self.total_busy_time() / (n_workers * span)

    def overlap_group_seconds(self, func_a: str, group: "set[str] | list[str]") -> float:
        """Overlap between *func_a* tasks and the union of *group* tasks.

        Counts each overlapped wall-clock second once even when several
        group tasks run simultaneously — the paper's "analytics run
        concurrently with the ESM simulation" quantity.
        """
        group = set(group)
        a = [(e.start, e.end) for e in self.events if e.func_name == func_a]
        b = [(e.start, e.end) for e in self.events if e.func_name in group]
        return _interval_overlap(_merge_intervals(a), _merge_intervals(b))


def _merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping intervals, sorted."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _interval_overlap(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Total overlap length between two sorted disjoint interval lists."""
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
