"""Execution tracing: one record per task attempt and derived metrics.

The COMPSs runtime can emit Extrae traces; this stand-in keeps the
compute :class:`~repro.observability.spans.Span` of every task attempt
(wall-clock start/end, the executing worker in its attrs) and computes
the quantities the run summary reports: makespan, worker utilisation,
and producer/consumer overlap (the paper's C1 claim that analytics runs
concurrently with the ESM).
"""

from __future__ import annotations

import threading
from typing import List

from repro.observability.metrics import get_registry
from repro.observability.profile import _merge, _overlap
from repro.observability.spans import Span, get_collector


class Tracer:
    """The task-attempt spans of one runtime; thread-safe.

    ``COMPSsRuntime._execute`` opens each attempt's span with this
    tracer as its collector, traced or not.  :meth:`record` keeps it,
    feeds the shared registry (``compss_tasks_total`` and
    ``compss_task_duration_seconds``) from it, and hands the same object
    to the process-wide collector only when it belongs to a trace — so
    untraced runs add nothing there, and the event list, the trace and
    the metrics snapshot can never disagree.
    """

    def __init__(self) -> None:
        self._events: List[Span] = []
        self._lock = threading.Lock()

    def record(self, span_: Span) -> None:
        with self._lock:
            self._events.append(span_)
        if span_.trace_id:
            get_collector().record(span_)
        function = span_.attrs["function"]
        registry = get_registry()
        registry.counter(
            "compss_tasks_total", "Task attempts by function and final state",
            labels=("function", "state"),
        ).inc(function=function,
              state="COMPLETED" if span_.status == "OK" else "FAILED")
        registry.histogram(
            "compss_task_duration_seconds", "Task attempt wall time",
            labels=("function",),
        ).observe(span_.duration, function=function)

    @property
    def events(self) -> List[Span]:
        with self._lock:
            return list(self._events)

    # -- metrics -----------------------------------------------------------

    def makespan(self) -> float:
        """Wall time from first task start to last task end."""
        events = self.events
        if not events:
            return 0.0
        return max(e.end for e in events) - min(e.start for e in events)

    def worker_utilisation(self, n_workers: int) -> float:
        """Busy time / (workers x makespan); in [0, 1] for serial-attempt data."""
        span = self.makespan()
        if span <= 0 or n_workers <= 0:
            return 0.0
        return sum(e.duration for e in self.events) / (n_workers * span)

    def overlap_group_seconds(self, func_a: str, group: "set[str] | list[str]") -> float:
        """Overlap between *func_a* tasks and the union of *group* tasks.

        Counts each overlapped wall-clock second once even when several
        group tasks run simultaneously — the paper's "analytics run
        concurrently with the ESM simulation" quantity.
        """
        group = set(group)
        events = self.events
        a = [(e.start, e.end) for e in events if e.attrs["function"] == func_a]
        b = [(e.start, e.end) for e in events if e.attrs["function"] in group]
        return _overlap(_merge(a), _merge(b))
