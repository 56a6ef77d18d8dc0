"""Pluggable scheduling policies.

A policy chooses which ready task a freed worker should run next.  The
runtime holds the ready list; the policy only orders it.  Three policies
are provided, matching the knobs the paper attributes to the COMPSs
runtime ("flexible and efficient scheduling of the tasks"):

* :class:`FIFOPolicy` — submission order;
* :class:`PriorityPolicy` — tasks flagged ``priority=True`` first (the
  PyCOMPSs ``@task(priority=True)`` hint), FIFO within a class;
* :class:`DataLocalityPolicy` — prefer tasks whose predecessors ran on
  the requesting worker, approximating transfer avoidance.
"""

from __future__ import annotations

import time
from typing import Optional, TYPE_CHECKING

from repro.observability.metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.compss.task_graph import TaskNode


class SchedulerPolicy:
    """Interface: ``select(ready, worker_id, graph)`` removes and returns
    the next task from the ready list, or ``None`` if it is empty.  It is
    called with the runtime lock held, so implementations must not block.
    """

    name = "base"


class FIFOPolicy(SchedulerPolicy):
    """Strict submission order."""

    name = "fifo"

    def select(self, ready, worker_id, graph):
        if not ready:
            return None
        idx = min(range(len(ready)), key=lambda i: ready[i].submit_order)
        return ready.pop(idx)


class PriorityPolicy(SchedulerPolicy):
    """Priority-flagged tasks first; FIFO within each class."""

    name = "priority"

    def select(self, ready, worker_id, graph):
        if not ready:
            return None
        idx = min(
            range(len(ready)),
            key=lambda i: (not ready[i].priority, ready[i].submit_order),
        )
        return ready.pop(idx)


class DataLocalityPolicy(SchedulerPolicy):
    """Prefer tasks with the most predecessors executed on this worker.

    The ``priority=True`` hint still dominates — a priority task is
    never starved behind local low-priority work — then locality breaks
    ties, then FIFO among equally-local candidates, so the policy
    degenerates gracefully on dependency-free workloads.
    """

    name = "locality"

    def select(self, ready, worker_id, graph):
        if not ready:
            return None

        def locality(node: "TaskNode") -> int:
            score = 0
            for pred_id in graph.predecessors(node.task_id):
                if graph.task(pred_id).worker_id == worker_id:
                    score += 1
            return score

        idx = max(
            range(len(ready)),
            key=lambda i: (
                ready[i].priority, locality(ready[i]), -ready[i].submit_order
            ),
        )
        return ready.pop(idx)


class InstrumentedPolicy(SchedulerPolicy):
    """Transparent wrapper that counts decisions in the metrics registry.

    The runtime wraps its configured policy in one of these so every
    scheduling decision shows up as
    ``compss_scheduler_selections_total{policy=...}`` without any policy
    implementation knowing about telemetry.  ``select`` runs under the
    runtime lock, so the wrapper only touches the (leaf) registry lock.
    """

    def __init__(self, inner: SchedulerPolicy,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.inner = inner
        self.name = inner.name
        self._registry = registry

    _DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
    #: Ready-queue latency is dominated by wake-up delivery: sub-ms on
    #: the event-driven core, tens of ms when a wake-up is missed — the
    #: buckets resolve both regimes.
    _LATENCY_BUCKETS = (
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
        0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    )

    def select(self, ready, worker_id, graph):
        depth = len(ready)
        chosen = self.inner.select(ready, worker_id, graph)
        if chosen is not None:
            registry = self._registry or get_registry()
            registry.counter(
                "compss_scheduler_selections_total",
                "Scheduling decisions by policy",
                labels=("policy",),
            ).inc(policy=self.name)
            registry.histogram(
                "compss_ready_queue_depth",
                "Ready-queue length observed at each scheduling decision",
                labels=("policy",),
                buckets=self._DEPTH_BUCKETS,
            ).observe(depth, policy=self.name)
            if chosen.ready_at is not None:
                # Latency from the task becoming dispatchable (ready,
                # and past any retry-backoff window) to this decision.
                eligible = max(chosen.ready_at, getattr(chosen, "not_before", 0.0))
                registry.histogram(
                    "compss_ready_queue_latency_seconds",
                    "Time from a task becoming dispatchable to its "
                    "scheduling decision",
                    labels=("policy",),
                    buckets=self._LATENCY_BUCKETS,
                ).observe(
                    max(0.0, time.monotonic() - eligible), policy=self.name
                )
        return chosen


def policy_by_name(name: str) -> SchedulerPolicy:
    """Factory for config files / CLI flags."""
    table = {
        "fifo": FIFOPolicy,
        "priority": PriorityPolicy,
        "locality": DataLocalityPolicy,
    }
    try:
        return table[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler policy {name!r}; expected one of {sorted(table)}"
        ) from None
