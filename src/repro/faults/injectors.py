"""Injector objects that turn a :class:`~repro.faults.plan.FaultPlan`
into raised exceptions at the right hook points.

The hook contracts are intentionally tiny so the production layers stay
ignorant of this package:

* ``SharedFilesystem.fault_injector.before_op(op, path, fs=...)`` —
  called before every data operation; raising aborts it.
* ``repro.compss.runtime`` task hook: ``before_task(func_name, task_id,
  worker_id, attempt, remote_deps=...)`` — called before a task body
  runs; raising fails the attempt through the normal failure path.

Every injected fault increments ``faults_injected_total{kind=...}`` in
the shared metrics registry, which is how chaos runs prove that faults
actually fired.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Optional

from repro.faults.errors import (
    InjectedIOError,
    InjectedTaskError,
    InjectedTransferError,
    NodeCrashedError,
)
from repro.faults.plan import FaultPlan
from repro.observability.events import emit_event
from repro.observability.metrics import get_registry


def _count_fault(kind: str, **attrs) -> None:
    get_registry().counter(
        "faults_injected_total", "Faults injected by the chaos plane",
        labels=("kind",),
    ).inc(kind=kind)
    emit_event(
        "WARNING", "faults", "fault_injected",
        f"injected {kind} fault", kind=kind, **attrs,
    )


class FilesystemFaultInjector:
    """Seeded error injection for :class:`SharedFilesystem` operations.

    Two independent behaviours share the hook:

    * rate-based transient errors (``fs_error_rate`` over ``fs_ops``);
    * *crash mode* — once :meth:`enter_crash_mode` is called, **every**
      operation raises :class:`NodeCrashedError` until
      :meth:`clear_crash_mode`.  This models a process whose node died:
      it cannot reach the filesystem at all, so whatever it was doing
      collapses quickly and the batch layer can requeue it.

    A write-counter callback (:attr:`on_write`) lets the chaos
    controller trigger node crashes deterministically at the N-th write.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._crashed_node: Optional[str] = None
        #: Write-class operations seen; drives ``on_write`` crash triggers.
        self._writes = 0
        #: Called (outside the lock) with the cumulative write count
        #: after each write-class operation; set by the ChaosController.
        self.on_write: Optional[Callable[[int], None]] = None

    # -- crash mode ---------------------------------------------------------

    def enter_crash_mode(self, node_name: str) -> None:
        with self._lock:
            self._crashed_node = node_name

    def clear_crash_mode(self) -> None:
        with self._lock:
            self._crashed_node = None

    @property
    def crashed_node(self) -> Optional[str]:
        with self._lock:
            return self._crashed_node

    # -- the hook -----------------------------------------------------------

    def before_op(self, op: str, path: str, fs: str = "") -> None:
        """Decide the fate of one filesystem operation (may raise)."""
        is_write = op.startswith("write")
        with self._lock:
            if is_write:
                self._writes += 1
            writes = self._writes
            crashed = self._crashed_node
            inject = (
                crashed is None
                and self.plan.fs_error_rate > 0
                and op in self.plan.fs_ops
                and self._rng.random() < self.plan.fs_error_rate
            )
        if is_write and self.on_write is not None:
            self.on_write(writes)
            # The callback may have pulled the node down under us.
            crashed = self.crashed_node
        if crashed is not None:
            _count_fault("node_crash_io", node=crashed, op=op, path=path)
            raise NodeCrashedError(crashed, detail=f"{op} {path!r}")
        if inject:
            _count_fault(f"fs_{op}", op=op, path=path)
            raise InjectedIOError(op, path)


class TaskFaultInjector:
    """Seeded task-exception and transfer-failure injection.

    Installed through
    :func:`repro.compss.runtime.set_task_fault_injector`; the runtime
    calls :meth:`before_task` inside the task's failure scope, so an
    injected raise flows through the regular ``OnFailure`` / transient
    resubmission machinery — which is precisely what a chaos experiment
    wants to exercise.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed + 1)  # distinct stream from FS
        self._lock = threading.Lock()

    def before_task(
        self,
        func_name: str,
        task_id: int,
        worker_id: int,
        attempt: int,
        remote_deps: int = 0,
    ) -> None:
        plan = self.plan
        with self._lock:
            inject_task = (
                plan.task_error_rate > 0
                and (plan.task_targets is None or func_name in plan.task_targets)
                and self._rng.random() < plan.task_error_rate
            )
            inject_transfer = (
                plan.transfer_error_rate > 0
                and remote_deps > 0
                and self._rng.random() < plan.transfer_error_rate
            )
        if inject_transfer:
            _count_fault("transfer", function=func_name, task_id=task_id)
            raise InjectedTransferError(func_name, task_id, remote_deps)
        if inject_task:
            _count_fault("task_exception", function=func_name, task_id=task_id)
            raise InjectedTaskError(func_name, task_id)
