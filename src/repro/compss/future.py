"""Futures: placeholders for data produced by asynchronous tasks.

A task invocation returns one :class:`Future` per declared return value.
Futures flow through the main program and into further task calls, where
the runtime turns them into data dependencies.  The concrete value is
only materialised on :func:`~repro.compss.api.compss_wait_on`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Optional


class Future:
    """A single-assignment container resolved by the runtime.

    Attributes
    ----------
    producer_task_id:
        The task that will (first) write this datum.  The runtime updates
        ``last_writer_id`` as INOUT tasks create new versions.
    """

    _ids = itertools.count(1)

    __slots__ = (
        "future_id", "producer_task_id", "last_writer_id",
        "_value", "_exception", "_resolved", "_lock",
    )

    def __init__(self, producer_task_id: Optional[int] = None) -> None:
        self.future_id = next(Future._ids)
        self.producer_task_id = producer_task_id
        self.last_writer_id = producer_task_id
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._resolved = threading.Event()
        self._lock = threading.Lock()

    # -- runtime-side API ----------------------------------------------------

    def _set_value(self, value: Any) -> None:
        with self._lock:
            self._value = value
            self._exception = None
            self._resolved.set()

    def _set_exception(self, exc: BaseException) -> None:
        with self._lock:
            self._exception = exc
            self._resolved.set()

    def _reset_for_new_version(self, writer_task_id: int) -> None:
        """An INOUT task will overwrite this datum: unresolve it."""
        with self._lock:
            self.last_writer_id = writer_task_id
            self._resolved.clear()

    # -- consumer-side API -----------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until resolved; return the value or raise the task error."""
        if not self._resolved.wait(timeout):
            raise TimeoutError(f"future {self.future_id} not resolved in time")
        if self._exception is not None:
            raise self._exception
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "resolved" if self._resolved.is_set() else "pending"
        return f"<Future {self.future_id} {state} producer={self.producer_task_id}>"
