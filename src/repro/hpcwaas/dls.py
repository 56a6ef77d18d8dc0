"""The Data Logistics Service: named data-movement pipelines.

"The management of the required data is done by the Data Logistics
Service which executes the required data pipelines either at deployment
or execution time."  Pipelines are sequences of
:class:`DataMovement` steps — copies between locations on (or into) the
cluster's shared filesystem — registered by name and executed on
demand, with transfer accounting.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cluster.filesystem import SharedFilesystem


class DLSError(RuntimeError):
    """A data pipeline failed."""


@dataclass(frozen=True)
class DataMovement:
    """One step: move bytes to *destination* on the target filesystem.

    ``source`` may be a host path (staging data in from outside the
    cluster, e.g. the baseline climatology archive) or a
    filesystem-relative path when ``source_is_relative``.  A ``producer``
    callable can synthesise the payload instead (used to materialise
    generated inputs).
    """

    destination: str
    source: Optional[str] = None
    source_is_relative: bool = False
    producer: Optional[Callable[[], bytes]] = None

    def __post_init__(self) -> None:
        if (self.source is None) == (self.producer is None):
            raise ValueError("exactly one of source/producer must be given")


class DataLogisticsService:
    """Registry + executor for named data pipelines."""

    def __init__(self) -> None:
        self._pipelines: Dict[str, List[DataMovement]] = {}
        self._lock = threading.Lock()
        self.transfers = 0
        self.bytes_moved = 0

    def register_pipeline(self, name: str, movements: List[DataMovement]) -> None:
        if not movements:
            raise ValueError(f"pipeline {name!r} must have at least one movement")
        with self._lock:
            if name in self._pipelines:
                raise ValueError(f"pipeline {name!r} already registered")
            self._pipelines[name] = list(movements)

    def execute(self, name: str, filesystem: SharedFilesystem) -> int:
        """Run pipeline *name* against *filesystem*; returns bytes moved."""
        with self._lock:
            movements = self._pipelines.get(name)
        if movements is None:
            raise DLSError(f"unknown pipeline {name!r}")
        moved = 0
        for step in movements:
            try:
                if step.producer is not None:
                    payload = step.producer()
                elif step.source_is_relative:
                    payload = filesystem.read_bytes(step.source)
                else:
                    with open(os.fspath(step.source), "rb") as fh:
                        payload = fh.read()
            except OSError as exc:
                raise DLSError(
                    f"pipeline {name!r}: cannot read {step.source!r}: {exc}"
                ) from exc
            filesystem.write_bytes(step.destination, payload)
            moved += len(payload)
            with self._lock:
                self.transfers += 1
                self.bytes_moved += len(payload)
        return moved
