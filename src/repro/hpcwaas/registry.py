"""The workflow registry HPCWaaS publishes deployed workflows into.

"The resulting workflow description, stored in the eFlows4HPC workflow
registry, is accessed via the HPCWaaS interface."  A record binds a
stable workflow id to its deployment and the Python entrypoint the
Execution API launches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.hpcwaas.yorc import Deployment

#: Entry points take (cluster, params) and return a JSON-able result.
Entrypoint = Callable[..., Any]


@dataclass
class WorkflowRecord:
    workflow_id: str
    deployment: Deployment
    entrypoint: Entrypoint
    description: str = ""
    default_params: Dict[str, Any] = field(default_factory=dict)


class WorkflowRegistry:
    """Thread-safe id → workflow record store."""

    def __init__(self) -> None:
        self._records: Dict[str, WorkflowRecord] = {}
        self._lock = threading.Lock()

    def register(self, record: WorkflowRecord) -> None:
        with self._lock:
            if record.workflow_id in self._records:
                raise ValueError(
                    f"workflow {record.workflow_id!r} already registered"
                )
            self._records[record.workflow_id] = record

    def get(self, workflow_id: str) -> WorkflowRecord:
        with self._lock:
            try:
                return self._records[workflow_id]
            except KeyError:
                raise KeyError(f"unknown workflow {workflow_id!r}") from None

    def list(self) -> List[str]:
        with self._lock:
            return sorted(self._records)
