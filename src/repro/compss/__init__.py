"""A PyCOMPSs-compatible task-based programming model.

This package re-implements the programming model the paper builds its
workflow on (Tejedor et al. 2017; Badia et al. 2015): Python functions
annotated with :func:`@task <repro.compss.api.task>` become asynchronous
workflow tasks at call time.  The runtime

* builds the task graph dynamically, detecting data dependencies from the
  declared parameter directionality (``IN`` / ``OUT`` / ``INOUT`` for
  objects, ``FILE_IN`` / ``FILE_OUT`` / ``FILE_INOUT`` for paths),
* schedules dependency-free tasks onto a pool of workers (pluggable
  policy: FIFO, priority-aware, data-locality),
* resolves futures returned by tasks and synchronises them on demand via
  :func:`compss_wait_on`,
* honours per-task resource constraints (:func:`@constraint
  <repro.compss.api.constraint>`),
* implements the task-level fault-tolerance policies of Ejarque et al.
  2020 (``FAIL`` / ``RETRY`` / ``IGNORE`` / ``CANCEL_SUCCESSORS``) and the
  task-level checkpointing of Vergés et al. 2023,
* supports streaming (directory-watching file streams) so consumers can
  overlap with a producing simulation,
* records a trace of task executions and can export the run-time task
  graph in DOT form — the artefact shown in the paper's Figure 3.

Tasks called while no runtime is active execute synchronously, mirroring
PyCOMPSs' sequential (non-``runcompss``) behaviour, which keeps task
functions unit-testable in isolation.
"""

from repro.compss.parameter import IN, OUT, INOUT, FILE_IN, FILE_OUT, FILE_INOUT, Direction
from repro.compss.future import Future
from repro.compss.api import (
    task,
    constraint,
    compss_wait_on,
    compss_barrier,
    compss_start,
    compss_stop,
    get_runtime,
    COMPSs,
)
from repro.compss.runtime import COMPSsRuntime, RuntimeConfig
from repro.compss.task_graph import TaskGraph, TaskNode, TaskState
from repro.compss.scheduler import (
    SchedulerPolicy,
    FIFOPolicy,
    PriorityPolicy,
    DataLocalityPolicy,
)
from repro.compss.failures import OnFailure, TaskFailedError, TaskCancelledError
from repro.compss.checkpoint import CheckpointManager
from repro.compss.streams import FileDistroStream, StreamClosed
from repro.compss.tracing import Tracer

__all__ = [
    "IN", "OUT", "INOUT", "FILE_IN", "FILE_OUT", "FILE_INOUT", "Direction",
    "Future",
    "task", "constraint", "compss_wait_on", "compss_barrier",
    "compss_start", "compss_stop", "get_runtime", "COMPSs",
    "COMPSsRuntime", "RuntimeConfig",
    "TaskGraph", "TaskNode", "TaskState",
    "SchedulerPolicy", "FIFOPolicy", "PriorityPolicy", "DataLocalityPolicy",
    "OnFailure", "TaskFailedError", "TaskCancelledError",
    "CheckpointManager",
    "FileDistroStream", "StreamClosed",
    "Tracer",
]
