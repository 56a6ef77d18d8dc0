"""The run-time task graph.

The COMPSs runtime builds this DAG as the main program invokes tasks; it
is both the scheduling structure (dependency counts gate readiness) and
the provenance artefact the paper shows in Figure 3.  Nodes are task
invocations, edges are data dependencies; every node carries the Python
function name, which is what the paper colour-codes.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple


class TaskState(enum.Enum):
    PENDING = "PENDING"       # submitted, dependencies outstanding
    READY = "READY"           # dependency-free, waiting for a worker
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    RECOVERED = "RECOVERED"   # satisfied from a checkpoint, never executed

    @property
    def terminal(self) -> bool:
        return self in (
            TaskState.COMPLETED, TaskState.FAILED,
            TaskState.CANCELLED, TaskState.RECOVERED,
        )


@dataclass
class TaskNode:
    """One task invocation."""

    task_id: int
    func_name: str
    fn: Any
    args: tuple
    kwargs: dict
    n_returns: int
    futures: tuple            # the Future objects this task resolves
    on_failure: Any           # failures.OnFailure
    max_retries: int
    computing_units: int = 1
    priority: bool = False
    label: Optional[str] = None

    state: TaskState = TaskState.PENDING
    #: Executions *started* (incremented at dispatch): after N failed
    #: runs and a success, ``attempts == N + 1``.
    attempts: int = 0
    #: Failures attributed to infrastructure (``exc.transient``), which
    #: the runtime retries outside the task's own RETRY budget.
    transient_failures: int = 0
    #: Workers this task failed on; the scheduler prefers other workers
    #: on retry (wiped when every worker is on it, and overridable after
    #: a grace period so pinned workers cannot starve the task).
    blacklisted_workers: Set[int] = field(default_factory=set)
    #: Monotonic time before which a retrying task must not dispatch
    #: (exponential backoff).
    not_before: float = 0.0
    exception: Optional[BaseException] = None
    worker_id: Optional[int] = None
    submit_order: int = 0
    #: ``(("pos", i) | ("kw", name), Future)`` slots this task rewrites (INOUT).
    inout_futures: List[Tuple[Tuple[str, Any], Any]] = field(default_factory=list)
    #: Checkpoint signature drawn at submit (None when checkpointing is off).
    ckpt_signature: Optional[str] = None
    #: Estimated size of this task's outputs, filled at completion; used
    #: for inter-worker transfer accounting.
    result_nbytes: int = 0

    #: Telemetry: the submitting span context (so the executing worker
    #: joins the submitter's trace) and the monotonic time the task last
    #: entered the ready queue (for queue-wait accounting).
    trace_ctx: Any = None
    ready_at: Optional[float] = None

    #: Completion signal: set when the task reaches a terminal state.
    done_event: threading.Event = field(default_factory=threading.Event)

    @property
    def display_name(self) -> str:
        return self.label or self.func_name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Task {self.task_id} {self.display_name} {self.state.value}>"


#: A fixed palette assigned to function names round-robin, mirroring the
#: per-function colours of the paper's Figure 3.
_PALETTE = (
    "dodgerblue", "firebrick", "forestgreen", "gold", "darkorchid",
    "darkorange", "deeppink", "teal", "saddlebrown", "slategray",
    "crimson", "olivedrab", "navy", "coral", "indigo", "seagreen",
)


class TaskGraph:
    """Thread-safe DAG of task invocations.

    Nodes are kept in insertion order, each with its successor and
    predecessor lists in edge-insertion order.  :meth:`add_task` links
    only producers already in the graph, so insertion order is a
    topological order and the graph is acyclic by construction.  Task id
    order is not: ids are drawn before the runtime lock is taken, so a
    concurrent submitter may insert a later id first.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, TaskNode] = {}
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        self._lock = threading.Lock()
        self._colors: Dict[str, str] = {}

    # -- construction --------------------------------------------------------

    def add_task(self, node: TaskNode, depends_on: Iterable[int]) -> List[int]:
        """Insert *node* with edges from each producer in *depends_on*.

        Returns the dependency ids that are still outstanding (producer
        not yet terminal), which seeds the runtime's pending-dep counter.
        """
        outstanding: List[int] = []
        task_id = node.task_id
        with self._lock:
            self._nodes[task_id] = node
            self._succ[task_id] = []
            preds = self._pred[task_id] = []
            self._colors.setdefault(
                node.func_name, _PALETTE[len(self._colors) % len(_PALETTE)]
            )
            for dep_id in set(depends_on):
                if dep_id == task_id or dep_id not in self._nodes:
                    continue
                self._succ[dep_id].append(task_id)
                preds.append(dep_id)
                if not self._nodes[dep_id].state.terminal:
                    outstanding.append(dep_id)
        return outstanding

    # -- queries -------------------------------------------------------------

    def task(self, task_id: int) -> TaskNode:
        with self._lock:
            return self._nodes[task_id]

    def tasks(self) -> List[TaskNode]:
        with self._lock:
            return [self._nodes[t] for t in sorted(self._nodes)]

    def successors(self, task_id: int) -> List[int]:
        with self._lock:
            return list(self._succ[task_id])

    def predecessors(self, task_id: int) -> List[int]:
        with self._lock:
            return list(self._pred[task_id])

    def descendants(self, task_id: int) -> Set[int]:
        with self._lock:
            seen: Set[int] = set()
            stack = list(self._succ[task_id])
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(self._succ[node])
            return seen

    def edges(self) -> List[Tuple[int, int]]:
        with self._lock:
            return [(u, v) for u, succ in self._succ.items() for v in succ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def counts_by_function(self) -> Counter:
        """Task multiset keyed by function name (Fig-3 style summary)."""
        return Counter(t.func_name for t in self.tasks())

    def counts_by_state(self) -> Counter:
        return Counter(t.state.value for t in self.tasks())

    def _depths(self) -> Dict[int, int]:
        """Tasks on the longest chain ending at each node, in one pass
        over insertion (topological) order."""
        depth: Dict[int, int] = {}
        for node, preds in self._pred.items():
            depth[node] = 1 + max((depth[p] for p in preds), default=0)
        return depth

    def critical_path_length(self) -> int:
        """Longest chain of tasks (nodes), 0 for an empty graph."""
        with self._lock:
            return max(self._depths().values(), default=0)

    def max_width(self) -> int:
        """Size of the largest antichain level (upper bound on parallelism)."""
        with self._lock:
            return max(Counter(self._depths().values()).values(), default=0)

    # -- export ---------------------------------------------------------------

    def color_of(self, func_name: str) -> str:
        return self._colors.get(func_name, "black")

    def to_dot(self, title: str = "compss_task_graph") -> str:
        """Render the graph as Graphviz DOT, one colour per function name.

        This is the same artefact the COMPSs runtime emits and the paper
        reproduces as Figure 3.
        """
        lines = [f"digraph {title} {{", "  rankdir=TB;", '  node [style=filled, fontcolor=white];']
        for t in self.tasks():
            color = self.color_of(t.func_name)
            lines.append(
                f'  t{t.task_id} [label="{t.task_id}", fillcolor="{color}", '
                f'tooltip="{t.display_name}"];'
            )
        for src, dst in self.edges():
            lines.append(f"  t{src} -> t{dst};")
        legend = sorted(self._colors.items())
        for i, (fname, color) in enumerate(legend):
            lines.append(
                f'  legend{i} [shape=box, label="{fname}", fillcolor="{color}"];'
            )
        lines.append("}")
        return "\n".join(lines)
