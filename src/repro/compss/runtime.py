"""The COMPSs runtime: dependency analysis, scheduling, execution.

The main program calls ``@task``-decorated functions; each call lands
here as a *submission*.  The runtime inspects arguments against the
declared parameter directions to discover data dependencies, inserts a
node into the :class:`~repro.compss.task_graph.TaskGraph`, and hands
dependency-free tasks to a pool of worker threads.  NumPy kernels
release the GIL, so workers achieve real parallelism on the array
workloads this reproduction runs.

Versioned data
--------------
A future written by an ``INOUT``/``OUT`` parameter acquires a new
version: later readers depend on the writing task, not the original
producer, and synchronisation returns the value after the rewrite.
Plain mutable objects passed ``INOUT`` are tracked in an identity
registry with the same semantics.  File parameters (``FILE_*``) carry
dependencies keyed by path string.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.compss.checkpoint import CheckpointManager
from repro.compss.datacache import WorkerDataCache
from repro.compss.failures import OnFailure, TaskCancelledError, TaskFailedError
from repro.compss.future import Future
from repro.compss.parameter import Direction
from repro.compss.scheduler import FIFOPolicy, InstrumentedPolicy, SchedulerPolicy
from repro.compss.task_graph import TaskGraph, TaskNode, TaskState
from repro.compss.timerwheel import TimerWheel
from repro.compss.tracing import Tracer
from repro.observability.events import emit_event
from repro.observability.metrics import get_registry
from repro.observability.spans import activate, current_context, maybe_span, record_span

#: Worker threads set this so task bodies that call other @task functions
#: degrade to plain synchronous calls (PyCOMPSs does not nest tasks).
_worker_context = threading.local()


def in_worker() -> bool:
    """True when the calling thread is a COMPSs worker executing a task."""
    return getattr(_worker_context, "active", False)


#: Process-wide chaos hook (see :func:`set_task_fault_injector`): used
#: when a runtime's config does not carry its own ``fault_injector``.
_ambient_fault_injector: Optional[Any] = None


def set_task_fault_injector(injector: Optional[Any]) -> Optional[Any]:
    """Install a process-wide task fault injector; returns the previous one.

    The injector's ``before_task(func_name, task_id, worker_id, attempt,
    remote_deps=...)`` is invoked inside each task's failure scope, so a
    raise is handled exactly like the task body raising.  Pass ``None``
    to uninstall.  This exists so chaos tooling can reach runtimes it
    did not construct (e.g. the one a workflow entrypoint creates
    internally).
    """
    global _ambient_fault_injector
    previous = _ambient_fault_injector
    _ambient_fault_injector = injector
    return previous


@dataclass
class RuntimeConfig:
    """Tunables for a runtime instance.

    Parameters
    ----------
    n_workers:
        Worker threads (≈ cluster cores made available to COMPSs).
    scheduler:
        Ready-queue ordering policy.
    checkpoint:
        Optional checkpoint store; enables recovery of completed tasks.
    computing_units:
        Total constraint units; defaults to ``n_workers``.  A task with
        ``@constraint(computing_units=k)`` occupies *k* units while it
        runs, bounding co-execution of heavyweight tasks.
    transient_retries:
        Resubmission budget for *transient* failures — exceptions whose
        ``transient`` attribute is true (the ``repro.faults`` injectors
        and anything user code marks the same way).  These model flaky
        infrastructure, so they are retried for every task regardless
        of its ``OnFailure`` policy, on top of any RETRY budget.
    retry_backoff_base / retry_backoff_cap:
        Exponential-backoff schedule for resubmissions: retry *k*
        dispatches no sooner than ``base * 2**k`` seconds (capped)
        after the failure.  ``base=0`` disables the delay.
    fault_injector:
        Optional chaos hook consulted before each task execution; see
        :func:`set_task_fault_injector` for the process-wide variant.
    worker_cache_bytes:
        Per-worker resident-set budget for task outputs.  With a
        positive budget, a remote predecessor's output is charged as a
        transfer only on its *first* consumption on a given worker;
        later consumers on that worker are in-memory cache hits (the
        paper's "data could be kept in memory" reuse).  ``0`` (the
        default) keeps the historical charge-every-consumption
        accounting.
    """

    n_workers: int = 4
    scheduler: SchedulerPolicy = field(default_factory=FIFOPolicy)
    checkpoint: Optional[CheckpointManager] = None
    computing_units: Optional[int] = None
    # Sized for chaos runs at ~5% per-op error rates: a task doing a
    # dozen I/O calls is hit roughly every other attempt, so a small
    # budget would still fail read-heavy tasks for good fairly often.
    transient_retries: int = 6
    retry_backoff_base: float = 0.02
    retry_backoff_cap: float = 2.0
    # The per-task worker blacklist is advisory: once a retrying task
    # has been dispatchable this long without any non-blacklisted worker
    # picking it up, every worker becomes eligible again.  Hard
    # blacklisting can deadlock — the only "clean" workers may be pinned
    # by long-running tasks that transitively wait on the retrying one.
    blacklist_grace_s: float = 0.5
    fault_injector: Optional[Any] = None
    worker_cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.worker_cache_bytes < 0:
            raise ValueError("worker_cache_bytes must be >= 0")
        if self.computing_units is None:
            self.computing_units = self.n_workers
        if self.computing_units < 1:
            raise ValueError("computing_units must be >= 1")
        if self.transient_retries < 0:
            raise ValueError("transient_retries must be >= 0")
        if self.retry_backoff_base < 0 or self.retry_backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")


#: Slot addressing for INOUT-written future parameters.
_PosSlot = Tuple[str, int]    # ("pos", index)
_KwSlot = Tuple[str, str]     # ("kw", name)


class COMPSsRuntime:
    """One workflow execution context.  See module docstring."""

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        self.config = config or RuntimeConfig()
        self.graph = TaskGraph()
        self.tracer = Tracer()
        #: Monotonic start; provenance times task attempts from here.
        self.started_at = _time.monotonic()
        #: Telemetry wrapper: counts every scheduling decision in the
        #: shared registry without the policy implementations knowing.
        self._policy = InstrumentedPolicy(self.config.scheduler)
        self._task_ids = itertools.count(1)
        self._submit_order = itertools.count(0)

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._ready: List[TaskNode] = []
        self._pending_deps: Dict[int, int] = {}
        self._free_units = int(self.config.computing_units)
        self._file_writers: Dict[str, int] = {}
        self._object_writers: Dict[int, Tuple[Any, int]] = {}
        self._workflow_error: Optional[TaskFailedError] = None
        self._shutdown = False
        self._active_tasks = 0
        #: Deadline wake-ups for retry backoff and blacklist-grace
        #: expiry: the only time-based events the scheduler has, now
        #: delivered as notifications instead of worker-side re-polling.
        self._timers = TimerWheel(name="compss-timers")
        #: Callbacks fired once, outside the lock, when the first
        #: workflow error is recorded (drivers use this to interrupt
        #: blocked stream consumers without polling ``failed``).
        self._failure_listeners: List[Any] = []
        #: Per-worker resident sets behind the data-movement accounting
        #: of :meth:`_commit_transfers` (§3: "data could be kept in
        #: memory and moved to other nodes as the workflow progresses").
        self.data_cache = WorkerDataCache(self.config.worker_cache_bytes)

        self._workers = [
            threading.Thread(
                target=self._worker_loop, args=(wid,),
                name=f"compss-worker-{wid}", daemon=True,
            )
            for wid in range(self.config.n_workers)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    # Submission and dependency analysis
    # ------------------------------------------------------------------

    def submit(
        self,
        fn,
        func_name: str,
        args: tuple,
        kwargs: dict,
        directions: Dict[str, Direction],
        param_names: Sequence[str],
        n_returns: int,
        on_failure: OnFailure,
        max_retries: int,
        computing_units: int = 1,
        priority: bool = False,
        label: Optional[str] = None,
    ):
        """Register one task invocation; returns its futures (or ``None``).

        ``param_names`` maps positional slots to declared parameter names
        so decorator-declared directions apply to positional arguments.
        """
        if computing_units > self.config.computing_units:
            raise ValueError(
                f"task {func_name!r} needs {computing_units} computing units, "
                f"runtime has {self.config.computing_units}"
            )

        task_id = next(self._task_ids)
        futures = tuple(Future(task_id) for _ in range(n_returns))
        node = TaskNode(
            task_id, func_name, fn, args, kwargs, n_returns, futures,
            on_failure, max_retries, computing_units, priority, label,
        )
        # Capture the submitter's span context so the worker that later
        # executes this task joins the same trace (workers are long-lived
        # threads and do not inherit the submitting context).
        node.trace_ctx = current_context()
        get_registry().counter(
            "compss_tasks_submitted_total", "Task submissions by function",
            labels=("function",),
        ).inc(function=func_name)
        # Checkpoint recovery: a completed prior run satisfies this call.
        if self.config.checkpoint is not None:
            signature = self.config.checkpoint.next_signature(func_name)
            stored = self.config.checkpoint.load(signature)
            if stored is not None and len(stored) == n_returns:
                with self._wake:
                    node.state = TaskState.RECOVERED
                    node.submit_order = next(self._submit_order)
                    self.graph.add_task(node, depends_on=())
                    self._register_writes_locked(node, directions, param_names)
                for future, value in zip(futures, stored):
                    future._set_value(value)
                node.done_event.set()
                return self._package_returns(futures, n_returns)
            node.ckpt_signature = signature

        deps: List[int] = []

        def scan(slot, name: Optional[str], value: Any) -> None:
            direction = directions.get(name, Direction.IN) if name else Direction.IN
            if isinstance(value, Future):
                if value.last_writer_id is not None:
                    deps.append(value.last_writer_id)
                if direction.writes:
                    node.inout_futures.append((slot, value))
                return
            if direction.is_file:
                path = str(value)
                if direction.reads and path in self._file_writers:
                    deps.append(self._file_writers[path])
                return
            # Plain objects: identity-registry dependencies.
            entry = self._object_writers.get(id(value))
            if entry is not None and direction.reads:
                deps.append(entry[1])
            # Futures nested one level inside containers carry IN deps,
            # covering the common "list of per-day results" pattern.
            if isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Future) and item.last_writer_id is not None:
                        deps.append(item.last_writer_id)

        with self._wake:
            if self._shutdown:
                raise RuntimeError("runtime is stopped")
            for i, value in enumerate(args):
                name = param_names[i] if i < len(param_names) else None
                scan(("pos", i), name, value)
            for name, value in kwargs.items():
                scan(("kw", name), name, value)

            node.submit_order = next(self._submit_order)
            outstanding = self.graph.add_task(node, deps)
            # New data versions become visible only after deps are wired.
            for _, future in node.inout_futures:
                future._reset_for_new_version(task_id)
            self._register_writes_locked(node, directions, param_names)
            self._pending_deps[task_id] = len(outstanding)
            self._active_tasks += 1
            if not outstanding:
                node.state = TaskState.READY
                node.ready_at = _time.monotonic()
                self._ready.append(node)
                self._wake.notify_all()

        return self._package_returns(futures, n_returns)

    def _register_writes_locked(self, node: TaskNode, directions, param_names) -> None:
        """Update last-writer registries for file and object parameters."""
        def reg(name: Optional[str], value: Any) -> None:
            if name is None:
                return
            direction = directions.get(name, Direction.IN)
            if not direction.writes or isinstance(value, Future):
                return
            if direction.is_file:
                self._file_writers[str(value)] = node.task_id
            else:
                self._object_writers[id(value)] = (value, node.task_id)

        for i, value in enumerate(node.args):
            reg(param_names[i] if i < len(param_names) else None, value)
        for name, value in node.kwargs.items():
            reg(name, value)

    @staticmethod
    def _package_returns(futures: tuple, n_returns: int):
        if n_returns == 0:
            return None
        if n_returns == 1:
            return futures[0]
        return futures

    # ------------------------------------------------------------------
    # Worker execution
    # ------------------------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        _worker_context.active = True
        while True:
            with self._wake:
                node = None
                while node is None:
                    if self._shutdown:
                        return
                    node = self._select_runnable(worker_id)
                    if node is None:
                        # Event-driven: sleep until notified.  Every
                        # transition that can make a task runnable
                        # notifies this condition — submission,
                        # completion, resubmission, cancellation,
                        # shutdown — and the timer wheel covers backoff
                        # and blacklist-grace deadlines.
                        self._wake.wait()
                self._free_units -= node.computing_units
                node.state = TaskState.RUNNING
                node.worker_id = worker_id
                node.attempts += 1
            self._execute(node, worker_id)

    def _select_runnable(self, worker_id: int) -> Optional[TaskNode]:
        """Pick a ready task whose computing units fit; lock is held.

        Retrying tasks are skipped while their backoff window is open.
        A worker avoids tasks that already failed on it (per-worker
        blacklist), but only for ``config.blacklist_grace_s`` past the
        backoff window: the blacklist is a placement preference, not a
        ban — the non-blacklisted workers may all be pinned by
        long-running tasks that transitively depend on the retrying one,
        and honouring the blacklist forever would deadlock the graph.
        """
        now = _time.monotonic()
        grace = self.config.blacklist_grace_s
        fitting = [
            t for t in self._ready
            if t.computing_units <= self._free_units
            and t.not_before <= now
            and (
                worker_id not in t.blacklisted_workers
                or now >= t.not_before + grace
            )
        ]
        if not fitting:
            return None
        chosen = self._policy.select(fitting, worker_id, self.graph)
        if chosen is not None:
            self._ready.remove(chosen)
        return chosen

    def _plan_transfers(
        self, node: TaskNode, worker_id: int
    ) -> Tuple[int, List[Tuple[int, int]], List[Tuple[int, int]]]:
        """Classify this task's dependencies for *worker_id*, mutating nothing.

        Returns ``(local, cache_hits, fetches)`` where *local* counts
        dependencies produced on this worker and the two lists hold
        ``(producer id, nbytes)`` pairs: *cache_hits* are remote outputs
        already resident on the worker, *fetches* must actually move.
        Planning is separated from :meth:`_commit_transfers` so a
        dispatch aborted by the fault injector charges nothing and
        caches nothing.
        """
        local = 0
        remote: List[Tuple[int, int]] = []
        for pred_id in self.graph.predecessors(node.task_id):
            pred = self.graph.task(pred_id)
            if pred.worker_id is None or pred.worker_id == worker_id:
                local += 1
            else:
                remote.append((pred_id, pred.result_nbytes))
        cache_hits, fetches = self.data_cache.split(worker_id, remote)
        return local, cache_hits, fetches

    def _commit_transfers(
        self,
        node: TaskNode,
        worker_id: int,
        plan: Tuple[int, List[Tuple[int, int]], List[Tuple[int, int]]],
    ) -> None:
        """Charge the planned movement and admit fetched outputs.

        A dependency consumed on the worker that produced it is a local
        hit; one already in the worker's resident set is a cache hit;
        otherwise the producer's estimated output size is transferred.
        """
        local, cache_hits, fetches = plan
        moved = sum(nbytes for _, nbytes in fetches)
        saved = sum(nbytes for _, nbytes in cache_hits)
        evicted = self.data_cache.commit(worker_id, cache_hits, fetches)
        registry = get_registry()
        transfers = registry.counter(
            "compss_transfers_total",
            "Dependency placements by kind (local hit, resident-set "
            "cache hit, or inter-worker move)",
            labels=("kind",),
        )
        if local:
            transfers.inc(local, kind="local_hit")
        if cache_hits:
            transfers.inc(len(cache_hits), kind="cache_hit")
        if fetches:
            transfers.inc(len(fetches), kind="remote")
        if moved:
            registry.counter(
                "compss_transfer_bytes_total",
                "Bytes moved between workers for dependencies",
            ).inc(moved)
        if self.data_cache.enabled:
            registry.counter(
                "compss_cache_hits_total",
                "Remote dependencies served from worker resident sets",
            ).inc(len(cache_hits))
            registry.counter(
                "compss_cache_misses_total",
                "Remote dependencies absent from worker resident sets",
            ).inc(len(fetches))
        if saved:
            registry.counter(
                "compss_transfer_bytes_saved_total",
                "Bytes not re-transferred thanks to worker resident sets",
            ).inc(saved)
        if evicted:
            registry.counter(
                "compss_cache_evictions_total",
                "Resident-set entries evicted under the byte budget",
            ).inc(evicted)

    #: Containers deeper than this stop contributing to the estimate; at
    #: 32 levels the residual payload is negligible for any real task
    #: result, and shared references are counted once anyway.
    _ESTIMATE_MAX_DEPTH = 32

    @staticmethod
    def _estimate_nbytes(value: Any, depth: int = 0, _seen: Optional[set] = None) -> int:
        """Rough payload size of a task result (arrays dominate).

        Recurses through nested containers (a per-year list of daily
        maps is a real task payload here) with identity-based cycle
        protection; an object reachable through several aliases is
        charged once, matching its actual memory footprint.
        """
        import sys as _sys

        nbytes = getattr(value, "nbytes", None)
        if nbytes is not None:
            try:
                return int(nbytes)
            except (TypeError, ValueError):
                pass
        if (
            isinstance(value, (list, tuple, dict))
            and depth < COMPSsRuntime._ESTIMATE_MAX_DEPTH
        ):
            if _seen is None:
                _seen = set()
            if id(value) in _seen:
                return 0
            _seen.add(id(value))
            items = value.values() if isinstance(value, dict) else value
            return sum(
                COMPSsRuntime._estimate_nbytes(v, depth + 1, _seen)
                for v in items
            )
        try:
            return _sys.getsizeof(value)
        except TypeError:  # pragma: no cover - exotic objects
            return 0

    def _execute(self, node: TaskNode, worker_id: int) -> None:
        # Queue-wait is only known at dispatch: record it retroactively,
        # parented to the submitter's context so it lands in the trace
        # between submission and execution.
        dispatch = _time.monotonic()
        if node.ready_at is not None:
            wait = max(0.0, dispatch - node.ready_at)
            get_registry().histogram(
                "compss_queue_wait_seconds",
                "Time tasks spend in the ready queue before dispatch",
                labels=("function",),
            ).observe(wait, function=node.func_name)
            record_span(
                f"queue:{node.func_name}#{node.task_id}", layer="scheduler",
                start=node.ready_at, end=dispatch, parent=node.trace_ctx,
                attrs={"task_id": node.task_id, "worker_id": worker_id,
                       "category": "queue", "function": node.func_name},
            )
        # The attempt's compute span is its only record: built traced or
        # not and kept by the tracer, which passes it on to the
        # collector only inside a trace.
        error: Optional[BaseException] = None
        with activate(node.trace_ctx):
            with maybe_span(
                f"{node.func_name}#{node.task_id}", layer="compss",
                attrs={"task_id": node.task_id, "worker_id": worker_id,
                       "attempt": node.attempts, "category": "compute",
                       "function": node.func_name},
                collector=self.tracer,
            ) as handle:
                transfer_plan = self._plan_transfers(node, worker_id)
                try:
                    injector = self.config.fault_injector or _ambient_fault_injector
                    if injector is not None:
                        # Resident-set hits never touch the network, so
                        # only the planned fetches are eligible for
                        # injected transfer failures.
                        injector.before_task(
                            node.func_name, node.task_id, worker_id,
                            node.attempts, remote_deps=len(transfer_plan[2]),
                        )
                    if transfer_plan[2]:
                        # Remote fetches get their own span so the
                        # critical-path profiler can attribute transfer
                        # time separately from the task's compute time.
                        with maybe_span(
                            f"transfer:{node.func_name}#{node.task_id}",
                            layer="compss",
                            attrs={"category": "transfer",
                                   "task_id": node.task_id,
                                   "worker_id": worker_id,
                                   "n_fetches": len(transfer_plan[2])},
                        ):
                            self._commit_transfers(node, worker_id, transfer_plan)
                    else:
                        self._commit_transfers(node, worker_id, transfer_plan)
                    mat_args = tuple(self._materialise(a) for a in node.args)
                    mat_kwargs = {
                        k: self._materialise(v) for k, v in node.kwargs.items()
                    }
                    result = node.fn(*mat_args, **mat_kwargs)
                except BaseException as exc:  # noqa: BLE001 - policy decides
                    handle.set_status("ERROR")
                    handle.set_attr("error", repr(exc))
                    error = exc
            if error is not None:
                self._handle_failure(node, error)
            else:
                self._complete(node, result, mat_args, mat_kwargs)

    @staticmethod
    def _materialise(value: Any) -> Any:
        """Replace futures (top level and one level into containers) by values.

        Uses the future's *current version* value: an INOUT parameter of
        the executing task reads the previous version, which the
        dependency edges guarantee is final.
        """
        if isinstance(value, Future):
            return value._value  # guarded by dependency ordering
        # Rebuild containers only when they hold futures: a plain list
        # argument must keep its identity so INOUT mutations are visible.
        if isinstance(value, (list, tuple)) and any(
            isinstance(v, Future) for v in value
        ):
            items = (v._value if isinstance(v, Future) else v for v in value)
            return list(items) if isinstance(value, list) else tuple(items)
        return value

    def _normalise_results(self, node: TaskNode, result: Any) -> Tuple[Any, ...]:
        n = node.n_returns
        if n == 0:
            return ()
        if n == 1:
            return (result,)
        if not isinstance(result, (tuple, list)) or len(result) != n:
            raise TypeError(
                f"task {node.func_name!r} declared returns={n} but returned "
                f"{type(result).__name__}"
            )
        return tuple(result)

    def _complete(self, node: TaskNode, result: Any, mat_args, mat_kwargs) -> None:
        try:
            values = self._normalise_results(node, result)
        except TypeError as exc:
            self._handle_failure(node, exc)
            return

        node.result_nbytes = sum(self._estimate_nbytes(v) for v in values)
        for future, value in zip(node.futures, values):
            future._set_value(value)
        # INOUT futures resolve to the (mutated-in-place) materialised arg.
        for slot, future in node.inout_futures:
            if future.last_writer_id != node.task_id:
                continue  # a later task already owns the next version
            kind, key = slot
            mutated = mat_args[key] if kind == "pos" else mat_kwargs[key]
            future._set_value(mutated)

        if self.config.checkpoint is not None and node.ckpt_signature is not None:
            try:
                self.config.checkpoint.store(node.ckpt_signature, values)
            except Exception:  # noqa: BLE001 - unpicklable outputs (e.g.
                # live datacube handles) are simply not checkpointable;
                # the task re-executes on restart instead.
                pass

        with self._wake:
            node.state = TaskState.COMPLETED
            self._finish_locked(node)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _retry_reason(self, node: TaskNode, exc: BaseException) -> Optional[str]:
        """Classify a failure as retryable; returns the reason or ``None``.

        Accounting contract (locked in by tests): ``attempts`` counts
        *started executions*, so after the first failure
        ``retries_done = attempts - 1 == 0``.  A RETRY task re-executes
        while ``retries_done < max_retries`` — ``max_retries=N`` means
        exactly N re-executions, N+1 executions total.  Transient
        (infrastructure) failures draw from the separate
        ``config.transient_retries`` budget whatever the policy, so a
        flaky-I/O blip does not consume an application-level verdict.
        """
        if getattr(exc, "transient", False):
            node.transient_failures += 1
            if node.transient_failures <= self.config.transient_retries:
                return "transient"
        # Executions burned by the transient budget must not count
        # against max_retries, or a flaky-I/O blip would silently eat a
        # RETRY attempt.  (Capped at the budget: once it is exhausted,
        # further transient failures do spend RETRY attempts, so a
        # permanently "transient" error still terminates.)
        transient_resubmits = min(
            node.transient_failures, self.config.transient_retries
        )
        retries_done = node.attempts - 1 - transient_resubmits
        if node.on_failure is OnFailure.RETRY and retries_done < node.max_retries:
            return "policy"
        return None

    def _resubmit(self, node: TaskNode, exc: BaseException, reason: str) -> None:
        """Put a failed task back on the ready queue with backoff."""
        retries_done = node.attempts - 1
        backoff = 0.0
        if self.config.retry_backoff_base > 0:
            backoff = min(
                self.config.retry_backoff_cap,
                self.config.retry_backoff_base * (2 ** retries_done),
            )
        now = _time.monotonic()
        failed_worker = node.worker_id
        with self._wake:
            if failed_worker is not None:
                node.blacklisted_workers.add(failed_worker)
                if len(node.blacklisted_workers) >= self.config.n_workers:
                    # Every worker has failed this task: a blanket ban
                    # would starve it, so wipe the slate instead.
                    node.blacklisted_workers.clear()
            node.state = TaskState.READY
            node.ready_at = now
            node.not_before = now + backoff
            # The failed execution's units come back until re-dispatch
            # (matched 1:1 with the decrement in _worker_loop, so the
            # retry path cannot double-free).
            self._free_units += node.computing_units
            self._ready.append(node)
            self._wake.notify_all()
        # Idle workers sleep untimed, so the two time-based windows this
        # resubmission opens are turned into explicit wake-ups: one when
        # the backoff expires, one when the blacklist grace lapses and
        # the previously failing workers become eligible again.
        if backoff > 0:
            self._timers.schedule(node.not_before, self._notify_ready)
        if node.blacklisted_workers and self.config.blacklist_grace_s > 0:
            self._timers.schedule(
                node.not_before + self.config.blacklist_grace_s,
                self._notify_ready,
            )
        get_registry().counter(
            "compss_tasks_retried_total",
            "Task resubmissions by function and cause",
            labels=("function", "reason"),
        ).inc(function=node.func_name, reason=reason)
        record_span(
            f"retry:{node.func_name}#{node.task_id}", layer="compss",
            start=now, end=now + backoff, parent=node.trace_ctx,
            attrs={
                "task_id": node.task_id, "attempt": node.attempts,
                "reason": reason, "backoff_s": round(backoff, 6),
                "failed_worker": failed_worker, "error": repr(exc),
                "category": "queue", "function": node.func_name,
            },
        )
        emit_event(
            "WARNING", "compss", "task_retried",
            f"{node.func_name}#{node.task_id} resubmitted "
            f"(attempt {node.attempts}, {reason}): {exc!r}",
            task_id=node.task_id, function=node.func_name,
            attempt=node.attempts, reason=reason,
            backoff_s=round(backoff, 6), error=repr(exc),
        )

    def _notify_ready(self) -> None:
        """Wake every waiter on the ready-queue condition (timer payload)."""
        with self._wake:
            self._wake.notify_all()

    def _handle_failure(self, node: TaskNode, exc: BaseException) -> None:
        policy = node.on_failure
        reason = self._retry_reason(node, exc)
        if reason is not None:
            self._resubmit(node, exc, reason)
            return

        if policy is OnFailure.IGNORE:
            node.exception = exc
            for future in node.futures:
                future._set_value(None)
            for _, future in node.inout_futures:
                if future.last_writer_id == node.task_id:
                    future._set_value(None)
            with self._wake:
                node.state = TaskState.COMPLETED
                self._finish_locked(node)
            return

        # FAIL / CANCEL_SUCCESSORS / exhausted RETRY.
        node.exception = exc
        emit_event(
            "ERROR", "compss", "task_failed",
            f"{node.func_name}#{node.task_id} failed terminally "
            f"after {node.attempts} attempt(s): {exc!r}",
            task_id=node.task_id, function=node.func_name,
            attempts=node.attempts, policy=policy.name, error=repr(exc),
        )
        error = TaskFailedError(node.task_id, node.func_name, exc)
        for future in node.futures:
            future._set_exception(error)
        for _, future in node.inout_futures:
            if future.last_writer_id == node.task_id:
                future._set_exception(error)

        cancel_ids = self.graph.descendants(node.task_id)
        listeners: List[Any] = []
        with self._wake:
            node.state = TaskState.FAILED
            if policy is not OnFailure.CANCEL_SUCCESSORS:
                if self._workflow_error is None:
                    listeners = self._failure_listeners
                    self._failure_listeners = []
                self._workflow_error = error
            self._finish_locked(node)
            for cid in sorted(cancel_ids):
                self._cancel_locked(cid, cause=error)
        for callback in listeners:
            try:
                callback()
            except Exception:  # noqa: BLE001 - listeners must not mask
                pass          # the workflow error being propagated

    def _cancel_locked(
        self, task_id: int, cause: Optional[BaseException] = None
    ) -> None:
        node = self.graph.task(task_id)
        if node.state.terminal or node.state is TaskState.RUNNING:
            return
        node.state = TaskState.CANCELLED
        # The task never ran, so no execution span exists for it; without
        # an explicit close the trace of a chaos run would simply drop
        # cancelled work.  Record a zero-advance ERROR span covering the
        # time the task spent waiting before cancellation.
        now = _time.monotonic()
        record_span(
            f"cancel:{node.func_name}#{node.task_id}", layer="compss",
            start=node.ready_at if node.ready_at is not None else now,
            end=now, parent=node.trace_ctx, status="ERROR",
            attrs={"task_id": node.task_id, "category": "queue",
                   "function": node.func_name,
                   "cause": repr(cause) if cause is not None else "cancelled"},
        )
        emit_event(
            "WARNING", "compss", "task_cancelled",
            f"{node.func_name}#{node.task_id} cancelled"
            + (f": {cause!r}" if cause is not None else ""),
            task_id=node.task_id, function=node.func_name,
            cause=repr(cause) if cause is not None else None,
        )
        cancel_error = TaskCancelledError(node.task_id, node.func_name, cause)
        for future in node.futures:
            future._set_exception(cancel_error)
        for _, future in node.inout_futures:
            if future.last_writer_id == node.task_id:
                future._set_exception(cancel_error)
        if node in self._ready:
            self._ready.remove(node)
        self._pending_deps.pop(task_id, None)
        self._active_tasks -= 1
        node.done_event.set()
        self._wake.notify_all()

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------

    def _finish_locked(self, node: TaskNode) -> None:
        """Release resources and wake dependents; lock is held."""
        if node.worker_id is not None:
            self._free_units += node.computing_units
        self._pending_deps.pop(node.task_id, None)
        self._active_tasks -= 1
        node.done_event.set()
        if node.state is TaskState.COMPLETED:
            for succ_id in self.graph.successors(node.task_id):
                remaining = self._pending_deps.get(succ_id)
                if remaining is None:
                    continue
                remaining -= 1
                self._pending_deps[succ_id] = remaining
                succ = self.graph.task(succ_id)
                if remaining == 0 and succ.state is TaskState.PENDING:
                    succ.state = TaskState.READY
                    succ.ready_at = _time.monotonic()
                    self._ready.append(succ)
        self._wake.notify_all()

    # ------------------------------------------------------------------
    # Synchronisation API
    # ------------------------------------------------------------------

    def wait_on(self, obj: Any, timeout: Optional[float] = None) -> Any:
        """Synchronise: block for futures (recursively through containers).

        *timeout* bounds the whole synchronisation: one monotonic
        deadline is shared by every future encountered while recursing,
        so waiting on a container of N futures blocks at most *timeout*
        seconds total — not ``2 × N × timeout`` as the historical
        per-wait application of the parameter allowed.
        """
        deadline = None if timeout is None else _time.monotonic() + timeout
        return self._wait_on_deadline(obj, deadline)

    def _wait_on_deadline(self, obj: Any, deadline: Optional[float]) -> Any:
        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - _time.monotonic())

        if isinstance(obj, Future):
            writer = obj.last_writer_id
            if writer is not None:
                if not self.graph.task(writer).done_event.wait(remaining()):
                    raise TimeoutError(f"task {writer} did not finish in time")
            return obj.result(remaining())
        if isinstance(obj, list):
            return [self._wait_on_deadline(v, deadline) for v in obj]
        if isinstance(obj, tuple):
            return tuple(self._wait_on_deadline(v, deadline) for v in obj)
        if isinstance(obj, dict):
            return {k: self._wait_on_deadline(v, deadline) for k, v in obj.items()}
        return obj

    def barrier(self, timeout: Optional[float] = None, raise_on_error: bool = True) -> None:
        """Block until every submitted task is terminal.

        With *raise_on_error* (default), re-raises the first workflow
        failure recorded by a task with the ``FAIL``/``RETRY`` policy.
        """
        deadline = None if timeout is None else _time.monotonic() + timeout
        with self._wake:
            while self._active_tasks > 0:
                remaining = None if deadline is None else deadline - _time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"barrier timed out with {self._active_tasks} live tasks"
                    )
                # Without a caller deadline this wait is untimed: every
                # task-terminal transition notifies the condition, so
                # there is nothing to re-check until one arrives.
                self._wake.wait(timeout=remaining)
        if raise_on_error and self._workflow_error is not None:
            raise self._workflow_error

    @property
    def failed(self) -> bool:
        with self._lock:
            return self._workflow_error is not None

    def add_failure_listener(self, callback) -> None:
        """Register *callback* to fire once when the workflow first fails.

        Fires immediately (on the calling thread) when the runtime has
        already failed; otherwise on the worker thread that records the
        first terminal error, outside the runtime lock.  This is the
        event-driven replacement for polling :attr:`failed`: stream
        consumers register an interrupt (e.g. ``collector.close``) so a
        blocked wait wakes the moment the workflow dies.
        """
        fire_now = False
        with self._lock:
            if self._workflow_error is not None:
                fire_now = True
            else:
                self._failure_listeners.append(callback)
        if fire_now:
            callback()

    def status(self) -> Dict[str, Any]:
        """Live monitoring snapshot (the WMS 'monitoring' feature of §2).

        Safe to call from any thread while the workflow runs.
        """
        with self._lock:
            ready = len(self._ready)
            active = self._active_tasks
            free_units = self._free_units
        by_state = dict(self.graph.counts_by_state())
        running = [
            f"{t.func_name}#{t.task_id}" for t in self.graph.tasks()
            if t.state is TaskState.RUNNING
        ]
        return {
            "submitted": len(self.graph),
            "active": active,
            "ready": ready,
            "running": running,
            "free_computing_units": free_units,
            "by_state": by_state,
            "failed": self._workflow_error is not None,
        }

    def stop(self, wait: bool = True) -> None:
        """Shut the runtime down; with *wait*, drain submitted tasks first."""
        if wait:
            try:
                self.barrier(raise_on_error=False)
            except TimeoutError:  # pragma: no cover - defensive
                pass
        with self._wake:
            if not wait:
                # A hard stop abandons queued work: close each not-yet-
                # running task with an ERROR span so the exported trace
                # stays well-formed instead of silently losing them.
                now = _time.monotonic()
                for node in self.graph.tasks():
                    if node.state in (TaskState.PENDING, TaskState.READY):
                        record_span(
                            f"abandon:{node.func_name}#{node.task_id}",
                            layer="compss",
                            start=node.ready_at
                            if node.ready_at is not None else now,
                            end=now, parent=node.trace_ctx, status="ERROR",
                            attrs={"task_id": node.task_id,
                                   "category": "queue",
                                   "function": node.func_name,
                                   "cause": "runtime stopped"},
                        )
            self._shutdown = True
            self._wake.notify_all()
        for w in self._workers:
            w.join(timeout=5)
        self._timers.stop()
        with self._lock:
            self._object_writers.clear()
