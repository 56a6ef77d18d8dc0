"""The Ophidia server: fragment-parallel operator execution.

In the real framework the Ophidia Server front-end dispatches operators
to a runtime that executes them across the I/O servers.  Here the server
owns the :class:`~repro.ophidia.storage.StoragePool` and a thread pool
(``n_cores``) on which per-fragment work runs concurrently; NumPy
kernels release the GIL so the parallelism is real.

The server optionally wraps a
:class:`~repro.cluster.filesystem.SharedFilesystem` for NetCDF import
and export, so all file traffic is visible in the cluster's I/O
counters (this is how experiment C2 measures read savings).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.cluster.filesystem import SharedFilesystem
from repro.netcdf import Dataset, Variable, read_variable, write_dataset
from repro.observability.events import emit_event
from repro.observability.metrics import get_registry
from repro.observability.spans import activate, current_context, maybe_span
from repro.ophidia.kernels import kernel_stage_names
from repro.ophidia.storage import StoragePool
from repro.parallel import FragmentKernel, ProcessPoolBackend, payload_picklable


class OphidiaServer:
    """Server-side runtime: storage pool + operator executor + provenance log.

    Parameters
    ----------
    n_io_servers:
        In-memory fragment stores (scaling these is Ophidia's mechanism
        for absorbing bigger analytics workloads).
    n_cores:
        Concurrent per-fragment operator executions.
    filesystem:
        Shared filesystem used by ``importnc``/``exportnc`` operators.
        Paths are then relative to the filesystem root; absolute host
        paths are used when no filesystem is attached.
    lazy:
        Elementwise operators always build a deferred per-fragment
        expression plan.  When True (the default), chains of them fuse
        into a single pooled fragment pass at the next forced-evaluation
        point (reduction, merge, export, gather or explicit
        :meth:`Cube.materialize`).  ``lazy=False`` forces every
        elementwise operator as it is called (a materialisation counted
        with ``reason="eager"``), so each one reads, computes and writes
        its fragments in its own sweep: the per-operator reference of
        claim C8.
    backend:
        ``"thread"`` (default) runs fragment sweeps on the in-process
        thread pool; ``"process"`` adds a spawn-based
        :class:`~repro.parallel.ProcessPoolBackend` and routes picklable
        fragment kernels through it, moving arrays via shared memory.
        Kernels that do not pickle (e.g. lambda transforms) fall back to
        the thread pool and count in
        ``ophidia_backend_fallbacks_total``.
    memory_budget_bytes / spill_dir:
        Tiered-residency knobs, passed to the
        :class:`~repro.ophidia.storage.StoragePool`: with a nonzero
        budget on the resident bytes of all I/O servers together,
        least-recently-used fragments spill to *spill_dir* as raw,
        CRC32-checked chunks and reload transparently on access.
        Shutdown deletes the spill files.
    chunk_bytes:
        Target fragment chunk size (per-chunk statistics drive plan
        pruning).
    prune:
        Gate for statistics-based chunk/fragment pruning in the lazy
        planner (:mod:`repro.ophidia.pruning`).  On by default; turning
        it off forces dense sweeps, which benchmarks use as the
        untiered baseline.
    """

    def __init__(
        self,
        n_io_servers: int = 2,
        n_cores: int = 2,
        filesystem: Optional[SharedFilesystem] = None,
        lazy: bool = True,
        backend: str = "thread",
        memory_budget_bytes: int = 0,
        spill_dir: Optional[str] = None,
        chunk_bytes: Optional[int] = None,
        prune: bool = True,
    ) -> None:
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        pool_kwargs = dict(
            memory_budget_bytes=memory_budget_bytes,
            spill_dir=spill_dir,
        )
        if chunk_bytes is not None:
            pool_kwargs["chunk_bytes"] = chunk_bytes
        self.pool = StoragePool(n_io_servers, **pool_kwargs)
        self.n_cores = n_cores
        self.filesystem = filesystem
        self.lazy = bool(lazy)
        self.backend = backend
        self.prune = bool(prune)
        self._proc: Optional[ProcessPoolBackend] = (
            ProcessPoolBackend(n_cores) if backend == "process" else None
        )
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=n_cores, thread_name_prefix="ophidia-core"
        )
        self._log: List[Dict[str, Any]] = []
        self._log_lock = threading.Lock()
        #: Serialises plan resolution/materialisation across consumer
        #: threads (re-entrant: resolving one chain may recursively
        #: resolve an intercube operand's chain).
        self._plan_lock = threading.RLock()

    # -- provenance -----------------------------------------------------------

    def log_operator(self, operator: str, **params: Any) -> None:
        with self._log_lock:
            self._log.append({"operator": operator, **params})
        get_registry().counter(
            "ophidia_operators_total", "Ophidia operator invocations",
            labels=("operator",),
        ).inc(operator=operator)
        # Provenance doubles as the server's structured log: every
        # operator invocation lands in the run-wide event stream, where
        # the active run_id/trace_id correlate it with the driver.
        emit_event(
            "DEBUG", "ophidia", "operator_executed",
            f"{operator} executed", operator=operator, **params,
        )

    @contextmanager
    def operation(self, operator: str, **attrs: Any) -> Iterator[None]:
        """Span + duration accounting around one operator execution.

        Wraps the fragment-parallel phase of an operator: the span (when
        a trace is active) nests the filesystem/storage work done inside,
        and the duration lands in
        ``ophidia_operator_duration_seconds{operator=...}``.  Provenance
        logging stays with :meth:`log_operator`.
        """
        start = time.monotonic()
        with maybe_span(f"ophidia:{operator}", layer="ophidia",
                        attrs={"operator": operator, **attrs}):
            try:
                yield
            finally:
                get_registry().histogram(
                    "ophidia_operator_duration_seconds",
                    "Operator wall time by operator",
                    labels=("operator",),
                ).observe(time.monotonic() - start, operator=operator)

    @property
    def operator_log(self) -> List[Dict[str, Any]]:
        with self._log_lock:
            return list(self._log)

    # -- fragment-parallel execution ---------------------------------------------

    def map_fragments(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply *fn* to every item concurrently; preserves order.

        The first raised exception propagates after all submissions are
        resolved, so fragments never leak on partial failure paths.

        The submitter's span context is re-entered on the executor
        threads, so per-fragment I/O spans join the caller's trace.
        """
        ctx = current_context()

        def run(item: Any) -> Any:
            with activate(ctx):
                return fn(item)

        futures = [self._executor.submit(run, item) for item in items]
        results: List[Any] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    #: Histogram buckets for operators-per-sweep; fused analytics chains
    #: in the wave pipeline run 4-6 operators deep, deep ML featurisation
    #: plans can exceed a dozen.
    FUSION_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

    @contextmanager
    def _sweep_accounting(
        self, ops: List[str], backend: str, attrs: Dict[str, Any]
    ) -> Iterator[None]:
        """Uniform pass accounting shared by both sweep entry points.

        A sweep over ``len(ops)`` operators counts one pass run and
        ``len(ops) - 1`` passes avoided (per-operator execution would
        have swept once per operator).  Fused sweeps additionally log an
        ``oph_executeplan`` provenance entry naming the fused operators,
        and the span carries ``fused_ops``/``fusion_length``/``backend``
        attributes so plans are visible in the exported trace.
        """
        registry = get_registry()
        registry.counter(
            "ophidia_fragment_passes_run_total",
            "Fragment-parallel sweeps executed",
        ).inc()
        registry.counter(
            "ophidia_backend_sweeps_total",
            "Fragment sweeps by execution backend",
            labels=("backend",),
        ).inc(backend=backend)
        if len(ops) > 1:
            registry.counter(
                "ophidia_fragment_passes_avoided_total",
                "Per-operator sweeps avoided by fusing operator chains",
            ).inc(len(ops) - 1)
            self.log_operator("oph_executeplan", fused=ops, length=len(ops), **attrs)
        registry.histogram(
            "ophidia_plan_fusion_length",
            "Operators executed per fragment sweep",
            buckets=self.FUSION_BUCKETS,
        ).observe(len(ops))
        name = "oph_executeplan" if len(ops) > 1 else (ops[0] if ops else "oph_sweep")
        start = time.monotonic()
        try:
            with self.operation(
                name, fused_ops=",".join(ops), fusion_length=len(ops),
                backend=backend, **attrs,
            ):
                yield
        finally:
            registry.histogram(
                "ophidia_sweep_duration_seconds",
                "Wall time of fragment-parallel sweeps (fused or single-op)",
            ).observe(time.monotonic() - start)

    def sweep(
        self,
        ops: Sequence[str],
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        **attrs: Any,
    ) -> List[Any]:
        """One fragment-parallel pass executing *ops* on the thread pool.

        Every thread-backed operator execution — a single operator or a
        fused chain — goes through here; picklable kernels on a
        process-backed server go through :meth:`sweep_kernel` instead,
        with identical accounting.
        """
        ops = list(ops)
        with self._sweep_accounting(ops, "thread", attrs):
            return self.map_fragments(fn, items)

    def sweep_kernel(
        self,
        ops: Sequence[str],
        kernel: FragmentKernel,
        inputs: Sequence[Any],
        indices: Optional[Sequence[int]] = None,
        **attrs: Any,
    ) -> tuple:
        """One fragment-parallel pass executing *kernel* on worker processes.

        *inputs* are the preloaded base fragment arrays — or picklable
        spill handles for cold fragments, hydrated worker-side; arrays
        travel to the workers through shared memory.  *indices* carries
        the fragments' original positions when only a subset is swept.
        Returns ``(arrays, avoided_bytes)``; only callable after
        :meth:`process_kernel_ready` approved the kernel.
        """
        if self._proc is None:
            raise RuntimeError("server has no process backend configured")
        ops = list(ops)
        with self._sweep_accounting(ops, "process", attrs):
            return self._proc.map_kernel(
                kernel, inputs, indices=indices,
                span_attrs={
                    "ops": ",".join(ops),
                    "stages": ",".join(kernel_stage_names(kernel)),
                },
            )

    def process_kernel_ready(self, kernel: FragmentKernel) -> bool:
        """Whether *kernel* should run on the process backend.

        False on thread-backed servers; also false — with a
        ``ophidia_backend_fallbacks_total`` count — when the kernel does
        not survive pickling (lambda transforms, closures over live
        objects), in which case the caller falls back to the thread
        path.
        """
        if self._proc is None or self._proc.closed:
            return False
        if not payload_picklable(kernel):
            get_registry().counter(
                "ophidia_backend_fallbacks_total",
                "Process-backend sweeps that fell back to threads",
                labels=("reason",),
            ).inc(reason="unpicklable")
            return False
        return True

    @property
    def process_backend(self) -> Optional[ProcessPoolBackend]:
        """The shared process pool (None on thread-backed servers).

        Exposed so other workflow stages (the ESM baseline build) can
        fan work out on the same pool instead of spawning their own.
        """
        return self._proc

    # -- NetCDF ingestion / export ---------------------------------------------

    def read_nc_variable(self, path: str, name: str) -> Variable:
        """Read one variable; counts against the shared-FS stats when attached."""
        if self.filesystem is not None:
            ds = self.filesystem.read(path, variables=[name])
            return ds[name]
        return read_variable(path, name)

    def write_nc_dataset(self, path: str, dataset: Dataset) -> None:
        if self.filesystem is not None:
            self.filesystem.write(path, dataset)
        else:
            write_dataset(dataset, path)

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Drain both executors, then delete the pool's spill files;
        idempotent so error paths can call it unconditionally (a second
        call on an already-closed server is a no-op rather than an
        error)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        if self._proc is not None:
            self._proc.shutdown()
        self.pool.close()

    def __enter__(self) -> "OphidiaServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
