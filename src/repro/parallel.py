"""Process-pool execution with shared-memory array transport.

The thread backend is the default everywhere: NumPy kernels release the
GIL, so fragment sweeps already parallelise for array-dominated work.
The process backend exists for the other regime — operator chains with
real Python-level work per fragment (AST evaluation, run-length
encoding, user transforms) where the GIL serialises threads.  Fragment
kernels are compiled to picklable :class:`FragmentKernel` objects,
shipped to a spawn-based :class:`ProcessPoolBackend`, and arrays cross
the process boundary through POSIX shared memory instead of pickled
copies: the parent writes inputs into segments the children map
directly, and children write results into segments the parent copies
out and unlinks.

Spawn (not fork) is mandatory: the parent runs many threads (COMPSs
workers, stream pollers, the LSF dispatcher) and forking a threaded
process deadlocks on whatever locks the other threads held.  Spawned
children inherit ``sys.path``, so the ``repro`` package resolves in the
workers exactly as in the parent.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.shipping import (
    TelemetryCapture, merge_envelope, serialize_context,
)
from repro.observability.spans import current_context

__all__ = [
    "SHM_MIN_BYTES",
    "FragmentKernel",
    "ProcessPoolBackend",
    "decode_array",
    "encode_array",
    "payload_picklable",
]

#: Arrays smaller than this ship inline (pickled): creating and mapping
#: a shared-memory segment has a fixed syscall cost that only pays off
#: for larger payloads.
SHM_MIN_BYTES = 64 * 1024


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Withdraw a segment from this process's resource tracker.

    On Python < 3.13 every ``SharedMemory`` registers with the process's
    resource tracker, including attachments to segments another process
    owns (bpo-39959).  Lifecycle here is explicit — exactly one process
    unlinks each segment — so the extra registrations would only produce
    spurious "leaked shared_memory" warnings at worker exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker internals vary by version
        pass


def encode_array(
    arr: np.ndarray, min_shm_bytes: int = SHM_MIN_BYTES
) -> Tuple[tuple, Optional[shared_memory.SharedMemory]]:
    """Encode an array for the process boundary.

    Returns ``(handle, segment)``: *segment* is ``None`` for small
    arrays shipped inline, otherwise the newly created shared-memory
    segment holding the data.  The caller owns the segment — it must
    stay linked until every consumer has decoded the handle, then be
    ``close()``d and ``unlink()``ed (or handed over via
    :func:`_untrack` + ``close`` when the *other* side unlinks).
    """
    arr = np.ascontiguousarray(arr)
    if arr.nbytes < min_shm_bytes:
        return ("inline", arr), None
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
    return ("shm", shm.name, arr.shape, arr.dtype.str), shm


def _attach(handle: tuple) -> Tuple[np.ndarray, Optional[shared_memory.SharedMemory]]:
    """Map a handle to an array without copying (worker-side input path).

    The returned array aliases the segment buffer; the caller must keep
    the returned segment open while using it and ``close()`` it after.
    """
    if handle[0] == "inline":
        return handle[1], None
    _, name, shape, dtype = handle
    seg = shared_memory.SharedMemory(name=name)
    _untrack(seg)  # the creating process owns the unlink
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf), seg


def decode_array(handle: tuple) -> np.ndarray:
    """Materialise a result handle, releasing its segment (parent side)."""
    if handle[0] == "inline":
        return handle[1]
    _, name, shape, dtype = handle
    seg = shared_memory.SharedMemory(name=name)
    try:
        return np.array(
            np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf), copy=True
        )
    finally:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - defensive
            pass


def payload_picklable(obj: Any) -> bool:
    """Whether *obj* survives the spawn boundary (gate for the process path)."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:  # noqa: BLE001 - any pickling failure means "no"
        return False


@dataclass(frozen=True)
class FragmentKernel:
    """A compiled per-fragment operator chain, backend-agnostic.

    Each stage is a picklable callable ``stage(data, i) -> (out, extra)``
    where *extra* is avoided-intermediate bytes the stage accounts for
    internally (intercube operand chains).  ``n_metered`` leading stage
    outputs additionally count as avoided materialisations — the thread
    and process backends share this accounting, so fusion metrics are
    identical whichever executes the sweep.
    """

    stages: Tuple[Callable[..., Any], ...]
    n_metered: int

    def run(self, data: Any, i: int) -> Tuple[np.ndarray, int]:
        """Apply all stages to fragment *i*; returns (result, avoided bytes).

        *data* may also be a cold-fragment handle (anything exposing
        ``hydrate()``, e.g. :class:`repro.ophidia.storage.SpillHandle`):
        hydration happens here, inside whichever worker runs the sweep,
        so spilled fragments never stage through the parent's memory.
        """
        if hasattr(data, "hydrate"):
            data = data.hydrate()
        avoided = 0
        for k, stage in enumerate(self.stages):
            data, extra = stage(data, i)
            avoided += extra
            if k < self.n_metered:
                avoided += data.nbytes
        return np.asarray(data), avoided


def _run_kernel_task(payload: tuple) -> Tuple[tuple, int, Dict[str, Any]]:
    """Worker-side sweep step: map input, run the kernel, encode the result.

    The payload's optional fourth and fifth members are the parent's
    serialized span context and extra span attributes; the kernel runs
    under a :class:`TelemetryCapture` so its spans/metrics ship back in
    the returned envelope alongside the shared-memory result.
    """
    kernel, in_handle, i = payload[0], payload[1], payload[2]
    ctx = payload[3] if len(payload) > 3 else None
    attrs = dict(payload[4]) if len(payload) > 4 else {}
    attrs["fragment"] = i
    capture = TelemetryCapture(ctx, "worker.kernel", attrs=attrs)
    with capture:
        arr, seg = _attach(in_handle)
        try:
            out, avoided = kernel.run(arr, i)
        finally:
            if seg is not None:
                seg.close()
    out_handle, out_seg = encode_array(out)
    if out_seg is not None:
        # Ownership transfers to the parent, which unlinks after copying.
        _untrack(out_seg)
        out_seg.close()
    return out_handle, avoided, capture.envelope()


class ProcessPoolBackend:
    """A lazily-spawned process pool with shared-memory result transport.

    The Ophidia server drives fragment sweeps through :meth:`map_kernel`.
    Workers spawn on first use (constructing the backend is free), and
    :meth:`shutdown` is idempotent, so error paths can drain
    unconditionally.
    """

    def __init__(self, max_workers: int, name: str = "repro-proc") -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self.name = name
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("process backend is shut down")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=get_context("spawn"),
                )
            return self._executor

    @staticmethod
    def _drain(
        futures: List[Any],
    ) -> Tuple[List[Any], Optional[BaseException]]:
        """Resolve every future; returns (ordered results, first error).

        Failed slots hold ``None``.  Resolving everything before the
        caller raises means no child still holds a mapping to an input
        segment when the caller unlinks them.
        """
        results: List[Any] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - caller re-raises
                if first_error is None:
                    first_error = exc
                results.append(None)
        return results, first_error

    def map_kernel(
        self,
        kernel: FragmentKernel,
        arrays: Sequence[Any],
        indices: Optional[Sequence[int]] = None,
        span_attrs: Optional[Dict[str, Any]] = None,
    ) -> Tuple[List[np.ndarray], int]:
        """Run *kernel* over pre-loaded fragment arrays in worker processes.

        Inputs travel via shared memory (above the inline threshold) and
        results come back the same way.  Non-array inputs (cold-fragment
        spill handles) ship pickled; the kernel hydrates them
        worker-side.  *indices* overrides the fragment index passed to
        each kernel invocation (default: position in *arrays*).
        Returns ``(results, avoided_bytes)`` with the same
        order-preserving, first-error-after-all-resolve semantics as
        the thread path's ``map_fragments``.

        The caller's active span context ships with every task, so
        worker kernel spans join the caller's trace (parenting under
        the dispatching sweep span), and each task's metrics delta
        merges back into this process's registry — a process sweep is
        telemetry-equivalent to a thread sweep.  *span_attrs* annotate
        the worker spans (e.g. the fused stage names).
        """
        executor = self._ensure()
        ctx = serialize_context(current_context())
        idx = list(indices) if indices is not None else list(range(len(arrays)))
        handles: List[tuple] = []
        segments: List[shared_memory.SharedMemory] = []
        try:
            for arr in arrays:
                if isinstance(arr, np.ndarray):
                    handle, seg = encode_array(arr)
                else:
                    handle, seg = ("inline", arr), None
                handles.append(handle)
                if seg is not None:
                    segments.append(seg)
            futures = [
                executor.submit(
                    _run_kernel_task,
                    (kernel, handle, i, ctx, span_attrs or {}),
                )
                for handle, i in zip(handles, idx)
            ]
            triples, first_error = self._drain(futures)
        finally:
            # Inputs are dead once every task resolved (each child holds
            # its own mapping only for the kernel's duration).
            for seg in segments:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
        results: List[np.ndarray] = []
        avoided = 0
        for triple in triples:
            if triple is None:
                results.append(None)
                continue
            out_handle, extra, envelope = triple
            # Decode (and unlink) even when a sibling failed, so a
            # partial sweep cannot leak the successful results' segments.
            results.append(decode_array(out_handle))
            avoided += extra
            # Merge telemetry even on partially failed sweeps: the
            # successful tasks' spans and counters are real work done.
            merge_envelope(envelope)
        if first_error is not None:
            raise first_error
        return results, avoided

    def shutdown(self) -> None:
        """Join the workers; idempotent, safe on never-started backends."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)
