"""A GPFS-like shared filesystem with I/O accounting.

Backed by a real directory so that the RNC files the simulated ESM writes
are genuine files the downstream analytics read back.  All access goes
through this object, which counts operations and bytes in the ``fs_*``
registry families under its own ``fs=`` label; experiment C2 ("in-memory
baseline reuse reduces storage reads") is measured with these counters.
There is no file cache in front of the disk: every ``read``/``read_bytes``
call reads the file, so ``op="read"``/``"read_bytes"`` counts are exact.
Data reuse lives in the in-memory tiers (Ophidia cubes, COMPSs worker
resident sets), as in the paper.
"""

from __future__ import annotations

import fnmatch
import itertools
import os
import threading
import time
from typing import Any, List, Optional

from repro.netcdf import Dataset, read_dataset, write_dataset
from repro.observability.metrics import get_registry
from repro.observability.spans import maybe_span

#: Distinguishes the series of multiple filesystem instances (compute
#: scratch vs analytics store) inside the one shared registry.
_fs_ids = itertools.count(0)


class SharedFilesystem:
    """Shared parallel-filesystem facade over a root directory.

    Paths given to the API are *relative* to the filesystem root and use
    ``/`` separators, mirroring how workflow code addresses a scratch
    space (``output/year_2015/day_001.rnc``).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.path.abspath(os.fspath(root))
        os.makedirs(self.root, exist_ok=True)
        #: Label value distinguishing this instance's registry series.
        self.fs_label = f"{os.path.basename(self.root) or 'fs'}-{next(_fs_ids)}"
        #: Optional chaos hook (``repro.faults``): an object whose
        #: ``before_op(op, path, fs=...)`` is consulted ahead of every
        #: data operation and may raise to simulate flaky storage.
        self.fault_injector = None
        #: ``callback(rel_path)`` hooks fired after every successful
        #: write; file streams subscribe so consumers wake on the write
        #: event instead of rescanning the directory on a timer.
        self._write_listeners: List[Any] = []
        self._listeners_lock = threading.Lock()

    # -- write events --------------------------------------------------------

    def add_write_listener(self, callback) -> None:
        """Register ``callback(rel_path)`` to fire after successful writes.

        Callbacks run on the writing thread, outside filesystem locks;
        they must be short and non-raising (exceptions are swallowed so
        a misbehaving subscriber cannot fail a write that already
        succeeded).
        """
        with self._listeners_lock:
            self._write_listeners.append(callback)

    def remove_write_listener(self, callback) -> None:
        """Unsubscribe a previously registered write listener (idempotent)."""
        with self._listeners_lock:
            try:
                self._write_listeners.remove(callback)
            except ValueError:
                pass

    def _notify_write(self, rel_path: str) -> None:
        with self._listeners_lock:
            listeners = list(self._write_listeners)
        for callback in listeners:
            try:
                callback(rel_path)
            except Exception:  # noqa: BLE001 - the write already succeeded
                pass

    # -- fault injection -----------------------------------------------------

    def _maybe_fault(self, op: str, rel_path: str) -> None:
        injector = self.fault_injector
        if injector is not None:
            injector.before_op(op, rel_path, fs=self.fs_label)

    # -- telemetry -----------------------------------------------------------

    def _count(
        self, op: str, nbytes_read: int = 0, nbytes_written: int = 0,
        seconds: Optional[float] = None,
    ) -> None:
        registry = get_registry()
        registry.counter(
            "fs_operations_total", "Shared-filesystem operations",
            labels=("fs", "op"),
        ).inc(fs=self.fs_label, op=op)
        if seconds is not None:
            registry.histogram(
                "fs_op_duration_seconds",
                "Latency of shared-filesystem data operations",
                labels=("fs", "op"),
            ).observe(seconds, fs=self.fs_label, op=op)
        if nbytes_read:
            registry.counter(
                "fs_bytes_read_total", "Bytes read from shared filesystems",
                labels=("fs",),
            ).inc(nbytes_read, fs=self.fs_label)
        if nbytes_written:
            registry.counter(
                "fs_bytes_written_total", "Bytes written to shared filesystems",
                labels=("fs",),
            ).inc(nbytes_written, fs=self.fs_label)

    # -- path handling -----------------------------------------------------

    def _resolve(self, rel_path: str) -> str:
        full = os.path.abspath(os.path.join(self.root, rel_path))
        if not full.startswith(self.root + os.sep) and full != self.root:
            raise ValueError(f"path {rel_path!r} escapes the filesystem root")
        return full

    def path(self, rel_path: str) -> str:
        """Absolute host path of *rel_path* (for passing to external code)."""
        return self._resolve(rel_path)

    # -- dataset I/O ---------------------------------------------------------

    def write(self, rel_path: str, dataset: Dataset) -> int:
        """Write an RNC dataset; returns bytes written."""
        full = self._resolve(rel_path)
        self._maybe_fault("write", rel_path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        t0 = time.monotonic()
        with maybe_span(f"fs.write:{rel_path}", layer="filesystem",
                        attrs={"fs": self.fs_label, "path": rel_path}) as h:
            nbytes = write_dataset(dataset, full)
            h.set_attr("nbytes", nbytes)
        self._count("write", nbytes_written=nbytes,
                    seconds=time.monotonic() - t0)
        self._notify_write(rel_path)
        return nbytes

    def read(self, rel_path: str, variables=None) -> Dataset:
        """Read an RNC dataset (optionally a variable subset)."""
        full = self._resolve(rel_path)
        self._maybe_fault("read", rel_path)
        t0 = time.monotonic()
        with maybe_span(f"fs.read:{rel_path}", layer="filesystem",
                        attrs={"fs": self.fs_label, "path": rel_path}) as h:
            ds = read_dataset(full, variables=variables)
            h.set_attr("nbytes", ds.nbytes)
        self._count("read", nbytes_read=ds.nbytes,
                    seconds=time.monotonic() - t0)
        return ds

    def write_bytes(self, rel_path: str, payload: bytes) -> int:
        """Write a raw payload atomically; returns bytes written.

        The payload goes to ``<path>.tmp.<pid>`` and is renamed over the
        destination, so a failed write leaves the previous file intact
        and a concurrent reader never sees a torn one.
        """
        full = self._resolve(rel_path)
        self._maybe_fault("write_bytes", rel_path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        tmp = f"{full}.tmp.{os.getpid()}"
        t0 = time.monotonic()
        with maybe_span(f"fs.write:{rel_path}", layer="filesystem",
                        attrs={"fs": self.fs_label, "path": rel_path,
                               "nbytes": len(payload)}):
            try:
                with open(tmp, "wb") as fh:
                    n = fh.write(payload)
                os.replace(tmp, full)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._count("write_bytes", nbytes_written=n,
                    seconds=time.monotonic() - t0)
        self._notify_write(rel_path)
        return n

    def read_bytes(self, rel_path: str) -> bytes:
        full = self._resolve(rel_path)
        self._maybe_fault("read_bytes", rel_path)
        t0 = time.monotonic()
        with maybe_span(f"fs.read:{rel_path}", layer="filesystem",
                        attrs={"fs": self.fs_label, "path": rel_path}) as h:
            with open(full, "rb") as fh:
                payload = fh.read()
            h.set_attr("nbytes", len(payload))
        self._count("read_bytes", nbytes_read=len(payload),
                    seconds=time.monotonic() - t0)
        return payload

    # -- namespace ops ---------------------------------------------------------

    def exists(self, rel_path: str) -> bool:
        full = self._resolve(rel_path)
        self._maybe_fault("exists", rel_path)
        self._count("exists")
        return os.path.exists(full)

    def makedirs(self, rel_path: str) -> None:
        os.makedirs(self._resolve(rel_path), exist_ok=True)

    def listdir(self, rel_path: str = ".") -> List[str]:
        """Sorted directory listing; empty if the directory doesn't exist."""
        full = self._resolve(rel_path)
        self._count("list")
        if not os.path.isdir(full):
            return []
        return sorted(os.listdir(full))

    def glob(self, rel_dir: str, pattern: str) -> List[str]:
        """Sorted relative paths under *rel_dir* matching *pattern*."""
        entries = self.listdir(rel_dir)
        matched = fnmatch.filter(entries, pattern)
        prefix = "" if rel_dir in (".", "") else rel_dir.rstrip("/") + "/"
        return [prefix + name for name in matched]

    def delete(self, rel_path: str) -> None:
        full = self._resolve(rel_path)
        self._maybe_fault("delete", rel_path)
        os.remove(full)
        self._count("delete")

    def size(self, rel_path: str) -> int:
        full = self._resolve(rel_path)
        self._maybe_fault("size", rel_path)
        self._count("size")
        return os.path.getsize(full)
