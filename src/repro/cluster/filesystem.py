"""A GPFS-like shared filesystem with I/O accounting.

Backed by a real directory so that the RNC files the simulated ESM writes
are genuine files the downstream analytics read back.  All access goes
through this object, which counts operations and bytes in the ``fs_*``
registry families under its own ``fs=`` label; experiment C2 ("in-memory
baseline reuse reduces storage reads") is measured with these counters.
Disk traffic counts as ``op="read"``/``"read_bytes"``; reads the block
cache serves count as ``op="read_cached"`` and ``fs_cache_hits_total``.
"""

from __future__ import annotations

import fnmatch
import itertools
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.netcdf import Dataset, read_dataset, write_dataset
from repro.observability.metrics import get_registry
from repro.observability.spans import maybe_span

#: Distinguishes the series of multiple filesystem instances (compute
#: scratch vs analytics store) inside the one shared registry.
_fs_ids = itertools.count(0)


class BlockCache:
    """Byte-budgeted LRU cache of shared-filesystem blocks.

    Two block granularities coexist: whole raw payloads (``read_bytes``)
    and individual dataset variables (``read``), so two dataset reads
    that share only *some* variables still reuse the overlap.  Stored
    values are pristine copies and hits hand out fresh arrays, so
    callers may mutate results freely.  A per-path metadata side table
    (dimensions, global attrs, and — once a full read has seen it — the
    complete variable order) lets a cached dataset be reassembled
    without touching disk.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1 (0 means: no cache)")
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        #: key → (value, nbytes); keys are ("var", path, name) or
        #: ("bytes", path), LRU-ordered oldest first.
        self._entries: "OrderedDict[Tuple, Tuple[Any, int]]" = OrderedDict()
        self._by_path: Dict[str, Set[Tuple]] = {}
        self._meta: Dict[str, Dict[str, Any]] = {}
        self._resident = 0

    def lookup(self, key: Tuple) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def store(self, key: Tuple, value: Any, nbytes: int) -> int:
        """Insert (or refresh) an entry; returns LRU evictions performed.

        A block larger than the whole budget is not cached — admitting
        it would flush every other entry for a single oversized one.
        """
        nbytes = int(nbytes)
        if nbytes > self.budget_bytes:
            return 0
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._resident -= old[1]
            self._entries[key] = (value, nbytes)
            self._by_path.setdefault(key[1], set()).add(key)
            self._resident += nbytes
            while self._resident > self.budget_bytes and self._entries:
                victim, (_, freed) = self._entries.popitem(last=False)
                self._resident -= freed
                keys = self._by_path.get(victim[1])
                if keys is not None:
                    keys.discard(victim)
                    if not keys:
                        self._by_path.pop(victim[1], None)
                        self._meta.pop(victim[1], None)
                evicted += 1
        return evicted

    def meta(self, path: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._meta.get(path)

    def set_meta(
        self,
        path: str,
        dimensions: Dict[str, int],
        attrs: Dict[str, Any],
        var_order: Optional[List[str]],
    ) -> None:
        """Record a path's header; a known ``var_order`` is never forgotten."""
        with self._lock:
            existing = self._meta.get(path)
            if var_order is None and existing is not None:
                var_order = existing.get("var_order")
            self._meta[path] = {
                "dimensions": dict(dimensions),
                "attrs": dict(attrs),
                "var_order": list(var_order) if var_order is not None else None,
            }

    def invalidate(self, path: str) -> None:
        """Drop every block and the metadata of *path* (write/delete)."""
        with self._lock:
            for key in self._by_path.pop(path, ()):
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._resident -= entry[1]
            self._meta.pop(path, None)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class SharedFilesystem:
    """Shared parallel-filesystem facade over a root directory.

    Paths given to the API are *relative* to the filesystem root and use
    ``/`` separators, mirroring how workflow code addresses a scratch
    space (``output/year_2015/day_001.rnc``).
    """

    def __init__(self, root: str | os.PathLike, cache_bytes: int = 0) -> None:
        self.root = os.path.abspath(os.fspath(root))
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        #: Label value distinguishing this instance's registry series.
        self.fs_label = f"{os.path.basename(self.root) or 'fs'}-{next(_fs_ids)}"
        #: Optional chaos hook (``repro.faults``): an object whose
        #: ``before_op(op, path, fs=...)`` is consulted ahead of every
        #: data operation and may raise to simulate flaky storage.
        self.fault_injector = None
        #: Optional in-memory block cache in front of ``read``/
        #: ``read_bytes`` (the node-local page-cache analogue the reuse
        #: layer measures); ``cache_bytes=0`` disables it.
        self._cache: Optional[BlockCache] = None
        #: ``callback(rel_path)`` hooks fired after every successful
        #: write; file streams subscribe so consumers wake on the write
        #: event instead of rescanning the directory on a timer.
        self._write_listeners: List[Any] = []
        self._listeners_lock = threading.Lock()
        self.configure_cache(cache_bytes)

    def configure_cache(self, cache_bytes: int) -> None:
        """(Re)size the read block cache; ``0`` disables and drops it.

        Resizing always starts from an empty cache — simpler than
        partial eviction and exactly what workflow start-up (the only
        caller) needs.
        """
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        self._cache = BlockCache(cache_bytes) if cache_bytes else None

    @property
    def cache(self) -> Optional[BlockCache]:
        """The live block cache, or ``None`` when caching is off."""
        return self._cache

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

    def _record_cache(self, hit: bool, nbytes_served: int = 0,
                      evictions: int = 0) -> None:
        registry = get_registry()
        name = "fs_cache_hits_total" if hit else "fs_cache_misses_total"
        help_ = (
            "Reads fully served by the filesystem block cache" if hit
            else "Reads that had to touch disk despite the block cache"
        )
        registry.counter(name, help_, labels=("fs",)).inc(fs=self.fs_label)
        if nbytes_served:
            registry.counter(
                "fs_cache_bytes_served_total",
                "Bytes served from the filesystem block cache",
                labels=("fs",),
            ).inc(nbytes_served, fs=self.fs_label)
        if evictions:
            registry.counter(
                "fs_cache_evictions_total",
                "Block-cache entries evicted under the byte budget",
                labels=("fs",),
            ).inc(evictions, fs=self.fs_label)

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
        if self._cache is not None:
            self._cache.invalidate(rel_path)
        self._count("write", nbytes_written=nbytes,
                    seconds=time.monotonic() - t0)
        self._notify_write(rel_path)
        return nbytes

    def read(self, rel_path: str, variables=None) -> Dataset:
        """Read an RNC dataset (optionally a variable subset).

        With the block cache enabled, variables already resident are
        served from memory and only the remainder touches disk; the
        fault hook still fires on every call (a cache on a crashed node
        is just as dead as its disks), and only actual disk traffic
        counts as ``op="read"`` and towards ``fs_bytes_read_total``.
        """
        full = self._resolve(rel_path)
        self._maybe_fault("read", rel_path)
        cache = self._cache
        t0 = time.monotonic()
        with maybe_span(f"fs.read:{rel_path}", layer="filesystem",
                        attrs={"fs": self.fs_label, "path": rel_path}) as h:
            if cache is None:
                ds = read_dataset(full, variables=variables)
                h.set_attr("nbytes", ds.nbytes)
                self._count("read", nbytes_read=ds.nbytes,
                            seconds=time.monotonic() - t0)
                return ds
            ds, disk_nbytes, served_nbytes, touched_disk, evictions = (
                self._read_through_cache(cache, full, rel_path, variables)
            )
            h.set_attr("nbytes", ds.nbytes)
            h.set_attr("cache", "miss" if touched_disk else "hit")
        elapsed = time.monotonic() - t0
        if touched_disk:
            self._count("read", nbytes_read=disk_nbytes, seconds=elapsed)
        else:
            self._count("read_cached", seconds=elapsed)
        self._record_cache(hit=not touched_disk, nbytes_served=served_nbytes,
                           evictions=evictions)
        return ds

    def _read_through_cache(
        self, cache: BlockCache, full: str, rel_path: str, variables
    ) -> "tuple[Dataset, int, int, bool, int]":
        """Assemble a dataset from cached variables plus a disk remainder.

        Returns ``(dataset, disk_nbytes, served_nbytes, touched_disk,
        evictions)``.
        """
        meta = cache.meta(rel_path)
        if variables is None:
            wanted = None if meta is None else meta.get("var_order")
        else:
            wanted = list(variables)
        if meta is None or wanted is None:
            # Unknown header (or unknown full variable order): one real
            # read primes the cache for everything that follows.
            ds = read_dataset(full, variables=variables)
            cache.set_meta(
                rel_path, dict(ds.dimensions), dict(ds.attrs),
                list(ds.variables) if variables is None else None,
            )
            evicted = 0
            for name, var in ds.variables.items():
                evicted += cache.store(("var", rel_path, name),
                                       var.copy(), var.nbytes)
            return ds, ds.nbytes, 0, True, evicted
        cached_vars: Dict[str, Any] = {}
        missing: List[str] = []
        for name in wanted:
            var = cache.lookup(("var", rel_path, name))
            if var is None:
                missing.append(name)
            else:
                cached_vars[name] = var
        disk = None
        evicted = 0
        if missing:
            disk = read_dataset(full, variables=missing)
            for name in missing:
                var = disk[name]
                evicted += cache.store(("var", rel_path, name),
                                       var.copy(), var.nbytes)
        out = Dataset(dict(meta["attrs"]))
        for dim, size in meta["dimensions"].items():
            out.create_dimension(dim, size)
        served = 0
        for name in wanted:
            if name in cached_vars:
                fresh = cached_vars[name].copy()
                served += fresh.nbytes
            else:
                fresh = disk[name]
            out.create_variable(name, fresh.data, fresh.dims, fresh.attrs)
        return (out, (disk.nbytes if disk is not None else 0), served,
                bool(missing), evicted)

    def write_bytes(self, rel_path: str, payload: bytes) -> int:
        full = self._resolve(rel_path)
        self._maybe_fault("write_bytes", rel_path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        t0 = time.monotonic()
        with maybe_span(f"fs.write:{rel_path}", layer="filesystem",
                        attrs={"fs": self.fs_label, "path": rel_path,
                               "nbytes": len(payload)}):
            with open(full, "wb") as fh:
                n = fh.write(payload)
        if self._cache is not None:
            self._cache.invalidate(rel_path)
        self._count("write_bytes", nbytes_written=n,
                    seconds=time.monotonic() - t0)
        self._notify_write(rel_path)
        return n

    def read_bytes(self, rel_path: str) -> bytes:
        full = self._resolve(rel_path)
        self._maybe_fault("read_bytes", rel_path)
        cache = self._cache
        if cache is not None:
            payload = cache.lookup(("bytes", rel_path))
            if payload is not None:
                with maybe_span(f"fs.read:{rel_path}", layer="filesystem",
                                attrs={"fs": self.fs_label, "path": rel_path,
                                       "nbytes": len(payload),
                                       "cache": "hit"}):
                    pass
                self._count("read_cached")
                self._record_cache(hit=True, nbytes_served=len(payload))
                return payload
        t0 = time.monotonic()
        with maybe_span(f"fs.read:{rel_path}", layer="filesystem",
                        attrs={"fs": self.fs_label, "path": rel_path}) as h:
            with open(full, "rb") as fh:
                payload = fh.read()
            h.set_attr("nbytes", len(payload))
        self._count("read_bytes", nbytes_read=len(payload),
                    seconds=time.monotonic() - t0)
        if cache is not None:
            evicted = cache.store(("bytes", rel_path), payload, len(payload))
            self._record_cache(hit=False, evictions=evicted)
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
        if self._cache is not None:
            self._cache.invalidate(rel_path)
        self._count("delete")

    def size(self, rel_path: str) -> int:
        full = self._resolve(rel_path)
        self._maybe_fault("size", rel_path)
        self._count("size")
        return os.path.getsize(full)
