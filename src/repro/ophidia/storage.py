"""Fragment storage: one chunked in-memory fragment table with a spill tier.

Ophidia partitions each datacube into fragments spread over a set of
I/O server processes that keep data in memory between operators.  Here
the servers share one process, so a :class:`StoragePool` keeps every
fragment in one table and records on each fragment the I/O server it
was placed on, round-robin -- Ophidia's hierarchical data organisation
(host partition → I/O server → fragment) without a table per server.
The pool counts every access in the ``ophidia_*`` registry families.

Storage is a memory hierarchy:

* **Chunked fragments with statistics** — each fragment is split into
  fixed-size chunks along one axis, and every chunk carries
  min/max/null-count statistics computed at write time
  (:class:`ChunkStats`).  The lazy planner uses these zone-map style
  stats to skip chunks a ``subset`` or ``oph_predicate`` can prove it
  does not need (see :mod:`repro.ophidia.pruning`), and
  :meth:`StoragePool.load_chunk` reads one surviving chunk without
  touching the rest of the fragment.
* **Tiered residency** — the pool enforces an optional byte budget over
  the in-memory tier: when resident bytes exceed
  ``memory_budget_bytes``, the least-recently-used fragments are
  spilled as raw, CRC32-checksummed chunks to a shared-filesystem
  directory, whose files the server deletes when it shuts down.
  :meth:`StoragePool.load` reloads spilled fragments transparently;
  :meth:`StoragePool.load_handle` instead hands out a picklable
  :class:`SpillHandle` so worker processes hydrate cold data themselves
  without the parent paying the memory first.

Fragments are immutable: ``store`` keeps a read-only view and every read
returns read-only arrays, so an operator that tries to mutate a shared
fragment in place raises instead of silently corrupting state.  Spill
files are therefore write-once — re-spilling an already-spilled
fragment just drops the in-memory chunks again.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.metrics import get_registry

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ChunkInfo",
    "ChunkStats",
    "SpillError",
    "SpillHandle",
    "StoragePool",
]

#: Default target size of one fragment chunk.  Small enough that the
#: planner's chunk pruning has leverage on production-scale fragments,
#: large enough that test-scale fragments stay single-chunk (zero-copy
#: reads, no accounting churn for the existing experiments).
DEFAULT_CHUNK_BYTES = 256 * 1024


class SpillError(RuntimeError):
    """A spill-tier operation failed (bad payload, torn write, bad file)."""


# ---------------------------------------------------------------------------
# Chunk metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkStats:
    """Zone-map statistics of one chunk, computed at write time.

    ``min``/``max`` ignore NaNs (``null_count`` tracks those); both are
    NaN when the chunk is all-null or empty.
    """

    min: float
    max: float
    null_count: int
    count: int

    @classmethod
    def from_array(cls, data: np.ndarray) -> "ChunkStats":
        count = int(data.size)
        if count == 0:
            return cls(float("nan"), float("nan"), 0, 0)
        if data.dtype.kind == "f":
            nulls = int(np.count_nonzero(np.isnan(data)))
            if nulls == count:
                return cls(float("nan"), float("nan"), nulls, count)
            if nulls:
                return cls(
                    float(np.nanmin(data)), float(np.nanmax(data)), nulls, count
                )
        else:
            nulls = 0
        return cls(float(data.min()), float(data.max()), nulls, count)


@dataclass(frozen=True)
class ChunkInfo:
    """Planner-facing chunk descriptor: extent on the chunk axis + stats."""

    start: int
    stop: int
    nbytes: int
    stats: ChunkStats


@dataclass(frozen=True)
class ChunkMeta:
    """Planner-facing fragment descriptor (no payload access)."""

    axis: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    chunks: Tuple[ChunkInfo, ...]


class _Chunk:
    """One stored chunk: payload (None while spilled) + write-time stats."""

    __slots__ = ("start", "stop", "nbytes", "stats", "data")

    def __init__(self, start: int, stop: int, data: np.ndarray) -> None:
        self.start = start
        self.stop = stop
        self.nbytes = int(data.nbytes)
        self.stats = ChunkStats.from_array(data)
        self.data: Optional[np.ndarray] = data


class _Fragment:
    """A chunked fragment, resident or spilled (chunk payloads dropped)."""

    __slots__ = ("shape", "dtype", "chunk_axis", "chunks", "nbytes",
                 "server", "spill_path", "spill_offsets")

    def __init__(self, data: np.ndarray, chunk_axis: int, chunk_bytes: int) -> None:
        view = data.view()
        view.flags.writeable = False
        self.shape = view.shape
        self.dtype = view.dtype
        self.nbytes = int(view.nbytes)
        axis = chunk_axis if view.ndim and 0 <= chunk_axis < view.ndim else 0
        self.chunk_axis = axis
        self.chunks: List[_Chunk] = []
        #: Round-robin index of the I/O server holding this fragment.
        self.server = 0
        #: Host path of the write-once spill file (None until spilled).
        self.spill_path: Optional[str] = None
        #: Per-chunk ``(offset, length, crc32)`` into the spill file.
        self.spill_offsets: Optional[List[Tuple[int, int, int]]] = None

        if view.ndim == 0:
            self.chunks.append(_Chunk(0, 1, view))
            return
        size = view.shape[axis]
        if size == 0:
            self.chunks.append(_Chunk(0, 0, view))
            return
        row_bytes = max(1, self.nbytes // size)
        rows = max(1, int(chunk_bytes) // row_bytes) if chunk_bytes > 0 else size
        indexer: List[slice] = [slice(None)] * view.ndim
        for start in range(0, size, rows):
            stop = min(size, start + rows)
            indexer[axis] = slice(start, stop)
            self.chunks.append(_Chunk(start, stop, view[tuple(indexer)]))

    @property
    def resident(self) -> bool:
        return self.chunks[0].data is not None

    def chunk_shape(self, chunk: _Chunk) -> Tuple[int, ...]:
        if not self.shape:
            return ()
        shape = list(self.shape)
        shape[self.chunk_axis] = chunk.stop - chunk.start
        return tuple(shape)

    def meta(self) -> ChunkMeta:
        return ChunkMeta(
            self.chunk_axis, self.shape, self.dtype,
            tuple(
                ChunkInfo(c.start, c.stop, c.nbytes, c.stats)
                for c in self.chunks
            ),
        )

    def read_chunk(self, index: int) -> np.ndarray:
        """One chunk's payload; a spilled chunk is one checked range read."""
        chunk = self.chunks[index]
        if chunk.data is not None:
            return chunk.data
        return _read_chunk(
            self.spill_path, *self.spill_offsets[index],
            self.dtype, self.chunk_shape(chunk),
        )

    def reload(self) -> None:
        """Hydrate a spilled fragment.  Every chunk is read and checked
        before any is admitted: a bad range leaves the fragment wholly
        spilled, never half resident."""
        parts = [self.read_chunk(i) for i in range(len(self.chunks))]
        for chunk, data in zip(self.chunks, parts):
            chunk.data = data

    def spill(self, path: str) -> Tuple[int, int]:
        """Drop the chunk payloads; returns (freed, disk) bytes.

        The spill file is write-once (fragments are immutable): only the
        first spill writes *path*, later ones just drop the payloads.  A
        failed write raises with the fragment still fully resident —
        spilling is all-or-nothing.
        """
        disk = 0
        if self.spill_path is None:
            self.spill_offsets, disk = _write_spill_file(path, self)
            self.spill_path = path
        for chunk in self.chunks:
            chunk.data = None
        return self.nbytes, disk

    def spill_handle(self) -> Optional[SpillHandle]:
        """A picklable cold-tier reference, or None while resident."""
        if self.resident:
            return None
        return SpillHandle(
            self.spill_path, self.dtype.str, tuple(self.shape), self.chunk_axis,
            tuple(
                (c.start, c.stop) + entry
                for c, entry in zip(self.chunks, self.spill_offsets)
            ),
        )

    def unlink(self) -> None:
        """Delete the spill file, if this fragment ever spilled."""
        if self.spill_path is not None:
            _unlink(self.spill_path)


# ---------------------------------------------------------------------------
# Spill files
# ---------------------------------------------------------------------------

_SPILL_MAGIC = b"RSP2"


def _write_spill_file(path: str, frag: _Fragment) -> Tuple[list, int]:
    """Write *frag* to a spill file atomically; returns (offsets, payload bytes).

    Layout: magic, 8-byte header length, pickled header, then the raw
    chunk payloads back to back, written through the buffer protocol
    (spill files live only as long as their server, so compressing them
    costs more CPU than the disk it saves).  A per-chunk CRC32, in the
    header and the returned offsets, lets every range read catch a torn
    or flipped payload.  The header carries everything
    :class:`SpillHandle` needs, so a worker process can hydrate without
    any pool state.  A temp file + ``os.replace`` makes the write
    all-or-nothing on every exit path.
    """
    payloads = [np.ascontiguousarray(chunk.data) for chunk in frag.chunks]
    offsets, offset = [], 0
    for buf in payloads:
        offsets.append((offset, buf.nbytes, zlib.crc32(buf)))
        offset += buf.nbytes
    header = pickle.dumps({
        "shape": tuple(frag.shape),
        "dtype": frag.dtype.str,
        "chunk_axis": frag.chunk_axis,
        "chunks": [(c.start, c.stop) + e for c, e in zip(frag.chunks, offsets)],
    })
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_SPILL_MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for buf in payloads:
                fh.write(buf)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    # Payload base: every chunk offset is relative to the end of the header.
    base = len(_SPILL_MAGIC) + 8 + len(header)
    return [(base + off, n, crc) for off, n, crc in offsets], offset


def _read_chunk(
    path: str, offset: int, length: int, crc: int,
    dtype: np.dtype, shape: Tuple[int, ...],
) -> np.ndarray:
    """Range-read one spilled chunk, checking its length and CRC32."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read(length)
    if len(data) != length:
        raise SpillError(
            f"truncated spill file {path!r}: wanted {length} bytes at "
            f"{offset}, got {len(data)}"
        )
    if zlib.crc32(data) != crc:
        raise SpillError(
            f"corrupt spill file {path!r}: CRC32 mismatch in the "
            f"{length} bytes at {offset}"
        )
    # frombuffer over immutable bytes is already read-only; keep it so.
    return np.frombuffer(data, dtype=dtype).reshape(shape)


@dataclass(frozen=True)
class SpillHandle:
    """A picklable reference to one spilled fragment.

    Shipping this across a process boundary instead of the hydrated
    array lets spawn-based workers read and verify cold chunks
    themselves (:meth:`hydrate`), so a sweep over spilled cubes never
    stages the data through the parent's memory budget.
    """

    path: str
    dtype: str
    shape: Tuple[int, ...]
    chunk_axis: int
    #: per chunk: (start, stop, file offset, length, crc32)
    chunks: Tuple[Tuple[int, int, int, int, int], ...]

    def hydrate(self) -> np.ndarray:
        dtype = np.dtype(self.dtype)
        parts = []
        for start, stop, offset, length, crc in self.chunks:
            shape = list(self.shape)
            if shape:
                shape[self.chunk_axis] = stop - start
            parts.append(_read_chunk(self.path, offset, length, crc, dtype, tuple(shape)))
        return _join(parts, self.chunk_axis)


def _join(parts: List[np.ndarray], axis: int) -> np.ndarray:
    """One read-only array from chunk payloads (zero-copy for one chunk)."""
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate(parts, axis=axis)
    out.flags.writeable = False
    return out


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class _PoolCounters:
    """Registry counter handles for the hot fragment paths.

    ``registry.counter(...)`` resolves a name through the registry lock
    on every call; ``store``/``load``/``delete`` run once per fragment
    per sweep, making that the hottest metadata path in the stack (C8).
    The handles are cached once per registry and refreshed only when the
    ambient registry is swapped (tests install fresh registries).
    """

    __slots__ = (
        "registry", "writes", "bytes_written", "reads", "bytes_read",
        "deletes", "chunk_reads", "chunk_bytes_read",
    )

    def __init__(self, registry) -> None:
        self.registry = registry
        self.writes = registry.counter(
            "ophidia_fragment_writes_total",
            "Fragments written into the I/O server pool",
        )
        self.bytes_written = registry.counter(
            "ophidia_fragment_bytes_written_total",
            "Bytes written into the I/O server pool",
        )
        self.reads = registry.counter(
            "ophidia_fragment_reads_total",
            "Fragments read back from the I/O server pool",
        )
        self.bytes_read = registry.counter(
            "ophidia_fragment_bytes_read_total",
            "Bytes read back from the I/O server pool",
        )
        self.deletes = registry.counter(
            "ophidia_fragment_deletes_total",
            "Fragments freed from the I/O server pool",
        )
        self.chunk_reads = registry.counter(
            "ophidia_chunks_read_total",
            "Fragment chunks read individually (pruned sweeps)",
        )
        self.chunk_bytes_read = registry.counter(
            "ophidia_chunk_bytes_read_total",
            "Bytes read through individual chunk reads",
        )


class StoragePool:
    """The I/O servers' fragments: one table, round-robin placement, a spill tier.

    Parameters
    ----------
    n_servers:
        I/O servers; each new fragment records the next one round-robin.
    chunk_bytes:
        Target chunk size along each fragment's chunk axis; chunk
        statistics are computed per chunk at write time.
    memory_budget_bytes:
        Byte budget of the in-memory tier across all servers.  0 (the
        default) disables tiering entirely.  When the budget is
        exceeded, least-recently-used fragments spill to *spill_dir*
        and reload transparently on access.
    spill_dir:
        Shared-filesystem directory for spill files; required when a
        budget is set.
    """

    def __init__(
        self,
        n_servers: int = 2,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        memory_budget_bytes: int = 0,
        spill_dir: Optional[str] = None,
    ) -> None:
        if n_servers < 1:
            raise ValueError("need at least one I/O server")
        if memory_budget_bytes < 0:
            raise ValueError("memory_budget_bytes must be >= 0")
        if memory_budget_bytes and not spill_dir:
            raise ValueError("a memory budget requires a spill_dir")
        self.n_servers = int(n_servers)
        self.chunk_bytes = int(chunk_bytes)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.spill_dir = spill_dir
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)
        self._fragment_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Every fragment by id, least recently used first: the table is
        #: also the spill order of the resident ones.
        self._fragments: "OrderedDict[int, _Fragment]" = OrderedDict()
        self._resident_bytes = 0
        self._counters: Optional[_PoolCounters] = None

    def _ctr(self) -> _PoolCounters:
        registry = get_registry()
        counters = self._counters
        if counters is None or counters.registry is not registry:
            counters = _PoolCounters(registry)
            self._counters = counters
        return counters

    def add_servers(self, n: int) -> None:
        """Dynamically scale the pool up by *n* I/O servers.

        Existing fragments stay where they are; new fragments round-robin
        over the enlarged set — Ophidia's "scaled up, also dynamically"
        behaviour (§4.2.2).
        """
        if n < 1:
            raise ValueError("must add at least one server")
        with self._lock:
            self.n_servers += n

    # -- tiering -------------------------------------------------------------

    def _enforce_budget_locked(self, keep: Optional[int] = None) -> None:
        """Spill LRU fragments until the resident tier fits the budget.

        *keep* temporarily pins one fragment (the one being written or
        read right now) so a single access cannot evict its own data
        mid-flight; if the pinned fragment alone exceeds the budget it
        is spilled too — the caller already holds its payload.
        """
        budget = self.memory_budget_bytes
        if not budget:
            return
        registry = get_registry()
        while self._resident_bytes > budget:
            victim = next(
                (fid for fid, frag in self._fragments.items()
                 if frag.resident and fid != keep),
                keep,
            )
            if victim == keep:
                keep = None
            frag = self._fragments[victim]
            try:
                freed, disk = frag.spill(
                    os.path.join(self.spill_dir, f"fragment_{victim}.spill")
                )
            except Exception:
                # Spilling is best-effort: a failed spill (a full or
                # broken disk) leaves the fragment resident and
                # the pool over budget rather than corrupting state.
                self._fragments.move_to_end(victim)
                registry.counter(
                    "ophidia_spill_failures_total",
                    "Fragment spill attempts that failed (fragment kept hot)",
                ).inc()
                return
            self._resident_bytes -= freed
            if freed:
                registry.counter(
                    "ophidia_fragments_spilled_total",
                    "Fragments moved from memory to the spill tier",
                ).inc()
                registry.counter(
                    "ophidia_spill_bytes_total",
                    "Bytes moved to the spill tier",
                ).inc(freed)
            if disk:
                registry.counter(
                    "ophidia_spill_bytes_written_total",
                    "Payload bytes written to spill files",
                ).inc(disk)

    # -- fragment operations -------------------------------------------------

    def _get_locked(self, fragment_id: int) -> _Fragment:
        try:
            return self._fragments[fragment_id]
        except KeyError:
            raise KeyError(f"unknown fragment id {fragment_id}") from None

    def store(self, data: np.ndarray, chunk_axis: int = 0) -> int:
        """Place a new fragment; returns its pool-unique id."""
        frag = _Fragment(np.asarray(data), chunk_axis, self.chunk_bytes)
        with self._lock:
            fragment_id = next(self._fragment_ids)
            frag.server = (fragment_id - 1) % self.n_servers
            self._fragments[fragment_id] = frag
            self._resident_bytes += frag.nbytes
            self._enforce_budget_locked(keep=fragment_id)
        counters = self._ctr()
        counters.writes.inc()
        counters.bytes_written.inc(frag.nbytes)
        return fragment_id

    def load(self, fragment_id: int) -> np.ndarray:
        """Read one fragment, transparently reloading from the spill tier."""
        with self._lock:
            frag = self._get_locked(fragment_id)
            reloaded = not frag.resident
            if reloaded:
                frag.reload()
                self._resident_bytes += frag.nbytes
            parts = [chunk.data for chunk in frag.chunks]
            self._fragments.move_to_end(fragment_id)
            self._enforce_budget_locked(keep=fragment_id)
        data = _join(parts, frag.chunk_axis)
        counters = self._ctr()
        counters.reads.inc()
        counters.bytes_read.inc(int(data.nbytes))
        if reloaded:
            registry = get_registry()
            registry.counter(
                "ophidia_fragments_reloaded_total",
                "Spilled fragments hydrated back into memory",
            ).inc()
            registry.counter(
                "ophidia_reload_bytes_total",
                "Bytes reloaded from the spill tier",
            ).inc(frag.nbytes)
        return data

    def load_handle(self, fragment_id: int):
        """Read a fragment as an array (hot) or :class:`SpillHandle` (cold).

        The backend-facing load: resident fragments behave exactly like
        :meth:`load`; spilled fragments stay cold and return a picklable
        handle the consumer hydrates itself (in a worker process, off
        the parent's budget).  Both count as one logical fragment read.
        """
        with self._lock:
            frag = self._get_locked(fragment_id)
            handle = frag.spill_handle()
        if handle is None:
            return self.load(fragment_id)
        counters = self._ctr()
        counters.reads.inc()
        counters.bytes_read.inc(frag.nbytes)
        get_registry().counter(
            "ophidia_spill_handles_total",
            "Cold-fragment reads deferred to consumer-side hydration",
        ).inc()
        return handle

    def chunk_meta(self, fragment_id: int) -> ChunkMeta:
        """Chunk layout and statistics of one fragment (no read counted)."""
        with self._lock:
            frag = self._get_locked(fragment_id)
        return frag.meta()

    def load_chunk(self, fragment_id: int, index: int) -> np.ndarray:
        """Read a single chunk; residency is untouched.

        This is the pruned-sweep read path: surviving chunks come back
        one at a time and a spilled fragment serves each from one range
        read, so scanning a cold cube's few hot chunks does not force
        the whole fragment back into the memory budget.
        """
        with self._lock:
            frag = self._get_locked(fragment_id)
            try:
                data = frag.read_chunk(index)
            except IndexError:
                raise KeyError(
                    f"fragment {fragment_id} has no chunk {index}"
                ) from None
        counters = self._ctr()
        counters.chunk_reads.inc()
        counters.chunk_bytes_read.inc(int(data.nbytes))
        return data

    def delete(self, fragment_id: int) -> None:
        """Free one fragment and its spill file; unknown ids are a no-op."""
        with self._lock:
            frag = self._fragments.pop(fragment_id, None)
            if frag is None:
                return
            if frag.resident:
                self._resident_bytes -= frag.nbytes
        frag.unlink()
        self._ctr().deletes.inc()

    def fragment_nbytes(self, fragment_id: int) -> int:
        """Size of one fragment, *without* counting a read.

        Accounting peek used by :attr:`Cube.nbytes`: size queries must
        not inflate the fragment-read statistics the experiments
        compare.  Reports the logical payload size whether the fragment
        is resident or spilled; unknown fragments report 0.
        """
        with self._lock:
            frag = self._fragments.get(fragment_id)
        return 0 if frag is None else frag.nbytes

    def delete_many(self, fragment_ids: Sequence[int]) -> None:
        for fid in fragment_ids:
            self.delete(fid)

    def close(self) -> None:
        """Delete every spill file; nothing reads them once the owning
        server has shut down."""
        with self._lock:
            frags = list(self._fragments.values())
        for frag in frags:
            frag.unlink()

    # -- introspection -------------------------------------------------------

    def is_resident(self, fragment_id: int) -> bool:
        with self._lock:
            frag = self._fragments.get(fragment_id)
            return bool(frag is not None and frag.resident)

    def fragments_per_server(self) -> List[int]:
        """How many fragments each I/O server holds."""
        counts = [0] * self.n_servers
        with self._lock:
            for frag in self._fragments.values():
                counts[frag.server] += 1
        return counts

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def spilled_fragments(self) -> int:
        with self._lock:
            return sum(not f.resident for f in self._fragments.values())

    @property
    def n_fragments(self) -> int:
        return len(self._fragments)
