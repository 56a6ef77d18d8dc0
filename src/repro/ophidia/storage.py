"""Fragment storage: chunked in-memory I/O servers with a disk spill tier.

Ophidia partitions each datacube into fragments spread over a set of
I/O server processes that keep data in memory between operators.  Here
an :class:`IOServer` is an in-memory fragment table and a
:class:`StoragePool` distributes fragments round-robin, mirroring
Ophidia's hierarchical data organisation (host partition → I/O server →
fragment), and counts every access in the ``ophidia_*`` registry
families.

Beyond the flat fragment table of the original design, storage is now a
real memory hierarchy:

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

Fragments are immutable: ``put`` keeps a read-only view and every read
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.metrics import get_registry

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ChunkInfo",
    "ChunkStats",
    "IOServer",
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
                 "spill_path", "spill_offsets")

    def __init__(self, data: np.ndarray, chunk_axis: int, chunk_bytes: int) -> None:
        view = data.view()
        view.flags.writeable = False
        self.shape = view.shape
        self.dtype = view.dtype
        self.nbytes = int(view.nbytes)
        axis = chunk_axis if view.ndim and 0 <= chunk_axis < view.ndim else 0
        self.chunk_axis = axis
        self.chunks: List[_Chunk] = []
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

    def assemble(self) -> np.ndarray:
        """Concatenate resident chunk payloads back into one array."""
        if len(self.chunks) == 1:
            return self.chunks[0].data
        out = np.concatenate([c.data for c in self.chunks], axis=self.chunk_axis)
        out.flags.writeable = False
        return out

    def meta(self) -> ChunkMeta:
        return ChunkMeta(
            self.chunk_axis, self.shape, self.dtype,
            tuple(
                ChunkInfo(c.start, c.stop, c.nbytes, c.stats)
                for c in self.chunks
            ),
        )


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
        if len(parts) == 1:
            return parts[0]
        out = np.concatenate(parts, axis=self.chunk_axis)
        out.flags.writeable = False
        return out


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# I/O servers
# ---------------------------------------------------------------------------


class IOServer:
    """One in-memory fragment store with a cold tier underneath.

    Fragment payloads are chunked NumPy arrays keyed by a pool-unique
    id; the owning :class:`StoragePool` counts every access in the
    metrics registry.  Reads return read-only arrays — fragments are
    immutable, so an operator mutating a read fragment raises instead of
    corrupting shared state (operators always write new fragments).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._fragments: Dict[int, _Fragment] = {}
        self._lock = threading.Lock()

    def put(
        self,
        fragment_id: int,
        data: np.ndarray,
        chunk_axis: int = 0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        frag = _Fragment(np.asarray(data), chunk_axis, chunk_bytes)
        with self._lock:
            self._fragments[fragment_id] = frag

    def _frag(self, fragment_id: int) -> _Fragment:
        try:
            return self._fragments[fragment_id]
        except KeyError:
            raise KeyError(
                f"fragment {fragment_id} not on I/O server {self.name!r}"
            ) from None

    def get(self, fragment_id: int) -> np.ndarray:
        """Read one fragment, transparently reloading it if spilled."""
        data, _ = self.get_with_info(fragment_id)
        return data

    def get_with_info(self, fragment_id: int) -> Tuple[np.ndarray, int]:
        """Read one fragment; returns ``(data, reloaded_bytes)``.

        *reloaded_bytes* is nonzero when the read hydrated a spilled
        fragment back into memory (the transparent-reload path).
        """
        with self._lock:
            frag = self._frag(fragment_id)
            reloaded = 0
            if not frag.resident:
                self._reload_locked(frag)
                reloaded = frag.nbytes
            return frag.assemble(), reloaded

    def _reload_locked(self, frag: _Fragment) -> None:
        if frag.spill_path is None or frag.spill_offsets is None:
            raise SpillError("fragment is neither resident nor spilled")
        # Decode every chunk before admitting any: a bad range leaves the
        # fragment wholly spilled, never half resident.
        parts = [
            _read_chunk(frag.spill_path, *entry, frag.dtype, frag.chunk_shape(chunk))
            for chunk, entry in zip(frag.chunks, frag.spill_offsets)
        ]
        for chunk, data in zip(frag.chunks, parts):
            chunk.data = data

    def chunk_meta(self, fragment_id: int) -> ChunkMeta:
        """Chunk layout + statistics; never touches payload."""
        with self._lock:
            return self._frag(fragment_id).meta()

    def load_chunk(self, fragment_id: int, index: int) -> np.ndarray:
        """Read one chunk; spilled fragments serve a single range read.

        This is the pruned-sweep read path: surviving chunks come back
        one at a time and the fragment's residency is left untouched, so
        scanning a cold cube's few hot chunks does not force the whole
        fragment back into the memory budget.
        """
        with self._lock:
            frag = self._frag(fragment_id)
            try:
                chunk = frag.chunks[index]
            except IndexError:
                raise KeyError(
                    f"fragment {fragment_id} has no chunk {index}"
                ) from None
            if chunk.data is not None:
                data = chunk.data
            else:
                data = _read_chunk(
                    frag.spill_path, *frag.spill_offsets[index],
                    frag.dtype, frag.chunk_shape(chunk),
                )
            return data

    def spill(self, fragment_id: int, spill_dir: str) -> Tuple[int, int]:
        """Move one fragment to the cold tier; returns (freed, disk) bytes.

        The spill file is write-once (fragments are immutable): if this
        fragment spilled before, its file is still valid and only the
        in-memory chunk payloads are dropped.  On any write failure the
        fragment stays fully resident — spilling is all-or-nothing.
        """
        with self._lock:
            frag = self._fragments.get(fragment_id)
            if frag is None or not frag.resident:
                return 0, 0
            disk_bytes = 0
            if frag.spill_path is None:
                path = os.path.join(spill_dir, f"fragment_{fragment_id}.spill")
                offsets, disk_bytes = _write_spill_file(path, frag)
                frag.spill_path = path
                frag.spill_offsets = offsets
            for chunk in frag.chunks:
                chunk.data = None
            return frag.nbytes, disk_bytes

    def spill_handle(self, fragment_id: int) -> Optional[SpillHandle]:
        """A picklable cold-tier reference, or None while resident."""
        with self._lock:
            frag = self._frag(fragment_id)
            if frag.resident or frag.spill_path is None:
                return None
            return SpillHandle(
                frag.spill_path, frag.dtype.str,
                tuple(frag.shape), frag.chunk_axis,
                tuple(
                    (c.start, c.stop) + entry
                    for c, entry in zip(frag.chunks, frag.spill_offsets)
                ),
            )

    def is_resident(self, fragment_id: int) -> bool:
        with self._lock:
            frag = self._fragments.get(fragment_id)
            return bool(frag is not None and frag.resident)

    def delete(self, fragment_id: int) -> None:
        with self._lock:
            frag = self._fragments.pop(fragment_id, None)
            if frag is None:
                return
            path = frag.spill_path
        if path is not None:
            _unlink(path)

    def close(self) -> None:
        """Delete every spill file this server wrote; nothing reads them
        once the owning server has shut down."""
        with self._lock:
            paths = [f.spill_path for f in self._fragments.values()
                     if f.spill_path is not None]
        for path in paths:
            _unlink(path)

    def __contains__(self, fragment_id: int) -> bool:
        with self._lock:
            return fragment_id in self._fragments

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

    @property
    def n_fragments(self) -> int:
        with self._lock:
            return len(self._fragments)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(
                f.nbytes for f in self._fragments.values() if f.resident
            )


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
    """A set of I/O servers with round-robin placement and a spill tier.

    Parameters
    ----------
    n_servers:
        In-memory fragment stores.
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
        self.servers: List[IOServer] = [
            IOServer(f"io{idx}") for idx in range(n_servers)
        ]
        self.chunk_bytes = int(chunk_bytes)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.spill_dir = spill_dir
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)
        self._fragment_ids = itertools.count(1)
        self._placement: Dict[int, IOServer] = {}
        self._rr = itertools.cycle(range(n_servers))
        self._lock = threading.Lock()
        #: LRU of *resident* fragments: id → logical nbytes.
        self._resident: "OrderedDict[int, int]" = OrderedDict()
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
            start = len(self.servers)
            self.servers.extend(IOServer(f"io{start + i}") for i in range(n))
            self._rr = itertools.cycle(range(len(self.servers)))

    # -- tiering -------------------------------------------------------------

    def _touch_locked(self, fragment_id: int, nbytes: int) -> None:
        self._resident[fragment_id] = nbytes
        self._resident.move_to_end(fragment_id)

    def _enforce_budget_locked(self, keep: Optional[int] = None) -> None:
        """Spill LRU fragments until the resident tier fits the budget.

        *keep* temporarily pins one fragment (the one being written or
        read right now) so a single access cannot evict its own data
        mid-flight; if the pinned fragment alone exceeds the budget it
        is spilled too — the caller already holds an assembled copy.
        """
        budget = self.memory_budget_bytes
        if not budget:
            return
        registry = get_registry()
        while sum(self._resident.values()) > budget and self._resident:
            victim = next(
                (fid for fid in self._resident if fid != keep), None
            )
            if victim is None:
                victim = keep
                keep = None
            server = self._placement.get(victim)
            if server is None:  # pragma: no cover - defensive
                self._resident.pop(victim, None)
                continue
            try:
                freed, disk = server.spill(victim, self.spill_dir)
            except Exception:
                # Spilling is best-effort: a failed spill (a full or
                # broken disk) leaves the fragment resident and
                # the pool over budget rather than corrupting state.
                self._resident.pop(victim, None)
                self._resident[victim] = self._resident_nbytes(victim)
                registry.counter(
                    "ophidia_spill_failures_total",
                    "Fragment spill attempts that failed (fragment kept hot)",
                ).inc()
                return
            self._resident.pop(victim, None)
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

    def _resident_nbytes(self, fragment_id: int) -> int:
        server = self._placement.get(fragment_id)
        return 0 if server is None else server.fragment_nbytes(fragment_id)

    # -- fragment operations -------------------------------------------------

    def store(self, data: np.ndarray, chunk_axis: int = 0) -> int:
        """Place a new fragment; returns its pool-unique id."""
        with self._lock:
            fragment_id = next(self._fragment_ids)
            server = self.servers[next(self._rr)]
            self._placement[fragment_id] = server
        server.put(fragment_id, data, chunk_axis, self.chunk_bytes)
        nbytes = int(np.asarray(data).nbytes)
        counters = self._ctr()
        counters.writes.inc()
        counters.bytes_written.inc(nbytes)
        with self._lock:
            self._touch_locked(fragment_id, nbytes)
            self._enforce_budget_locked(keep=fragment_id)
        return fragment_id

    def _server_for(self, fragment_id: int) -> IOServer:
        with self._lock:
            server = self._placement.get(fragment_id)
        if server is None:
            raise KeyError(f"unknown fragment id {fragment_id}")
        return server

    def load(self, fragment_id: int) -> np.ndarray:
        """Read one fragment, transparently reloading from the spill tier."""
        server = self._server_for(fragment_id)
        data, reloaded = server.get_with_info(fragment_id)
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
            ).inc(reloaded)
        with self._lock:
            self._touch_locked(fragment_id, int(data.nbytes))
            self._enforce_budget_locked(keep=fragment_id)
        return data

    def load_handle(self, fragment_id: int):
        """Read a fragment as an array (hot) or :class:`SpillHandle` (cold).

        The backend-facing load: resident fragments behave exactly like
        :meth:`load`; spilled fragments stay cold and return a picklable
        handle the consumer hydrates itself (in a worker process, off
        the parent's budget).  Both count as one logical fragment read.
        """
        server = self._server_for(fragment_id)
        handle = server.spill_handle(fragment_id)
        if handle is None:
            return self.load(fragment_id)
        counters = self._ctr()
        counters.reads.inc()
        counters.bytes_read.inc(self._resident_nbytes(fragment_id))
        get_registry().counter(
            "ophidia_spill_handles_total",
            "Cold-fragment reads deferred to consumer-side hydration",
        ).inc()
        return handle

    def chunk_meta(self, fragment_id: int) -> ChunkMeta:
        """Chunk layout and statistics of one fragment (no read counted)."""
        return self._server_for(fragment_id).chunk_meta(fragment_id)

    def load_chunk(self, fragment_id: int, index: int) -> np.ndarray:
        """Read a single chunk (pruned sweeps); residency is untouched."""
        server = self._server_for(fragment_id)
        data = server.load_chunk(fragment_id, index)
        counters = self._ctr()
        counters.chunk_reads.inc()
        counters.chunk_bytes_read.inc(int(data.nbytes))
        return data

    def delete(self, fragment_id: int) -> None:
        with self._lock:
            server = self._placement.pop(fragment_id, None)
            self._resident.pop(fragment_id, None)
        if server is not None:
            known = fragment_id in server
            server.delete(fragment_id)
            if known:
                self._ctr().deletes.inc()

    def fragment_nbytes(self, fragment_id: int) -> int:
        """Non-counting size peek; 0 for unknown/deleted fragments."""
        with self._lock:
            server = self._placement.get(fragment_id)
        return 0 if server is None else server.fragment_nbytes(fragment_id)

    def delete_many(self, fragment_ids: Sequence[int]) -> None:
        for fid in fragment_ids:
            self.delete(fid)

    def close(self) -> None:
        """Delete the pool's spill files (see :meth:`IOServer.close`)."""
        for server in self.servers:
            server.close()

    @property
    def spilled_fragments(self) -> int:
        with self._lock:
            placements = list(self._placement.items())
        return sum(
            0 if server.is_resident(fid) else 1 for fid, server in placements
        )

    @property
    def n_fragments(self) -> int:
        return sum(s.n_fragments for s in self.servers)
