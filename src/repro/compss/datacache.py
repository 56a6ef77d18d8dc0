"""Per-worker resident sets for task outputs (in-memory data reuse).

The paper's runtime keeps task results "in memory and moved to other
nodes as the workflow progresses" — a worker that has already fetched a
predecessor's output does not fetch it again for the next consumer it
runs.  :class:`WorkerDataCache` models that behaviour for the transfer
accounting in :mod:`repro.compss.runtime`: each worker owns an LRU
resident set of (task id → output size) entries under a configurable
byte budget, and a remote move is only charged on the *first*
consumption of a given predecessor's output on a given worker.

A zero budget disables the cache entirely, restoring the historical
"every remote dependency is re-transferred" accounting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

#: A dependency as the runtime sees it: (producer task id, output bytes).
_Dep = Tuple[int, int]


class WorkerDataCache:
    """Thread-safe LRU resident set of task outputs, one per worker.

    The cache tracks *which* outputs are resident and how large they
    are, not the values themselves (the runtime's futures already hold
    those) — it exists to make the transfer accounting reflect reuse.
    """

    def __init__(self, budget_bytes: int = 0) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        #: worker id → (task id → output nbytes), LRU-ordered (oldest first).
        self._resident: Dict[int, "OrderedDict[int, int]"] = {}
        self._resident_bytes: Dict[int, int] = {}

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    def split(
        self, worker_id: int, deps: Iterable[_Dep]
    ) -> Tuple[List[_Dep], List[_Dep]]:
        """Partition *deps* into (resident, absent) for *worker_id*.

        Pure query — no entries are touched, so a failed dispatch (e.g.
        an injected transfer fault) leaves the cache exactly as it was.
        """
        if not self.enabled:
            return [], list(deps)
        resident: List[_Dep] = []
        absent: List[_Dep] = []
        with self._lock:
            entries = self._resident.get(worker_id)
            for dep in deps:
                if entries is not None and dep[0] in entries:
                    resident.append(dep)
                else:
                    absent.append(dep)
        return resident, absent

    def commit(
        self, worker_id: int, hits: Sequence[_Dep], fetched: Sequence[_Dep]
    ) -> int:
        """Record a successful consumption; returns evictions performed.

        *hits* are refreshed in LRU order; *fetched* outputs are
        admitted (the worker now holds a replica) and the LRU tail is
        evicted until the byte budget holds again.
        An output larger than the whole budget is never admitted — it
        would only flush everything else for a single-use entry.
        """
        if not self.enabled:
            return 0
        evicted = 0
        with self._lock:
            entries = self._resident.setdefault(worker_id, OrderedDict())
            held = self._resident_bytes.get(worker_id, 0)
            for task_id, nbytes in hits:
                if task_id in entries:
                    entries.move_to_end(task_id)
            for task_id, nbytes in fetched:
                if nbytes > self.budget_bytes or task_id in entries:
                    continue
                entries[task_id] = nbytes
                held += nbytes
                while held > self.budget_bytes and entries:
                    _, freed = entries.popitem(last=False)
                    held -= freed
                    evicted += 1
            self._resident_bytes[worker_id] = held
        return evicted

    # -- introspection (tests) --------------------------------------------

    def resident_bytes(self, worker_id: int) -> int:
        with self._lock:
            return self._resident_bytes.get(worker_id, 0)

    def resident_ids(self, worker_id: int) -> Tuple[int, ...]:
        """Resident producer task ids, LRU order (oldest first)."""
        with self._lock:
            entries = self._resident.get(worker_id)
            return tuple(entries) if entries else ()
