"""Compute nodes and resource allocations."""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Allocation:
    """A grant of resources on a specific node.

    Returned by :meth:`Node.allocate`; release through
    :meth:`Node.release` (idempotence is enforced by the node).
    """

    alloc_id: int
    node_name: str
    cores: int
    memory_gb: float


class Node:
    """A compute node with a fixed core and memory budget.

    Thread-safe: the LSF scheduler and the COMPSs executor both allocate
    from worker threads.
    """

    _ids = itertools.count(1)

    def __init__(self, name: str, cores: int, memory_gb: float, gpus: int = 0) -> None:
        if cores < 1:
            raise ValueError(f"node {name!r} needs >= 1 core, got {cores}")
        if memory_gb <= 0:
            raise ValueError(f"node {name!r} needs positive memory, got {memory_gb}")
        self.name = name
        self.cores = int(cores)
        self.memory_gb = float(memory_gb)
        self.gpus = int(gpus)
        self._lock = threading.Lock()
        self._free_cores = self.cores
        self._free_memory = self.memory_gb
        self._live: dict[int, Allocation] = {}
        self._up = True

    @property
    def is_up(self) -> bool:
        with self._lock:
            return self._up

    def mark_down(self) -> None:
        """Take the node out of service (simulated crash).

        Existing allocations stay registered so the threads that hold
        them can still :meth:`release` cleanly; the node just stops
        granting new ones until :meth:`mark_up`.
        """
        with self._lock:
            self._up = False

    def mark_up(self) -> None:
        """Return a crashed node to service (reboot/replacement)."""
        with self._lock:
            self._up = True

    @property
    def free_cores(self) -> int:
        with self._lock:
            return self._free_cores

    @property
    def free_memory_gb(self) -> float:
        with self._lock:
            return self._free_memory

    def allocate(self, cores: int, memory_gb: float = 0.0) -> Optional[Allocation]:
        """Atomically reserve resources; returns ``None`` if they don't fit."""
        if cores < 0 or memory_gb < 0:
            raise ValueError("resource requests must be non-negative")
        with self._lock:
            if not self._up:
                return None
            if self._free_cores < cores or self._free_memory < memory_gb:
                return None
            self._free_cores -= cores
            self._free_memory -= memory_gb
            alloc = Allocation(next(self._ids), self.name, cores, memory_gb)
            self._live[alloc.alloc_id] = alloc
            return alloc

    def release(self, alloc: Allocation) -> None:
        """Return an allocation's resources; double-release raises."""
        with self._lock:
            if alloc.alloc_id not in self._live:
                raise ValueError(
                    f"allocation {alloc.alloc_id} not live on node {self.name!r}"
                )
            del self._live[alloc.alloc_id]
            self._free_cores += alloc.cores
            self._free_memory += alloc.memory_gb

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Node {self.name} cores={self._free_cores}/{self.cores} "
            f"mem={self._free_memory:.0f}/{self.memory_gb:.0f}GB>"
        )
