"""Simulated HPC infrastructure.

The paper's testbed is the Zeus supercomputer at CMCC: 348 nodes, 12,528
cores, IBM Spectrum LSF batch scheduling and a GPFS parallel filesystem.
This package provides a functional stand-in that exercises the same
control paths the eFlows4HPC stack depends on:

* :class:`Node` — a compute node with cores and memory, tracking
  allocations;
* :class:`SharedFilesystem` — a GPFS-like shared store backed by a real
  directory, with per-operation and per-byte registry counters (the
  measurement device behind the paper's data-movement claims);
* :class:`LSFScheduler` — an LSF-flavoured batch scheduler (``bsub`` /
  ``bjobs`` / ``bkill`` semantics) running jobs as Python callables on a
  worker pool constrained by node resources;
* :class:`Cluster` — the assembled machine, plus a ``zeus_like`` factory.
"""

from repro.cluster.node import Node, Allocation
from repro.cluster.filesystem import SharedFilesystem
from repro.cluster.lsf import (
    LSFScheduler,
    Job,
    JobState,
    Queue,
    ResourceRequest,
    DEFAULT_QUEUES,
)
from repro.cluster.cluster import Cluster, zeus_like, laptop_like

__all__ = [
    "Node",
    "Allocation",
    "SharedFilesystem",
    "LSFScheduler",
    "Job",
    "JobState",
    "Queue",
    "ResourceRequest",
    "DEFAULT_QUEUES",
    "Cluster",
    "zeus_like",
    "laptop_like",
]
