"""Geographically distributed (multi-site) execution — the paper's §7.

"Future work will focus on extending the presented case study to
validate the end-to-end workflow in a distributed infrastructure, where
the different tasks are executed on heterogeneous systems (e.g.,
HPC/Cloud ...) ... by leveraging the Data Logistics Service ... for
data movement.  To this extent, the different parts of the workflow
could be run on different infrastructures according to their
requirements, using, for instance, large HPC systems for the ESM
simulation [and] data-oriented/Cloud systems for Big Data processing."

This module implements that extension:

* a :class:`Federation` of named clusters with per-site roles
  (``simulation``, ``analytics``, ...);
* :class:`FederatedDataLogistics` — cross-site transfers between the
  sites' shared filesystems, with byte/transfer accounting and an
  optional emulated WAN bandwidth so movement cost is visible in
  benchmarks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster


class FederationError(RuntimeError):
    """Unknown site or undeclared role."""


@dataclass
class TransferRecord:
    """One completed cross-site movement."""

    source_site: str
    dest_site: str
    path: str
    n_files: int
    bytes_moved: int
    seconds: float


class FederatedDataLogistics:
    """Cross-site data movement with accounting.

    Parameters
    ----------
    wan_bandwidth_mbps:
        Emulated inter-site bandwidth.  ``None`` disables pacing (pure
        accounting); otherwise each transfer sleeps ``bytes * 8 /
        bandwidth`` to make movement cost observable, the way the real
        BSC↔CMCC testbed pays geography.
    """

    def __init__(self, wan_bandwidth_mbps: Optional[float] = None) -> None:
        if wan_bandwidth_mbps is not None and wan_bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.wan_bandwidth_mbps = wan_bandwidth_mbps
        self.records: List[TransferRecord] = []
        self._lock = threading.Lock()

    def transfer_files(
        self,
        source: Cluster,
        dest: Cluster,
        rel_paths: List[str],
        dest_dir: Optional[str] = None,
    ) -> List[str]:
        """Copy *rel_paths* from *source*'s FS to *dest*'s FS.

        Returns the destination-relative paths.  Layout is preserved
        unless *dest_dir* remaps the parent directory.
        """
        start = time.monotonic()
        moved = 0
        out_paths = []
        for rel in rel_paths:
            payload = source.filesystem.read_bytes(rel)
            name = rel.rsplit("/", 1)[-1]
            dest_rel = f"{dest_dir.rstrip('/')}/{name}" if dest_dir else rel
            dest.filesystem.write_bytes(dest_rel, payload)
            moved += len(payload)
            out_paths.append(dest_rel)
        if self.wan_bandwidth_mbps is not None and moved:
            time.sleep(moved * 8 / (self.wan_bandwidth_mbps * 1e6))
        record = TransferRecord(
            source.name, dest.name, dest_dir or "(mirror)",
            len(rel_paths), moved, time.monotonic() - start,
        )
        with self._lock:
            self.records.append(record)
        return out_paths

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(r.bytes_moved for r in self.records)

    @property
    def total_transfers(self) -> int:
        with self._lock:
            return len(self.records)

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return sum(r.seconds for r in self.records)


class Federation:
    """A set of named clusters with workflow roles.

    The case study's distributed deployment assigns the ``simulation``
    role to the compute-heavy HPC system and the ``analytics`` role to
    a data-oriented/Cloud system; the federation's DLS carries the daily
    files between them.
    """

    def __init__(self, dls: Optional[FederatedDataLogistics] = None) -> None:
        self._sites: Dict[str, Cluster] = {}
        self._roles: Dict[str, str] = {}
        self.dls = dls or FederatedDataLogistics()

    def add_site(self, cluster: Cluster, role: Optional[str] = None) -> None:
        if cluster.name in self._sites:
            raise FederationError(f"site {cluster.name!r} already federated")
        self._sites[cluster.name] = cluster
        if role is not None:
            self.assign_role(role, cluster.name)

    def assign_role(self, role: str, site_name: str) -> None:
        if site_name not in self._sites:
            raise FederationError(f"unknown site {site_name!r}")
        self._roles[role] = site_name

    def for_role(self, role: str) -> Cluster:
        try:
            return self._sites[self._roles[role]]
        except KeyError:
            raise FederationError(
                f"no site assigned to role {role!r}; "
                f"available roles: {sorted(self._roles)}"
            ) from None

    @property
    def sites(self) -> List[str]:
        return sorted(self._sites)

    @property
    def roles(self) -> Dict[str, str]:
        return dict(self._roles)

    def shutdown(self, wait: bool = True) -> None:
        for cluster in self._sites.values():
            cluster.shutdown(wait=wait)

    def __enter__(self) -> "Federation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=False)
