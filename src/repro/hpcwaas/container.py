"""The Container Image Creation service (Ejarque & Badia 2023).

"Automates the creation of the container images for workflows,
including the code as well as all the required software compiled for
the target HPC platform."  The simulation builds a content-addressed
image record from a build spec (base image, packages, target
architecture) and caches identical specs, reproducing the service's
observable behaviour: repeated deployments reuse images; different
target platforms produce different images.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple


@dataclass(frozen=True)
class ContainerImage:
    """A built image: name, digest, and the spec that produced it."""

    name: str
    digest: str
    base: str
    packages: Tuple[str, ...]
    target_platform: str
    build_seconds: float

    @property
    def reference(self) -> str:
        return f"{self.name}@sha256:{self.digest}"


class ContainerRuntime:
    """Simulated containerised execution (Singularity-style).

    The paper's §6/§7: "containers (e.g., Singularity) with the software
    required by the workflow ... can be exploited", with "the assessment
    of their impact on the climate simulation and processing
    performance" left as future work.  This runtime makes that impact
    measurable: the first execution on a node pays the image cold-start
    (pull + unpack), subsequent executions pay only the warm start.

    Parameters
    ----------
    image:
        The image to run.
    cold_start_seconds / warm_start_seconds:
        Emulated launch latencies (typical Singularity numbers are
        O(1 s) cold, O(10 ms) warm on a parallel filesystem).
    """

    def __init__(
        self,
        image: ContainerImage,
        cold_start_seconds: float = 0.3,
        warm_start_seconds: float = 0.01,
    ) -> None:
        if cold_start_seconds < 0 or warm_start_seconds < 0:
            raise ValueError("start latencies must be non-negative")
        self.image = image
        self.cold_start_seconds = cold_start_seconds
        self.warm_start_seconds = warm_start_seconds
        self._warm_nodes: set = set()
        self._lock = threading.Lock()
        self.cold_starts = 0
        self.warm_starts = 0

    def run(self, fn, *args, node: str = "node0", **kwargs):
        """Execute ``fn(*args, **kwargs)`` inside the container on *node*."""
        with self._lock:
            if node in self._warm_nodes:
                self.warm_starts += 1
                delay = self.warm_start_seconds
            else:
                self._warm_nodes.add(node)
                self.cold_starts += 1
                delay = self.cold_start_seconds
        if delay:
            time.sleep(delay)
        return fn(*args, **kwargs)


class ContainerImageCreationService:
    """Builds and caches container images for workflow deployments."""

    def __init__(self, simulate_build_seconds: float = 0.0) -> None:
        self.simulate_build_seconds = simulate_build_seconds
        self._images: Dict[str, ContainerImage] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _spec_digest(base: str, packages: Sequence[str], target_platform: str) -> str:
        spec = json.dumps(
            {"base": base, "packages": sorted(packages), "target": target_platform},
            sort_keys=True,
        )
        return hashlib.sha256(spec.encode()).hexdigest()[:24]

    def build(
        self,
        name: str,
        packages: Sequence[str],
        base: str = "python:3.11-slim",
        target_platform: str = "x86_64",
    ) -> ContainerImage:
        """Build (or reuse) the image for this spec."""
        if not name:
            raise ValueError("image name must be non-empty")
        digest = self._spec_digest(base, packages, target_platform)
        with self._lock:
            cached = self._images.get(digest)
            if cached is not None:
                return cached
        start = time.monotonic()
        if self.simulate_build_seconds:
            time.sleep(self.simulate_build_seconds)
        image = ContainerImage(
            name=name,
            digest=digest,
            base=base,
            packages=tuple(sorted(packages)),
            target_platform=target_platform,
            build_seconds=time.monotonic() - start,
        )
        with self._lock:
            self._images[digest] = image
        return image
