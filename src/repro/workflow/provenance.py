"""Workflow provenance: FAIR-oriented run documentation (the paper's §2).

"Scientific workflows can promote Open Science practices since the
document can easily become compliant with the FAIR principles
(Findable, Accessible, Interoperable, Reusable)."  This module renders
a completed run into a W3C-PROV-flavoured JSON document:

* **agents** — the software components (runtime, model, analytics) with
  versions;
* **activities** — one per executed task, with timing, state and the
  executing worker (from the tracer);
* **entities** — the files the run produced on the shared filesystem,
  with sizes and a content digest (Findable/Accessible);
* **relations** — ``wasGeneratedBy`` edges from the task graph's data
  dependencies (Interoperable), plus the workflow parameters needed to
  re-execute (Reusable).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.cluster.filesystem import SharedFilesystem
from repro.compss.runtime import COMPSsRuntime

PROV_VERSION = "repro-prov/1.0"


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def collect_entities(
    filesystem: SharedFilesystem, directories: List[str]
) -> List[Dict[str, Any]]:
    """Catalogue the files under *directories* as PROV entities."""
    entities = []
    for directory in directories:
        for name in filesystem.listdir(directory):
            rel = f"{directory}/{name}"
            if not filesystem.exists(rel) or name.endswith(".tmp"):
                continue
            try:
                size = filesystem.size(rel)
            except OSError:
                continue
            entity = {
                "id": f"entity:{rel}",
                "path": rel,
                "bytes": size,
            }
            # Digest small files only; daily model output is hashed lazily
            # by consumers (hashing gigabytes here would dominate runtime).
            if size <= 1_000_000:
                entity["sha256_16"] = _digest(filesystem.read_bytes(rel))
            entities.append(entity)
    return entities


#: Run bookkeeping written next to the science; timings and trace ids
#: differ between otherwise identical runs, so equivalence checks skip them.
_NON_SCIENCE_FILES = {
    "trace.json", "run_summary.json", "provenance.json", "task_graph.dot",
    "events.jsonl",
}


def science_digests(
    filesystem: SharedFilesystem, results_dir: str = "results"
) -> Dict[str, str]:
    """Content digests of the science artifacts under *results_dir*.

    Excludes run bookkeeping (traces, metrics, summaries) so two runs
    that differ only in scheduling or caching — but not in science —
    produce identical digest maps.  Used by the cache-equivalence tests
    to prove the reuse layer is byte-transparent.
    """
    digests: Dict[str, str] = {}
    for name in filesystem.listdir(results_dir):
        if name in _NON_SCIENCE_FILES or name.endswith(".tmp"):
            continue
        digests[name] = _digest(filesystem.read_bytes(f"{results_dir}/{name}"))
    return digests


def collect_activities(runtime: COMPSsRuntime) -> List[Dict[str, Any]]:
    """One PROV activity per task, joined with its trace events."""
    events_by_task: Dict[int, List] = {}
    for event in runtime.tracer.events:
        events_by_task.setdefault(event.attrs["task_id"], []).append(event)

    t0 = runtime.started_at
    activities = []
    for node in runtime.graph.tasks():
        record: Dict[str, Any] = {
            "id": f"activity:task/{node.task_id}",
            "function": node.func_name,
            "label": node.display_name,
            "state": node.state.value,
            "attempts": node.attempts,
            "used": [
                f"activity:task/{dep}" for dep in
                runtime.graph.predecessors(node.task_id)
            ],
        }
        events = events_by_task.get(node.task_id)
        if events:
            last = max(events, key=lambda e: e.end)
            record["startedAt_s"] = round(min(e.start for e in events) - t0, 6)
            record["endedAt_s"] = round(last.end - t0, 6)
            record["worker"] = last.attrs["worker_id"]
        activities.append(record)
    return activities


def build_provenance(
    runtime: COMPSsRuntime,
    filesystem: SharedFilesystem,
    params: Optional[Dict[str, Any]] = None,
    output_dirs: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Assemble the full provenance document for a completed run."""
    import repro

    agents = [
        {"id": "agent:repro", "type": "software",
         "version": getattr(repro, "__version__", "unknown")},
        {"id": "agent:compss-runtime", "type": "software",
         "workers": runtime.config.n_workers,
         "scheduler": runtime.config.scheduler.name},
        {"id": "agent:cmcc-cm3-sim", "type": "model"},
    ]
    document = {
        "prov_version": PROV_VERSION,
        "agents": agents,
        "activities": collect_activities(runtime),
        "entities": collect_entities(filesystem, output_dirs or ["results"]),
        "parameters": dict(params or {}),
        "statistics": {
            "n_tasks": len(runtime.graph),
            "n_edges": len(runtime.graph.edges()),
            "makespan_s": runtime.tracer.makespan(),
            "by_state": dict(runtime.graph.counts_by_state()),
        },
    }
    return document


def write_provenance(
    runtime: COMPSsRuntime,
    filesystem: SharedFilesystem,
    path: str = "results/provenance.json",
    **kwargs: Any,
) -> str:
    """Build and persist the provenance document; returns its path."""
    document = build_provenance(runtime, filesystem, **kwargs)
    filesystem.write_bytes(
        path, json.dumps(document, indent=1, default=str).encode("utf-8")
    )
    return path
