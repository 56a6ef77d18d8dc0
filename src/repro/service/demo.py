"""Demo workloads for the service: an ESM member and a small analytics job.

``repro service run`` and the ``service_burst`` benchmark workload
need real deployed workflows whose resource shapes exercise the launcher: a
*big* job (one ESM ensemble member holding several cores for a while)
and a *small* one (a heat-wave index computation on one core) whose
mixture makes fair-share ordering and gap backfill observable.  Both
run the repository's actual science code at unit-test scale and are
published through the full HPCWaaS path (TOSCA upload → Yorc deploy →
registry → Execution API), so a service job is indistinguishable from
a hand-invoked one.
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Dict, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.hpcwaas import Alien4Cloud, HPCWaaSAPI
from repro.observability.history import (
    RunHistory,
    default_history_path,
    new_run_id,
)

#: Workflow ids the demo registry publishes.
ESM_WORKFLOW = "esm-ensemble-member"
ANALYTICS_WORKFLOW = "heatwave-analytics"

_ESM_TOSCA = """
metadata:
  template_name: esm-ensemble-member
topology_template:
  inputs:
    year:
      default: 2030
    n_days:
      default: 4
    n_lat:
      default: 12
    n_lon:
      default: 18
    seed:
      default: 42
  node_templates:
    compute:
      type: eflows.nodes.ComputeAccess
      properties:
        queue: p_medium
    esm_app:
      type: eflows.nodes.PyCOMPSsApplication
      properties:
        entrypoint: repro.service.demo.run_esm_member
      requirements:
        - dependency: compute
"""

_ANALYTICS_TOSCA = """
metadata:
  template_name: heatwave-analytics
topology_template:
  inputs:
    n_days:
      default: 16
    n_lat:
      default: 12
    n_lon:
      default: 18
    seed:
      default: 7
    min_length_days:
      default: 3
  node_templates:
    compute:
      type: eflows.nodes.ComputeAccess
      properties:
        queue: p_short
    analytics_app:
      type: eflows.nodes.PyCOMPSsApplication
      properties:
        entrypoint: repro.service.demo.run_heatwave_analytics
      requirements:
        - dependency: compute
"""


def _snapshot_registry():
    """Best-effort pre-run registry snapshot for the job's metrics delta."""
    try:
        from repro.observability import get_registry

        return get_registry().snapshot()
    except Exception:  # noqa: BLE001 - telemetry must never fail the job
        return None


def _record_run(
    kind: str,
    params: Dict[str, Any],
    result: Dict[str, Any],
    snap_before,
    started: float,
) -> Optional[str]:
    """Append the finished job's metrics delta + trace ref to runs.db.

    The service injects its own database path as the ``runs_db`` param
    at launch, so every service-launched job lands in the same run
    history the control plane reads; stand-alone invocations fall back
    to ``$REPRO_RUNS_DB``.  Returns the recorded run id (``None`` when
    recording is disabled or fails — telemetry never fails the job).
    """
    db_path = params.get("runs_db") or default_history_path()
    if not db_path:
        return None
    try:
        from repro.observability import current_context, get_registry
        from repro.observability.resources import sample_process_resources

        sample_process_resources("driver")
        metrics = None
        if snap_before is not None:
            metrics = get_registry().snapshot().delta(snap_before).to_json()
        ctx = current_context()
        run_id = new_run_id()
        RunHistory(db_path).record_run(
            kind=kind,
            status="completed",
            params={k: v for k, v in params.items() if k != "runs_db"},
            wall_clock_s=time.monotonic() - started,
            metrics=metrics,
            trace_id=ctx.trace_id if ctx is not None else "",
            run_id=run_id,
            extra={"result": result},
        )
        return run_id
    except Exception:  # noqa: BLE001 - telemetry must never fail the job
        return None


def run_esm_member(cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
    """One ensemble member: a short ESM projection writing daily files.

    Each invocation writes under a unique directory, so concurrent
    members (and requeued re-executions after a node death) never
    clobber each other.
    """
    from repro.esm import CMCCCM3, ModelConfig

    started = time.monotonic()
    snap_before = _snapshot_registry()
    year = int(params.get("year", 2030))
    n_days = int(params.get("n_days", 4))
    seed = int(params.get("seed", 42))
    model = CMCCCM3(ModelConfig(
        n_lat=int(params.get("n_lat", 12)), n_lon=int(params.get("n_lon", 18)),
        seed=seed,
    ))
    out_dir = f"service/esm/{year}-{seed}-{uuid.uuid4().hex[:8]}"
    truth = model.run([year], cluster.filesystem, output_dir=out_dir,
                      n_days=n_days)
    events = truth[year]
    result = {
        "workflow": ESM_WORKFLOW,
        "year": year,
        "days_written": n_days,
        "output_dir": out_dir,
        "heat_waves": len(events["heat_waves"]),
        "tropical_cyclones": len(events["tropical_cyclones"]),
    }
    run_id = _record_run(
        f"service:{ESM_WORKFLOW}", params, result, snap_before, started
    )
    if run_id:
        result["run_id"] = run_id
    return result


def run_heatwave_analytics(
    cluster: Cluster, params: Dict[str, Any]
) -> Dict[str, Any]:
    """A small analytics job: heat-wave indices on synthetic daily maxima."""
    import numpy as np

    from repro.analytics import compute_heatwave_indices

    started = time.monotonic()
    snap_before = _snapshot_registry()
    n_days = int(params.get("n_days", 16))
    n_lat = int(params.get("n_lat", 12))
    n_lon = int(params.get("n_lon", 18))
    rng = np.random.default_rng(int(params.get("seed", 7)))
    baseline = 290.0 + 5.0 * rng.standard_normal((n_days, n_lat, n_lon))
    tmax = baseline + rng.gamma(2.0, 2.0, size=baseline.shape)
    indices = compute_heatwave_indices(
        tmax, baseline,
        min_length_days=int(params.get("min_length_days", 3)),
    )
    result = {
        "workflow": ANALYTICS_WORKFLOW,
        "n_days": n_days,
        "max_wave_number": float(indices.number.max()),
        "max_wave_duration_days": float(indices.duration_max.max()),
        "mean_wave_frequency": float(indices.frequency.mean()),
    }
    run_id = _record_run(
        f"service:{ANALYTICS_WORKFLOW}", params, result, snap_before, started
    )
    if run_id:
        result["run_id"] = run_id
    return result


def build_demo_services(cluster: Cluster) -> Tuple[Alien4Cloud, HPCWaaSAPI]:
    """Deploy and publish both demo workflows onto *cluster*."""
    a4c = Alien4Cloud()
    for tosca, workflow_id, entrypoint in (
        (_ESM_TOSCA, ESM_WORKFLOW, run_esm_member),
        (_ANALYTICS_TOSCA, ANALYTICS_WORKFLOW, run_heatwave_analytics),
    ):
        topology = a4c.upload_topology(tosca)
        deployment = a4c.deploy(topology.name, cluster)
        a4c.publish_workflow(workflow_id, deployment, entrypoint)
    api = HPCWaaSAPI(a4c.registry, orchestrator=a4c.orchestrator)
    return a4c, api
