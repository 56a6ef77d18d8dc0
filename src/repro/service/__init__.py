"""Multi-tenant workflow service: a Balsam-style control plane.

Layers a persistent job database, per-tenant quotas, decayed fair-share
ordering, and gap backfill on top of the HPCWaaS Execution API, so that
many users can share one simulated cluster:

- :class:`ServiceDB` extends the run-history store with tenants, sites,
  and durable job lifecycle rows (jobs survive service restarts).
- :class:`FairShare` provides LSF/Slurm-style decayed-usage ordering.
- :class:`WorkflowService` is the control plane: ``submit`` / ``status``
  / ``result`` / ``cancel`` / ``list_jobs`` keyed by tenant, plus an
  event-driven launcher that packs runnable jobs onto the cluster.
- :mod:`repro.service.demo` publishes two demo workflows (an ESM
  ensemble member and a small analytics job) through the full HPCWaaS
  path for the CLI and the ``service_burst`` benchmark workload.
"""

from repro.service.db import (
    JobState,
    ServiceDB,
    ServiceJob,
    Site,
    Tenant,
    new_job_id,
)
from repro.service.demo import (
    ANALYTICS_WORKFLOW,
    ESM_WORKFLOW,
    build_demo_services,
)
from repro.service.fairshare import FairShare
from repro.service.service import ServiceError, WorkflowService
from repro.service.top import gather_top_state, render_top

__all__ = [
    "ANALYTICS_WORKFLOW",
    "ESM_WORKFLOW",
    "FairShare",
    "JobState",
    "ServiceDB",
    "ServiceError",
    "ServiceJob",
    "Site",
    "Tenant",
    "WorkflowService",
    "build_demo_services",
    "gather_top_state",
    "new_job_id",
    "render_top",
]
