"""The multi-tenant workflow service: a Balsam-style control plane.

One CLI invocation used to drive one workflow run.  This module turns
the HPCWaaS Execution API into a persistent *service*: tenants append
jobs to the control-plane database (:class:`repro.service.ServiceDB`,
living inside ``runs.db``), and a launcher packs as many of them as fit
onto the shared simulated cluster at once, ordered by decayed
fair-share usage, bounded by per-tenant quotas, with small jobs
backfilling the gaps big ESM allocations leave behind.

The launcher is event-driven in the PR-7 sense: a single scheduling
thread sleeps on a condition that submissions, completions and
cancellations notify.  Every lifecycle transition is persisted, so a
service restarted over an existing database resumes the queue where it
stopped (LAUNCHED rows whose execution died with the old process are
recovered back to SUBMITTED).

User-facing verbs are keyed by tenant and enforce isolation: a tenant
can see, poll and cancel only its own jobs — touching another tenant's
job raises :class:`PermissionError`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.hpcwaas.api import ExecutionState, HPCWaaSAPI
from repro.observability.events import emit_event
from repro.observability.metrics import get_registry
from repro.service.db import JobState, ServiceDB, ServiceJob, Tenant
from repro.service.fairshare import FairShare

__all__ = ["ServiceError", "WorkflowService"]

_EXEC_TO_JOB = {
    ExecutionState.PENDING: JobState.LAUNCHED,
    ExecutionState.RUNNING: JobState.RUNNING,
    ExecutionState.COMPLETED: JobState.COMPLETED,
    ExecutionState.FAILED: JobState.FAILED,
    ExecutionState.CANCELLED: JobState.CANCELLED,
}


class ServiceError(RuntimeError):
    """Raised for service-level misuse (not started, no result, ...)."""


class WorkflowService:
    """Admission control + fair-share launcher over one cluster site.

    Parameters
    ----------
    db:
        The control-plane database (tenants, quotas, job rows).
    api:
        The HPCWaaS Execution API whose registry holds the deployed
        workflows jobs may reference.
    cluster:
        The shared cluster runs execute on; its LSF scheduler does the
        final node placement, the service does tenancy-aware admission.
    site:
        Site name recorded on job rows and in the ``sites`` table.
    fairshare:
        Usage accounting; a default 10-minute half-life instance when
        omitted.
    """

    def __init__(
        self,
        db: ServiceDB,
        api: HPCWaaSAPI,
        cluster: Cluster,
        site: str = "site-0",
        fairshare: Optional[FairShare] = None,
    ) -> None:
        self.db = db
        self.api = api
        self.cluster = cluster
        self.site = site
        self.fairshare = fairshare or FairShare()
        self._cond = threading.Condition()
        self._pending: List[ServiceJob] = []
        #: job_id -> live Execution for everything this process launched
        #: (kept after completion so ``result`` can answer).
        self._executions: Dict[str, Any] = {}
        #: job_id -> ServiceJob for launched-but-not-finished jobs.
        self._in_flight: Dict[str, ServiceJob] = {}
        self._started = False
        self._stop = False
        self._launcher: Optional[threading.Thread] = None
        #: tenants that ever held a running-cores gauge series, so a
        #: tenant whose last job finished resets to 0 instead of
        #: lingering at its final level.
        self._gauged_tenants: set = set()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkflowService":
        """Register the site, recover the queue, start the launcher."""
        with self._cond:
            if self._started:
                raise ServiceError("service already started")
            self._started = True
            self._stop = False
        self.db.register_site(
            self.site, cluster=self.cluster.name,
            total_cores=self.cluster.total_cores,
            total_memory_gb=self.cluster.total_memory_gb,
        )
        recovered = 0
        for job in self.db.jobs():
            if job.state in (JobState.LAUNCHED, JobState.RUNNING):
                # Left over from a launcher that died: its execution is
                # gone, so the job goes back to the queue (Balsam's
                # RESET-on-restart discipline).
                job = self.db.update_job(job.job_id, state=JobState.SUBMITTED)
                recovered += 1
            if job.state is JobState.SUBMITTED:
                self._pending.append(job)
        if recovered:
            get_registry().counter(
                "service_jobs_recovered_total",
                "Jobs reset to SUBMITTED after a launcher restart",
            ).inc(recovered)
            emit_event(
                "WARNING", "service", "jobs_recovered",
                f"recovered {recovered} orphaned job(s) back to SUBMITTED",
                site=self.site, recovered=recovered,
            )
        self._launcher = threading.Thread(
            target=self._launch_loop, name="service-launcher", daemon=True
        )
        self._launcher.start()
        return self

    def stop(self) -> None:
        """Stop launching.  In-flight runs finish on their own threads."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._launcher is not None:
            self._launcher.join(timeout=10)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until the queue and all in-flight jobs are finished."""
        with self._cond:
            finished = self._cond.wait_for(
                lambda: not self._pending and not self._in_flight, timeout
            )
        if not finished:
            raise TimeoutError(
                f"service did not drain: {len(self._pending)} queued, "
                f"{len(self._in_flight)} in flight"
            )

    def __enter__(self) -> "WorkflowService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- user-facing verbs (tenant-keyed) ------------------------------------

    def submit(
        self,
        tenant: str,
        workflow_id: str,
        cores: int = 1,
        memory_gb: float = 0.0,
        **params: Any,
    ) -> ServiceJob:
        """Append a run to *tenant*'s queue; returns the persisted job."""
        quota = self.db.get_tenant(tenant)
        if quota.max_running == 0:
            raise PermissionError(f"tenant {tenant!r} is disabled "
                                  "(max_running quota is 0)")
        job = self.db.submit_job(
            tenant, workflow_id, params=params, cores=cores,
            memory_gb=memory_gb, site=self.site,
        )
        get_registry().counter(
            "service_jobs_submitted_total", "Service jobs submitted by tenant",
            labels=("tenant",),
        ).inc(tenant=tenant)
        emit_event(
            "INFO", "service", "job_submitted",
            f"tenant {tenant} submitted {workflow_id} as job {job.job_id}",
            tenant=tenant, workflow=workflow_id, job_id=job.job_id,
            cores=cores,
        )
        with self._cond:
            self._pending.append(job)
            self._update_queue_gauge_locked()
            self._cond.notify_all()
        return job

    def status(self, tenant: str, job_id: str) -> JobState:
        """The job's lifecycle state, refined live while it executes."""
        job = self._owned(tenant, job_id)
        if not job.state.terminal:
            execution = self._executions.get(job_id)
            if execution is not None:
                return _EXEC_TO_JOB[execution.state]
        return job.state

    def result(self, tenant: str, job_id: str) -> Any:
        """A COMPLETED job's workflow result (this process's launches)."""
        job = self._owned(tenant, job_id)
        execution = self._executions.get(job_id)
        if execution is None:
            if job.state is JobState.COMPLETED:
                raise ServiceError(
                    f"job {job_id} completed under a previous service "
                    "process; its result was not retained"
                )
            raise ServiceError(f"job {job_id} is {job.state.value}, no result")
        if execution.state is not ExecutionState.COMPLETED:
            state = _EXEC_TO_JOB[execution.state]
            raise ServiceError(f"job {job_id} is {state.value}, no result")
        return execution.result

    def cancel(self, tenant: str, job_id: str) -> bool:
        """Cancel a queued (or still-pending launched) job.

        True when the job will not run; False for running or terminal
        jobs, mirroring :meth:`HPCWaaSAPI.cancel`.
        """
        job = self._owned(tenant, job_id)
        with self._cond:
            for queued in self._pending:
                if queued.job_id == job_id:
                    self._pending.remove(queued)
                    self._finish(queued, JobState.CANCELLED,
                                 error="cancelled before launch")
                    self._update_queue_gauge_locked()
                    self._cond.notify_all()
                    return True
        execution = self._executions.get(job_id)
        if execution is None or job.state.terminal:
            return False
        # The waiter thread observes the killed execution and persists
        # the CANCELLED transition.
        return self.api.cancel(execution.execution_id)

    def list_jobs(self, tenant: str) -> List[ServiceJob]:
        """*tenant*'s jobs only — the isolation boundary for listings."""
        self.db.get_tenant(tenant)
        return self.db.jobs(tenant=tenant)

    def _owned(self, tenant: str, job_id: str) -> ServiceJob:
        job = self.db.get_job(job_id)
        if job.tenant != tenant:
            raise PermissionError(
                f"job {job_id} belongs to tenant {job.tenant!r}, "
                f"not {tenant!r}"
            )
        return job

    # -- reporting -----------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Per-tenant outcome summary (counts, turnaround, usage)."""
        tenants: Dict[str, Any] = {}
        for tenant in self.db.list_tenants():
            jobs = self.list_jobs(tenant.name)
            turnarounds = [
                j.turnaround_s for j in jobs if j.turnaround_s is not None
            ]
            tenants[tenant.name] = {
                "share": tenant.share,
                "jobs": len(jobs),
                "by_state": self.db.job_counts(tenant=tenant.name),
                "backfilled": sum(1 for j in jobs if j.backfilled),
                "mean_turnaround_s": (
                    sum(turnarounds) / len(turnarounds) if turnarounds else None
                ),
                "usage_core_s": self.fairshare.usage(tenant.name),
            }
        return {"site": self.site, "cluster": self.cluster.name,
                "tenants": tenants}

    # -- live telemetry ------------------------------------------------------

    def _update_queue_gauge_locked(self) -> None:
        get_registry().gauge(
            "service_ready_queue_depth",
            "Jobs waiting in the service queue (SUBMITTED, not launched)",
        ).set(len(self._pending))

    def _update_tenant_gauges_locked(self) -> None:
        """Recompute per-tenant running-core and utilisation gauges.

        Derived from ``_in_flight`` so every launch and finish moves
        them; tenants whose last job finished reset to 0 (the
        ``_gauged_tenants`` memory) instead of freezing at their final
        level.
        """
        registry = get_registry()
        cores_gauge = registry.gauge(
            "service_tenant_running_cores",
            "Cores currently held by each tenant's launched/running jobs",
            labels=("tenant",),
        )
        util_gauge = registry.gauge(
            "service_tenant_utilisation",
            "Fraction of the cluster's cores each tenant currently holds",
            labels=("tenant",),
        )
        held: Dict[str, int] = {}
        for job in self._in_flight.values():
            held[job.tenant] = held.get(job.tenant, 0) + job.cores
        total = max(1, self.cluster.total_cores)
        self._gauged_tenants.update(held)
        for tenant in self._gauged_tenants:
            cores = held.get(tenant, 0)
            cores_gauge.set(cores, tenant=tenant)
            util_gauge.set(cores / total, tenant=tenant)

    # -- the launcher --------------------------------------------------------

    def _launch_loop(self) -> None:
        while True:
            with self._cond:
                if self._stop:
                    return
                launched = self._schedule_pass_locked()
                if not launched and not self._stop:
                    # Submissions, completions and cancellations all
                    # notify; the timeout is a safety net only.
                    self._cond.wait(timeout=1.0)

    def _available_cores_locked(self) -> int:
        """Free cores the launcher may still commit.

        The scheduler's free counters exclude RUNNING jobs but not
        launched jobs still PENDing dispatch, so those are subtracted:
        admission never oversubscribes what it has already promised.
        """
        free = self.cluster.scheduler.free_cores()
        pending_launched = sum(
            job.cores for job_id, job in self._in_flight.items()
            if self._executions[job_id].state is ExecutionState.PENDING
        )
        return free - pending_launched

    def _quota_blocked(self, job: ServiceJob, quota: Tenant) -> bool:
        running = [j for j in self._in_flight.values() if j.tenant == job.tenant]
        if quota.max_running and len(running) >= quota.max_running:
            return True
        if quota.max_cores:
            held = sum(j.cores for j in running)
            if held + job.cores > quota.max_cores:
                return True
        return False

    def _schedule_pass_locked(self) -> bool:
        """One fair-share pass over the queue; returns True if launched.

        Jobs are visited in normalized-usage order (then submit order).
        The first job that fits launches; once the fair-share head is
        blocked on cluster space, only *smaller* jobs may overtake it —
        that overtake is backfill and is counted as such.
        """
        if not self._pending:
            return False
        quotas = {t.name: t for t in self.db.list_tenants()}
        ordered = sorted(
            self._pending,
            key=lambda j: (
                self.fairshare.normalized(
                    j.tenant, quotas[j.tenant].share if j.tenant in quotas else 1.0
                ),
                j.submitted_at, j.job_id,
            ),
        )
        available = self._available_cores_locked()
        launched_any = False
        blocked_cores: Optional[int] = None
        for job in ordered:
            quota = quotas.get(job.tenant)
            if quota is None or self._quota_blocked(job, quota):
                continue
            if job.cores > available:
                if blocked_cores is None:
                    blocked_cores = job.cores
                continue
            backfilled = blocked_cores is not None and job.cores < blocked_cores
            self._pending.remove(job)
            self._launch_locked(job, backfilled=backfilled)
            available -= job.cores
            launched_any = True
        if launched_any:
            self._update_queue_gauge_locked()
        return launched_any

    def _launch_locked(self, job: ServiceJob, backfilled: bool) -> None:
        params = dict(job.params)
        # Tell the workflow where the fleet's run history lives, so its
        # final metrics delta and trace ref land in the same runs.db the
        # job row does (and `repro top` sees them cross-process).
        params.setdefault("runs_db", self.db.path)
        try:
            execution = self.api.invoke(
                job.workflow, cores=job.cores, memory_gb=job.memory_gb,
                **params,
            )
        except (KeyError, RuntimeError, ValueError) as exc:
            # Unknown workflow, undeployed deployment, impossible
            # resource request: the job fails without touching the
            # cluster.
            self._finish(job, JobState.FAILED, error=f"launch failed: {exc}")
            return
        job = self.db.update_job(
            job.job_id, state=JobState.LAUNCHED, site=self.site,
            backfilled=backfilled,
        )
        self._executions[job.job_id] = execution
        self._in_flight[job.job_id] = job
        self._update_tenant_gauges_locked()
        if backfilled:
            get_registry().counter(
                "service_backfill_launches_total",
                "Jobs launched ahead of a larger blocked fair-share head",
            ).inc()
        emit_event(
            "INFO", "service", "job_launched",
            f"job {job.job_id} ({job.workflow}, {job.cores} cores) launched "
            f"for tenant {job.tenant}" + (" [backfill]" if backfilled else ""),
            tenant=job.tenant, job_id=job.job_id, workflow=job.workflow,
            cores=job.cores, backfill=backfilled,
            execution_id=execution.execution_id,
        )
        threading.Thread(
            target=self._watch, args=(job, execution),
            name=f"service-watch-{job.job_id}", daemon=True,
        ).start()

    def _watch(self, job: ServiceJob, execution: Any) -> None:
        """Waiter thread: persist the outcome, charge usage, wake launcher."""
        try:
            execution.wait(timeout=None)
        except Exception:  # noqa: BLE001 - outcome read from state below
            pass
        state = _EXEC_TO_JOB[execution.state]
        lsf_job = execution.job
        runtime = lsf_job.runtime_seconds or 0.0
        # LSF stamps monotonic times; convert to wall clock for the rows.
        now_wall, now_mono = time.time(), time.monotonic()
        started = finished = None
        if lsf_job.start_time is not None:
            started = now_wall - (now_mono - lsf_job.start_time)
        if lsf_job.end_time is not None:
            finished = now_wall - (now_mono - lsf_job.end_time)
        error = "" if execution.error is None else repr(execution.error)
        # A completed workflow that recorded itself into runs.db returns
        # its run_id; persisting it on the job row links the control
        # plane to the run's metrics delta and trace reference.
        run_id = ""
        if state is JobState.COMPLETED and isinstance(execution.result, dict):
            run_id = str(execution.result.get("run_id") or "")
        with self._cond:
            self.fairshare.charge(job.tenant, job.cores * runtime)
            self._in_flight.pop(job.job_id, None)
            self._finish(job, state, started_at=started,
                         finished_at=finished, error=error, run_id=run_id)
            self._update_tenant_gauges_locked()
            self._cond.notify_all()

    def _finish(
        self,
        job: ServiceJob,
        state: JobState,
        started_at: Optional[float] = None,
        finished_at: Optional[float] = None,
        error: str = "",
        run_id: str = "",
    ) -> None:
        self.db.update_job(
            job.job_id, state=state, started_at=started_at,
            finished_at=finished_at or time.time(), error=error,
            run_id=run_id or None,
        )
        get_registry().counter(
            "service_jobs_total", "Finished service jobs by tenant and state",
            labels=("tenant", "state"),
        ).inc(tenant=job.tenant, state=state.value)
        if finished_at is not None:
            get_registry().histogram(
                "service_job_turnaround_seconds",
                "Submit-to-finish time by tenant",
                labels=("tenant",),
            ).observe(max(0.0, finished_at - job.submitted_at),
                      tenant=job.tenant)
        emit_event(
            "ERROR" if state is JobState.FAILED else "INFO",
            "service", "job_finished",
            f"job {job.job_id} finished {state.value}",
            tenant=job.tenant, job_id=job.job_id, state=state.value,
            error=error,
        )
