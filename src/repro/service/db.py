"""The service control-plane database: tenants, sites, jobs.

Balsam's core idea is that the unit of persistence is the *job*, not
the process: users append jobs to a database from anywhere, launchers
drain them onto allocations, and every lifecycle transition is a row
update that survives restarts.  :class:`ServiceDB` brings that model to
this repository by extending the PR-6 ``runs.db`` schema (see
:mod:`repro.observability.history`, schema v2) with three tables:

* ``tenants`` — the users of the service: a fair-share weight plus
  quotas (max concurrently running jobs, max concurrently held cores);
* ``sites`` — the clusters launchers execute on (name, capacity,
  liveness timestamps);
* ``service_jobs`` — one row per submitted workflow run with its full
  lifecycle: ``SUBMITTED → LAUNCHED → COMPLETED/FAILED/CANCELLED``
  (``RUNNING`` is a live refinement of LAUNCHED reported by the
  in-process service, see :class:`repro.service.WorkflowService`).

Everything inherits the history store's concurrency discipline — WAL
journal, ``BEGIN IMMEDIATE``, one shared connection per file per
process — so ``repro submit`` in one process and a draining ``repro
service run`` in another cooperate on the same file.  Every write
of a job returns its row with ``RETURNING *``, so a lifecycle
transition is one statement and one commit.
"""

from __future__ import annotations

import enum
import json
import sqlite3
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.observability.history import RunHistory

__all__ = ["JobState", "ServiceDB", "ServiceJob", "Site", "Tenant"]


class JobState(enum.Enum):
    """Service-job lifecycle (the persistent, Balsam-style states)."""

    SUBMITTED = "SUBMITTED"   # in the database, awaiting a launcher
    LAUNCHED = "LAUNCHED"     # handed to HPCWaaS/LSF (covers PEND)
    RUNNING = "RUNNING"       # live refinement while the batch job runs
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED
        )


@dataclass(frozen=True)
class Tenant:
    """One user of the service: identity + fair-share weight + quotas."""

    name: str
    share: float = 1.0
    #: Max concurrently running/launched jobs (0 disables the tenant).
    max_running: int = 4
    #: Max concurrently held cores; 0 means unlimited.
    max_cores: int = 0
    created_at: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name, "share": self.share,
            "max_running": self.max_running, "max_cores": self.max_cores,
            "created_at": self.created_at,
        }


@dataclass(frozen=True)
class Site:
    """A cluster a launcher executes on."""

    name: str
    cluster: str = ""
    total_cores: int = 0
    total_memory_gb: float = 0.0
    created_at: float = 0.0
    last_seen_at: float = 0.0


@dataclass(frozen=True)
class ServiceJob:
    """One submitted workflow run (a ``service_jobs`` row)."""

    job_id: str
    tenant: str
    workflow: str
    site: str
    state: JobState
    cores: int
    memory_gb: float
    params: Dict[str, Any]
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    error: str
    run_id: str
    backfilled: bool

    @property
    def turnaround_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_json(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id, "tenant": self.tenant,
            "workflow": self.workflow, "site": self.site,
            "state": self.state.value, "cores": self.cores,
            "memory_gb": self.memory_gb, "params": self.params,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at, "finished_at": self.finished_at,
            "error": self.error, "run_id": self.run_id,
            "backfilled": self.backfilled,
        }


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


class ServiceDB(RunHistory):
    """``runs.db`` plus the control-plane tables (schema v2).

    Subclassing :class:`RunHistory` reuses its migrations and
    connection discipline and keeps service jobs joinable with run
    telemetry in one file.
    """

    # -- tenants ------------------------------------------------------------

    def add_tenant(
        self,
        name: str,
        share: float = 1.0,
        max_running: int = 4,
        max_cores: int = 0,
    ) -> Tenant:
        if not name:
            raise ValueError("tenant name must be non-empty")
        if share <= 0:
            raise ValueError("tenant share must be positive")
        if max_running < 0 or max_cores < 0:
            raise ValueError("tenant quotas must be non-negative")
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    "INSERT INTO tenants (name, share, max_running, "
                    "max_cores, created_at) VALUES (?, ?, ?, ?, ?)",
                    (name, share, max_running, max_cores, time.time()),
                )
            except sqlite3.IntegrityError:
                raise ValueError(f"tenant {name!r} already exists") from None
            conn.commit()
        return self.get_tenant(name)

    def get_tenant(self, name: str) -> Tenant:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM tenants WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown tenant {name!r}")
        return _tenant(row)

    def list_tenants(self) -> List[Tenant]:
        with self._connect() as conn:
            rows = conn.execute("SELECT * FROM tenants ORDER BY name").fetchall()
        return [_tenant(row) for row in rows]

    # -- sites --------------------------------------------------------------

    def register_site(
        self,
        name: str,
        cluster: str = "",
        total_cores: int = 0,
        total_memory_gb: float = 0.0,
    ) -> Site:
        """Upsert a site row (a launcher heartbeats through this)."""
        now = time.time()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT INTO sites (name, cluster, total_cores, "
                "total_memory_gb, created_at, last_seen_at) "
                "VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET cluster = excluded.cluster, "
                "total_cores = excluded.total_cores, "
                "total_memory_gb = excluded.total_memory_gb, "
                "last_seen_at = excluded.last_seen_at",
                (name, cluster, total_cores, total_memory_gb, now, now),
            )
            conn.commit()
        return self.get_site(name)

    def get_site(self, name: str) -> Site:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM sites WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown site {name!r}")
        return Site(
            name=row["name"], cluster=row["cluster"],
            total_cores=row["total_cores"],
            total_memory_gb=row["total_memory_gb"],
            created_at=row["created_at"], last_seen_at=row["last_seen_at"],
        )

    def list_sites(self) -> List[Site]:
        with self._connect() as conn:
            rows = conn.execute("SELECT name FROM sites ORDER BY name").fetchall()
        return [self.get_site(row["name"]) for row in rows]

    # -- jobs ---------------------------------------------------------------

    def submit_job(
        self,
        tenant: str,
        workflow: str,
        params: Optional[Mapping[str, Any]] = None,
        cores: int = 1,
        memory_gb: float = 0.0,
        site: str = "",
        job_id: Optional[str] = None,
    ) -> ServiceJob:
        """Append a SUBMITTED job row (the ``repro submit`` verb).

        An unknown *tenant* raises :class:`KeyError`; the check is part
        of the INSERT, so a submission is one statement.
        """
        if cores < 1:
            raise ValueError("jobs need >= 1 core")
        if memory_gb < 0:
            raise ValueError("memory request must be non-negative")
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "INSERT INTO service_jobs (job_id, tenant, workflow, site, "
                "state, cores, memory_gb, params_json, submitted_at) "
                "SELECT ?, ?, ?, ?, ?, ?, ?, ?, ? WHERE EXISTS "
                "(SELECT 1 FROM tenants WHERE name = ?) RETURNING *",
                (job_id or new_job_id(), tenant, workflow, site,
                 JobState.SUBMITTED.value, cores, memory_gb,
                 json.dumps(dict(params or {}), sort_keys=True, default=str),
                 time.time(), tenant),
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown tenant {tenant!r}")
            conn.commit()
        return _job(row)

    def get_job(self, job_id: str) -> ServiceJob:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM service_jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        return _job(row)

    def jobs(
        self,
        tenant: Optional[str] = None,
        state: Optional[JobState] = None,
        site: Optional[str] = None,
    ) -> List[ServiceJob]:
        """Jobs in submission order, optionally filtered."""
        query, values = "SELECT * FROM service_jobs", []
        clauses = []
        if tenant is not None:
            clauses.append("tenant = ?")
            values.append(tenant)
        if state is not None:
            clauses.append("state = ?")
            values.append(state.value)
        if site is not None:
            clauses.append("site = ?")
            values.append(site)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY submitted_at, job_id"
        with self._connect() as conn:
            rows = conn.execute(query, values).fetchall()
        return [_job(row) for row in rows]

    def update_job(
        self,
        job_id: str,
        state: Optional[JobState] = None,
        site: Optional[str] = None,
        started_at: Optional[float] = None,
        finished_at: Optional[float] = None,
        error: Optional[str] = None,
        run_id: Optional[str] = None,
        backfilled: Optional[bool] = None,
    ) -> ServiceJob:
        """Persist a lifecycle transition."""
        sets, values = [], []
        for column, value in (
            ("state", state.value if state is not None else None),
            ("site", site), ("started_at", started_at),
            ("finished_at", finished_at),
            ("error", error[:2000] if error is not None else None),
            ("run_id", run_id),
            ("backfilled", int(backfilled) if backfilled is not None else None),
        ):
            if value is not None:
                sets.append(f"{column} = ?")
                values.append(value)
        if not sets:
            return self.get_job(job_id)
        values.append(job_id)
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                f"UPDATE service_jobs SET {', '.join(sets)} WHERE job_id = ? "
                "RETURNING *",
                values,
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job {job_id!r}")
            conn.commit()
        return _job(row)

    def job_counts(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """State -> count, optionally for one tenant."""
        query = "SELECT state, COUNT(*) AS n FROM service_jobs"
        values: List[Any] = []
        if tenant is not None:
            query += " WHERE tenant = ?"
            values.append(tenant)
        query += " GROUP BY state"
        with self._connect() as conn:
            rows = conn.execute(query, values).fetchall()
        return {row["state"]: row["n"] for row in rows}


def _tenant(row: sqlite3.Row) -> Tenant:
    return Tenant(
        name=row["name"], share=row["share"],
        max_running=row["max_running"], max_cores=row["max_cores"],
        created_at=row["created_at"],
    )


def _job(row: sqlite3.Row) -> ServiceJob:
    try:
        params = json.loads(row["params_json"] or "{}")
    except ValueError:
        params = {}
    return ServiceJob(
        job_id=row["job_id"], tenant=row["tenant"],
        workflow=row["workflow"], site=row["site"],
        state=JobState(row["state"]), cores=row["cores"],
        memory_gb=row["memory_gb"],
        params=params if isinstance(params, dict) else {},
        submitted_at=row["submitted_at"], started_at=row["started_at"],
        finished_at=row["finished_at"], error=row["error"],
        run_id=row["run_id"], backfilled=bool(row["backfilled"]),
    )
