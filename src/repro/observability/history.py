"""Persistent run history: a SQLite-backed registry of workflow runs.

Telemetry so far evaporated with the process: spans, metrics and
profiles all described *one* run and were gone when it ended.  This
module gives the system cross-run memory — every ``repro run`` /
``run-distributed`` / ``chaos`` invocation persists a row
into ``runs.db`` (run id, kind, status, wall clock, git revision,
params digest, the full per-run metrics snapshot and the critical-path
profile summary), queryable long after the process exited::

    $ repro history list
    $ repro history show 4f9a
    $ repro history compare 4f9a 81c2      # headline + critical-path diff

The store is deliberately boring and robust:

* **schema-versioned** via ``PRAGMA user_version`` with in-place
  migration hooks, so old databases keep working across PRs;
* **concurrent-writer safe** — WAL journal mode, ``BEGIN IMMEDIATE``
  transactions and a busy timeout, so parallel processes can all
  record into one database;
* **one connection per file per process** — every :class:`RunHistory`
  (or :class:`repro.service.ServiceDB`) of one absolute path in one
  process shares a single connection, its PRAGMAs and its migration
  check, serialised by a lock, so a service's job threads cost no
  connects.  The share is keyed by ``(os.getpid(), path)``: a forked
  child never touches its parent's connection, it opens its own.  The
  connection is closed by :meth:`RunHistory.close` or when the last
  instance of that path goes away, and then SQLite removes the ``-wal``
  and ``-shm`` files.  Reads run outside any transaction, and a block
  that raises rolls back, so no operation leaves a transaction open.

``compare`` diffs two runs' headline metrics using per-metric-name
tolerance specs
(:func:`repro.observability.baseline.default_metric_spec`), plus the
critical-path category attribution from each run's profile, and flags
drifts beyond tolerance.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "RunHistory",
    "RunRecord",
    "compare_runs",
    "default_history_path",
    "git_revision",
    "new_run_id",
    "params_digest",
    "render_comparison",
    "render_run",
    "render_run_table",
]

#: Bumped on every schema change; ``_MIGRATIONS[v]`` upgrades v -> v+1.
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        TEXT PRIMARY KEY,
    kind          TEXT NOT NULL,
    status        TEXT NOT NULL,
    started_at    REAL NOT NULL,
    wall_clock_s  REAL,
    git_rev       TEXT NOT NULL DEFAULT '',
    params_digest TEXT NOT NULL DEFAULT '',
    trace_id      TEXT NOT NULL DEFAULT '',
    error         TEXT NOT NULL DEFAULT '',
    params_json   TEXT NOT NULL DEFAULT '{}',
    metrics_json  TEXT NOT NULL DEFAULT '{}',
    profile_json  TEXT NOT NULL DEFAULT '{}',
    extra_json    TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_runs_started ON runs (started_at DESC);
CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs (kind);
"""

#: v2 — the multi-tenant workflow-service control plane
#: (:mod:`repro.service`): tenants with fair-share weights and quotas,
#: the sites jobs land on, and one row per submitted workflow job with
#: its full lifecycle (SUBMITTED → LAUNCHED → COMPLETED/FAILED/
#: CANCELLED).  Lives in the same ``runs.db`` so a service job's
#: ``run_id`` column joins straight onto the ``runs`` table.
_SCHEMA_V2 = """
CREATE TABLE IF NOT EXISTS tenants (
    name         TEXT PRIMARY KEY,
    share        REAL NOT NULL DEFAULT 1.0,
    max_running  INTEGER NOT NULL DEFAULT 4,
    max_cores    INTEGER NOT NULL DEFAULT 0,
    created_at   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS sites (
    name            TEXT PRIMARY KEY,
    cluster         TEXT NOT NULL DEFAULT '',
    total_cores     INTEGER NOT NULL DEFAULT 0,
    total_memory_gb REAL NOT NULL DEFAULT 0,
    created_at      REAL NOT NULL,
    last_seen_at    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS service_jobs (
    job_id       TEXT PRIMARY KEY,
    tenant       TEXT NOT NULL,
    workflow     TEXT NOT NULL,
    site         TEXT NOT NULL DEFAULT '',
    state        TEXT NOT NULL,
    cores        INTEGER NOT NULL DEFAULT 1,
    memory_gb    REAL NOT NULL DEFAULT 0,
    params_json  TEXT NOT NULL DEFAULT '{}',
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    error        TEXT NOT NULL DEFAULT '',
    run_id       TEXT NOT NULL DEFAULT '',
    backfilled   INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_service_jobs_tenant
    ON service_jobs (tenant, submitted_at);
CREATE INDEX IF NOT EXISTS idx_service_jobs_state ON service_jobs (state);
"""


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 databases predate the service control plane: add its tables."""
    conn.executescript(_SCHEMA_V2)


#: ``_MIGRATIONS[v]`` upgrades an existing database from v to v+1.
_MIGRATIONS = {1: _migrate_v1_to_v2}


def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


def default_history_path() -> Optional[str]:
    """The ambient ``runs.db`` path, or None when history is disabled.

    Drivers called as a library persist nothing unless ``$REPRO_RUNS_DB``
    points somewhere (unit tests stay side-effect free); the CLI sets
    an explicit path.
    """
    return os.environ.get("REPRO_RUNS_DB") or None


def git_revision() -> str:
    """Best-effort current git revision (never raises, '' if unknown).

    ``$REPRO_GIT_REV`` overrides; otherwise ``.git/HEAD`` is resolved by
    hand so recording a run costs no subprocess.
    """
    override = os.environ.get("REPRO_GIT_REV")
    if override:
        return override
    try:
        # Walk up from the installed package, not the cwd: runs launched
        # from a scratch directory still resolve the checkout's HEAD.
        root = os.path.dirname(os.path.abspath(__file__))
        while True:
            head_path = os.path.join(root, ".git", "HEAD")
            if os.path.exists(head_path):
                break
            parent = os.path.dirname(root)
            if parent == root:
                return ""
            root = parent
        with open(head_path, "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            ref_path = os.path.join(root, ".git", *ref.split("/"))
            if os.path.exists(ref_path):
                with open(ref_path, "r", encoding="utf-8") as fh:
                    return fh.read().strip()[:12]
            packed = os.path.join(root, ".git", "packed-refs")
            if os.path.exists(packed):
                with open(packed, "r", encoding="utf-8") as fh:
                    for line in fh:
                        if line.strip().endswith(ref):
                            return line.split()[0][:12]
            return ""
        return head[:12]
    except OSError:  # pragma: no cover - unreadable .git
        return ""


def params_digest(params: Mapping[str, Any]) -> str:
    """Stable short digest of a run's parameters (order-insensitive)."""
    import hashlib

    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """One persisted run, JSON columns decoded."""

    run_id: str
    kind: str
    status: str
    started_at: float
    wall_clock_s: Optional[float]
    git_rev: str
    params_digest: str
    trace_id: str
    error: str
    params: Dict[str, Any]
    metrics: Dict[str, Any]
    profile: Dict[str, Any]
    extra: Dict[str, Any]

    def to_json(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id, "kind": self.kind, "status": self.status,
            "started_at": self.started_at, "wall_clock_s": self.wall_clock_s,
            "git_rev": self.git_rev, "params_digest": self.params_digest,
            "trace_id": self.trace_id, "error": self.error,
            "params": self.params, "metrics": self.metrics,
            "profile": self.profile, "extra": self.extra,
        }

    @property
    def headline_metrics(self) -> Dict[str, float]:
        from repro.observability.baseline import extract_headline_metrics

        return extract_headline_metrics(self.metrics) if self.metrics else {}


def _close(conn: sqlite3.Connection, pid: int) -> None:
    if os.getpid() == pid:  # never close a connection a fork inherited
        conn.close()


class _Store:
    """This process's one connection to one ``runs.db`` file."""

    def __init__(self, path: str, timeout: float) -> None:
        self.path = path
        self.timeout = timeout
        self.lock = threading.RLock()
        self.migrated = False
        self.conn: Optional[sqlite3.Connection] = None
        self._release: Optional[weakref.finalize] = None

    def connection(self) -> sqlite3.Connection:
        """The open connection (opened on first use); hold ``lock``."""
        if self.conn is None:
            conn = sqlite3.connect(
                self.path, timeout=self.timeout, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
            conn.row_factory = sqlite3.Row
            self.conn = conn
            # Runs when the last instance drops the store, at interpreter
            # exit, or from close(), whichever comes first.
            self._release = weakref.finalize(self, _close, conn, os.getpid())
        return self.conn

    def close(self) -> None:
        with self.lock:
            if self._release is not None:
                self._release()
            self.conn = self._release = None


_STORES: "weakref.WeakValueDictionary[Tuple[int, str], _Store]" = (
    weakref.WeakValueDictionary()
)
_STORES_LOCK = threading.Lock()


def _reset_stores_lock() -> None:
    global _STORES_LOCK
    _STORES_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_stores_lock)


def _shared_store(path: str, timeout: float) -> _Store:
    key = (os.getpid(), path)
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            store = _STORES[key] = _Store(path, timeout)
    return store


class RunHistory:
    """The ``runs.db`` store.  Safe for concurrent writers (WAL).

    Instances of one path share one connection per process (see the
    module docstring); the first instance's *timeout* is the one used.
    """

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self.path = os.path.abspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._store = _shared_store(self.path, timeout)
        with self._connect() as conn:
            if not self._store.migrated:
                self._migrate(conn)
                self._store.migrated = True

    # -- connections --------------------------------------------------------

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """The shared connection, held exclusively for the block."""
        with self._store.lock:
            conn = self._store.connection()
            try:
                yield conn
            finally:
                if conn.in_transaction:  # a write that raised
                    conn.rollback()

    def close(self) -> None:
        """Close this process's connection to the file now.

        Every instance of the path shares it; the next operation on any
        of them reopens it.
        """
        self._store.close()

    def __enter__(self) -> "RunHistory":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _migrate(self, conn: sqlite3.Connection) -> None:
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"{self.path}: schema version {version} is newer than this "
                f"build supports ({SCHEMA_VERSION}); upgrade the code, not "
                "the database"
            )
        if version == SCHEMA_VERSION:
            return
        # Idempotent DDL (IF NOT EXISTS throughout), so two processes
        # racing through first-open both succeed; executescript commits
        # implicitly.  A fresh database gets the full current schema;
        # an old one chains through _MIGRATIONS one version at a time.
        if version == 0:
            conn.executescript(_SCHEMA)
            conn.executescript(_SCHEMA_V2)
        else:
            while version < SCHEMA_VERSION:
                _MIGRATIONS[version](conn)
                version += 1
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        conn.commit()

    def schema_version(self) -> int:
        """The database's ``PRAGMA user_version`` (after migration)."""
        with self._connect() as conn:
            return conn.execute("PRAGMA user_version").fetchone()[0]

    # -- writes -------------------------------------------------------------

    def record_start(
        self,
        run_id: str,
        kind: str,
        params: Optional[Mapping[str, Any]] = None,
        trace_id: str = "",
    ) -> str:
        """Insert a ``running`` row at workflow start; returns *run_id*."""
        self._insert(run_id, kind, params, trace_id, {"status": "running"})
        return run_id

    def _insert(
        self,
        run_id: str,
        kind: str,
        params: Optional[Mapping[str, Any]],
        trace_id: str,
        columns: Mapping[str, Any],
    ) -> None:
        params = dict(params or {})
        row = {
            "run_id": run_id, "kind": kind, "started_at": time.time(),
            "git_rev": git_revision(), "params_digest": params_digest(params),
            "trace_id": trace_id,
            "params_json": json.dumps(params, sort_keys=True, default=str),
            **columns,
        }
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                f"INSERT OR REPLACE INTO runs ({', '.join(row)}) "
                f"VALUES ({', '.join('?' * len(row))})", list(row.values()),
            )
            conn.commit()

    def record_end(
        self,
        run_id: str,
        status: str,
        wall_clock_s: Optional[float] = None,
        metrics: Optional[Mapping[str, Any]] = None,
        profile: Optional[Mapping[str, Any]] = None,
        trace_id: Optional[str] = None,
        error: str = "",
        extra: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Close a run's row with its outcome and telemetry snapshots."""
        columns = _outcome_columns(status, wall_clock_s, metrics, profile,
                                   error, extra)
        if trace_id is not None:
            columns["trace_id"] = trace_id
        sets = ", ".join(f"{name} = ?" for name in columns)
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cur = conn.execute(
                f"UPDATE runs SET {sets} WHERE run_id = ?",
                [*columns.values(), run_id],
            )
            if cur.rowcount == 0:
                raise KeyError(f"unknown run_id {run_id!r} in {self.path}")
            conn.commit()

    def record_run(
        self,
        kind: str,
        status: str,
        params: Optional[Mapping[str, Any]] = None,
        wall_clock_s: Optional[float] = None,
        metrics: Optional[Mapping[str, Any]] = None,
        profile: Optional[Mapping[str, Any]] = None,
        trace_id: str = "",
        error: str = "",
        extra: Optional[Mapping[str, Any]] = None,
        run_id: Optional[str] = None,
    ) -> str:
        """One-shot insert of a finished run (one statement, one commit)."""
        rid = run_id or new_run_id()
        self._insert(rid, kind, params, trace_id, _outcome_columns(
            status, wall_clock_s, metrics, profile, error, extra))
        return rid

    # -- reads --------------------------------------------------------------

    def list_runs(
        self, limit: int = 20, kind: Optional[str] = None
    ) -> List[RunRecord]:
        """Most recent runs first."""
        query = "SELECT * FROM runs"
        values: List[Any] = []
        if kind is not None:
            query += " WHERE kind = ?"
            values.append(kind)
        query += " ORDER BY started_at DESC, run_id LIMIT ?"
        values.append(limit)
        with self._connect() as conn:
            rows = conn.execute(query, values).fetchall()
        return [_record(row) for row in rows]

    def get(self, run_id: str) -> RunRecord:
        """Fetch by exact id or unique prefix (git-style)."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
            if row is not None:
                return _record(row)
            rows = conn.execute(
                "SELECT * FROM runs WHERE run_id LIKE ? ORDER BY started_at",
                (run_id + "%",),
            ).fetchall()
        if not rows:
            raise KeyError(f"no run matching {run_id!r} in {self.path}")
        if len(rows) > 1:
            ids = ", ".join(r["run_id"] for r in rows[:5])
            raise KeyError(f"run id prefix {run_id!r} is ambiguous: {ids}")
        return _record(rows[0])

    def __len__(self) -> int:
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    # -- comparison ---------------------------------------------------------

    def compare(self, run_a: str, run_b: str) -> Dict[str, Any]:
        """Diff two runs (by id/prefix); see :func:`compare_runs`."""
        return compare_runs(self.get(run_a), self.get(run_b))


def _record(row: sqlite3.Row) -> RunRecord:
    def loads(column: str) -> Dict[str, Any]:
        try:
            doc = json.loads(row[column] or "{}")
        except ValueError:
            return {}
        return doc if isinstance(doc, dict) else {}

    return RunRecord(
        run_id=row["run_id"], kind=row["kind"], status=row["status"],
        started_at=row["started_at"], wall_clock_s=row["wall_clock_s"],
        git_rev=row["git_rev"], params_digest=row["params_digest"],
        trace_id=row["trace_id"], error=row["error"],
        params=loads("params_json"), metrics=loads("metrics_json"),
        profile=loads("profile_json"), extra=loads("extra_json"),
    )


#: Profile fields worth persisting per run (the full segment list is
#: huge and lives in ``results/profile.json``; the store keeps the
#: attribution summary ``compare`` needs).
_PROFILE_KEEP = (
    "trace_id", "root_name", "makespan_s", "critical_path_s", "categories",
    "overlap", "task_window_s", "n_spans", "n_task_events", "by_name",
)


def _profile_summary(profile: Mapping[str, Any]) -> Dict[str, Any]:
    summary = {k: profile[k] for k in _PROFILE_KEEP if k in profile}
    by_name = summary.get("by_name")
    if isinstance(by_name, list):
        summary["by_name"] = by_name[:15]
    return summary


def _outcome_columns(
    status: str,
    wall_clock_s: Optional[float],
    metrics: Optional[Mapping[str, Any]],
    profile: Optional[Mapping[str, Any]],
    error: str,
    extra: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    """The ``runs`` columns a finished run sets (absent snapshots stay)."""
    columns: Dict[str, Any] = {
        "status": status, "wall_clock_s": wall_clock_s, "error": error[:2000],
    }
    if metrics is not None:
        columns["metrics_json"] = json.dumps(metrics, default=str)
    if profile is not None:
        columns["profile_json"] = json.dumps(_profile_summary(profile),
                                             default=str)
    if extra is not None:
        columns["extra_json"] = json.dumps(dict(extra), default=str)
    return columns


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def compare_runs(a: RunRecord, b: RunRecord) -> Dict[str, Any]:
    """Diff run *b* against baseline run *a*.

    Headline metrics are gated with the per-metric tolerance specs
    (:func:`default_metric_spec` keyed on run *a*'s value): a metric
    drifting outside its tolerance in the bad direction is flagged as a
    regression.  The critical-path category attribution (compute / io /
    transfer / queue / orchestration seconds) is diffed alongside so a
    slowdown comes with its attribution shift.
    """
    from repro.observability.baseline import compare_to_baseline

    headline_a = a.headline_metrics
    headline_b = b.headline_metrics
    baseline_doc = {
        "benchmark": a.run_id,
        "metrics": {
            name: _spec_for(name, value) for name, value in headline_a.items()
        },
    }
    checks = compare_to_baseline(
        f"{a.run_id}..{b.run_id}", headline_b, baseline_doc
    )
    categories_a = dict(a.profile.get("categories") or {})
    categories_b = dict(b.profile.get("categories") or {})
    category_delta = {
        name: {
            "a_s": round(float(categories_a.get(name, 0.0)), 6),
            "b_s": round(float(categories_b.get(name, 0.0)), 6),
            "delta_s": round(
                float(categories_b.get(name, 0.0))
                - float(categories_a.get(name, 0.0)), 6
            ),
        }
        for name in sorted(set(categories_a) | set(categories_b))
    }
    return {
        "a": {"run_id": a.run_id, "kind": a.kind, "status": a.status,
              "git_rev": a.git_rev, "params_digest": a.params_digest,
              "wall_clock_s": a.wall_clock_s},
        "b": {"run_id": b.run_id, "kind": b.kind, "status": b.status,
              "git_rev": b.git_rev, "params_digest": b.params_digest,
              "wall_clock_s": b.wall_clock_s},
        "params_match": a.params_digest == b.params_digest,
        "checks": [
            {"metric": c.metric, "status": c.status, "a": c.baseline,
             "b": c.current, "threshold": c.threshold,
             "direction": c.direction, "delta_pct": c.delta_pct}
            for c in checks
        ],
        "regressions": [c.metric for c in checks if c.regressed],
        "drifted": any(c.regressed for c in checks),
        "critical_path": {
            "a_s": a.profile.get("critical_path_s"),
            "b_s": b.profile.get("critical_path_s"),
            "categories": category_delta,
        },
    }


def _spec_for(name: str, value: float) -> Dict[str, Any]:
    from repro.observability.baseline import default_metric_spec

    return default_metric_spec(name, value)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_run_table(records: List[RunRecord]) -> str:
    header = ("RUN", "KIND", "STATUS", "WHEN", "WALL", "GIT", "PARAMS")
    rows = [header]
    for r in records:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(r.started_at))
        wall = "-" if r.wall_clock_s is None else f"{r.wall_clock_s:.2f}s"
        rows.append((r.run_id, r.kind, r.status, when, wall,
                     r.git_rev[:8] or "-", r.params_digest[:8] or "-"))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def render_run(record: RunRecord) -> str:
    lines = [
        f"run       {record.run_id}  ({record.kind}, {record.status})",
        f"started   {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(record.started_at))}",
        f"wall      {'-' if record.wall_clock_s is None else f'{record.wall_clock_s:.3f}s'}",
        f"git       {record.git_rev or '-'}",
        f"params    {record.params_digest or '-'}",
        f"trace     {record.trace_id or '-'}",
    ]
    if record.error:
        lines.append(f"error     {record.error}")
    headline = record.headline_metrics
    if headline:
        lines.append("headline metrics:")
        for name in sorted(headline):
            lines.append(f"  {name:28s} {headline[name]:.6g}")
    categories = record.profile.get("categories")
    if categories:
        lines.append("critical-path attribution:")
        for name in sorted(categories):
            lines.append(f"  {name:28s} {float(categories[name]):.6g}s")
    return "\n".join(lines) + "\n"


def render_comparison(report: Mapping[str, Any]) -> str:
    a, b = report["a"], report["b"]
    lines = [
        f"compare {a['run_id']} ({a['kind']}) -> {b['run_id']} ({b['kind']})"
        + ("" if report["params_match"] else "  [params differ]"),
    ]
    marks = {"ok": "ok  ", "new": "new ", "regression": "FAIL",
             "missing": "MISS"}
    for check in report["checks"]:
        base = "n/a" if check["a"] is None else f"{check['a']:.4g}"
        cur = "n/a" if check["b"] is None else f"{check['b']:.4g}"
        delta = ("" if check["delta_pct"] is None
                 else f"  ({check['delta_pct']:+.1f}%)")
        lines.append(
            f"  [{marks.get(check['status'], check['status'])}] "
            f"{check['metric']}: {cur} vs {base} "
            f"({check['direction']} is better){delta}"
        )
    cp = report["critical_path"]
    if cp["categories"]:
        lines.append("  critical-path attribution (a -> b):")
        for name, entry in cp["categories"].items():
            lines.append(
                f"    {name:14s} {entry['a_s']:.4g}s -> {entry['b_s']:.4g}s "
                f"({entry['delta_s']:+.4g}s)"
            )
    verdict = "DRIFT" if report["drifted"] else "OK"
    lines.append(
        f"history compare: {verdict} — {len(report['checks'])} checks, "
        f"{len(report['regressions'])} beyond tolerance"
    )
    return "\n".join(lines) + "\n"
