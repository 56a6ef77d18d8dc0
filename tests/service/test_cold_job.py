"""What a cold service process pays for a burst of short jobs: no SciPy
or networkx import on any entry point, one ``runs.db`` connection per
file per process, at most four commits per job, and no ``-wal``/``-shm``
file left once the connection is released."""

import gc
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cluster import laptop_like
from repro.observability.history import RunHistory
from repro.service import (
    ANALYTICS_WORKFLOW,
    ESM_WORKFLOW,
    JobState,
    ServiceDB,
    WorkflowService,
    build_demo_services,
)

pytestmark = pytest.mark.usefixtures("fresh_registry")

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGES = ("analytics", "cluster", "compss", "esm", "faults", "hpcwaas",
            "ml", "netcdf", "observability", "ophidia", "service", "workflow")
TENANTS = ("t0", "t1", "t2", "t3")


@pytest.fixture
def sqlite_calls(monkeypatch):
    """Paths given to ``sqlite3.connect``, and every statement any of
    those connections ran."""
    opened, statements = [], []
    connect = sqlite3.connect

    def counting(path, *args, **kwargs):
        opened.append(os.path.abspath(path))
        conn = connect(path, *args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", counting)
    return opened, statements


def journal_files(directory):
    return sorted(p.name for p in Path(directory).iterdir()
                  if p.name.endswith(("-wal", "-shm")))


def test_entry_points_never_import_scipy_or_networkx(tmp_path):
    script = f"""
import importlib, sys
for name in {PACKAGES!r}:
    importlib.import_module("repro." + name)
import repro.cli
from repro.cluster import laptop_like
from repro.service import demo
with laptop_like(scratch_root={str(tmp_path)!r}) as cluster:
    demo.run_esm_member(cluster, {{"n_days": 2, "n_lat": 8, "n_lon": 12}})
    demo.run_heatwave_analytics(cluster, {{"n_days": 6, "n_lat": 4, "n_lon": 6}})
print(sorted(m for m in sys.modules
             if m.partition(".")[0] in ("scipy", "networkx")))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_RUNS_DB", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_burst_opens_one_connection_and_commits_at_most_four_per_job(
        tmp_path, sqlite_calls):
    """The ``service_burst`` mix (per tenant one 2-core ESM member and two
    analytics jobs) at toy size: 12 jobs, each recording its run."""
    opened, statements = sqlite_calls
    db = ServiceDB(str(tmp_path / "runs.db"))
    for tenant in TENANTS:
        db.add_tenant(tenant)
    jobs = []
    for i, tenant in enumerate(TENANTS):
        jobs.append((tenant, ESM_WORKFLOW, 2,
                     {"n_days": 2, "n_lat": 8, "n_lon": 12, "seed": i}))
        jobs += [(tenant, ANALYTICS_WORKFLOW, 1, {"n_days": 12, "seed": 10 * i + k})
                 for k in range(2)]
    with laptop_like(scratch_root=str(tmp_path / "scratch")) as cluster:
        _a4c, api = build_demo_services(cluster)
        with WorkflowService(db, api, cluster, site="burst") as service:
            before = len(statements)
            for tenant, workflow, cores, params in jobs:
                service.submit(tenant, workflow, cores=cores, **params)
            service.drain(timeout=120)
            commits = statements[before:].count("COMMIT")

    assert [job.state for job in db.jobs()] == [JobState.COMPLETED] * 12
    assert len(db.list_runs(limit=100)) == 12
    # Submit, launch, the job's own run row, finish: one commit each.
    assert commits <= 4 * len(jobs)
    assert opened == [db.path]
    db.close()
    assert journal_files(tmp_path) == []


def test_dropping_the_last_instance_releases_the_connection(
        tmp_path, sqlite_calls):
    opened, _ = sqlite_calls
    db = ServiceDB(str(tmp_path / "runs.db"))
    db.add_tenant("t")
    history = RunHistory(db.path)
    history.record_run("run", "completed")
    assert journal_files(tmp_path) == ["runs.db-shm", "runs.db-wal"]
    del db
    gc.collect()
    assert journal_files(tmp_path), "a live instance still shares the connection"
    del history
    gc.collect()
    assert journal_files(tmp_path) == []
    assert len(opened) == 1


def test_close_releases_and_the_next_operation_reopens(tmp_path, sqlite_calls):
    opened, _ = sqlite_calls
    history = RunHistory(str(tmp_path / "runs.db"))
    rid = history.record_run("run", "completed")
    history.close()
    assert journal_files(tmp_path) == []
    assert history.get(rid).status == "completed"
    assert len(opened) == 2
    history.close()


def _record_connect_count(path):
    opened = []
    connect = sqlite3.connect
    sqlite3.connect = lambda *args, **kwargs: (
        opened.append(args[0]) or connect(*args, **kwargs))
    history = RunHistory(path)
    history.record_run("child", "completed", params={"connects": len(opened)})


def test_spawned_child_opens_its_own_connection(tmp_path, sqlite_calls):
    opened, _ = sqlite_calls
    history = RunHistory(str(tmp_path / "runs.db"))
    history.record_run("parent", "completed")
    child = multiprocessing.get_context("spawn").Process(
        target=_record_connect_count, args=(history.path,))
    child.start()
    child.join(timeout=120)
    assert child.exitcode == 0
    # The parent's long-lived connection sees the child's commit.
    (record,) = history.list_runs(kind="child")
    assert record.params == {"connects": 1}
    assert len(opened) == 1


def test_threads_share_one_connection(tmp_path, sqlite_calls):
    opened, _ = sqlite_calls
    path = str(tmp_path / "runs.db")
    db = ServiceDB(path)
    db.add_tenant("t")
    errors = []

    def work(i):
        try:
            history, service_db = RunHistory(path), ServiceDB(path)
            for k in range(25):
                history.record_run("thread", "completed", params={"i": i, "k": k})
                service_db.submit_job("t", "wf", params={"i": i, "k": k})
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(db) == 200
    assert len(db.jobs()) == 200
    assert len(opened) == 1
