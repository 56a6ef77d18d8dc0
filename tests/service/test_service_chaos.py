"""Multi-tenant chaos: a node dies while packed runs are in flight.

The LSF simulator requeues the dead node's jobs onto survivors (the
in-flight execution's outcome is discarded, like a lost host under real
LSF); the service's waiter threads must ride through that transparently
so every tenant's job still reaches COMPLETED and nobody is starved.
"""

import threading
import time

import pytest

from repro.cluster import laptop_like
from repro.observability.metrics import get_registry
from repro.service import JobState, ServiceDB, WorkflowService

from tests.service.test_service import publish, wait_until


pytestmark = pytest.mark.usefixtures("fresh_registry")


@pytest.fixture
def cluster(tmp_path):
    with laptop_like(scratch_root=str(tmp_path / "scratch")) as c:
        yield c


@pytest.fixture
def db(tmp_path):
    return ServiceDB(str(tmp_path / "runs.db"))


class TestNodeDeathDuringPackedRuns:
    def test_all_tenants_complete_after_node_death(self, cluster, db):
        db.add_tenant("alice")
        db.add_tenant("bob")
        release = threading.Event()
        attempts = []
        lock = threading.Lock()

        def entrypoint(c, p):
            with lock:
                attempts.append(p["tag"])
            release.wait(15)
            return p["tag"]

        api = publish(cluster, {"wf": entrypoint})
        with WorkflowService(db, api, cluster) as svc:
            jobs = [
                svc.submit(tenant, "wf", cores=2, tag=f"{tenant}-{i}")
                for tenant in ("alice", "bob")
                for i in range(2)
            ]
            # All four 2-core jobs pack onto the 8-core cluster at once.
            assert wait_until(lambda: len(attempts) == 4)
            assert cluster.scheduler.free_cores() == 0

            victims = cluster.scheduler.kill_node("local1")
            assert victims, "the dead node was hosting packed runs"
            release.set()
            # The victims' bodies unwind, get requeued onto local2, run
            # again (release is already set) and complete.
            svc.drain(timeout=30)

        for job in jobs:
            row = db.get_job(job.job_id)
            assert row.state is JobState.COMPLETED, row.to_json()
        # The dead node's jobs really did execute twice.
        assert len(attempts) == 4 + len(victims)
        snap = get_registry().snapshot()
        assert snap.value("lsf_node_crashes_total", node="local1") == 1
        assert snap.value("lsf_jobs_requeued_total") >= len(victims)
        # Every tenant got both results — nobody starved by the crash.
        report = WorkflowService(db, api, cluster).report()
        for tenant in ("alice", "bob"):
            assert report["tenants"][tenant]["by_state"] == {"COMPLETED": 2}

    def test_queue_keeps_draining_on_survivor(self, cluster, db):
        """Jobs queued behind the crash land on the surviving node."""
        db.add_tenant("alice")
        release = threading.Event()
        started = []
        lock = threading.Lock()

        def entrypoint(c, p):
            with lock:
                started.append(p["idx"])
            release.wait(15)
            return p["idx"]

        api = publish(cluster, {"wf": entrypoint})
        with WorkflowService(db, api, cluster) as svc:
            first = [svc.submit("alice", "wf", cores=4, idx=i) for i in (0, 1)]
            assert wait_until(lambda: len(started) == 2)
            queued = svc.submit("alice", "wf", cores=4, idx=2)
            cluster.scheduler.kill_node("local2")
            release.set()
            svc.drain(timeout=30)

        for job in first + [queued]:
            assert db.get_job(job.job_id).state is JobState.COMPLETED
        # Everything after the crash ran on the one remaining node.
        assert cluster.scheduler.total_up_cores() == 4

    def test_restored_node_takes_load_again(self, cluster, db):
        db.add_tenant("alice")
        api = publish(cluster, {"wf": lambda c, p: p["idx"]})
        cluster.scheduler.kill_node("local1")
        cluster.scheduler.restore_node("local1")
        with WorkflowService(db, api, cluster) as svc:
            jobs = [svc.submit("alice", "wf", cores=4, idx=i) for i in (0, 1)]
            svc.drain(timeout=30)
            for job in jobs:
                assert svc.status("alice", job.job_id) is JobState.COMPLETED
