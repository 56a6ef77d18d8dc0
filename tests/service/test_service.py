"""WorkflowService tests: quotas, fair-share, backfill, isolation,
cancellation, recovery and reporting.

Workflows here are tiny controllable entrypoints (events, not sleeps)
published through the real HPCWaaS path, so the service is exercised
exactly as production code drives it.
"""

import threading
import time

import pytest

from repro.cluster import laptop_like
from repro.hpcwaas import Alien4Cloud, HPCWaaSAPI, topology_from_yaml
from repro.observability.metrics import (
    get_registry,
)
from repro.service import (
    FairShare,
    JobState,
    ServiceDB,
    ServiceError,
    WorkflowService,
)

_TOSCA = """
metadata:
  template_name: {name}
topology_template:
  node_templates:
    compute:
      type: eflows.nodes.ComputeAccess
      properties:
        queue: p_short
    app:
      type: eflows.nodes.PyCOMPSsApplication
      properties:
        entrypoint: test.service
"""


pytestmark = pytest.mark.usefixtures("fresh_registry")


@pytest.fixture
def cluster(tmp_path):
    with laptop_like(scratch_root=str(tmp_path / "scratch")) as c:
        yield c


@pytest.fixture
def db(tmp_path):
    return ServiceDB(str(tmp_path / "runs.db"))


def publish(cluster, entrypoints):
    """Deploy one topology per workflow; returns the Execution API."""
    a4c = Alien4Cloud()
    for workflow_id, entrypoint in entrypoints.items():
        topo = topology_from_yaml(_TOSCA.format(name=f"app-{workflow_id}"))
        a4c.upload_topology(topo)
        deployment = a4c.deploy(f"app-{workflow_id}", cluster)
        a4c.publish_workflow(workflow_id, deployment, entrypoint)
    return HPCWaaSAPI(a4c.registry, orchestrator=a4c.orchestrator)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestVerbs:
    def test_submit_runs_to_completion(self, cluster, db):
        db.add_tenant("alice")
        api = publish(cluster, {"wf": lambda c, p: p["x"] * 2})
        with WorkflowService(db, api, cluster, site="s") as svc:
            job = svc.submit("alice", "wf", x=21)
            svc.drain(timeout=20)
            assert svc.status("alice", job.job_id) is JobState.COMPLETED
            assert svc.result("alice", job.job_id) == 42
        row = db.get_job(job.job_id)
        assert row.state is JobState.COMPLETED
        assert row.site == "s"
        assert row.turnaround_s is not None and row.turnaround_s >= 0
        assert db.get_site("s").cluster == cluster.name

    def test_submit_unknown_tenant(self, cluster, db):
        api = publish(cluster, {"wf": lambda c, p: 1})
        with WorkflowService(db, api, cluster) as svc:
            with pytest.raises(KeyError):
                svc.submit("ghost", "wf")

    def test_disabled_tenant_rejected(self, cluster, db):
        db.add_tenant("banned", max_running=0)
        api = publish(cluster, {"wf": lambda c, p: 1})
        with WorkflowService(db, api, cluster) as svc:
            with pytest.raises(PermissionError, match="disabled"):
                svc.submit("banned", "wf")

    def test_unknown_workflow_fails_job(self, cluster, db):
        db.add_tenant("alice")
        api = publish(cluster, {"wf": lambda c, p: 1})
        with WorkflowService(db, api, cluster) as svc:
            job = svc.submit("alice", "no-such-workflow")
            svc.drain(timeout=20)
            assert svc.status("alice", job.job_id) is JobState.FAILED
        assert "launch failed" in db.get_job(job.job_id).error

    def test_failed_entrypoint_surfaces(self, cluster, db):
        db.add_tenant("alice")

        def boom(c, p):
            raise RuntimeError("science went wrong")

        api = publish(cluster, {"wf": boom})
        with WorkflowService(db, api, cluster) as svc:
            job = svc.submit("alice", "wf")
            svc.drain(timeout=20)
            assert svc.status("alice", job.job_id) is JobState.FAILED
            with pytest.raises(ServiceError, match="no result"):
                svc.result("alice", job.job_id)
        assert "science went wrong" in db.get_job(job.job_id).error

    def test_status_refines_to_running(self, cluster, db):
        db.add_tenant("alice")
        started, release = threading.Event(), threading.Event()

        def entrypoint(c, p):
            started.set()
            release.wait(10)

        api = publish(cluster, {"wf": entrypoint})
        with WorkflowService(db, api, cluster) as svc:
            job = svc.submit("alice", "wf")
            assert started.wait(10)
            # The launcher may still be persisting LAUNCHED when the
            # entrypoint fires; the live refinement settles to RUNNING.
            assert wait_until(
                lambda: svc.status("alice", job.job_id) is JobState.RUNNING
            )
            release.set()
            svc.drain(timeout=20)

    def test_double_start_rejected(self, cluster, db):
        api = publish(cluster, {"wf": lambda c, p: 1})
        svc = WorkflowService(db, api, cluster)
        with svc:
            with pytest.raises(ServiceError, match="already started"):
                svc.start()

    def test_drain_timeout(self, cluster, db):
        db.add_tenant("alice")
        release = threading.Event()
        api = publish(cluster, {"wf": lambda c, p: release.wait(10)})
        with WorkflowService(db, api, cluster) as svc:
            svc.submit("alice", "wf")
            with pytest.raises(TimeoutError, match="did not drain"):
                svc.drain(timeout=0.2)
            release.set()
            svc.drain(timeout=20)


class TestIsolation:
    def test_cross_tenant_access_denied(self, cluster, db):
        db.add_tenant("alice")
        db.add_tenant("mallory")
        api = publish(cluster, {"wf": lambda c, p: "secret"})
        with WorkflowService(db, api, cluster) as svc:
            job = svc.submit("alice", "wf")
            svc.drain(timeout=20)
            for verb in (svc.status, svc.result, svc.cancel):
                with pytest.raises(PermissionError, match="belongs to"):
                    verb("mallory", job.job_id)
            # And listings never leak across tenants.
            assert svc.list_jobs("mallory") == []
            assert [j.job_id for j in svc.list_jobs("alice")] == [job.job_id]

    def test_list_jobs_unknown_tenant(self, cluster, db):
        api = publish(cluster, {"wf": lambda c, p: 1})
        with WorkflowService(db, api, cluster) as svc:
            with pytest.raises(KeyError):
                svc.list_jobs("ghost")


class TestQuotas:
    def test_max_running_serializes_a_tenant(self, cluster, db):
        db.add_tenant("alice", max_running=1)
        release = threading.Event()
        running = []
        lock = threading.Lock()

        def entrypoint(c, p):
            with lock:
                running.append(p["idx"])
            release.wait(10)

        api = publish(cluster, {"wf": entrypoint})
        with WorkflowService(db, api, cluster) as svc:
            first = svc.submit("alice", "wf", idx=1)
            second = svc.submit("alice", "wf", idx=2)
            assert wait_until(lambda: len(running) == 1)
            # Plenty of free cores, but the quota holds job 2 back.
            assert cluster.scheduler.free_cores() >= 4
            time.sleep(0.15)
            assert db.get_job(second.job_id).state is JobState.SUBMITTED
            release.set()
            svc.drain(timeout=20)
        assert db.get_job(first.job_id).state is JobState.COMPLETED
        assert db.get_job(second.job_id).state is JobState.COMPLETED

    def test_max_cores_blocks_wide_second_job(self, cluster, db):
        db.add_tenant("alice", max_cores=4)
        release = threading.Event()
        started = threading.Event()

        def entrypoint(c, p):
            started.set()
            release.wait(10)

        api = publish(cluster, {"wf": entrypoint})
        with WorkflowService(db, api, cluster) as svc:
            svc.submit("alice", "wf", cores=3)
            assert started.wait(10)
            wide = svc.submit("alice", "wf", cores=2)  # 3+2 > 4
            time.sleep(0.15)
            assert db.get_job(wide.job_id).state is JobState.SUBMITTED
            release.set()
            svc.drain(timeout=20)
        assert db.get_job(wide.job_id).state is JobState.COMPLETED


class TestFairShareAndBackfill:
    def test_light_user_launches_before_heavy(self, cluster, db):
        db.add_tenant("heavy")
        db.add_tenant("light")
        order = []
        lock = threading.Lock()

        def entrypoint(c, p):
            with lock:
                order.append(p["tag"])

        api = publish(cluster, {"wf": entrypoint})
        # Hold one node so the two 4-core jobs below must serialize.
        release = threading.Event()
        blocker = cluster.scheduler.bsub(
            lambda: release.wait(20), name="blocker", cores=4
        )
        assert wait_until(lambda: cluster.scheduler.free_cores() == 4)

        fairshare = FairShare(half_life_s=0)
        fairshare.charge("heavy", 1000.0)  # heavy burned the cluster already
        # Submit heavy first: FCFS would run it first, fair share must not.
        db.submit_job("heavy", "wf", params={"tag": "heavy"}, cores=4)
        db.submit_job("light", "wf", params={"tag": "light"}, cores=4)
        with WorkflowService(db, api, cluster, fairshare=fairshare) as svc:
            svc.drain(timeout=20)
        release.set()
        blocker.wait(timeout=10)
        assert order == ["light", "heavy"]

    def test_small_job_backfills_blocked_head(self, cluster, db):
        db.add_tenant("big-science")   # zero usage: fair-share head
        db.add_tenant("small-fry")
        release = threading.Event()
        small_ran = threading.Event()

        def small(c, p):
            small_ran.set()

        api = publish(cluster, {"wf-big": lambda c, p: None, "wf-small": small})
        # Blockers hold 4 + 3 cores: one core of gap left.
        blockers = [
            cluster.scheduler.bsub(lambda: release.wait(20), name="b1", cores=4),
            cluster.scheduler.bsub(lambda: release.wait(20), name="b2", cores=3),
        ]
        assert wait_until(lambda: cluster.scheduler.free_cores() == 1)

        fairshare = FairShare(half_life_s=0)
        fairshare.charge("small-fry", 1000.0)  # orders after big-science
        big = db.submit_job("big-science", "wf-big", cores=4)
        small_job = db.submit_job("small-fry", "wf-small", cores=1)
        with WorkflowService(db, api, cluster, fairshare=fairshare) as svc:
            # The 4-core head cannot fit the 1-core gap; the small job
            # overtakes it — that's backfill, and it is counted.
            assert small_ran.wait(10)
            assert db.get_job(big.job_id).state is JobState.SUBMITTED
            release.set()
            svc.drain(timeout=20)
        for blocker in blockers:
            blocker.wait(timeout=10)
        assert db.get_job(small_job.job_id).backfilled
        assert not db.get_job(big.job_id).backfilled
        assert get_registry().snapshot().value(
            "service_backfill_launches_total"
        ) == 1
        assert db.get_job(big.job_id).state is JobState.COMPLETED


class TestCancel:
    def test_cancel_queued_job(self, cluster, db):
        db.add_tenant("alice", max_running=1)
        release = threading.Event()
        api = publish(cluster, {"wf": lambda c, p: release.wait(10)})
        with WorkflowService(db, api, cluster) as svc:
            svc.submit("alice", "wf")
            queued = svc.submit("alice", "wf")  # held by max_running=1
            assert svc.cancel("alice", queued.job_id) is True
            assert svc.status("alice", queued.job_id) is JobState.CANCELLED
            # Cancelling again: terminal, nothing to do.
            assert svc.cancel("alice", queued.job_id) is False
            release.set()
            svc.drain(timeout=20)
        assert db.get_job(queued.job_id).state is JobState.CANCELLED

    def test_cancel_running_job_false(self, cluster, db):
        db.add_tenant("alice")
        started, release = threading.Event(), threading.Event()

        def entrypoint(c, p):
            started.set()
            release.wait(10)

        api = publish(cluster, {"wf": entrypoint})
        with WorkflowService(db, api, cluster) as svc:
            job = svc.submit("alice", "wf")
            assert started.wait(10)
            assert svc.cancel("alice", job.job_id) is False
            release.set()
            svc.drain(timeout=20)
        assert db.get_job(job.job_id).state is JobState.COMPLETED


class TestRecovery:
    def test_orphaned_jobs_relaunch_on_restart(self, cluster, db):
        db.add_tenant("alice")
        ran = threading.Event()
        api = publish(cluster, {"wf": lambda c, p: ran.set()})
        # A previous service process launched these and died.
        orphan = db.submit_job("alice", "wf")
        db.update_job(orphan.job_id, state=JobState.LAUNCHED)
        queued = db.submit_job("alice", "wf")
        with WorkflowService(db, api, cluster) as svc:
            svc.drain(timeout=20)
        assert ran.is_set()
        assert db.get_job(orphan.job_id).state is JobState.COMPLETED
        assert db.get_job(queued.job_id).state is JobState.COMPLETED
        assert get_registry().snapshot().value(
            "service_jobs_recovered_total"
        ) == 1

    def test_result_lost_across_restart_is_explicit(self, cluster, db):
        db.add_tenant("alice")
        api = publish(cluster, {"wf": lambda c, p: 42})
        done = db.submit_job("alice", "wf")
        db.update_job(done.job_id, state=JobState.COMPLETED,
                      finished_at=time.time())
        with WorkflowService(db, api, cluster) as svc:
            with pytest.raises(ServiceError, match="previous service"):
                svc.result("alice", done.job_id)


class TestReport:
    def test_report_shape(self, cluster, db):
        db.add_tenant("alice", share=2.0)
        db.add_tenant("bob")
        api = publish(cluster, {"wf": lambda c, p: 1})
        with WorkflowService(db, api, cluster, site="s") as svc:
            svc.submit("alice", "wf")
            svc.submit("bob", "wf")
            svc.drain(timeout=20)
            report = svc.report()
        assert report["site"] == "s"
        alice = report["tenants"]["alice"]
        assert alice["share"] == 2.0
        assert alice["jobs"] == 1
        assert alice["by_state"] == {"COMPLETED": 1}
        assert alice["mean_turnaround_s"] >= 0
        assert alice["usage_core_s"] > 0
        assert report["tenants"]["bob"]["jobs"] == 1
