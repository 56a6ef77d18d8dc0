"""Regression tests for the HPCWaaS Execution API fixes.

Covers the three bugfixes this PR ships — per-instance execution id
counters, the loud (counted + evented) queue fallback, and cancel
semantics that match the documentation — plus thread-safety of the
user-facing verbs against one shared API instance.
"""

import threading

import pytest

from repro.cluster import laptop_like
from repro.hpcwaas import (
    Alien4Cloud,
    ExecutionState,
    HPCWaaSAPI,
    topology_from_yaml,
)
from repro.observability.metrics import (
    get_registry,
)

_TOSCA = """
metadata:
  template_name: {name}
topology_template:
  node_templates:
    compute:
      type: eflows.nodes.ComputeAccess
      properties:
        queue: {queue}
    app:
      type: eflows.nodes.PyCOMPSsApplication
      properties:
        entrypoint: demo.main
"""


pytestmark = pytest.mark.usefixtures("fresh_registry")


@pytest.fixture
def cluster(tmp_path):
    with laptop_like(scratch_root=str(tmp_path)) as c:
        yield c


def _published(cluster, entrypoint, name="fix-app", queue="p_short"):
    a4c = Alien4Cloud()
    a4c.upload_topology(
        topology_from_yaml(_TOSCA.format(name=name, queue=queue))
    )
    deployment = a4c.deploy(name, cluster)
    workflow_id = f"{name}-wf"
    a4c.publish_workflow(workflow_id, deployment, entrypoint)
    return HPCWaaSAPI(a4c.registry, orchestrator=a4c.orchestrator), workflow_id


class TestPerInstanceIds:
    def test_two_apis_do_not_share_the_id_counter(self, cluster):
        api_a, wf_a = _published(cluster, lambda c, p: "a", name="app-a")
        api_b, wf_b = _published(cluster, lambda c, p: "b", name="app-b")
        ea1 = api_a.invoke(wf_a)
        ea2 = api_a.invoke(wf_a)
        eb1 = api_b.invoke(wf_b)
        for execution in (ea1, ea2, eb1):
            execution.wait(timeout=10)
        # Each service numbers its own executions from 1: ids are an
        # instance-local namespace, not process-global state.
        assert (ea1.execution_id, ea2.execution_id) == (1, 2)
        assert eb1.execution_id == 1
        assert api_a.result(1) == "a"
        assert api_b.result(1) == "b"

    def test_ids_attribute_is_not_shared_class_state(self):
        assert "_ids" not in vars(HPCWaaSAPI)


class TestQueueFallback:
    def test_unconfigured_queue_counts_and_warns(self, cluster, captured_events):
        api, wf = _published(
            cluster, lambda c, p: "ok", queue="p_ghost"
        )
        execution = api.invoke(wf)
        assert execution.wait(timeout=10) == "ok"
        # The job still ran (on the default queue)...
        assert execution.job.queue.name != "p_ghost"
        # ...but the fallback was loud: a counter with the declared
        # queue as a label, and a WARNING event naming it.
        snap = get_registry().snapshot()
        assert snap.value(
            "hpcwaas_queue_fallbacks_total", workflow=wf, declared="p_ghost"
        ) == 1
        events = [e for e in captured_events() if e.component == "hpcwaas"]
        assert any(
            e.name == "queue_fallback" and e.severity == "WARNING"
            and e.attrs["declared"] == "p_ghost"
            for e in events
        )

    def test_configured_queue_does_not_count(self, cluster):
        api, wf = _published(cluster, lambda c, p: 1, queue="p_short")
        api.invoke(wf).wait(timeout=10)
        snap = get_registry().snapshot()
        assert snap.value(
            "hpcwaas_queue_fallbacks_total", workflow=wf, declared="p_short"
        ) == 0


class TestCancelSemantics:
    def test_cancel_pending_execution_true(self, cluster):
        release = threading.Event()
        api, wf = _published(cluster, lambda c, p: release.wait(10))
        # Fill the whole cluster so the next invocation stays PEND.
        blockers = [api.invoke(wf, cores=4) for _ in range(2)]
        pending = api.invoke(wf)
        assert pending.state is ExecutionState.PENDING
        assert api.cancel(pending.execution_id) is True
        release.set()
        for blocker in blockers:
            blocker.wait(timeout=10)
        assert pending.state is ExecutionState.CANCELLED

    def test_cancel_running_execution_false(self, cluster):
        started = threading.Event()
        release = threading.Event()

        def entrypoint(c, p):
            started.set()
            release.wait(10)

        api, wf = _published(cluster, entrypoint)
        execution = api.invoke(wf)
        assert started.wait(10)
        assert api.cancel(execution.execution_id) is False
        release.set()
        execution.wait(timeout=10)
        assert execution.state is ExecutionState.COMPLETED

    def test_cancel_terminal_execution_false_and_no_bkill(self, cluster):
        api, wf = _published(cluster, lambda c, p: 1)
        execution = api.invoke(wf)
        execution.wait(timeout=10)
        assert execution.state is ExecutionState.COMPLETED

        calls = []
        scheduler = cluster.scheduler
        original_bkill = scheduler.bkill
        scheduler.bkill = lambda job_id: calls.append(job_id) or original_bkill(job_id)
        try:
            # Docs: terminal executions have nothing to cancel — False,
            # and the scheduler is not even consulted.
            assert api.cancel(execution.execution_id) is False
            assert api.cancel(execution.execution_id) is False
            assert calls == []
        finally:
            scheduler.bkill = original_bkill

    def test_cancelled_execution_stays_cancelled(self, cluster):
        release = threading.Event()
        api, wf = _published(cluster, lambda c, p: release.wait(10))
        blockers = [api.invoke(wf, cores=4) for _ in range(2)]
        pending = api.invoke(wf)
        assert api.cancel(pending.execution_id) is True
        # Second cancel: now terminal, so False.
        assert api.cancel(pending.execution_id) is False
        release.set()
        for blocker in blockers:
            blocker.wait(timeout=10)


class TestThreadSafety:
    def test_concurrent_invoke_status_cancel_executions(self, cluster):
        api, wf = _published(cluster, lambda c, p: p["k"])
        n_threads, per_thread = 8, 5
        results, errors = [], []
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            try:
                barrier.wait(timeout=10)
                for i in range(per_thread):
                    execution = api.invoke(wf, k=(tid, i))
                    api.status(execution.execution_id)
                    api.cancel(execution.execution_id)  # any answer; no crash
                    api.executions(wf)
                    results.append(execution)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(results) == n_threads * per_thread
        ids = [e.execution_id for e in results]
        assert len(set(ids)) == len(ids), "duplicate execution ids"
        assert sorted(ids) == list(range(1, len(ids) + 1))
        for execution in results:
            try:
                execution.wait(timeout=30)
            except Exception:
                pass  # cancelled-while-pending is a legal outcome
            assert execution.state.terminal
        assert len(api.executions(wf)) == len(ids)
