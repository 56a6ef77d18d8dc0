"""C3, C5, C9, A2 (locality half) and E2 as count/order invariants of
the COMPSs runtime.  No test here compares durations: concurrency is
forced with barriers and read back from the tracer's recorded events.
"""

import random
import threading

import pytest

from repro.compss import (
    COMPSs,
    CheckpointManager,
    OnFailure,
    TaskFailedError,
    compss_wait_on,
    task,
)
from repro.compss.scheduler import policy_by_name
from repro.hpcwaas import ContainerImageCreationService, ContainerRuntime

N_TASKS = 16


def peak_concurrency(events):
    """Most task intervals open at once (an end sorts before a start)."""
    edges = sorted([(e.start, 1) for e in events] + [(e.end, -1) for e in events])
    live = peak = 0
    for _, delta in edges:
        live += delta
        peak = max(peak, live)
    return peak


def run_bag(n_workers, n_tasks, body=lambda seed: seed * seed):
    """*n_tasks* independent tasks that rendezvous *n_workers* at a
    time: a task only returns once that many run simultaneously, so a
    runtime that serialises them times out instead of passing slowly."""
    rendezvous = threading.Barrier(n_workers)

    @task(returns=1)
    def job(seed):
        rendezvous.wait(timeout=30)
        return body(seed)

    with COMPSs(n_workers=n_workers) as rt:
        results = compss_wait_on([job(s) for s in range(n_tasks)])
        return results, rt


class TestC3TransparentParallelism:
    @pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
    def test_results_invariant_and_all_workers_used(self, n_workers):
        results, rt = run_bag(n_workers, N_TASKS)
        assert results == [s * s for s in range(N_TASKS)]
        events = rt.tracer.events
        assert len(events) == N_TASKS
        assert peak_concurrency(events) == min(n_workers, N_TASKS)
        assert len({e.attrs["worker_id"] for e in events}) == n_workers


class TestC5FaultTolerance:
    def test_retry_absorbs_exactly_the_injected_failures(self):
        n_jobs, n_failures = 12, 4
        failures_left = [n_failures]
        lock = threading.Lock()

        @task(returns=1, on_failure=OnFailure.RETRY, max_retries=6)
        def flaky(seed):
            with lock:
                if failures_left[0] > 0:
                    failures_left[0] -= 1
                    raise IOError("transient storage hiccup")
            return seed + 100

        with COMPSs(n_workers=4) as rt:
            results = compss_wait_on([flaky(i) for i in range(n_jobs)])
            statuses = [e.status for e in rt.tracer.events]
        assert results == [i + 100 for i in range(n_jobs)]
        # One record per attempt: 12 successes + 4 failed attempts.
        assert len(statuses) == n_jobs + n_failures == 16
        assert statuses.count("ERROR") == n_failures
        assert statuses.count("OK") == n_jobs

    def test_checkpoint_restart_recovers_the_completed_prefix(self, tmp_path):
        n_jobs, crash_at = 12, 8
        armed = [True]

        @task(returns=1)
        def step(seed):
            if armed[0] and seed >= crash_at:
                raise RuntimeError("node failure")
            return seed * 3

        # One worker: tasks 0..7 finish in order, task 8 kills the run.
        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=1, checkpoint=CheckpointManager(tmp_path)):
                compss_wait_on([step(i) for i in range(n_jobs)])

        armed[0] = False
        with COMPSs(n_workers=2, checkpoint=CheckpointManager(tmp_path)) as rt:
            results = compss_wait_on([step(i) for i in range(n_jobs)])
            states = rt.graph.counts_by_state()
            executed = len(rt.tracer.events)
        assert results == [i * 3 for i in range(n_jobs)]
        assert states.get("RECOVERED") == crash_at
        assert states.get("COMPLETED") == n_jobs - crash_at
        assert executed == n_jobs - crash_at


def test_c9_dag_fanout_closed_form(fresh_registry):
    """20 supersteps of 4 branches + 1 join after one seed task: the
    value is the recurrence t <- (4 t + sum(row)) mod 2**31, and every
    one of the 101 tasks ran exactly once."""
    width, modulus, token = 4, 2 ** 31, 12345
    rng = random.Random(9)
    addends = [[rng.randrange(modulus) for _ in range(width)]
               for _ in range(20)]

    @task(returns=1)
    def seed_task(x):
        return x

    @task(returns=1)
    def branch(x, addend):
        return x + addend

    @task(returns=1)
    def join(a, b, c, d):
        return (a + b + c + d) % modulus

    with COMPSs(n_workers=width) as rt:
        value = seed_task(token)
        for row in addends:
            value = join(*[branch(value, addend) for addend in row])
        value = compss_wait_on(value)
        events = rt.tracer.events

    expected = token
    for row in addends:
        expected = (width * expected + sum(row)) % modulus
    assert value == expected
    assert len(events) == 1 + 20 * (width + 1) == 101
    assert all(e.status == "OK" for e in events)
    completed = fresh_registry.snapshot().value(
        "compss_tasks_total", state="COMPLETED")
    assert completed == 101


class TestA2LocalityPolicy:
    def test_locality_takes_the_local_consumer_fifo_the_oldest(self):
        """Four values produced on four distinct workers; their four
        consumers are all queued while every worker is held in a gate,
        so each worker chooses among several ready tasks.  Consumers
        rendezvous too: every worker runs exactly one."""
        n = 4
        remote = {}
        for policy in ("fifo", "locality"):
            produced_together = threading.Barrier(n)
            gates_entered = threading.Barrier(n + 1)    # + the driver
            consumed_together = threading.Barrier(n)
            release = threading.Event()

            @task(returns=1)
            def produce(i):
                produced_together.wait(timeout=30)
                return [i] * 1000

            @task(returns=1)
            def gate():
                gates_entered.wait(timeout=30)
                return release.wait(timeout=30)

            @task(returns=1)
            def consume(values):
                consumed_together.wait(timeout=30)
                return sum(values)

            with COMPSs(n_workers=n, scheduler=policy_by_name(policy)) as rt:
                produced = [produce(i) for i in range(n)]
                rt.barrier()
                gates = [gate() for _ in range(n)]
                gates_entered.wait(timeout=30)
                consumers = [consume(value) for value in produced]
                release.set()
                assert compss_wait_on(consumers) == [i * 1000 for i in range(n)]
                assert all(compss_wait_on(gates))
                stats = rt.transfer_stats
                assert stats["local_hits"] + stats["remote_transfers"] == n
                remote[policy] = stats["remote_transfers"]
        assert remote["locality"] == 0 <= remote["fifo"]


class TestE2Containers:
    def test_one_cold_start_per_node_and_identical_results(self):
        n_workers, n_tasks = 4, 12
        image = ContainerImageCreationService().build(
            "climate-runtime", ["pyophidia", "tensorflow"])
        runtime = ContainerRuntime(image, cold_start_seconds=0.0,
                                   warm_start_seconds=0.0)

        def contained(seed):
            # Worker threads model nodes: one cold start per worker.
            node = threading.current_thread().name
            return runtime.run(lambda s: s * s, seed, node=node)

        bare, _ = run_bag(n_workers, n_tasks)
        boxed, rt = run_bag(n_workers, n_tasks, body=contained)
        assert boxed == bare
        assert len({e.attrs["worker_id"] for e in rt.tracer.events}) == n_workers
        assert runtime.cold_starts == n_workers
        assert runtime.warm_starts == n_tasks - n_workers
