"""Inter-worker data-transfer accounting tests."""

import numpy as np
import pytest

from repro.compss import COMPSs, compss_wait_on, task
from repro.compss.runtime import COMPSsRuntime


@task(returns=1)
def produce_array(n):
    return np.zeros(n, dtype=np.float64)


@task(returns=1)
def consume(arr):
    return float(arr.sum())


class TestEstimator:
    def test_arrays_use_nbytes(self):
        assert COMPSsRuntime._estimate_nbytes(np.zeros(10)) == 80

    def test_containers_sum(self):
        est = COMPSsRuntime._estimate_nbytes([np.zeros(4), np.zeros(6)])
        assert est == 32 + 48
        est = COMPSsRuntime._estimate_nbytes({"a": np.zeros(2)})
        assert est == 16

    def test_scalars_small_but_positive(self):
        assert 0 < COMPSsRuntime._estimate_nbytes(42) < 1000

    def test_unsizable_is_safe(self):
        assert COMPSsRuntime._estimate_nbytes(object()) >= 0

    def test_deeply_nested_containers_fully_counted(self):
        """A per-year list of per-day dicts of arrays (the workflow's
        natural result shape) is three levels deep and must not be
        truncated by a recursion cap."""
        years = [
            [{"tmax": np.zeros(5), "tmin": np.zeros(5)} for _ in range(3)]
            for _ in range(2)
        ]
        assert COMPSsRuntime._estimate_nbytes(years) == 2 * 3 * 2 * 5 * 8

    def test_cyclic_container_terminates(self):
        loop = [np.zeros(4)]
        loop.append(loop)
        assert COMPSsRuntime._estimate_nbytes(loop) == 32

    def test_shared_reference_counted_once(self):
        """Aliases to one list are one allocation: the estimate reflects
        memory footprint, not traversal count."""
        shared = [np.zeros(10)]
        assert COMPSsRuntime._estimate_nbytes([shared, shared]) == 80


class TestAccounting:
    def test_single_worker_all_local(self, fresh_registry):
        with COMPSs(n_workers=1):
            compss_wait_on(consume(produce_array(100)))
        transfers = fresh_registry.snapshot().value
        assert transfers("compss_transfers_total", kind="remote") == 0
        assert transfers("compss_transfers_total", kind="local_hit") == 1
        assert transfers("compss_transfer_bytes_total") == 0

    def test_hits_plus_transfers_equal_dependencies(self, fresh_registry):
        with COMPSs(n_workers=3) as rt:
            chain = produce_array(50)
            for _ in range(6):
                chain = consume_chain(chain)
            compss_wait_on(chain)
            n_edges = len(rt.graph.edges())
        transfers = fresh_registry.snapshot().value
        assert (transfers("compss_transfers_total", kind="local_hit")
                + transfers("compss_transfers_total", kind="remote")) == n_edges

    def test_remote_transfer_counts_producer_bytes(self, fresh_registry):
        """Force producer and consumer onto different workers via a
        blocking decoy that pins one worker."""
        import threading

        gate = threading.Event()

        @task()
        def decoy():
            gate.wait(5)

        with COMPSs(n_workers=2) as rt:
            big = produce_array(1000)        # 8000 bytes
            compss_wait_on(big)              # producer done, on some worker
            producer_worker = rt.graph.task(1).worker_id
            # Pin the producer's worker with the decoy, so the consumer
            # must run on the other worker.
            # (Scheduling is FIFO; the decoy grabs the first free worker,
            # which may or may not be the producer's — accept either, but
            # assert the accounting matches the placement.)
            decoy()
            out = consume(big)
            import time

            time.sleep(0.2)
            gate.set()
            compss_wait_on(out)
            consumer_worker = [
                t.worker_id for t in rt.graph.tasks() if t.func_name == "consume"
            ][0]
        transfers = fresh_registry.snapshot().value
        if consumer_worker == producer_worker:
            assert transfers("compss_transfer_bytes_total") == 0
        else:
            assert transfers("compss_transfer_bytes_total") == 8000
            assert transfers("compss_transfers_total", kind="remote") == 1


@task(returns=1)
def consume_chain(arr):
    return arr + 1.0
