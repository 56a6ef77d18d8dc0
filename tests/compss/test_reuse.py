"""In-memory data reuse: a worker that fetched a predecessor's output
holds it for the rest of the run, so each output is charged as a
transfer at most once per (producer, destination worker)."""

import numpy as np

from repro.compss import COMPSs, compss_wait_on, task
from repro.compss.runtime import set_task_fault_injector
from repro.compss.scheduler import SchedulerPolicy
from repro.faults import InjectedTransferError


class PinnedPolicy(SchedulerPolicy):
    """FIFO, but a function named in *placement* only runs on its worker."""

    name = "pinned"

    def __init__(self, placement):
        self.placement = placement

    def select(self, ready, worker_id, graph):
        for node in sorted(ready, key=lambda n: n.submit_order):
            if self.placement.get(node.func_name, worker_id) == worker_id:
                return node
        return None


@task(returns=1)
def produce_on_0(n):
    return np.zeros(n, dtype=np.float64)


@task(returns=1)
def produce_on_1(n):
    return np.ones(n, dtype=np.float64)


@task(returns=1)
def consume_on_0(arr):
    return float(arr.sum())


@task(returns=1)
def consume_on_1(arr):
    return float(arr.sum())


@task(returns=1)
def consume(arr):
    return float(arr.sum())


PLACEMENT = {"produce_on_0": 0, "consume_on_0": 0,
             "produce_on_1": 1, "consume_on_1": 1}


class FailFirstTransfer:
    """Drops the first attempt of every dispatch that needs a fetch."""

    def __init__(self):
        self.aborted = []

    def before_task(self, func_name, task_id, worker_id, attempt,
                    remote_deps=0):
        if remote_deps and attempt == 1:
            self.aborted.append(task_id)
            raise InjectedTransferError(func_name, task_id, remote_deps)


class TestReuseRule:
    def test_repeat_consumption_charged_once_per_destination_worker(
        self, fresh_registry,
    ):
        """Each worker consumes the other's output several times: one
        fetch per destination worker, every later consumption a hit."""
        with COMPSs(n_workers=2, scheduler=PinnedPolicy(PLACEMENT)):
            a = produce_on_0(1000)               # 8000 bytes, worker 0
            b = produce_on_1(500)                # 4000 bytes, worker 1
            outs = [consume_on_1(a) for _ in range(3)]
            outs += [consume_on_0(b) for _ in range(2)]
            outs.append(consume_on_0(a))         # produced here: local
            assert compss_wait_on(outs) == [0.0] * 3 + [500.0] * 2 + [0.0]

        value = fresh_registry.snapshot().value
        assert value("compss_transfers_total", kind="remote") == 2
        assert value("compss_transfers_total", kind="cache_hit") == 3
        assert value("compss_transfers_total", kind="local_hit") == 1
        assert value("compss_transfer_bytes_total") == 8000 + 4000
        assert value("compss_transfer_bytes_saved_total") == 2 * 8000 + 4000

    def test_each_worker_holds_its_own_replica(self, fresh_registry):
        """A fetch by one worker does not make the output resident on
        another: two destination workers pay one fetch each."""
        placement = {"produce_on_0": 0, "consume_on_1": 1, "consume": 2}
        with COMPSs(n_workers=3, scheduler=PinnedPolicy(placement)):
            a = produce_on_0(1000)
            outs = [consume_on_1(a) for _ in range(2)]
            outs += [consume(a) for _ in range(2)]
            compss_wait_on(outs)

        value = fresh_registry.snapshot().value
        assert value("compss_transfers_total", kind="remote") == 2
        assert value("compss_transfers_total", kind="cache_hit") == 2
        assert value("compss_transfer_bytes_total") == 2 * 8000

    def test_transfers_sum_to_edge_count(self, fresh_registry):
        """Every dependency edge is one placement of exactly one kind,
        and each remote edge's bytes are either moved or saved."""
        with COMPSs(n_workers=2) as rt:
            producers = [produce_on_0(1000) for _ in range(3)]
            outs = [consume(p) for p in producers for _ in range(4)]
            compss_wait_on(outs)
            n_edges = len(rt.graph.edges())

        value = fresh_registry.snapshot().value
        local = value("compss_transfers_total", kind="local_hit")
        remote = value("compss_transfers_total", kind="remote")
        hits = value("compss_transfers_total", kind="cache_hit")
        assert n_edges == 12
        assert local + remote + hits == value("compss_transfers_total") == n_edges
        # Two workers: at most one fetch per producer.
        assert remote <= 3
        assert (value("compss_transfer_bytes_total")
                + value("compss_transfer_bytes_saved_total")
                == 8000 * (remote + hits))

    def test_aborted_fetch_is_not_admitted(self, fresh_registry):
        """A dispatch the fault injector aborts charges nothing and
        admits nothing, so its retry is a fetch, not a hit."""
        injector = FailFirstTransfer()
        previous = set_task_fault_injector(injector)
        try:
            with COMPSs(n_workers=2, scheduler=PinnedPolicy(PLACEMENT),
                        retry_backoff_base=0, blacklist_grace_s=0):
                a = produce_on_0(1000)
                assert compss_wait_on(consume_on_1(a)) == 0.0
        finally:
            set_task_fault_injector(previous)

        assert len(injector.aborted) == 1
        value = fresh_registry.snapshot().value
        assert value("compss_transfers_total", kind="remote") == 1
        assert value("compss_transfers_total", kind="cache_hit") == 0
        assert value("compss_transfer_bytes_total") == 8000
        assert value("compss_transfer_bytes_saved_total") == 0
