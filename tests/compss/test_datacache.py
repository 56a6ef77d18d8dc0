"""Tests for the per-worker resident-set cache (in-memory data reuse)."""

import threading
import time

import numpy as np
import pytest

from repro.compss import COMPSs, compss_wait_on, task
from repro.compss.datacache import WorkerDataCache


class TestWorkerDataCacheUnit:
    def test_disabled_cache_is_a_no_op(self):
        cache = WorkerDataCache(0)
        assert not cache.enabled
        resident, absent = cache.split(0, [(1, 100), (2, 200)])
        assert resident == []
        assert absent == [(1, 100), (2, 200)]
        assert cache.commit(0, [], [(1, 100)]) == 0
        assert cache.resident_ids(0) == ()
        assert cache.resident_bytes(0) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            WorkerDataCache(-1)

    def test_first_fetch_then_hit(self):
        cache = WorkerDataCache(1000)
        resident, absent = cache.split(0, [(1, 400)])
        assert (resident, absent) == ([], [(1, 400)])
        cache.commit(0, resident, absent)
        resident, absent = cache.split(0, [(1, 400)])
        assert (resident, absent) == ([(1, 400)], [])
        assert cache.commit(0, resident, absent) == 0
        assert cache.resident_bytes(0) == 400

    def test_split_is_a_pure_query(self):
        """A dispatch that fails before commit must not touch the cache."""
        cache = WorkerDataCache(1000)
        cache.commit(0, [], [(1, 400), (3, 100)])
        cache.split(0, [(1, 400), (2, 100)])
        cache.split(0, [(1, 400), (2, 100)])
        # A committed hit on 1 would have made 3 the LRU tail.
        assert cache.resident_ids(0) == (1, 3)
        assert cache.resident_bytes(0) == 500

    def test_lru_eviction_order(self):
        cache = WorkerDataCache(300)
        for task_id in (1, 2, 3):
            cache.commit(0, [], [(task_id, 100)])
        assert cache.resident_ids(0) == (1, 2, 3)
        # Admitting a fourth 100-byte entry evicts the oldest (task 1).
        evicted = cache.commit(0, [], [(4, 100)])
        assert evicted == 1
        assert cache.resident_ids(0) == (2, 3, 4)
        assert cache.resident_bytes(0) == 300

    def test_hit_refreshes_recency(self):
        cache = WorkerDataCache(300)
        for task_id in (1, 2, 3):
            cache.commit(0, [], [(task_id, 100)])
        # Touch task 1: it becomes most-recent, so task 2 is now the tail.
        cache.commit(0, [(1, 100)], [])
        cache.commit(0, [], [(4, 100)])
        assert cache.resident_ids(0) == (3, 1, 4)

    def test_oversized_output_never_admitted(self):
        cache = WorkerDataCache(100)
        cache.commit(0, [], [(1, 40)])
        evicted = cache.commit(0, [], [(2, 500)])
        # The oversized entry stays a miss but does not flush the
        # resident set.
        assert evicted == 0
        assert cache.resident_ids(0) == (1,)
        assert cache.split(0, [(2, 500)]) == ([], [(2, 500)])

    def test_workers_are_isolated(self):
        cache = WorkerDataCache(1000)
        cache.commit(0, [], [(1, 100)])
        resident, absent = cache.split(1, [(1, 100)])
        assert (resident, absent) == ([], [(1, 100)])
        cache.commit(1, resident, absent)
        assert cache.resident_ids(0) == (1,)
        assert cache.resident_ids(1) == (1,)
        assert cache.resident_bytes(0) == 100
        assert cache.resident_bytes(1) == 100

    def test_recharged_after_eviction(self):
        cache = WorkerDataCache(100)
        cache.commit(0, [], [(1, 100)])
        cache.commit(0, [], [(2, 100)])        # evicts 1
        assert cache.resident_ids(0) == (2,)
        resident, absent = cache.split(0, [(1, 100)])
        assert (resident, absent) == ([], [(1, 100)])


@task(returns=1)
def produce_array(n):
    return np.zeros(n, dtype=np.float64)


@task(returns=1)
def consume(arr):
    return float(arr.sum())


class TestRuntimeIntegration:
    def test_repeat_consumption_charges_one_transfer(self, fresh_registry):
        """Three consumers of one output on a remote worker: the first
        fetch is charged, the next two are resident-set hits."""
        gate = threading.Event()

        @task()
        def decoy():
            gate.wait(5)

        with COMPSs(n_workers=2, worker_cache_bytes=1 << 20) as rt:
            big = produce_array(1000)            # 8000 bytes
            compss_wait_on(big)
            producer_worker = rt.graph.task(1).worker_id
            decoy()
            outs = [consume(big) for _ in range(3)]
            time.sleep(0.2)
            gate.set()
            compss_wait_on(outs)
            consumer_workers = {
                t.worker_id for t in rt.graph.tasks() if t.func_name == "consume"
            }

        value = fresh_registry.snapshot().value
        local = value("compss_transfers_total", kind="local_hit")
        remote = value("compss_transfers_total", kind="remote")
        hits = value("compss_transfers_total", kind="cache_hit")
        if consumer_workers == {producer_worker}:
            # Scheduler kept everything local — nothing to transfer.
            assert value("compss_transfer_bytes_total") == 0
            assert local == 3
        else:
            # At least one consumer ran remotely: exactly one fetch per
            # remote worker, every later consumption served from memory.
            n_remote_workers = len(consumer_workers - {producer_worker})
            assert remote == n_remote_workers
            assert value("compss_cache_misses_total") == n_remote_workers
            assert value("compss_transfer_bytes_total") == 8000 * n_remote_workers
            assert hits == 3 - local - n_remote_workers
            assert value("compss_cache_hits_total") == hits
            assert value("compss_transfer_bytes_saved_total") == 8000 * hits
        # Invariant: every dependency edge is accounted exactly once.
        assert local + remote + hits == value("compss_transfers_total") == 3

    def test_cache_off_restores_historical_accounting(self, fresh_registry):
        gate = threading.Event()

        @task()
        def decoy():
            gate.wait(5)

        with COMPSs(n_workers=2) as rt:
            big = produce_array(1000)
            compss_wait_on(big)
            producer_worker = rt.graph.task(1).worker_id
            decoy()
            outs = [consume(big) for _ in range(3)]
            time.sleep(0.2)
            gate.set()
            compss_wait_on(outs)
            consumer_workers = [
                t.worker_id for t in rt.graph.tasks() if t.func_name == "consume"
            ]

        value = fresh_registry.snapshot().value
        n_remote = sum(1 for w in consumer_workers if w != producer_worker)
        assert value("compss_transfers_total", kind="remote") == n_remote
        assert value("compss_transfer_bytes_total") == 8000 * n_remote
        assert value("compss_transfers_total", kind="cache_hit") == 0
        assert value("compss_transfer_bytes_saved_total") == 0
        # A disabled cache counts no cache traffic at all.
        assert value("compss_cache_hits_total") == 0
        assert value("compss_cache_misses_total") == 0
