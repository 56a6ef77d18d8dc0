"""Tests for I/O servers and the storage pool."""

import os

import numpy as np
import pytest

from repro.observability import metrics
from repro.observability.metrics import MetricsRegistry
from repro.ophidia import IOServer, StoragePool
from repro.ophidia.storage import SpillHandle


class TestIOServer:
    def test_put_get(self):
        s = IOServer("io0")
        s.put(1, np.arange(5))
        np.testing.assert_array_equal(s.get(1), np.arange(5))

    def test_counters(self, fresh_registry):
        """A server's accesses are counted in the registry by its pool."""
        pool = StoragePool(1)
        fid = pool.store(np.zeros(10, dtype=np.float64))
        pool.load(fid)
        pool.load(fid)
        assert fid in pool.servers[0]
        value = fresh_registry.snapshot().value
        assert value("ophidia_fragment_writes_total") == 1
        assert value("ophidia_fragment_reads_total") == 2
        assert value("ophidia_fragment_bytes_written_total") == 80
        assert value("ophidia_fragment_bytes_read_total") == 160

    def test_missing_fragment(self):
        s = IOServer("io0")
        with pytest.raises(KeyError):
            s.get(99)

    def test_delete_idempotent(self):
        s = IOServer("io0")
        s.put(1, np.zeros(3))
        s.delete(1)
        s.delete(1)
        assert 1 not in s

    def test_resident_bytes(self):
        s = IOServer("io0")
        s.put(1, np.zeros(4, dtype=np.float64))
        s.put(2, np.zeros(2, dtype=np.float32))
        assert s.resident_bytes == 32 + 8
        assert s.n_fragments == 2


class TestStoragePool:
    def test_total_stats_aggregates(self, fresh_registry):
        """One registry series counts the accesses of every server."""
        pool = StoragePool(2)
        fids = [pool.store(np.zeros(10, dtype=np.float64)) for _ in range(4)]
        for fid in fids:
            pool.load(fid)
            pool.load(fid)
        assert [s.n_fragments for s in pool.servers] == [2, 2]
        value = fresh_registry.snapshot().value
        assert value("ophidia_fragment_writes_total") == 4
        assert value("ophidia_fragment_reads_total") == 8
        assert value("ophidia_fragment_bytes_written_total") == 4 * 80
        assert value("ophidia_fragment_bytes_read_total") == 8 * 80

    def test_round_robin_placement(self):
        pool = StoragePool(n_servers=3)
        for _ in range(6):
            pool.store(np.zeros(1))
        assert [s.n_fragments for s in pool.servers] == [2, 2, 2]

    def test_store_load_roundtrip(self):
        pool = StoragePool(2)
        fid = pool.store(np.arange(4))
        np.testing.assert_array_equal(pool.load(fid), np.arange(4))

    def test_unknown_fragment(self):
        pool = StoragePool(1)
        with pytest.raises(KeyError):
            pool.load(123)

    def test_delete_many(self, fresh_registry):
        pool = StoragePool(2)
        fids = [pool.store(np.zeros(2)) for _ in range(4)]
        pool.delete_many(fids)
        pool.delete_many(fids)  # already gone: counted once
        assert pool.n_fragments == 0
        assert fresh_registry.snapshot().value(
            "ophidia_fragment_deletes_total") == 4

    def test_stats_snapshot_delta(self, fresh_registry):
        pool = StoragePool(1)
        fid = pool.store(np.zeros(2))
        before = fresh_registry.snapshot()
        pool.load(fid)
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("ophidia_fragment_reads_total") == 1
        assert delta.value("ophidia_fragment_writes_total") == 0

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            StoragePool(0)

    def test_counter_handles_follow_registry_swap(self, monkeypatch):
        """Cached counter handles re-validate when tests swap registries."""
        first = MetricsRegistry()
        monkeypatch.setattr(metrics, "_default_registry", first)
        pool = StoragePool(1)
        fid = pool.store(np.zeros(4))
        pool.load(fid)
        assert first.snapshot().value("ophidia_fragment_reads_total") == 1
        second = MetricsRegistry()
        monkeypatch.setattr(metrics, "_default_registry", second)
        pool.load(fid)
        assert second.snapshot().value("ophidia_fragment_reads_total") == 1
        assert first.snapshot().value("ophidia_fragment_reads_total") == 1


class TestChunking:
    def test_fragment_splits_into_chunks_with_stats(self):
        s = IOServer("io0")
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        # 2 rows of 4 float64 per chunk -> 3 chunks.
        s.put(1, data, chunk_axis=0, chunk_bytes=64)
        meta = s.chunk_meta(1)
        assert len(meta.chunks) == 3
        assert [(c.start, c.stop) for c in meta.chunks] == [(0, 2), (2, 4), (4, 6)]
        first = meta.chunks[0].stats
        assert first.min == 0.0 and first.max == 7.0
        assert first.null_count == 0 and first.count == 8

    def test_chunk_stats_count_nans(self):
        s = IOServer("io0")
        data = np.array([1.0, np.nan, 3.0, np.nan])
        s.put(1, data, chunk_bytes=1 << 20)
        (chunk,) = s.chunk_meta(1).chunks
        assert chunk.stats.null_count == 2
        assert chunk.stats.min == 1.0 and chunk.stats.max == 3.0

    def test_get_reassembles_multi_chunk_fragment(self):
        s = IOServer("io0")
        data = np.random.default_rng(0).normal(size=(7, 3))
        s.put(1, data, chunk_axis=0, chunk_bytes=48)
        np.testing.assert_array_equal(s.get(1), data)

    def test_load_chunk_returns_slice(self, fresh_registry):
        pool = StoragePool(1, chunk_bytes=64)
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        fid = pool.store(data)
        np.testing.assert_array_equal(pool.load_chunk(fid, 1), data[2:4])
        value = fresh_registry.snapshot().value
        assert value("ophidia_chunks_read_total") == 1
        assert value("ophidia_chunk_bytes_read_total") == 64
        assert value("ophidia_fragment_reads_total") == 0
        assert value("ophidia_fragment_bytes_read_total") == 0
        with pytest.raises(KeyError):
            pool.load_chunk(fid, 9)

    def test_chunk_meta_does_not_count_a_read(self, fresh_registry):
        pool = StoragePool(1)
        fid = pool.store(np.zeros(8))
        before = fresh_registry.snapshot()
        pool.chunk_meta(fid)
        assert not fresh_registry.snapshot().delta(before)


class TestImmutability:
    def test_single_chunk_read_is_read_only(self):
        s = IOServer("io0")
        s.put(1, np.arange(4.0))
        view = s.get(1)
        with pytest.raises(ValueError):
            view[0] = 99.0

    def test_multi_chunk_read_is_read_only(self):
        s = IOServer("io0")
        s.put(1, np.arange(32.0), chunk_bytes=64)
        view = s.get(1)
        with pytest.raises(ValueError):
            view[:] = 0.0

    def test_stored_fragment_unaffected_by_source_mutation(self):
        s = IOServer("io0")
        src = np.arange(4.0)
        s.put(1, src)
        # The store may alias the caller's buffer; the read-only contract
        # covers what readers can do, not the writer's own array.
        np.testing.assert_array_equal(s.get(1), np.arange(4.0))


class TestSpillTier:
    def _pool(self, tmp_path, budget, **kw):
        return StoragePool(
            1, memory_budget_bytes=budget, spill_dir=str(tmp_path), **kw
        )

    def test_budget_requires_spill_dir(self):
        with pytest.raises(ValueError):
            StoragePool(1, memory_budget_bytes=100)

    def test_spill_and_transparent_reload(self, tmp_path, fresh_registry):
        pool = self._pool(tmp_path, budget=100)
        data = np.random.default_rng(1).normal(size=64)  # 512 bytes
        fid = pool.store(data)
        assert pool.spilled_fragments == 1
        assert len(os.listdir(tmp_path)) == 1
        np.testing.assert_array_equal(pool.load(fid), data)
        assert fresh_registry.snapshot().value(
            "ophidia_reload_bytes_total") == data.nbytes

    def test_lru_eviction_order(self, tmp_path):
        pool = self._pool(tmp_path, budget=600)
        a = pool.store(np.zeros(32))   # 256 bytes each
        b = pool.store(np.zeros(32))
        pool.load(a)                   # a is now most-recently used
        c = pool.store(np.zeros(32))   # over budget: evict b, not a
        srv = pool.servers[0]
        assert srv.is_resident(a) and srv.is_resident(c)
        assert not srv.is_resident(b)

    def test_load_chunk_on_cold_fragment_stays_cold(self, tmp_path):
        pool = self._pool(tmp_path, budget=100, chunk_bytes=128)
        data = np.arange(64, dtype=np.float64)
        fid = pool.store(data)
        srv = pool.servers[0]
        assert not srv.is_resident(fid)
        np.testing.assert_array_equal(pool.load_chunk(fid, 1), data[16:32])
        assert not srv.is_resident(fid)

    def test_load_handle_round_trips_cold_fragment(
        self, tmp_path, fresh_registry
    ):
        pool = self._pool(tmp_path, budget=100)
        data = np.random.default_rng(2).normal(size=(8, 8))
        fid = pool.store(data)
        before = fresh_registry.snapshot()
        handle = pool.load_handle(fid)
        assert isinstance(handle, SpillHandle)
        # A cold handle is one logical fragment read of the full payload.
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("ophidia_fragment_reads_total") == 1
        assert delta.value("ophidia_fragment_bytes_read_total") == data.nbytes
        assert delta.value("ophidia_spill_handles_total") == 1
        np.testing.assert_array_equal(handle.hydrate(), data)
        with pytest.raises(ValueError):
            handle.hydrate()[0, 0] = 1.0

    def test_delete_unlinks_spill_file(self, tmp_path):
        pool = self._pool(tmp_path, budget=100)
        fid = pool.store(np.zeros(64))
        assert len(os.listdir(tmp_path)) == 1
        pool.delete(fid)
        assert len(os.listdir(tmp_path)) == 0

    def test_spill_failure_keeps_fragment_resident(
        self, tmp_path, monkeypatch, fresh_registry
    ):
        import repro.ophidia.storage as storage_mod

        pool = self._pool(tmp_path, budget=100)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(storage_mod, "_write_spill_file", boom)
        data = np.random.default_rng(3).normal(size=64)
        fid = pool.store(data)
        assert pool.servers[0].is_resident(fid)
        assert fresh_registry.snapshot().value("ophidia_spill_failures_total") == 1
        np.testing.assert_array_equal(pool.load(fid), data)
