"""Tests for the storage pool: its fragment table and its spill tier."""

import os
import threading

import numpy as np
import pytest

from repro.observability import metrics
from repro.observability.metrics import MetricsRegistry
from repro.ophidia import StoragePool
from repro.ophidia.storage import SpillError, SpillHandle


class TestStoragePool:
    def test_counters(self, fresh_registry):
        """The pool counts every access in the registry."""
        pool = StoragePool(1)
        fid = pool.store(np.zeros(10, dtype=np.float64))
        pool.load(fid)
        pool.load(fid)
        assert pool.fragments_per_server() == [1]
        value = fresh_registry.snapshot().value
        assert value("ophidia_fragment_writes_total") == 1
        assert value("ophidia_fragment_reads_total") == 2
        assert value("ophidia_fragment_bytes_written_total") == 80
        assert value("ophidia_fragment_bytes_read_total") == 160

    def test_delete_idempotent(self):
        pool = StoragePool(1)
        fid = pool.store(np.zeros(3))
        pool.delete(fid)
        pool.delete(fid)
        assert pool.n_fragments == 0
        with pytest.raises(KeyError):
            pool.load(fid)

    def test_resident_bytes(self):
        pool = StoragePool(1)
        pool.store(np.zeros(4, dtype=np.float64))
        pool.store(np.zeros(2, dtype=np.float32))
        assert pool.resident_bytes == 32 + 8
        assert pool.n_fragments == 2

    def test_total_stats_aggregates(self, fresh_registry):
        """One registry series counts the accesses of every server."""
        pool = StoragePool(2)
        fids = [pool.store(np.zeros(10, dtype=np.float64)) for _ in range(4)]
        for fid in fids:
            pool.load(fid)
            pool.load(fid)
        assert pool.fragments_per_server() == [2, 2]
        value = fresh_registry.snapshot().value
        assert value("ophidia_fragment_writes_total") == 4
        assert value("ophidia_fragment_reads_total") == 8
        assert value("ophidia_fragment_bytes_written_total") == 4 * 80
        assert value("ophidia_fragment_bytes_read_total") == 8 * 80

    def test_round_robin_placement(self):
        pool = StoragePool(n_servers=3)
        for _ in range(6):
            pool.store(np.zeros(1))
        assert pool.fragments_per_server() == [2, 2, 2]

    def test_put_get(self):
        """Fragments of any dtype and shape come back as stored."""
        pool = StoragePool(2)
        stored = [np.arange(5), np.ones((2, 3), dtype=np.float32),
                  np.array([True, False])]
        fids = [pool.store(data) for data in stored]
        assert len(set(fids)) == len(fids)
        for fid, data in zip(fids, stored):
            got = pool.load(fid)
            assert got.dtype == data.dtype
            np.testing.assert_array_equal(got, data)

    def test_store_load_roundtrip(self):
        pool = StoragePool(2)
        fid = pool.store(np.arange(4))
        np.testing.assert_array_equal(pool.load(fid), np.arange(4))

    def test_unknown_fragment(self):
        pool = StoragePool(1)
        with pytest.raises(KeyError):
            pool.load(123)

    def test_missing_fragment(self):
        """Every read path refuses an id that was never stored or is gone."""
        pool = StoragePool(1)
        fid = pool.store(np.zeros(3))
        pool.delete(fid)
        for read in (pool.load, pool.load_handle, pool.chunk_meta):
            with pytest.raises(KeyError):
                read(fid)
        with pytest.raises(KeyError):
            pool.load_chunk(fid, 0)
        assert pool.fragment_nbytes(fid) == 0

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
        pool = StoragePool(1, chunk_bytes=64)
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        # 2 rows of 4 float64 per chunk -> 3 chunks.
        meta = pool.chunk_meta(pool.store(data, chunk_axis=0))
        assert len(meta.chunks) == 3
        assert [(c.start, c.stop) for c in meta.chunks] == [(0, 2), (2, 4), (4, 6)]
        first = meta.chunks[0].stats
        assert first.min == 0.0 and first.max == 7.0
        assert first.null_count == 0 and first.count == 8

    def test_chunk_stats_count_nans(self):
        pool = StoragePool(1, chunk_bytes=1 << 20)
        data = np.array([1.0, np.nan, 3.0, np.nan])
        (chunk,) = pool.chunk_meta(pool.store(data)).chunks
        assert chunk.stats.null_count == 2
        assert chunk.stats.min == 1.0 and chunk.stats.max == 3.0

    def test_get_reassembles_multi_chunk_fragment(self):
        pool = StoragePool(1, chunk_bytes=48)
        data = np.random.default_rng(0).normal(size=(7, 3))
        fid = pool.store(data, chunk_axis=0)
        assert len(pool.chunk_meta(fid).chunks) == 4
        np.testing.assert_array_equal(pool.load(fid), data)

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
        pool = StoragePool(1)
        view = pool.load(pool.store(np.arange(4.0)))
        with pytest.raises(ValueError):
            view[0] = 99.0

    def test_multi_chunk_read_is_read_only(self):
        pool = StoragePool(1, chunk_bytes=64)
        view = pool.load(pool.store(np.arange(32.0)))
        with pytest.raises(ValueError):
            view[:] = 0.0

    def test_stored_fragment_unaffected_by_source_mutation(self):
        pool = StoragePool(1)
        src = np.arange(4.0)
        fid = pool.store(src)
        # The store may alias the caller's buffer; the read-only contract
        # covers what readers can do, not the writer's own array.
        np.testing.assert_array_equal(pool.load(fid), np.arange(4.0))


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
        assert pool.is_resident(a) and pool.is_resident(c)
        assert not pool.is_resident(b)

    def test_load_chunk_on_cold_fragment_stays_cold(self, tmp_path):
        pool = self._pool(tmp_path, budget=100, chunk_bytes=128)
        data = np.arange(64, dtype=np.float64)
        fid = pool.store(data)
        assert not pool.is_resident(fid)
        np.testing.assert_array_equal(pool.load_chunk(fid, 1), data[16:32])
        assert not pool.is_resident(fid)

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
        assert pool.is_resident(fid)
        assert fresh_registry.snapshot().value("ophidia_spill_failures_total") == 1
        np.testing.assert_array_equal(pool.load(fid), data)

    def test_budget_is_pool_wide(self, tmp_path):
        """The budget caps resident bytes summed over every server, not
        per server: 1.5 fragments of budget keeps one fragment hot."""
        pool = StoragePool(2, memory_budget_bytes=384, spill_dir=str(tmp_path))
        for _ in range(5):
            pool.store(np.zeros(32))   # 256 bytes, round-robin over 2 servers
            assert pool.resident_bytes <= 384
        assert pool.fragments_per_server() == [3, 2]
        assert pool.spilled_fragments == 4

    def test_spill_writes_the_raw_payload(self, tmp_path, fresh_registry):
        """First-time spills write each chunk's bytes as they are."""
        pool = self._pool(tmp_path, budget=100, chunk_bytes=128)
        data = np.random.default_rng(4).normal(size=(16, 4))
        pool.store(data)
        pool.store(data[::2].T)        # non-contiguous source
        value = fresh_registry.snapshot().value
        assert (value("ophidia_spill_bytes_written_total")
                == value("ophidia_spill_bytes_total")
                == data.nbytes + data[::2].nbytes)
        (name,) = [n for n in os.listdir(tmp_path) if n.startswith("fragment_1")]
        assert (tmp_path / name).read_bytes().endswith(data.tobytes())


def _spilled_fragment(tmp_path):
    """A pool holding one cold 4-chunk fragment, its cold handle and
    the path of its spill file."""
    pool = StoragePool(1, memory_budget_bytes=100, spill_dir=str(tmp_path),
                       chunk_bytes=128)
    data = np.random.default_rng(5).normal(size=64)
    fid = pool.store(data)
    handle = pool.load_handle(fid)
    assert isinstance(handle, SpillHandle) and len(handle.chunks) == 4
    (name,) = os.listdir(tmp_path)
    return pool, fid, handle, tmp_path / name


_COLD_READS = {
    "load": lambda pool, fid, handle: pool.load(fid),
    "load_chunk": lambda pool, fid, handle: pool.load_chunk(fid, 3),
    "hydrate": lambda pool, fid, handle: handle.hydrate(),
}


class TestSpillIntegrity:
    """Every range read of a spill file checks its length and CRC32."""

    @pytest.mark.parametrize("read", sorted(_COLD_READS))
    def test_flipped_payload_byte_raises(self, tmp_path, read):
        pool, fid, handle, path = _spilled_fragment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01                # last byte of the last chunk
        path.write_bytes(bytes(raw))
        with pytest.raises(SpillError, match="CRC32"):
            _COLD_READS[read](pool, fid, handle)

    @pytest.mark.parametrize("read", sorted(_COLD_READS))
    def test_truncated_file_raises(self, tmp_path, read):
        pool, fid, handle, path = _spilled_fragment(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SpillError, match="truncated"):
            _COLD_READS[read](pool, fid, handle)

    def test_bad_reload_leaves_fragment_spilled(self, tmp_path):
        """A reload that fails on one chunk admits none of them."""
        pool, fid, _, path = _spilled_fragment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SpillError):
            pool.load(fid)
        assert not pool.is_resident(fid)
        assert pool.spilled_fragments == 1
        # Ranges are checked one by one: the intact chunks still read.
        np.testing.assert_array_equal(
            pool.load_chunk(fid, 0),
            np.random.default_rng(5).normal(size=64)[:16],
        )

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                              fresh_registry):
        import repro.ophidia.storage as storage_mod

        def refuse(src, dst):
            raise OSError("injected: rename failed")

        monkeypatch.setattr(storage_mod.os, "replace", refuse)
        pool = StoragePool(1, memory_budget_bytes=100, spill_dir=str(tmp_path))
        fid = pool.store(np.zeros(64))
        assert pool.is_resident(fid)
        assert fresh_registry.snapshot().value("ophidia_spill_failures_total") == 1
        assert os.listdir(tmp_path) == []


class TestConcurrentAccess:
    """Four threads share the one fragment table under a tight budget."""

    N_THREADS = 4
    OPS_PER_THREAD = 200

    def _worker(self, pool, seed, results, barrier):
        rng = np.random.default_rng(seed)
        mine = {}                                    # fid -> stored array
        reads = 0
        barrier.wait()
        for _ in range(self.OPS_PER_THREAD):
            op = rng.choice(["store", "load", "load_handle", "load_chunk",
                             "delete"] if mine else ["store"])
            if op == "store":
                data = rng.normal(size=(int(rng.integers(4, 17)), 4))
                mine[pool.store(data)] = data
                continue
            fid = list(mine)[int(rng.integers(len(mine)))]
            data = mine[fid]
            if op == "load":
                np.testing.assert_array_equal(pool.load(fid), data)
                reads += 1
            elif op == "load_handle":
                got = pool.load_handle(fid)
                if isinstance(got, SpillHandle):
                    got = got.hydrate()
                np.testing.assert_array_equal(got, data)
                reads += 1
            elif op == "load_chunk":
                chunks = pool.chunk_meta(fid).chunks
                index = int(rng.integers(len(chunks)))
                np.testing.assert_array_equal(
                    pool.load_chunk(fid, index),
                    data[chunks[index].start:chunks[index].stop],
                )
            else:
                pool.delete(fid)
                del mine[fid]
        results.append((reads, mine))

    def test_four_threads_share_one_table(self, tmp_path, fresh_registry):
        # Fragments are 128-512 bytes in 64-byte chunks: the budget holds
        # about three of them, so every thread spills and reloads.
        pool = StoragePool(2, chunk_bytes=64, memory_budget_bytes=1024,
                           spill_dir=str(tmp_path))
        results, errors = [], []
        barrier = threading.Barrier(self.N_THREADS)

        def run(seed):
            try:
                self._worker(pool, seed, results, barrier)
            except BaseException as exc:             # re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(100 + i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        value = fresh_registry.snapshot().value
        assert value("ophidia_fragment_reads_total") == sum(r for r, _ in results)
        assert value("ophidia_fragments_spilled_total") > 0
        assert value("ophidia_fragments_reloaded_total") > 0
        assert value("ophidia_spill_handles_total") > 0
        live = {fid: data for _, mine in results for fid, data in mine.items()}
        assert pool.n_fragments == len(live)
        resident = sum(data.nbytes for fid, data in live.items()
                       if pool.is_resident(fid))
        assert pool.resident_bytes == resident <= 1024
        pool.close()
        assert os.listdir(tmp_path) == []
