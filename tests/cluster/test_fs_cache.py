"""Tests for the shared-filesystem LRU block cache."""

import numpy as np
import pytest

from repro.cluster import SharedFilesystem
from repro.cluster.filesystem import BlockCache
from repro.netcdf import Dataset


def two_var_ds():
    ds = Dataset({"title": "cache-test"})
    ds.create_variable("big", np.arange(100.0).reshape(10, 10), ("y", "x"))
    ds.create_variable("small", np.arange(10.0), ("t",))
    return ds


class TestBlockCacheUnit:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(0)

    def test_store_lookup_roundtrip(self):
        cache = BlockCache(1000)
        assert cache.lookup(("bytes", "p")) is None
        cache.store(("bytes", "p"), b"abc", 3)
        assert cache.lookup(("bytes", "p")) == b"abc"
        assert cache.resident_bytes == 3

    def test_lru_eviction_and_path_index(self):
        cache = BlockCache(300)
        for i in range(3):
            cache.store(("bytes", f"p{i}"), bytes(100), 100)
        evicted = cache.store(("bytes", "p3"), bytes(100), 100)
        assert evicted == 1
        assert cache.lookup(("bytes", "p0")) is None
        assert len(cache) == 3

    def test_oversized_block_not_admitted(self):
        cache = BlockCache(100)
        cache.store(("bytes", "keep"), bytes(50), 50)
        assert cache.store(("bytes", "huge"), bytes(500), 500) == 0
        assert cache.lookup(("bytes", "huge")) is None
        assert cache.lookup(("bytes", "keep")) is not None

    def test_invalidate_drops_all_blocks_and_meta(self):
        cache = BlockCache(1000)
        cache.store(("var", "p", "a"), b"x", 1)
        cache.store(("var", "p", "b"), b"y", 1)
        cache.set_meta("p", {"d": 2}, {}, ["a", "b"])
        cache.invalidate("p")
        assert cache.lookup(("var", "p", "a")) is None
        assert cache.meta("p") is None
        assert cache.resident_bytes == 0

    def test_var_order_is_sticky(self):
        cache = BlockCache(1000)
        cache.set_meta("p", {"d": 2}, {}, ["a", "b"])
        cache.set_meta("p", {"d": 2}, {}, None)     # subset read later
        assert cache.meta("p")["var_order"] == ["a", "b"]


class TestCachedReads:
    def test_repeat_read_served_from_memory(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write("f.rnc", two_var_ds())
        first = fs.read("f.rnc")
        before = fresh_registry.snapshot()
        second = fs.read("f.rnc")
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("fs_operations_total", fs=fs.fs_label, op="read") == 0
        assert delta.value("fs_bytes_read_total", fs=fs.fs_label) == 0
        assert fresh_registry.snapshot().value(
            "fs_cache_hits_total", fs=fs.fs_label) == 1
        np.testing.assert_array_equal(second["big"].data, first["big"].data)
        np.testing.assert_array_equal(second["small"].data, first["small"].data)
        assert second.attrs == first.attrs
        assert list(second.variables) == list(first.variables)

    def test_cache_hits_hand_out_fresh_arrays(self, tmp_path):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write("f.rnc", two_var_ds())
        fs.read("f.rnc")
        mutated = fs.read("f.rnc")
        mutated["big"].data[:] = -1.0
        clean = fs.read("f.rnc")
        assert clean["big"].data[0, 0] == 0.0

    def test_subset_read_reuses_overlap(self, tmp_path, fresh_registry):
        """After a full read, a variable subset is served without disk."""
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write("f.rnc", two_var_ds())
        fs.read("f.rnc")                       # primes every variable
        before = fresh_registry.snapshot()
        sub = fs.read("f.rnc", variables=["small"])
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("fs_operations_total", fs=fs.fs_label, op="read") == 0
        assert delta.value("fs_bytes_read_total", fs=fs.fs_label) == 0
        assert delta.value("fs_cache_hits_total", fs=fs.fs_label) == 1
        assert list(sub.variables) == ["small"]
        np.testing.assert_array_equal(sub["small"].data, np.arange(10.0))

    def test_partial_miss_reads_only_missing_bytes(self, tmp_path,
                                                   fresh_registry):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write("f.rnc", two_var_ds())
        fs.read("f.rnc", variables=["small"])  # prime: small only
        before = fresh_registry.snapshot()
        both = fs.read("f.rnc", variables=["small", "big"])
        delta = fresh_registry.snapshot().delta(before)
        # Only the 100-element "big" variable came from disk.
        assert delta.value("fs_bytes_read_total", fs=fs.fs_label) == 100 * 8
        assert delta.value("fs_operations_total", fs=fs.fs_label, op="read") == 1
        assert delta.value("fs_cache_misses_total", fs=fs.fs_label) == 1
        np.testing.assert_array_equal(both["small"].data, np.arange(10.0))

    def test_write_invalidates(self, tmp_path):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write("f.rnc", two_var_ds())
        fs.read("f.rnc")
        updated = two_var_ds()
        updated["big"].data[:] = 7.0
        fs.write("f.rnc", updated)
        back = fs.read("f.rnc")
        assert back["big"].data[0, 0] == 7.0

    def test_delete_invalidates(self, tmp_path):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write_bytes("f.bin", b"abc")
        assert fs.read_bytes("f.bin") == b"abc"
        fs.delete("f.bin")
        with pytest.raises(FileNotFoundError):
            fs.read_bytes("f.bin")

    def test_raw_bytes_cached(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write_bytes("f.bin", b"\x00\x01\x02")
        fs.read_bytes("f.bin")
        before = fresh_registry.snapshot()
        assert fs.read_bytes("f.bin") == b"\x00\x01\x02"
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("fs_operations_total", fs=fs.fs_label,
                           op="read_bytes") == 0
        assert delta.value("fs_cache_hits_total", fs=fs.fs_label) == 1

    def test_budget_evicts_and_counts(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path, cache_bytes=16)
        fs.write_bytes("a.bin", bytes(10))
        fs.write_bytes("b.bin", bytes(10))
        fs.read_bytes("a.bin")
        fs.read_bytes("b.bin")                # evicts a.bin
        assert fresh_registry.snapshot().value(
            "fs_cache_evictions_total", fs=fs.fs_label) == 1
        before = fresh_registry.snapshot()
        fs.read_bytes("a.bin")                # back to disk
        assert fresh_registry.snapshot().delta(before).value(
            "fs_cache_misses_total", fs=fs.fs_label) == 1

    def test_fault_hook_fires_on_cache_hits(self, tmp_path):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write("f.rnc", two_var_ds())
        fs.read("f.rnc")

        class Injector:
            def before_op(self, op, path, fs=None):
                raise OSError("node crashed")

        fs.fault_injector = Injector()
        # A cache on a dead node is just as dead as its disks.
        with pytest.raises(OSError):
            fs.read("f.rnc")
        with pytest.raises(OSError):
            fs.read_bytes("f.rnc")

    def test_configure_cache_zero_disables(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path, cache_bytes=1 << 20)
        fs.write("f.rnc", two_var_ds())
        fs.read("f.rnc")
        fs.configure_cache(0)
        assert fs.cache is None
        before = fresh_registry.snapshot()
        fs.read("f.rnc")
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("fs_operations_total", fs=fs.fs_label, op="read") == 1
        assert delta.value("fs_cache_hits_total", fs=fs.fs_label) == 0

    def test_configure_cache_negative_rejected(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        with pytest.raises(ValueError):
            fs.configure_cache(-1)

    def test_uncached_fs_reports_zero_cache_stats(self, tmp_path,
                                                  fresh_registry):
        fs = SharedFilesystem(tmp_path)
        fs.write("f.rnc", two_var_ds())
        fs.read("f.rnc")
        fs.read("f.rnc")
        value = fresh_registry.snapshot().value
        assert value("fs_cache_hits_total", fs=fs.fs_label) == 0
        assert value("fs_cache_misses_total", fs=fs.fs_label) == 0
        assert value("fs_operations_total", fs=fs.fs_label, op="read") == 2
