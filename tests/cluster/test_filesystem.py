"""Tests for the shared filesystem facade and its I/O accounting."""

import numpy as np
import pytest

from repro.cluster import SharedFilesystem
from repro.netcdf import Dataset


def fs_count(registry, fs, family="fs_operations_total", **labels):
    """*fs*'s own series of a ``fs_*`` registry family."""
    return registry.snapshot().value(family, fs=fs.fs_label, **labels)


def small_ds(value=0.0):
    ds = Dataset({"v": value})
    ds.create_variable("x", np.full((2, 3), value), ("a", "b"))
    return ds


class TestDatasetIO:
    def test_write_read_roundtrip(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        fs.write("out/y2015/day_001.rnc", small_ds(1.5))
        back = fs.read("out/y2015/day_001.rnc")
        np.testing.assert_array_equal(back["x"].data, np.full((2, 3), 1.5))

    def test_counters_track_ops_and_bytes(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path)
        n = fs.write("a.rnc", small_ds())
        assert fs_count(fresh_registry, fs, op="write") == 1
        assert fs_count(fresh_registry, fs, "fs_bytes_written_total") == n
        fs.read("a.rnc")
        assert fs_count(fresh_registry, fs, op="read") == 1
        assert fs_count(fresh_registry, fs, "fs_bytes_read_total") == \
            small_ds().nbytes

    def test_stats_snapshot_delta(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path)
        fs.write("a.rnc", small_ds())
        before = fresh_registry.snapshot()
        fs.read("a.rnc")
        fs.read("a.rnc")
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("fs_operations_total", fs=fs.fs_label, op="read") == 2
        assert delta.value("fs_operations_total", fs=fs.fs_label, op="write") == 0

    def test_subset_read_counts_only_loaded_bytes(self, tmp_path,
                                                  fresh_registry):
        fs = SharedFilesystem(tmp_path)
        ds = Dataset()
        ds.create_variable("big", np.zeros((100, 100)), ("a", "b"))
        ds.create_variable("small", np.zeros(10), ("c",))
        fs.write("f.rnc", ds)
        fs.read("f.rnc", variables=["small"])
        assert fs_count(fresh_registry, fs, "fs_bytes_read_total") == 10 * 8


class TestNamespace:
    def test_path_escape_rejected(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        with pytest.raises(ValueError):
            fs.path("../outside")

    def test_listdir_and_glob(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path)
        for d in (3, 1, 2):
            fs.write(f"y/day_{d:03d}.rnc", small_ds())
        fs.write_bytes("y/readme.txt", b"hi")
        assert fs.listdir("y") == ["day_001.rnc", "day_002.rnc", "day_003.rnc", "readme.txt"]
        assert fs.glob("y", "day_*.rnc") == [
            "y/day_001.rnc", "y/day_002.rnc", "y/day_003.rnc"
        ]
        assert fs_count(fresh_registry, fs, op="list") == 2

    def test_listdir_missing_dir_is_empty(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        assert fs.listdir("nope") == []

    def test_exists_delete(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("f.bin", b"abc")
        assert fs.exists("f.bin")
        assert fs.size("f.bin") == 3
        fs.delete("f.bin")
        assert not fs.exists("f.bin")
        assert fs_count(fresh_registry, fs, op="delete") == 1

    def test_raw_bytes_roundtrip(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("ckpt/t1.pkl", b"\x00\x01\x02")
        assert fs.read_bytes("ckpt/t1.pkl") == b"\x00\x01\x02"


class _RecordingInjector:
    """Captures every op offered to the fault hook; raises on demand."""

    def __init__(self, fail_ops=()):
        self.ops = []
        self.fail_ops = set(fail_ops)

    def before_op(self, op, path, fs=None):
        self.ops.append((op, path))
        if op in self.fail_ops:
            raise OSError(f"injected fault on {op}")


class TestMetadataOps:
    """exists/size/delete must be visible to metrics and chaos alike."""

    def test_exists_and_size_are_counted(self, tmp_path, fresh_registry):
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("f.bin", b"abc")
        before = fresh_registry.snapshot()
        assert fs.exists("f.bin")
        assert not fs.exists("nope.bin")
        assert fs.size("f.bin") == 3
        delta = fresh_registry.snapshot().delta(before)
        assert delta.value("fs_operations_total", fs=fs.fs_label) == 3
        assert delta.value("fs_operations_total", op="exists") == 2
        assert delta.value("fs_operations_total", op="size") == 1

    def test_exists_size_delete_route_through_fault_hook(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("f.bin", b"abc")
        injector = _RecordingInjector()
        fs.fault_injector = injector
        fs.exists("f.bin")
        fs.size("f.bin")
        fs.delete("f.bin")
        assert [op for op, _ in injector.ops] == ["exists", "size", "delete"]

    def test_injected_delete_fault_keeps_the_file(self, tmp_path,
                                                  fresh_registry):
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("f.bin", b"abc")
        fs.fault_injector = _RecordingInjector(fail_ops={"delete"})
        with pytest.raises(OSError):
            fs.delete("f.bin")
        fs.fault_injector = None
        assert fs.exists("f.bin")
        assert fs_count(fresh_registry, fs, op="delete") == 0

    def test_delete_is_injectable_by_default_plan(self):
        from repro.faults.plan import DEFAULT_FS_OPS

        assert "delete" in DEFAULT_FS_OPS
        # Namespace probes stay opt-in: failing every exists() would
        # break polling loops outside any retry scope.
        assert "exists" not in DEFAULT_FS_OPS
        assert "size" not in DEFAULT_FS_OPS
