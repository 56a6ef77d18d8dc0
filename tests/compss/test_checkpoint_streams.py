"""Checkpoint recovery and streaming interfaces."""

import os
import time

import pytest

from repro.compss import (
    COMPSs,
    CheckpointManager,
    FileDistroStream,
    StreamClosed,
    compss_barrier,
    compss_wait_on,
    task,
)
from repro.compss.task_graph import TaskState


class TestCheckpointManager:
    def test_signatures_are_per_function_counters(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        assert cm.next_signature("f") == "f#0"
        assert cm.next_signature("f") == "f#1"
        assert cm.next_signature("g") == "g#0"

    def test_store_load_roundtrip(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.store("f#0", (42, "x"))
        assert cm.load("f#0") == (42, "x")
        assert cm.load("f#1") is None
        assert [n for n in os.listdir(tmp_path) if n.endswith(".ckpt")] == [
            "f__0.ckpt"]

    def test_corrupt_checkpoint_treated_as_absent(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.store("f#0", (1,))
        # Find and corrupt the file.
        (name,) = [n for n in os.listdir(tmp_path) if n.endswith(".ckpt")]
        with open(tmp_path / name, "wb") as fh:
            fh.write(b"garbage")
        assert cm.load("f#0") is None

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.compss.checkpoint as checkpoint_mod

        def refuse(src, dst):
            raise OSError("injected: rename failed")

        cm = CheckpointManager(tmp_path)
        monkeypatch.setattr(checkpoint_mod.os, "replace", refuse)
        with pytest.raises(OSError):
            cm.store("f#0", (1,))
        assert os.listdir(tmp_path) == []


class TestCheckpointedWorkflow:
    def test_second_run_recovers_completed_tasks(self, tmp_path):
        executions = []

        @task(returns=1)
        def step(i):
            executions.append(i)
            return i * i

        def run():
            with COMPSs(n_workers=2, checkpoint=CheckpointManager(tmp_path)) as rt:
                futs = [step(i) for i in range(4)]
                values = compss_wait_on(futs)
                return values, rt.graph.counts_by_state()

        values1, states1 = run()
        assert values1 == [0, 1, 4, 9]
        assert states1.get("COMPLETED") == 4
        assert executions == [0, 1, 2, 3]

        values2, states2 = run()
        assert values2 == [0, 1, 4, 9]
        assert states2.get("RECOVERED") == 4
        assert executions == [0, 1, 2, 3]  # nothing re-executed

    def test_partial_recovery_after_failure(self, tmp_path):
        runs = {"count": 0}

        @task(returns=1)
        def good(i):
            return i

        @task(returns=1)
        def sometimes(i):
            if runs["count"] == 0:
                raise RuntimeError("first run dies here")
            return i + 100

        from repro.compss import TaskFailedError

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=1, checkpoint=CheckpointManager(tmp_path)):
                a = good(1)
                b = sometimes(2)
                compss_wait_on([a, b])

        runs["count"] = 1
        with COMPSs(n_workers=1, checkpoint=CheckpointManager(tmp_path)) as rt:
            a = good(1)
            b = sometimes(2)
            assert compss_wait_on([a, b]) == [1, 102]
            # good(1) recovered, sometimes(2) executed this time
            by_state = rt.graph.counts_by_state()
            assert by_state.get("RECOVERED") == 1
            assert by_state.get("COMPLETED") == 1


class TestUnpicklableOutputs:
    def test_unpicklable_result_skips_checkpoint_not_task(self, tmp_path):
        """Live handles (thread locks, servers) cannot be pickled; the
        task must still complete — it simply re-executes on restart."""
        import threading

        runs = []

        @task(returns=1)
        def handle(i):
            runs.append(i)
            return threading.Lock()  # unpicklable

        for _ in range(2):
            with COMPSs(n_workers=1, checkpoint=CheckpointManager(tmp_path)):
                out = compss_wait_on(handle(1))
                assert out is not None
        assert runs == [1, 1]  # executed both times, no recovery
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
        assert leftovers == []


class TestFileStream:
    def test_detects_new_files_once(self, tmp_path):
        s = FileDistroStream(tmp_path, pattern="day_*.rnc", poll_interval=0.01)
        (tmp_path / "day_001.rnc").write_bytes(b"a")
        (tmp_path / "ignored.txt").write_bytes(b"b")
        got = s.poll(timeout=1)
        assert [os.path.basename(p) for p in got] == ["day_001.rnc"]
        (tmp_path / "day_002.rnc").write_bytes(b"c")
        got = s.poll(timeout=1)
        assert [os.path.basename(p) for p in got] == ["day_002.rnc"]

    def test_skips_atomic_write_temporaries(self, tmp_path):
        s = FileDistroStream(tmp_path, pattern="*", poll_interval=0.01)
        stray = tmp_path / "f.rnc.tmp.123"  # a crashed writer's leftover
        stray.write_bytes(b"partial")
        assert s.poll(block=False) == []
        stray.unlink()  # planted here, so not a leak for conftest to report

    def test_close_then_drain_then_raise(self, tmp_path):
        s = FileDistroStream(tmp_path, pattern="*.rnc", poll_interval=0.01)
        (tmp_path / "a.rnc").write_bytes(b"x")
        s.close()
        assert len(s.poll()) == 1  # race-free final scan
        with pytest.raises(StreamClosed):
            s.poll()

    def test_producer_consumer_tasks_overlap(self, tmp_path):
        """The paper's §5.2 pattern: ESM writes days, a monitor reacts."""
        outdir = tmp_path / "out"
        outdir.mkdir()
        stream = FileDistroStream(outdir, pattern="day_*.dat", poll_interval=0.01)

        @task(returns=1)
        def producer(n):
            for i in range(n):
                (outdir / f"day_{i:03d}.dat").write_bytes(b"d")
                time.sleep(0.01)
            stream.close()
            return n

        @task(returns=1)
        def monitor():
            seen = []
            while True:
                try:
                    seen.extend(stream.poll(timeout=5))
                except StreamClosed:
                    return len(seen)

        with COMPSs(n_workers=2):
            p = producer(5)
            m = monitor()
            assert compss_wait_on(m) == 5
            assert compss_wait_on(p) == 5
