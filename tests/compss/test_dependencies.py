"""Dependency analysis: ordering, INOUT versioning, file and object deps."""

import threading
import time

import pytest

from repro.compss import (
    COMPSs,
    FILE_IN,
    FILE_INOUT,
    FILE_OUT,
    INOUT,
    compss_barrier,
    compss_wait_on,
    task,
)
from repro.compss.api import get_runtime


class TestFutureDependencies:
    def test_execution_respects_raw_dependency(self):
        order = []

        @task(returns=1)
        def produce():
            time.sleep(0.05)
            order.append("produce")
            return 10

        @task(returns=1)
        def consume(x):
            order.append("consume")
            return x * 2

        with COMPSs(n_workers=4):
            assert compss_wait_on(consume(produce())) == 20
        assert order == ["produce", "consume"]

    def test_diamond_dependency(self):
        @task(returns=1)
        def src():
            return 1

        @task(returns=1)
        def left(x):
            return x + 10

        @task(returns=1)
        def right(x):
            return x + 100

        @task(returns=1)
        def join(a, b):
            return a + b

        with COMPSs(n_workers=4):
            s = src()
            assert compss_wait_on(join(left(s), right(s))) == 112

    def test_futures_inside_list_argument_create_deps(self):
        @task(returns=1)
        def make(i):
            time.sleep(0.02)
            return i

        @task(returns=1)
        def total(values):
            return sum(values)

        with COMPSs(n_workers=4):
            futs = [make(i) for i in range(6)]
            assert compss_wait_on(total(futs)) == 15

    def test_graph_records_edges(self):
        @task(returns=1)
        def a():
            return 1

        @task(returns=1)
        def b(x):
            return x

        with COMPSs(n_workers=2) as rt:
            b(a())
            compss_barrier()
            assert len(rt.graph) == 2
            assert len(rt.graph.edges()) == 1
            for u, v in rt.graph.edges():
                assert rt.graph.task(u).submit_order < rt.graph.task(v).submit_order


class TestInoutVersioning:
    def test_inout_future_serialises_writers(self):
        @task(returns=1)
        def new_list():
            return []

        @task(data=INOUT)
        def append(data, value):
            time.sleep(0.01)
            data.append(value)

        with COMPSs(n_workers=4):
            lst = new_list()
            for i in range(5):
                append(lst, i)
            result = compss_wait_on(lst)
        assert result == [0, 1, 2, 3, 4]  # strict order despite 4 workers

    def test_reader_after_writer_sees_new_version(self):
        @task(returns=1)
        def new_dict():
            return {}

        @task(d=INOUT)
        def put(d, k, v):
            d[k] = v

        @task(returns=1)
        def get(d, k):
            return d[k]

        with COMPSs(n_workers=4):
            d = new_dict()
            put(d, "x", 42)
            assert compss_wait_on(get(d, "x")) == 42

    def test_plain_object_inout_orders_tasks(self):
        @task(acc=INOUT)
        def bump(acc):
            acc[0] += 1

        @task(returns=1)
        def read(acc):
            return acc[0]

        acc = [0]
        with COMPSs(n_workers=4):
            for _ in range(8):
                bump(acc)
            assert compss_wait_on(read(acc)) == 8


class TestFileDependencies:
    def test_file_out_then_in_is_ordered(self, tmp_path):
        path = str(tmp_path / "x.txt")

        @task(dst=FILE_OUT)
        def write(dst, text):
            time.sleep(0.03)
            with open(dst, "w") as fh:
                fh.write(text)

        @task(returns=1, src=FILE_IN)
        def read(src):
            with open(src) as fh:
                return fh.read()

        with COMPSs(n_workers=4):
            write(path, "hello")
            assert compss_wait_on(read(path)) == "hello"

    def test_file_inout_chain(self, tmp_path):
        path = str(tmp_path / "counter.txt")
        path2 = str(tmp_path / "other.txt")

        @task(dst=FILE_OUT)
        def init(dst):
            with open(dst, "w") as fh:
                fh.write("0")

        @task(f=FILE_INOUT)
        def increment(f):
            with open(f) as fh:
                n = int(fh.read())
            time.sleep(0.01)
            with open(f, "w") as fh:
                fh.write(str(n + 1))

        @task(returns=1, src=FILE_IN)
        def load(src):
            with open(src) as fh:
                return int(fh.read())

        with COMPSs(n_workers=4):
            init(path)
            init(path2)  # independent file: no false dependency
            for _ in range(5):
                increment(path)
            assert compss_wait_on(load(path)) == 5

    def test_independent_files_run_in_parallel(self, tmp_path):
        gate = threading.Barrier(2, timeout=5)

        @task(dst=FILE_OUT)
        def write(dst):
            gate.wait()  # deadlocks unless both writers run concurrently
            with open(dst, "w") as fh:
                fh.write("x")

        with COMPSs(n_workers=2):
            write(str(tmp_path / "a"))
            write(str(tmp_path / "b"))
            compss_barrier()
