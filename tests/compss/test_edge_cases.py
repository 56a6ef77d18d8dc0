"""Edge-case tests for the runtime and its surroundings."""

import threading
import time

import pytest

from repro.compss import (
    COMPSs,
    Future,
    TaskFailedError,
    compss_stop,
    compss_wait_on,
    task,
)
from repro.compss.api import get_runtime


class TestContextManagerEdges:
    def test_exception_in_block_stops_runtime_without_drain_raise(self):
        @task(returns=1)
        def ok():
            return 1

        with pytest.raises(KeyboardInterrupt):
            with COMPSs(n_workers=1):
                ok()
                raise KeyboardInterrupt()
        assert get_runtime() is None  # cleaned up despite the exception

    def test_nested_context_rejected(self):
        with COMPSs(n_workers=1):
            with pytest.raises(RuntimeError):
                with COMPSs(n_workers=1):
                    pass
        assert get_runtime() is None

    def test_runtime_usable_after_failed_workflow(self):
        @task(returns=1)
        def boom():
            raise ValueError("x")

        @task(returns=1)
        def ok():
            return 7

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=1):
                boom()
        # A fresh runtime starts cleanly afterwards.
        with COMPSs(n_workers=1):
            assert compss_wait_on(ok()) == 7


class TestFutureEdges:
    def test_wait_on_timeout(self):
        gate = threading.Event()

        @task(returns=1)
        def blocked():
            gate.wait(5)
            return 1

        with COMPSs(n_workers=1):
            fut = blocked()
            with pytest.raises(TimeoutError):
                compss_wait_on(fut, timeout=0.05)
            gate.set()
            assert compss_wait_on(fut) == 1

    def test_result_timeout(self):
        fut = Future(producer_task_id=None)
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)

    def test_repeated_wait_on_same_future(self):
        @task(returns=1)
        def once():
            return 42

        with COMPSs(n_workers=1):
            fut = once()
            assert compss_wait_on(fut) == 42
            assert compss_wait_on(fut) == 42  # idempotent

    def test_barrier_timeout(self):
        gate = threading.Event()

        @task()
        def blocked():
            gate.wait(5)

        with COMPSs(n_workers=1) as rt:
            blocked()
            with pytest.raises(TimeoutError):
                rt.barrier(timeout=0.05)
            gate.set()


class TestArgumentEdges:
    def test_kwarg_futures_create_dependencies(self):
        order = []

        @task(returns=1)
        def produce():
            time.sleep(0.03)
            order.append("p")
            return 5

        @task(returns=1)
        def consume(*, value):
            order.append("c")
            return value + 1

        with COMPSs(n_workers=4):
            assert compss_wait_on(consume(value=produce())) == 6
        assert order == ["p", "c"]

    def test_same_future_passed_twice(self):
        @task(returns=1)
        def produce():
            return 3

        @task(returns=1)
        def add(a, b):
            return a + b

        with COMPSs(n_workers=2):
            fut = produce()
            assert compss_wait_on(add(fut, fut)) == 6

    def test_future_in_tuple_argument(self):
        @task(returns=1)
        def produce():
            return 2

        @task(returns=1)
        def total(pair):
            return pair[0] + pair[1]

        with COMPSs(n_workers=2):
            assert compss_wait_on(total((produce(), 10))) == 12

    def test_none_and_empty_arguments(self):
        @task(returns=1)
        def idly(a, b=None, c=()):
            return (a, b, tuple(c))

        with COMPSs(n_workers=1):
            assert compss_wait_on(idly(None)) == (None, None, ())
