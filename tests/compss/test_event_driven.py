"""The event-driven scheduler core: timers, wake-ups, shared deadlines."""

import threading
import time

import pytest

from repro.compss import COMPSs, compss_wait_on, task
from repro.compss.api import get_runtime
from repro.compss.timerwheel import TimerWheel
from repro.observability.metrics import get_registry


pytestmark = pytest.mark.usefixtures("fresh_registry")


@task(returns=1)
def quick(x):
    return x + 1


@task(returns=1)
def nap(seconds):
    time.sleep(seconds)
    return seconds


class TestTimerWheel:
    def test_fires_in_deadline_order(self):
        wheel = TimerWheel(name="t")
        fired = []
        done = threading.Event()
        now = time.monotonic()
        wheel.schedule(now + 0.06, lambda: (fired.append("b"), done.set()))
        wheel.schedule(now + 0.02, lambda: fired.append("a"))
        assert done.wait(2.0)
        assert fired == ["a", "b"]
        wheel.stop()

    def test_past_deadline_fires_promptly(self):
        wheel = TimerWheel(name="t")
        done = threading.Event()
        wheel.schedule(time.monotonic() - 1.0, done.set)
        assert done.wait(1.0)
        wheel.stop()

    def test_schedule_after_stop_is_noop(self):
        wheel = TimerWheel(name="t")
        wheel.schedule(time.monotonic(), lambda: None)
        wheel.stop()
        fired = threading.Event()
        wheel.schedule(time.monotonic(), fired.set)
        assert not fired.wait(0.05)
        assert len(wheel) == 0

    def test_callback_exception_does_not_kill_the_wheel(self):
        wheel = TimerWheel(name="t")
        done = threading.Event()
        wheel.schedule(time.monotonic(), lambda: 1 / 0)
        wheel.schedule(time.monotonic() + 0.01, done.set)
        assert done.wait(2.0)
        wheel.stop()


class TestWaitOnSharedDeadline:
    def test_container_timeout_is_one_deadline(self):
        """A container of slow futures times out once, not once per element.

        With one worker, three 0.3s tasks serialise (0.9s total); a
        0.15s timeout must fire at ~0.15s.  The historical bug applied
        the timeout to every future (and twice: event + result), so the
        wait could stretch to ``2 * N * timeout`` — here 0.9s, the full
        serial makespan.
        """
        with COMPSs(n_workers=1):
            futures = [nap(0.3) for _ in range(3)]
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                compss_wait_on(futures, timeout=0.15)
            elapsed = time.monotonic() - start
        assert elapsed < 0.75, f"shared deadline not honoured: {elapsed:.2f}s"

    def test_container_resolves_within_generous_timeout(self):
        with COMPSs(n_workers=2):
            futures = {"a": quick(1), "b": [quick(2), quick(3)]}
            assert compss_wait_on(futures, timeout=10.0) == {"a": 2, "b": [3, 4]}


class TestEventDrivenDispatch:
    def test_chain_latency_without_timed_polls(self):
        """Dependent tasks dispatch on completion events, not poll ticks.

        A 25-deep chain of trivial tasks under the legacy 100ms worker
        poll would take seconds; event-driven it completes in a fraction
        of one, and the instrumented ready-queue latency confirms each
        hop was dispatched within milliseconds of becoming ready.
        """
        with COMPSs(n_workers=2):
            fut = 0
            start = time.monotonic()
            for _ in range(25):
                fut = quick(fut)
            assert compss_wait_on(fut) == 25
            elapsed = time.monotonic() - start
        assert elapsed < 1.5, f"chain took {elapsed:.2f}s — timed polling?"
        p95 = get_registry().snapshot().quantile(
            "compss_ready_queue_latency_seconds", 0.95)
        assert p95 < 0.05, f"p95 ready-queue latency {p95:.3f}s"

    def test_backoff_expiry_wakes_via_timer(self):
        """A retry becomes dispatchable when its backoff window closes.

        The timer wheel notifies the ready queue at ``not_before``;
        nothing else in this quiet runtime would wake the workers.
        """
        attempts = []

        @task(returns=1)
        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                err = IOError("blip")
                err.transient = True
                raise err
            return len(attempts)

        start = time.monotonic()
        with COMPSs(n_workers=1, retry_backoff_base=0.05, retry_backoff_cap=0.2):
            assert compss_wait_on(flaky()) == 2
        elapsed = time.monotonic() - start
        assert len(attempts) == 2
        assert elapsed < 2.0, f"retry stalled for {elapsed:.2f}s"


class TestFailureListeners:
    def test_listener_fires_once_on_first_failure(self):
        calls = []

        @task(returns=1)
        def boom():
            raise ValueError("bad")

        with pytest.raises(Exception):
            with COMPSs(n_workers=2) as runtime:
                runtime.add_failure_listener(lambda: calls.append(1))
                boom()
                boom()
                runtime.barrier(raise_on_error=True)
        assert calls == [1]

    def test_listener_added_after_failure_fires_immediately(self):
        @task(returns=1)
        def boom():
            raise ValueError("bad")

        calls = []
        with pytest.raises(Exception):
            with COMPSs(n_workers=2) as runtime:
                boom()
                runtime.barrier(raise_on_error=False)
                assert runtime.failed
                runtime.add_failure_listener(lambda: calls.append(1))
                assert calls == [1]
                runtime.barrier(raise_on_error=True)

    def test_listener_exception_is_swallowed(self):
        @task(returns=1)
        def boom():
            raise ValueError("bad")

        with pytest.raises(Exception):
            with COMPSs(n_workers=2) as runtime:
                runtime.add_failure_listener(lambda: 1 / 0)
                boom()
                runtime.barrier(raise_on_error=True)
