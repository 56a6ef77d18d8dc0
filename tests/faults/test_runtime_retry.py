"""Runtime resubmission: retry accounting, transient faults, blacklists."""

import threading

import pytest

from repro.compss import (
    COMPSs,
    OnFailure,
    TaskCancelledError,
    TaskFailedError,
    compss_wait_on,
    task,
)
from repro.compss.runtime import set_task_fault_injector
from repro.faults import FaultPlan, InjectedTaskError, TaskFaultInjector
from repro.observability.metrics import get_registry


class TransientBlip(RuntimeError):
    """User-marked retryable failure (the duck-typed contract)."""

    transient = True


class TestRetryAccounting:
    """``max_retries=N`` means exactly N re-executions: N+1 runs total."""

    def test_max_retries_2_runs_exactly_3_times(self):
        calls = []
        lock = threading.Lock()

        @task(returns=1, on_failure=OnFailure.RETRY, max_retries=2)
        def always_bad():
            with lock:
                calls.append(1)
            raise ValueError("permanent")

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=2, retry_backoff_base=0.0):
                compss_wait_on(always_bad())
        assert len(calls) == 3

    def test_max_retries_0_runs_exactly_once(self):
        calls = []

        @task(returns=1, on_failure=OnFailure.RETRY, max_retries=0)
        def always_bad():
            calls.append(1)
            raise ValueError("permanent")

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=2, retry_backoff_base=0.0):
                compss_wait_on(always_bad())
        assert len(calls) == 1

    def test_success_on_final_allowed_attempt(self):
        calls = []
        lock = threading.Lock()

        @task(returns=1, on_failure="RETRY", max_retries=2)
        def flaky():
            with lock:
                calls.append(1)
                if len(calls) < 3:
                    raise IOError("still warming up")
            return "ok"

        with COMPSs(n_workers=2, retry_backoff_base=0.0):
            assert compss_wait_on(flaky()) == "ok"
        assert len(calls) == 3

    def test_free_units_intact_after_retries(self):
        # Each failed attempt must release its computing units exactly
        # once; a double-free would let the pool over-subscribe.
        @task(returns=1, on_failure="RETRY", max_retries=3)
        def always_bad():
            raise ValueError("x")

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=2, retry_backoff_base=0.0) as rt:
                compss_wait_on(always_bad())
        assert rt._free_units == rt.config.computing_units

    def test_retry_metric_carries_reason_label(self):
        before = get_registry().snapshot()

        @task(returns=1, on_failure="RETRY", max_retries=2)
        def always_bad():
            raise ValueError("x")

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=2, retry_backoff_base=0.0):
                compss_wait_on(always_bad())
        delta = get_registry().snapshot().delta(before)
        assert delta.value(
            "compss_tasks_retried_total",
            function="always_bad", reason="policy",
        ) == 2


class TestTransientResubmission:
    def test_transient_failures_retried_under_fail_policy(self):
        calls = []
        lock = threading.Lock()

        @task(returns=1)  # default policy: FAIL
        def shaky():
            with lock:
                calls.append(1)
                if len(calls) < 3:
                    raise TransientBlip("fs hiccup")
            return 42

        with COMPSs(n_workers=2, retry_backoff_base=0.0):
            assert compss_wait_on(shaky()) == 42
        assert len(calls) == 3

    def test_transient_budget_exhaustion_fails_task(self):
        calls = []
        lock = threading.Lock()

        @task(returns=1)
        def cursed():
            with lock:
                calls.append(1)
            raise TransientBlip("never heals")

        with pytest.raises(TaskFailedError) as err:
            with COMPSs(n_workers=2, retry_backoff_base=0.0,
                        transient_retries=2):
                compss_wait_on(cursed())
        assert len(calls) == 3  # initial run + the 2-deep transient budget
        assert isinstance(err.value.__cause__, TransientBlip)

    def test_transient_budget_separate_from_retry_budget(self):
        calls = []
        lock = threading.Lock()

        @task(returns=1, on_failure="RETRY", max_retries=1)
        def mixed():
            with lock:
                calls.append(1)
                n = len(calls)
            if n == 1:
                raise TransientBlip("infrastructure")   # transient budget
            if n <= 3:
                raise ValueError("application bug")      # RETRY budget
            return "recovered"

        # transient failures must not consume RETRY attempts: after the
        # blip, max_retries=1 still allows one re-execution of the
        # application failure — which here fails again, exhausting RETRY.
        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=2, retry_backoff_base=0.0,
                        transient_retries=5):
                compss_wait_on(mixed())
        assert len(calls) == 3  # blip + first app failure + one retry

    def test_injected_task_faults_flow_through_retry(self):
        # 0.45 per-attempt rate with a 6-deep transient budget: the
        # probability all tasks exhaust it is ~0.8%, and the seed below
        # is fixed, so this is deterministic in practice.
        plan = FaultPlan(seed=9, task_error_rate=0.45)
        injector = TaskFaultInjector(plan)

        @task(returns=1)
        def add(a, b):
            return a + b

        before = get_registry().snapshot()
        previous = set_task_fault_injector(injector)
        try:
            with COMPSs(n_workers=2, retry_backoff_base=0.0):
                outs = [add(i, i) for i in range(12)]
                assert compss_wait_on(outs) == [2 * i for i in range(12)]
        finally:
            set_task_fault_injector(previous)
        delta = get_registry().snapshot().delta(before)
        assert delta.value("faults_injected_total", kind="task_exception") > 0
        assert delta.value(
            "compss_tasks_retried_total", reason="transient"
        ) > 0


class TestBlacklistGrace:
    def test_pinned_workers_cannot_starve_a_retrying_task(self):
        # Regression for a real deadlock: the only non-blacklisted
        # worker is pinned by a task that (transitively) waits for the
        # retrying one.  The blacklist is advisory — after the grace
        # period any worker may pick the task back up.
        unblock = threading.Event()
        failed_once = []

        @task(returns=1)
        def flaky():
            if not failed_once:
                failed_once.append(1)
                raise TransientBlip("first attempt dies")
            unblock.set()
            return "done"

        @task(returns=1)
        def pinned():
            # Occupies its worker until flaky() succeeds.
            assert unblock.wait(timeout=10)
            return "released"

        with COMPSs(n_workers=2, retry_backoff_base=0.0,
                    blacklist_grace_s=0.05) as rt:
            p = pinned()
            f = flaky()
            assert compss_wait_on(f, timeout=8) == "done"
            assert compss_wait_on(p, timeout=8) == "released"
        assert not rt.failed


class TestCancellationCause:
    def test_cancelled_tasks_chain_the_triggering_failure(self):
        # Chaos harnesses walk __cause__ to decide whether a dead run
        # was the injector's doing; cancellations must not break the chain.
        @task(returns=1)
        def boom():
            raise InjectedTaskError("boom", 0)

        @task(returns=1)
        def follow(x):
            return x

        with pytest.raises(TaskFailedError):
            with COMPSs(n_workers=2, transient_retries=0) as rt:
                f = follow(boom())
                rt.barrier(raise_on_error=False)
                with pytest.raises(TaskCancelledError) as cancelled:
                    compss_wait_on(f)
                cause = cancelled.value.__cause__
                assert isinstance(cause, TaskFailedError)
                assert isinstance(cause.__cause__, InjectedTaskError)
