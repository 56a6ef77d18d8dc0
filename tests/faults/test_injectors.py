"""Injector behaviour: determinism, eligibility, crash mode, metrics."""

import pytest

from repro.faults import (
    FaultPlan,
    FilesystemFaultInjector,
    InjectedIOError,
    InjectedTaskError,
    InjectedTransferError,
    NodeCrashedError,
    TaskFaultInjector,
)
from repro.observability.metrics import get_registry


def fs_failure_pattern(plan: FaultPlan, n_ops: int = 200) -> list:
    """Indices of ops an injector fails over a fixed op sequence."""
    injector = FilesystemFaultInjector(plan)
    failed = []
    for i in range(n_ops):
        try:
            injector.before_op("write", f"f{i}", fs="scratch")
        except InjectedIOError:
            failed.append(i)
    return failed


class TestFilesystemInjector:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=7, fs_error_rate=0.1)
        assert fs_failure_pattern(plan) == fs_failure_pattern(plan)

    def test_different_seed_different_decisions(self):
        a = fs_failure_pattern(FaultPlan(seed=7, fs_error_rate=0.3))
        b = fs_failure_pattern(FaultPlan(seed=8, fs_error_rate=0.3))
        assert a and b and a != b

    def test_ineligible_ops_never_fail(self, fresh_registry):
        plan = FaultPlan(seed=1, fs_error_rate=0.99, fs_ops=("write",))
        injector = FilesystemFaultInjector(plan)
        for i in range(100):
            injector.before_op("listdir", f"dir{i}")
        assert fresh_registry.snapshot().value("faults_injected_total") == 0

    def test_on_write_callback_sees_cumulative_count(self):
        seen = []
        injector = FilesystemFaultInjector(FaultPlan())
        injector.on_write = seen.append
        injector.before_op("write", "a")
        injector.before_op("read", "b")   # not a write: no callback
        injector.before_op("write", "c")
        assert seen == [1, 2]

    def test_counters_track_ops_and_writes(self):
        seen = []
        injector = FilesystemFaultInjector(FaultPlan())
        injector.on_write = seen.append
        injector.before_op("read", "a")
        injector.before_op("write", "b")
        injector.before_op("write_bytes", "c")
        assert seen == [1, 2]

    def test_crash_mode_fails_everything(self):
        # Even ops outside fs_ops: a dead node cannot reach the FS at all.
        injector = FilesystemFaultInjector(FaultPlan(fs_ops=("write",)))
        injector.enter_crash_mode("local1")
        with pytest.raises(NodeCrashedError) as err:
            injector.before_op("listdir", "results")
        assert err.value.node_name == "local1"
        assert err.value.transient is False
        injector.clear_crash_mode()
        injector.before_op("listdir", "results")  # healthy again

    def test_injected_faults_counted_in_registry(self):
        reg = get_registry()
        before = reg.snapshot().value("faults_injected_total", kind="fs_write")
        plan = FaultPlan(seed=2, fs_error_rate=0.5)
        failures = len(fs_failure_pattern(plan, n_ops=50))
        assert failures > 0
        after = reg.snapshot().value("faults_injected_total", kind="fs_write")
        assert after - before == failures


class TestTaskInjector:
    def test_task_targets_restrict_injection(self):
        plan = FaultPlan(seed=3, task_error_rate=0.9,
                         task_targets=("simulate_year",))
        injector = TaskFaultInjector(plan)
        for i in range(50):  # untargeted functions are never hit
            injector.before_task("monitor_year", i, 0, 1)
        with pytest.raises(InjectedTaskError):
            for i in range(50):
                injector.before_task("simulate_year", i, 0, 1)

    def test_task_injection_deterministic(self):
        def pattern():
            injector = TaskFaultInjector(FaultPlan(seed=5, task_error_rate=0.3))
            hits = []
            for i in range(100):
                try:
                    injector.before_task("f", i, 0, 1)
                except InjectedTaskError:
                    hits.append(i)
            return hits

        hits = pattern()
        assert hits and hits == pattern()

    def test_transfer_faults_require_remote_deps(self):
        plan = FaultPlan(seed=4, transfer_error_rate=0.9)
        injector = TaskFaultInjector(plan)
        for i in range(50):  # no remote dependencies: nothing to drop
            injector.before_task("f", i, 0, 1, remote_deps=0)
        with pytest.raises(InjectedTransferError) as err:
            for i in range(50):
                injector.before_task("f", i, 0, 1, remote_deps=2)
        assert err.value.n_remote == 2
        assert err.value.transient is True
