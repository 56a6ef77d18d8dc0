"""Fault-plan construction: validation, coercion and self-description."""

import pytest

from repro.faults import DEFAULT_FS_OPS, FaultPlan, NodeCrash


class TestNodeCrash:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            NodeCrash("n1")
        with pytest.raises(ValueError):
            NodeCrash("n1", at_seconds=1.0, after_fs_writes=3)
        assert NodeCrash("n1", at_seconds=0.5).node == "n1"
        assert NodeCrash("n1", after_fs_writes=1).after_fs_writes == 1

    def test_trigger_bounds(self):
        with pytest.raises(ValueError):
            NodeCrash("n1", at_seconds=-1.0)
        with pytest.raises(ValueError):
            NodeCrash("n1", after_fs_writes=0)


class TestFaultPlan:
    def test_rates_validated(self):
        for field in ("fs_error_rate", "task_error_rate", "transfer_error_rate"):
            with pytest.raises(ValueError):
                FaultPlan(**{field: 1.0})
            with pytest.raises(ValueError):
                FaultPlan(**{field: -0.1})

    def test_sequences_coerced_to_tuples(self):
        plan = FaultPlan(
            fs_ops=["write", "read"],
            task_targets=["simulate_year"],
            node_crashes=[NodeCrash("n1", after_fs_writes=2)],
        )
        assert plan.fs_ops == ("write", "read")
        assert plan.task_targets == ("simulate_year",)
        assert isinstance(plan.node_crashes, tuple)

    def test_default_fs_ops_exclude_metadata(self):
        # Failing listdir/exists would break stream polling loops that
        # sit outside any retry scope; the default must not touch them.
        assert "listdir" not in DEFAULT_FS_OPS
        assert "exists" not in DEFAULT_FS_OPS
        assert "write" in DEFAULT_FS_OPS and "read" in DEFAULT_FS_OPS

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan(
            seed=7,
            fs_error_rate=0.05,
            task_error_rate=0.02,
            task_targets=("monitor_year",),
            transfer_error_rate=0.01,
            node_crashes=(NodeCrash("local1", after_fs_writes=5),),
        )
        text = plan.describe()
        assert "seed=7" in text
        assert "fs_error_rate=0.05" in text
        assert "task_error_rate=0.02@monitor_year" in text
        assert "transfer_error_rate=0.01" in text
        assert "kill local1@write#5" in text
        assert "no faults" in FaultPlan(seed=3).describe()
