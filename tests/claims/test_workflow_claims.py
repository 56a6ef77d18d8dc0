"""C1 and A2 (science half) on the case-study workflow, read from the
schedule the tracer recorded — never from a makespan."""

from tests.workflow.test_cache_equivalence import run_once


def test_c1_analytics_start_before_the_simulation_ends(tmp_path):
    """Under paced production the driver dispatches a year's analytics
    the moment its files land, so some analytics task's interval opens
    before ``esm_simulation``'s closes; with ``sequential=True`` every
    analytics task is submitted after the simulation task ended."""
    streamed, streamed_digests = run_once(tmp_path, "streamed", pace_seconds=0.03)
    sequential, sequential_digests = run_once(
        tmp_path, "sequential", pace_seconds=0.03, sequential=True)
    assert streamed["schedule"]["esm_analytics_overlap_s"] > 0
    assert streamed["schedule"]["pipelined_years"] >= 1
    assert sequential["schedule"]["esm_analytics_overlap_s"] == 0
    assert sequential["schedule"]["pipelined_years"] == 0
    assert streamed["task_graph"] == sequential["task_graph"]
    assert streamed_digests and streamed_digests == sequential_digests


def test_a2_scheduler_policy_changes_neither_science_nor_graph(tmp_path):
    reference, reference_digests = run_once(tmp_path, "fifo", scheduler="fifo")
    for policy in ("priority", "locality"):
        summary, digests = run_once(tmp_path, policy, scheduler=policy)
        assert digests == reference_digests, policy
        assert summary["task_graph"] == reference["task_graph"], policy
