"""The science digest map: content digests of every science artifact,
with run bookkeeping left out.  :func:`run_once` is the shared
two-year case-study runner of the workflow claim tests."""

from repro.cluster import laptop_like
from repro.workflow import WorkflowParams, run_extreme_events_workflow
from repro.workflow.provenance import science_digests


def run_once(tmp_path, label, **overrides):
    params = WorkflowParams(
        years=[2030, 2031],
        n_days=10,
        n_lat=16,
        n_lon=24,
        n_workers=4,
        min_length_days=4,
        with_ml=False,
        seed=11,
        **overrides,
    )
    with laptop_like(scratch_root=str(tmp_path / label)) as cluster:
        summary = run_extreme_events_workflow(cluster, params)
        return summary, science_digests(cluster.filesystem)


class TestCacheEquivalence:
    def test_digest_map_skips_bookkeeping(self, tmp_path):
        _, digests = run_once(tmp_path, "solo")
        assert "run_summary.json" not in digests
        assert "task_graph.dot" not in digests
        assert any(name.startswith("hw_") for name in digests)
