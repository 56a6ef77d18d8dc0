"""The reuse layer must be byte-transparent: caching changes data
movement, never science.  Runs the case study with the COMPSs worker
resident sets on and off and compares content digests of every science
artifact."""

from repro.cluster import laptop_like
from repro.workflow import WorkflowParams, run_extreme_events_workflow
from repro.workflow.provenance import science_digests


def run_once(tmp_path, label, **cache_overrides):
    params = WorkflowParams(
        years=[2030, 2031],
        n_days=10,
        n_lat=16,
        n_lon=24,
        n_workers=4,
        min_length_days=4,
        with_ml=False,
        seed=11,
        **cache_overrides,
    )
    with laptop_like(scratch_root=str(tmp_path / label)) as cluster:
        summary = run_extreme_events_workflow(cluster, params)
        return summary, science_digests(cluster.filesystem)


class TestCacheEquivalence:
    def test_cache_on_and_off_produce_identical_science(self, tmp_path):
        on_summary, on_digests = run_once(tmp_path, "on")
        off_summary, off_digests = run_once(
            tmp_path, "off", worker_cache_bytes=0
        )
        assert on_digests, "science artifacts expected under results/"
        assert on_digests == off_digests
        # Identical numbers surface in the summaries too (the TC skill
        # scores hold NaNs, which never compare equal — skip those).
        for year, on_year in on_summary["years"].items():
            off_year = off_summary["years"][year]
            assert on_year["heat_waves"] == off_year["heat_waves"]
            assert on_year["cold_waves"] == off_year["cold_waves"]

    def test_digest_map_skips_bookkeeping(self, tmp_path):
        _, digests = run_once(tmp_path, "solo")
        assert "run_summary.json" not in digests
        assert "task_graph.dot" not in digests
        assert any(name.startswith("hw_") for name in digests)
