"""The workflow's spill path end to end: with a small Ophidia memory
budget the case study spills fragments to ``<fs>/ophidia_spill``, yet
its science is byte-identical to the untiered run and the spill
directory is empty once the run is over."""

import os

from repro.cluster import laptop_like
from repro.workflow import WorkflowParams, run_extreme_events_workflow
from repro.workflow.provenance import science_digests


def run_case_study(tmp_path, label, budget):
    params = WorkflowParams(
        n_days=6,
        n_lat=8,
        n_lon=12,
        min_length_days=4,
        with_ml=False,
        ophidia_memory_budget_bytes=budget,
    )
    with laptop_like(scratch_root=str(tmp_path / label)) as cluster:
        run_extreme_events_workflow(cluster, params)
        fs = cluster.filesystem
        return science_digests(fs), fs.path("ophidia_spill")


def test_spilled_case_study_matches_untiered(tmp_path, fresh_registry):
    dense, _ = run_case_study(tmp_path, "dense", budget=0)
    assert fresh_registry.snapshot().value(
        "ophidia_fragments_spilled_total") == 0
    tiered, spill_dir = run_case_study(tmp_path, "tiered", budget=2048)

    assert dense, "science artifacts expected under results/"
    assert tiered == dense
    assert fresh_registry.snapshot().value(
        "ophidia_fragments_spilled_total") > 0
    # The derived spill directory exists and the server emptied it.
    assert os.listdir(spill_dir) == []
