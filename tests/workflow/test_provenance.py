"""Tests for the FAIR/PROV provenance export."""

import json

import pytest

from repro.cluster import SharedFilesystem, laptop_like
from repro.compss import COMPSs, compss_wait_on, task
from repro.workflow.provenance import (
    build_provenance,
    collect_activities,
    collect_entities,
    science_digests,
    write_provenance,
)


@task(returns=1)
def produce():
    return 10


@task(returns=1)
def consume(x):
    return x * 2


class TestCollectors:
    def test_activities_carry_dependencies_and_timing(self):
        with COMPSs(n_workers=2) as rt:
            compss_wait_on(consume(produce()))
            activities = collect_activities(rt)
        assert len(activities) == 2
        by_fn = {a["function"]: a for a in activities}
        assert by_fn["consume"]["used"] == ["activity:task/1"]
        assert by_fn["produce"]["used"] == []
        assert by_fn["produce"]["state"] == "COMPLETED"
        assert by_fn["produce"]["endedAt_s"] >= by_fn["produce"]["startedAt_s"]

    def test_entities_with_digests(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("results/a.json", b'{"x": 1}')
        fs.write_bytes("results/b.bin", b"\x00" * 64)
        entities = collect_entities(fs, ["results"])
        assert {e["path"] for e in entities} == {"results/a.json", "results/b.bin"}
        for e in entities:
            assert e["bytes"] > 0
            assert len(e["sha256_16"]) == 16

    def test_atomic_write_temporaries_are_not_science(self, tmp_path):
        """Writers name temporaries ``<path>.tmp.<pid>``; a stray one is
        neither an entity nor a science digest."""
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("results/x.json", b"{}")
        fs.write_bytes("results/x.json.tmp.123", b"{")
        assert set(science_digests(fs)) == {"x.json"}
        assert [e["path"] for e in collect_entities(fs, ["results"])] == \
            ["results/x.json"]
        # Planted here, so not a leak for conftest to report.
        (tmp_path / "results" / "x.json.tmp.123").unlink()

    def test_entities_missing_dir_is_empty(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        assert collect_entities(fs, ["nope"]) == []


class TestDocument:
    def test_build_and_write(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        fs.write_bytes("results/out.json", b"{}")
        with COMPSs(n_workers=2) as rt:
            compss_wait_on(consume(produce()))
            doc = build_provenance(rt, fs, params={"years": [2030]})
            path = write_provenance(rt, fs, params={"years": [2030]})
        assert doc["prov_version"].startswith("repro-prov/")
        assert doc["parameters"] == {"years": [2030]}
        assert doc["statistics"]["n_tasks"] == 2
        assert any(a["id"] == "agent:repro" for a in doc["agents"])
        stored = json.loads(fs.read_bytes(path))
        assert stored["statistics"]["by_state"]["COMPLETED"] == 2

    def test_workflow_emits_provenance(self, tmp_path):
        from repro.workflow import WorkflowParams, run_extreme_events_workflow

        with laptop_like(scratch_root=str(tmp_path)) as cluster:
            summary = run_extreme_events_workflow(cluster, WorkflowParams(
                years=[2030], n_days=6, n_lat=16, n_lon=24,
                min_length_days=4, with_ml=False, seed=5,
            ))
            doc = json.loads(
                cluster.filesystem.read_bytes(summary["provenance_path"])
            )
        # Every executed task became an activity; outputs became entities.
        assert doc["statistics"]["n_tasks"] == summary["task_graph"]["n_tasks"]
        paths = {e["path"] for e in doc["entities"]}
        assert any(p.endswith("hw_number_2030.rnc") for p in paths)
        assert doc["parameters"]["years"] == [2030]
        fns = {a["function"] for a in doc["activities"]}
        assert "esm_simulation" in fns
