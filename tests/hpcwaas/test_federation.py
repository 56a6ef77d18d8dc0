"""Tests for multi-site federation and cross-site data logistics."""

import numpy as np
import pytest

from repro.cluster import Cluster, Node
from repro.hpcwaas import FederatedDataLogistics, Federation, FederationError
from repro.netcdf import Dataset


def small_cluster(name, tmp_path):
    return Cluster(name, [Node("n1", 2, 8.0)], scratch_root=str(tmp_path / name))


@pytest.fixture
def two_sites(tmp_path):
    hpc = small_cluster("hpc-sim", tmp_path)
    cloud = small_cluster("cloud-sim", tmp_path)
    fed = Federation()
    fed.add_site(hpc, role="simulation")
    fed.add_site(cloud, role="analytics")
    yield fed, hpc, cloud
    fed.shutdown(wait=False)


class TestFederation:
    def test_roles_resolve(self, two_sites):
        fed, hpc, cloud = two_sites
        assert fed.for_role("simulation") is hpc
        assert fed.for_role("analytics") is cloud
        assert fed.sites == ["cloud-sim", "hpc-sim"]
        assert fed.roles == {"simulation": "hpc-sim", "analytics": "cloud-sim"}

    def test_unknown_role_and_site(self, two_sites):
        fed, _, _ = two_sites
        with pytest.raises(FederationError):
            fed.for_role("gpu")
        with pytest.raises(FederationError):
            fed.assign_role("x", "mars")

    def test_duplicate_site_rejected(self, two_sites, tmp_path):
        fed, hpc, _ = two_sites
        dup = Cluster("hpc-sim", [Node("n", 1, 2.0)],
                      scratch_root=str(tmp_path / "dup"))
        with pytest.raises(FederationError):
            fed.add_site(dup)
        dup.shutdown(wait=False)

    def test_role_reassignment(self, two_sites):
        fed, hpc, cloud = two_sites
        fed.assign_role("analytics", "hpc-sim")
        assert fed.for_role("analytics") is hpc


class TestFederatedDLS:
    def test_transfer_preserves_layout(self, two_sites):
        fed, hpc, cloud = two_sites
        hpc.filesystem.write_bytes("out/day_001.rnc", b"abc")
        hpc.filesystem.write_bytes("out/day_002.rnc", b"defg")
        moved = fed.dls.transfer_files(hpc, cloud, ["out/day_001.rnc",
                                                    "out/day_002.rnc"])
        assert moved == ["out/day_001.rnc", "out/day_002.rnc"]
        assert cloud.filesystem.read_bytes("out/day_002.rnc") == b"defg"
        assert fed.dls.total_bytes == 7
        assert fed.dls.total_transfers == 1

    def test_transfer_with_dest_dir_remap(self, two_sites):
        fed, hpc, cloud = two_sites
        hpc.filesystem.write_bytes("esm/day_001.rnc", b"xy")
        moved = fed.dls.transfer_files(
            hpc, cloud, ["esm/day_001.rnc"], dest_dir="staged/year_2030"
        )
        assert moved == ["staged/year_2030/day_001.rnc"]
        assert cloud.filesystem.exists("staged/year_2030/day_001.rnc")

    def test_dataset_transfer_roundtrip(self, two_sites):
        fed, hpc, cloud = two_sites
        ds = Dataset()
        ds.create_variable("x", np.arange(6.0).reshape(2, 3), ("a", "b"))
        hpc.filesystem.write("data/x.rnc", ds)
        fed.dls.transfer_files(hpc, cloud, ["data/x.rnc"])
        back = cloud.filesystem.read("data/x.rnc")
        np.testing.assert_array_equal(back["x"].data, ds["x"].data)

    def test_bandwidth_pacing(self, two_sites):
        import time

        fed, hpc, cloud = two_sites
        paced = FederatedDataLogistics(wan_bandwidth_mbps=1.0)  # 125 kB/s
        hpc.filesystem.write_bytes("big.bin", b"\x00" * 25_000)  # ~0.2 s
        t0 = time.monotonic()
        paced.transfer_files(hpc, cloud, ["big.bin"])
        assert time.monotonic() - t0 >= 0.15
        assert paced.records[0].seconds >= 0.15

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            FederatedDataLogistics(wan_bandwidth_mbps=0.0)


class TestDistributedWorkflow:
    def test_distributed_run_produces_science_on_analytics_site(self, two_sites):
        from repro.workflow import WorkflowParams, run_distributed_extreme_events

        fed, hpc, cloud = two_sites
        params = WorkflowParams(
            years=[2030], n_days=8, n_lat=16, n_lon=24, n_workers=4,
            min_length_days=4, with_ml=False, seed=5,
        )
        summary = run_distributed_extreme_events(fed, params)

        assert 2030 in summary["years"]
        federation = summary["federation"]
        assert federation["transfers"] == 1            # one year shipped
        assert federation["bytes_moved"] > 0
        assert federation["roles"]["simulation"] == "hpc-sim"
        # Simulation wrote on the HPC site; results live on the cloud site.
        assert hpc.filesystem.glob("esm_output", "cmcc_cm3_*.rnc")
        assert cloud.filesystem.exists("results/heat_summary_2030.json")
        assert cloud.filesystem.exists("staged/year_2030/cmcc_cm3_2030_001.rnc")
        assert not hpc.filesystem.exists("results/heat_summary_2030.json")
        assert "transfer_year" in summary["task_graph"]["by_function"]

    def test_distributed_matches_single_site_science(self, two_sites, tmp_path):
        from repro.cluster import laptop_like
        from repro.workflow import (
            WorkflowParams,
            run_distributed_extreme_events,
            run_extreme_events_workflow,
        )
        from repro.workflow.provenance import science_digests

        fed, _, cloud = two_sites
        kwargs = dict(
            years=[2030, 2031], n_days=10, n_lat=16, n_lon=24, n_workers=4,
            min_length_days=4, with_ml=False, seed=9,
        )
        distributed = run_distributed_extreme_events(fed, WorkflowParams(**kwargs))
        with laptop_like(scratch_root=str(tmp_path / "single")) as single:
            local = run_extreme_events_workflow(single, WorkflowParams(**kwargs))
            local_digests = science_digests(single.filesystem)
        for year in kwargs["years"]:
            for waves in ("heat_waves", "cold_waves"):
                assert distributed["years"][year][waves] == local["years"][year][waves]
        # Every science artefact on the analytics site is byte-identical
        # to the single-site run's: indices, summaries, maps, TC tracks.
        assert local_digests
        assert science_digests(cloud.filesystem) == local_digests
        # Same task graph, plus exactly one DLS transfer per year.
        census = dict(local["task_graph"]["by_function"])
        census["transfer_year"] = len(kwargs["years"])
        assert distributed["task_graph"]["by_function"] == census
