"""C8, C10 and A1 on the paper's Listing-1 heat-wave pipeline: fusion,
tiered storage and fragmentation change fragment traffic, never bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.analytics.heatwaves import ophidia_wave_pipeline
from repro.cluster import SharedFilesystem
from repro.observability.metrics import get_registry
from repro.ophidia import Client, Cube, OphidiaServer

N_DAYS, N_LAT, N_LON = 64, 16, 16
INDICES = ("duration_max", "number", "frequency")
COUNTERS = {
    "pruned": "ophidia_chunks_pruned_total",
    "read": "ophidia_chunks_read_total",
    "spills": "ophidia_fragments_spilled_total",
    "reloads": "ophidia_fragments_reloaded_total",
    "passes_avoided": "ophidia_fragment_passes_avoided_total",
}
#: Fragment traffic of a run; chunk reads are reads too.
TRAFFIC = {
    "fragment_writes": ("ophidia_fragment_writes_total",),
    "bytes_written": ("ophidia_fragment_bytes_written_total",),
    "bytes_read": ("ophidia_fragment_bytes_read_total",
                   "ophidia_chunk_bytes_read_total"),
}


def traffic(delta):
    return {key: sum(delta.value(name) for name in names)
            for key, names in TRAFFIC.items()}


def quiet_year(seed):
    """A quiet year with one 16-day heat band (days 24..39)."""
    rng = np.random.default_rng(seed)
    baseline = np.full((N_DAYS, N_LAT, N_LON), 280.0)
    daily = baseline + rng.uniform(-1.0, 1.0, size=baseline.shape)
    daily[24:40] += 8.0
    return daily, baseline


def run_listing1(root, n_years=1, nfrag=4, **server_kwargs):
    """The heat-wave pipeline over *n_years*, every index exported after
    the last year ran: under a memory budget the early years' index
    cubes have spilled by then and must come back.  ``stats`` is the
    fragment traffic without the imports."""
    fs = SharedFilesystem(root)
    registry = get_registry()
    registry_before = registry.snapshot()
    with OphidiaServer(n_io_servers=2, n_cores=2, filesystem=fs,
                       **server_kwargs) as server:
        client = Client(server)
        imports, results = dict.fromkeys(TRAFFIC, 0.0), []
        for year in range(n_years):
            before = registry.snapshot()
            daily, baseline = [
                Cube.from_array(array, ["time", "lat", "lon"], client=client,
                                fragment_dim="lat", nfrag=nfrag)
                for array in quiet_year(seed=10 + year)
            ]
            for key, value in traffic(registry.snapshot().delta(before)).items():
                imports[key] += value
            results.append(ophidia_wave_pipeline(daily, baseline, kind="heat"))
        arrays, digests = [], {}
        for year, indices in enumerate(results):
            for cube, name in zip(indices, INDICES):
                cube.exportnc2("indices", f"y{year}_{name}")
                arrays.append(cube.to_array().copy())
                digests[f"y{year}_{name}"] = hashlib.sha256(
                    fs.read_bytes(f"indices/y{year}_{name}.rnc")).hexdigest()
    snapshot = registry.snapshot().delta(registry_before)
    stats = {key: value - imports[key]
             for key, value in traffic(snapshot).items()}
    counters = {key: snapshot.value(name) for key, name in COUNTERS.items()}
    return {"arrays": arrays, "digests": digests, "stats": stats, **counters}


def assert_same_science(got, want):
    for a, b in zip(got["arrays"], want["arrays"], strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got["digests"] == want["digests"]


def test_c8_fusion_cuts_fragment_writes_not_bytes(tmp_path):
    fused = run_listing1(tmp_path / "fused")
    per_operator = run_listing1(tmp_path / "eager", lazy=False)
    assert (fused["stats"]["fragment_writes"]
            <= 0.6 * per_operator["stats"]["fragment_writes"])
    assert fused["stats"]["bytes_written"] < per_operator["stats"]["bytes_written"]
    assert fused["passes_avoided"] > per_operator["passes_avoided"] == 0
    assert_same_science(fused, per_operator)


def test_c10_budget_prunes_spills_reloads_and_keeps_bytes(tmp_path):
    dense = run_listing1(tmp_path / "dense", n_years=3, prune=False)
    tiered = run_listing1(
        tmp_path / "tiered", n_years=3, chunk_bytes=4096,
        memory_budget_bytes=96 * 1024, spill_dir=str(tmp_path / "spill"))
    assert tiered["pruned"] >= 0.5 * (tiered["pruned"] + tiered["read"])
    assert tiered["stats"]["bytes_read"] < dense["stats"]["bytes_read"]
    assert tiered["spills"] > 0
    assert tiered["reloads"] > 0
    assert dense["pruned"] == dense["spills"] == dense["reloads"] == 0
    assert_same_science(tiered, dense)


@pytest.mark.parametrize("nfrag", [2, 4, 8, 16])
def test_a1_fragment_count_never_changes_the_indices(tmp_path, nfrag):
    assert_same_science(run_listing1(tmp_path / "many", nfrag=nfrag),
                        run_listing1(tmp_path / "one", nfrag=1))
