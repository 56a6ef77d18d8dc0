"""Tiered storage and pruning: byte-identity under every configuration.

The contract under test: chunk-stat predicate pruning, fragment-bound
subset pruning and cold-tier spill/reload are *pure* optimisations —
every pipeline output is byte-identical (values **and** dtype) to the
dense, untiered execution, including when a spill fails mid-run and the
fragment silently stays hot.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ophidia import Client, Cube, OphidiaServer

PRED = "oph_predicate('OPH_FLOAT','OPH_INT',measure,'x','{cond}','{t}','{e}')"


def run_pipeline(data, baseline, cond, then_v, else_v, *, nfrag, server_kwargs):
    """anomaly -> predicate -> runlength -> reduce, on one server config."""
    with OphidiaServer(n_io_servers=2, n_cores=2, lazy=True, **server_kwargs) as server:
        client = Client(server)
        dc = Cube.from_array(
            data, ["time", "lat", "lon"], client=client,
            fragment_dim="lat", nfrag=nfrag,
        )
        bc = Cube.from_array(
            baseline, ["time", "lat", "lon"], client=client,
            fragment_dim="lat", nfrag=nfrag,
        )
        masked = dc.intercube(bc, "sub").apply(
            PRED.format(cond=cond, t=then_v, e=else_v)
        )
        duration = masked.runlength(dim="time")
        out = duration.reduce("max", dim="time").to_array().copy()
        flags = masked.to_array().copy()
    return flags, out


conditions = st.tuples(
    st.sampled_from([">", ">=", "<", "<=", "=", "!="]),
    st.sampled_from([-4.0, 0.0, 3.5, 8.0]),
).map(lambda c: f"{c[0]}{c[1]}")
branches = st.sampled_from(["1", "0", "x", "2.5"])


class TestPruningByteIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 50),
        nfrag=st.integers(1, 4),
        cond=conditions,
        then_v=branches,
        else_v=branches,
        bump=st.booleans(),
    )
    def test_pruned_equals_dense(self, seed, nfrag, cond, then_v, else_v, bump):
        rng = np.random.default_rng(seed)
        data = 280 + rng.uniform(-1, 1, size=(24, 8, 6))
        if bump:  # a decidable hot band plus decidable cold chunks
            data[8:16] += 8.0
        baseline = np.full_like(data, 280.0)
        dense = run_pipeline(
            data, baseline, cond, then_v, else_v, nfrag=nfrag,
            server_kwargs={"prune": False},
        )
        pruned = run_pipeline(
            data, baseline, cond, then_v, else_v, nfrag=nfrag,
            server_kwargs={"chunk_bytes": 1024},
        )
        for a, b in zip(dense, pruned):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 50),
        nfrag=st.integers(2, 4),
        start_f=st.floats(0, 0.6),
        len_f=st.floats(0.1, 1.0),
    )
    def test_fragment_subset_pruning_equals_dense(self, seed, nfrag, start_f,
                                                  len_f):
        data = np.random.default_rng(seed).normal(size=(6, 12, 4))
        n_lat = data.shape[1]
        start = int(start_f * (n_lat - 1))
        stop = min(n_lat, start + max(1, int(len_f * n_lat)))
        results = []
        for prune in (False, True):
            with OphidiaServer(n_io_servers=2, n_cores=2, lazy=True,
                               prune=prune) as server:
                client = Client(server)
                cube = Cube.from_array(
                    data, ["time", "lat", "lon"], client=client,
                    fragment_dim="lat", nfrag=nfrag,
                )
                out = cube.subset("lat", start, stop)
                results.append(out.to_array().copy())
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[1], data[:, start:stop])


class TestTieredByteIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 50),
        nfrag=st.integers(1, 4),
        cond=conditions,
        budget=st.sampled_from([512, 4096, 32768]),
    )
    def test_spilled_equals_dense(self, tmp_path_factory, seed, nfrag, cond,
                                  budget):
        rng = np.random.default_rng(seed)
        data = 280 + rng.uniform(-1, 1, size=(24, 8, 6))
        baseline = np.full_like(data, 280.0)
        dense = run_pipeline(
            data, baseline, cond, "1", "0", nfrag=nfrag,
            server_kwargs={"prune": False},
        )
        tiered = run_pipeline(
            data, baseline, cond, "1", "0", nfrag=nfrag,
            server_kwargs={
                "chunk_bytes": 1024,
                "memory_budget_bytes": budget,
                "spill_dir": str(tmp_path_factory.mktemp("spill")),
            },
        )
        for a, b in zip(dense, tiered):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_spill_actually_happens_under_tiny_budget(self, tmp_path,
                                                      fresh_registry):
        data = 280 + np.random.default_rng(0).uniform(-1, 1, size=(24, 8, 6))
        baseline = np.full_like(data, 280.0)
        run_pipeline(
            data, baseline, ">=5.0", "1", "0", nfrag=4,
            server_kwargs={
                "chunk_bytes": 1024,
                "memory_budget_bytes": 2048,
                "spill_dir": str(tmp_path),
            },
        )
        assert fresh_registry.snapshot().value("ophidia_fragments_spilled_total") > 0
        # The server deleted its spill files when it shut down.
        assert list(tmp_path.iterdir()) == []

    def test_mid_run_spill_failure_is_transparent(self, tmp_path, monkeypatch,
                                                  fresh_registry):
        """A spill that dies mid-write must not change any output byte."""
        import repro.ophidia.storage as storage_mod

        data = 280 + np.random.default_rng(7).uniform(-1, 1, size=(24, 8, 6))
        data[4:12] += 8.0
        baseline = np.full_like(data, 280.0)
        dense = run_pipeline(
            data, baseline, ">=5.0", "1", "0", nfrag=4,
            server_kwargs={"prune": False},
        )

        real_write = storage_mod._write_spill_file
        calls = {"n": 0}

        def flaky_write(path, frag):
            calls["n"] += 1
            if calls["n"] % 3 == 0:  # every third spill tears mid-run
                raise OSError("injected: disk full")
            return real_write(path, frag)

        monkeypatch.setattr(storage_mod, "_write_spill_file", flaky_write)
        tiered = run_pipeline(
            data, baseline, ">=5.0", "1", "0", nfrag=4,
            server_kwargs={
                "chunk_bytes": 1024,
                "memory_budget_bytes": 2048,
                "spill_dir": str(tmp_path),
            },
        )
        assert calls["n"] >= 3, "fault injection never triggered"
        assert fresh_registry.snapshot().value("ophidia_spill_failures_total") > 0
        for a, b in zip(dense, tiered):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestPruningEffectiveness:
    def test_decidable_chunks_are_pruned(self, fresh_registry):
        """A hot band on an otherwise-cold cube prunes most chunks."""
        rng = np.random.default_rng(0)
        data = 280 + rng.uniform(-1, 1, size=(64, 12, 16))
        data[24:40] += 8.0
        baseline = np.full_like(data, 280.0)
        run_pipeline(
            data, baseline, ">=5.0", "1", "0", nfrag=4,
            server_kwargs={"chunk_bytes": 3072},
        )
        pruned = fresh_registry.snapshot().value("ophidia_chunks_pruned_total")
        read = fresh_registry.snapshot().value("ophidia_chunks_read_total")
        assert pruned > 0
        assert pruned / (pruned + read) >= 0.5

    def test_subset_outside_fragment_bounds_skips_fragments(self,
                                                            fresh_registry):
        data = np.random.default_rng(1).normal(size=(6, 12, 4))
        with OphidiaServer(n_io_servers=2, n_cores=2, lazy=True) as server:
            client = Client(server)
            cube = Cube.from_array(
                data, ["time", "lat", "lon"], client=client,
                fragment_dim="lat", nfrag=4,
            )
            out = cube.subset("lat", 0, 3).to_array()
        np.testing.assert_array_equal(out, data[:, 0:3])
        assert fresh_registry.snapshot().value("ophidia_fragments_pruned_total") == 3
