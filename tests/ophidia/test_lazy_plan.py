"""Lazy query planning and operator fusion: equivalence and accounting.

The contract under test: on a lazy server, chains of elementwise
operators fuse into one pooled fragment sweep whose results are
byte-identical to eager execution, with strictly fewer fragment writes;
errors surface at the forced-evaluation point without corrupting
fragment state; shared intermediates materialise exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import InjectedTaskError
from repro.observability import get_collector
from repro.observability.metrics import get_registry
from repro.observability.spans import current_context, span
from repro.ophidia import Client, Cube, OphidiaServer

MUL = "oph_mul_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,{k})"
PRED = "oph_predicate('OPH_DOUBLE','OPH_DOUBLE',measure,'x','>0','x','0')"


@pytest.fixture
def lazy_client():
    with OphidiaServer(n_io_servers=2, n_cores=2, lazy=True) as server:
        client = Client(server)
        Cube.client = client
        yield client
        Cube.client = None


def _sin(a):
    return np.sin(a)


def base_cube(client, data, nfrag=3):
    return Cube.from_array(
        np.asarray(data), ["time", "lat", "lon"], client=client,
        fragment_dim="lat", nfrag=nfrag,
    )


def apply_spec(cube, spec, client):
    """Replay one operator spec drawn by hypothesis onto *cube*."""
    kind = spec[0]
    if kind == "apply":
        return cube.apply(MUL.format(k=spec[1]))
    if kind == "transform":
        return cube.transform(_sin)
    if kind == "subset":
        tsize = cube.shape[0]
        start = int(spec[1] * (tsize - 1))
        stop = min(tsize, start + max(1, int(spec[2] * tsize)))
        return cube.subset("time", start, stop)
    if kind == "intercube":
        _, op, seed, nfrag_other = spec
        other_data = np.random.default_rng(seed).normal(size=cube.shape)
        other = Cube.from_array(
            other_data, list(cube.dim_names), client=client,
            fragment_dim="lat", nfrag=nfrag_other,
        )
        return cube.intercube(other, op)
    raise AssertionError(spec)


elementwise_steps = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.integers(1, 4)),
        st.tuples(st.just("transform")),
        st.tuples(st.just("subset"), st.floats(0, 0.5), st.floats(0.4, 1.0)),
        st.tuples(
            st.just("intercube"),
            st.sampled_from(["add", "sub", "mul"]),
            st.integers(0, 5),
            st.integers(1, 4),
        ),
    ),
    min_size=1, max_size=5,
)


class TestLazyEagerEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 100),
        nfrag=st.integers(1, 4),
        steps=elementwise_steps,
        reduce_spec=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["max", "sum", "mean"]),
                st.sampled_from(["time", "lat"]),
            ),
        ),
    )
    def test_random_chains_byte_identical(self, data_seed, nfrag, steps,
                                          reduce_spec):
        data = np.random.default_rng(data_seed).normal(size=(6, 5, 4))
        results = []
        for lazy in (False, True):
            with OphidiaServer(n_io_servers=2, n_cores=2, lazy=lazy) as server:
                client = Client(server)
                cube = base_cube(client, data, nfrag=nfrag)
                for spec in steps:
                    cube = apply_spec(cube, spec, client)
                if reduce_spec is not None:
                    cube = cube.reduce(reduce_spec[0], dim=reduce_spec[1])
                results.append(cube.to_array().copy())
        eager, lazy = results
        assert eager.dtype == lazy.dtype
        np.testing.assert_array_equal(eager, lazy)

    @settings(max_examples=15, deadline=None)
    @given(
        data_seed=st.integers(0, 100),
        nfrag=st.integers(1, 4),
        steps=elementwise_steps.filter(lambda s: len(s) >= 2),
    )
    def test_fused_chain_writes_strictly_fewer_fragments(self, data_seed,
                                                         nfrag, steps):
        data = np.random.default_rng(data_seed).normal(size=(6, 5, 4))
        writes = []
        for lazy in (False, True):
            with OphidiaServer(n_io_servers=2, n_cores=2, lazy=lazy) as server:
                client = Client(server)
                cube = base_cube(client, data, nfrag=nfrag)
                before = server.storage_stats().fragment_writes
                for spec in steps:
                    cube = apply_spec(cube, spec, client)
                cube.to_array()
                writes.append(server.storage_stats().fragment_writes - before)
        eager_writes, lazy_writes = writes
        assert lazy_writes < eager_writes


class TestPlanLifecycle:
    def test_elementwise_ops_defer_and_materialize_forces(self, lazy_client):
        data = np.random.default_rng(0).normal(size=(4, 6, 3))
        base = base_cube(lazy_client, data)
        server = lazy_client.server
        before = server.storage_stats().fragment_writes
        chained = base.apply(MUL.format(k=2)).transform(_sin)
        assert chained.is_lazy
        assert server.storage_stats().fragment_writes == before
        chained.materialize()
        assert not chained.is_lazy
        # materialize writes only the final cube, once.
        assert server.storage_stats().fragment_writes == before + chained.nfrag
        np.testing.assert_array_equal(chained.to_array(), np.sin(data * 2))
        chained.materialize()  # idempotent no-op
        assert server.storage_stats().fragment_writes == before + chained.nfrag

    def test_lazy_cube_estimates_nbytes(self, lazy_client):
        base = base_cube(lazy_client, np.zeros((4, 6, 3)))
        lazy = base.apply(MUL.format(k=2))
        assert lazy.is_lazy
        assert lazy.nbytes == 4 * 6 * 3 * 8

    def test_eager_flag_restores_immediate_execution(self):
        data = np.arange(24.0).reshape(2, 4, 3)
        with OphidiaServer(n_io_servers=2, n_cores=2, lazy=False) as server:
            client = Client(server)
            base = base_cube(client, data, nfrag=2)
            before = server.storage_stats().fragment_writes
            out = base.apply(MUL.format(k=3))
            assert not out.is_lazy
            assert server.storage_stats().fragment_writes == before + out.nfrag

    def test_shared_intermediate_materializes_once_on_reuse(self, lazy_client):
        data = np.random.default_rng(1).normal(size=(5, 4, 3))
        base = base_cube(lazy_client, data)
        counter = get_registry().counter(
            "ophidia_cubes_materialized_total", labels=("reason",)
        )
        reuse_before = counter.value(reason="reuse")
        shared = base.apply(MUL.format(k=2))
        first = shared.reduce("max", dim="time")
        assert shared.is_lazy  # first consumer streamed the chain
        second = shared.apply(PRED).reduce("sum", dim="time")
        assert not shared.is_lazy  # second consumer triggered materialisation
        assert counter.value(reason="reuse") == reuse_before + 1
        third = shared.reduce("sum", dim="time")
        assert counter.value(reason="reuse") == reuse_before + 1
        ref = data * 2
        np.testing.assert_array_equal(first.to_array(), ref.max(axis=0))
        np.testing.assert_array_equal(
            second.to_array(), np.where(ref > 0, ref, 0.0).sum(axis=0)
        )
        np.testing.assert_array_equal(third.to_array(), ref.sum(axis=0))

    def test_delete_unmaterialized_keeps_downstream_alive(self, lazy_client):
        data = np.random.default_rng(2).normal(size=(4, 4, 2))
        base = base_cube(lazy_client, data)
        inter = base.apply(MUL.format(k=2))
        out = inter.transform(_sin)
        inter.delete()
        with pytest.raises(RuntimeError):
            inter.to_array()  # direct use of a deleted cube still fails
        np.testing.assert_array_equal(out.to_array(), np.sin(data * 2))

    def test_deleting_base_surfaces_error_at_force(self, lazy_client):
        base = base_cube(lazy_client, np.ones((3, 4, 2)))
        pending = base.apply(MUL.format(k=2))
        base.delete()
        with pytest.raises(RuntimeError, match="deleted"):
            pending.to_array()

    def test_injected_fault_surfaces_at_force_without_corruption(self,
                                                                 lazy_client):
        data = np.random.default_rng(3).normal(size=(4, 6, 3))
        base = base_cube(lazy_client, data)
        server = lazy_client.server

        def boom(a):
            raise InjectedTaskError("lazy_chain", 0)

        pending = base.apply(MUL.format(k=2)).transform(boom).transform(_sin)
        n_before = server.pool.n_fragments
        writes_before = server.storage_stats().fragment_writes
        with pytest.raises(InjectedTaskError):
            pending.to_array()
        with pytest.raises(InjectedTaskError):
            pending.materialize()
        # A failing sweep writes nothing and frees nothing.
        assert server.pool.n_fragments == n_before
        assert server.storage_stats().fragment_writes == writes_before
        assert pending.is_lazy
        np.testing.assert_array_equal(base.to_array(), data)


class TestFusionAccounting:
    def test_fused_sweep_counts_passes_and_logs_plan(self, lazy_client):
        server = lazy_client.server
        registry = get_registry()
        runs = registry.counter("ophidia_fragment_passes_run_total")
        avoided = registry.counter("ophidia_fragment_passes_avoided_total")
        saved = registry.counter("ophidia_materialize_bytes_avoided_total")
        runs0, avoided0, saved0 = runs.value(), avoided.value(), saved.value()

        base = base_cube(lazy_client, np.random.default_rng(4).normal(size=(4, 6, 3)))
        chain = base.apply(MUL.format(k=2)).transform(_sin).apply(PRED)
        chain.to_array()
        assert runs.value() == runs0 + 1
        assert avoided.value() == avoided0 + 2
        assert saved.value() > saved0
        entry = [e for e in server.operator_log
                 if e["operator"] == "oph_executeplan"][-1]
        assert entry["fused"] == ["oph_apply", "oph_transform", "oph_apply"]

    def test_fusion_length_histogram_observes_chain(self, lazy_client):
        def count_and_sum():
            family = get_registry().snapshot().to_json().get(
                "ophidia_plan_fusion_length", {"series": []})
            return (sum(e["count"] for e in family["series"]),
                    sum(e["sum"] for e in family["series"]))

        count0, sum0 = count_and_sum()
        base = base_cube(lazy_client, np.ones((3, 4, 2)))
        base.apply(MUL.format(k=2)).apply(MUL.format(k=3)).reduce("sum", dim="time")
        count1, sum1 = count_and_sum()
        assert count1 == count0 + 1
        # Two fused applies plus the reduce terminal in one sweep.
        assert sum1 == sum0 + 3

    def test_fused_plan_emits_span_with_fused_ops(self, lazy_client):
        base = base_cube(lazy_client, np.ones((3, 4, 2)))
        with span("test.root", layer="test"):
            trace_id = current_context().trace_id
            base.apply(MUL.format(k=2)).transform(_sin).to_array()
        spans = get_collector().for_trace(trace_id)
        fused = [s for s in spans if s.name == "ophidia:oph_executeplan"]
        assert fused, [s.name for s in spans]
        assert fused[0].attrs["fused_ops"] == "oph_apply,oph_transform"
        assert fused[0].attrs["fusion_length"] == 2
        # Lazy operator builds still record per-operator spans.
        names = {s.name for s in spans}
        assert "ophidia:oph_apply" in names
        assert "ophidia:oph_transform" in names
