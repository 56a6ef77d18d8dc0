"""Lazy query planning and operator fusion: equivalence and accounting.

The contract under test: on a lazy server, chains of elementwise
operators fuse into one pooled fragment sweep whose results are
byte-identical to eager (force-after-every-operator) execution and to a
plain NumPy replay, with strictly fewer fragment writes; errors surface
at the forced-evaluation point without corrupting fragment state;
shared intermediates materialise exactly once.
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


def counted(name, **labels):
    """A registry counter summed over the series matching *labels*."""
    return get_registry().snapshot().value(name, **labels)


def fragment_writes():
    return counted("ophidia_fragment_writes_total")


def base_cube(client, data, nfrag=3):
    return Cube.from_array(
        np.asarray(data), ["time", "lat", "lon"], client=client,
        fragment_dim="lat", nfrag=nfrag,
    )


NUMPY_BINOPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def apply_spec(cube, ref, spec, client):
    """Replay one operator spec drawn by hypothesis onto *cube*, and the
    same operation in plain NumPy onto the reference array *ref*."""
    kind = spec[0]
    if kind == "apply":
        return cube.apply(MUL.format(k=spec[1])), ref * spec[1]
    if kind == "transform":
        return cube.transform(_sin), np.sin(ref)
    if kind == "subset":
        tsize = cube.shape[0]
        start = int(spec[1] * (tsize - 1))
        stop = min(tsize, start + max(1, int(spec[2] * tsize)))
        return cube.subset("time", start, stop), ref[start:stop]
    if kind == "intercube":
        _, op, seed, nfrag_other = spec
        other_data = np.random.default_rng(seed).normal(size=cube.shape)
        other = Cube.from_array(
            other_data, list(cube.dim_names), client=client,
            fragment_dim="lat", nfrag=nfrag_other,
        )
        return cube.intercube(other, op), NUMPY_BINOPS[op](ref, other_data)
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
                cube, ref = base_cube(client, data, nfrag=nfrag), data
                for spec in steps:
                    cube, ref = apply_spec(cube, ref, spec, client)
                if reduce_spec is not None:
                    op, dim = reduce_spec
                    cube = cube.reduce(op, dim=dim)
                    ref = getattr(np, op)(ref, axis=("time", "lat").index(dim))
                results.append(cube.to_array().copy())
        # Both servers run the planner; the NumPy replay is the oracle
        # outside the code under test.
        for got in results:
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

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
                cube, ref = base_cube(client, data, nfrag=nfrag), data
                before = fragment_writes()
                for spec in steps:
                    cube, ref = apply_spec(cube, ref, spec, client)
                cube.to_array()
                writes.append(fragment_writes() - before)
        eager_writes, lazy_writes = writes
        assert lazy_writes < eager_writes


class TestPlanLifecycle:
    def test_elementwise_ops_defer_and_materialize_forces(self, lazy_client):
        data = np.random.default_rng(0).normal(size=(4, 6, 3))
        base = base_cube(lazy_client, data)
        before = fragment_writes()
        chained = base.apply(MUL.format(k=2)).transform(_sin)
        assert chained.is_lazy
        assert fragment_writes() == before
        chained.materialize()
        assert not chained.is_lazy
        # materialize writes only the final cube, once.
        assert fragment_writes() == before + chained.nfrag
        np.testing.assert_array_equal(chained.to_array(), np.sin(data * 2))
        chained.materialize()  # idempotent no-op
        assert fragment_writes() == before + chained.nfrag

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
            before = fragment_writes()
            out = base.apply(MUL.format(k=3))
            assert not out.is_lazy
            assert fragment_writes() == before + out.nfrag

    def test_shared_intermediate_materializes_once_on_reuse(self, lazy_client):
        data = np.random.default_rng(1).normal(size=(5, 4, 3))
        base = base_cube(lazy_client, data)
        reuses = "ophidia_cubes_materialized_total"
        reuse_before = counted(reuses, reason="reuse")
        shared = base.apply(MUL.format(k=2))
        first = shared.reduce("max", dim="time")
        assert shared.is_lazy  # first consumer streamed the chain
        second = shared.apply(PRED).reduce("sum", dim="time")
        assert not shared.is_lazy  # second consumer triggered materialisation
        assert counted(reuses, reason="reuse") == reuse_before + 1
        third = shared.reduce("sum", dim="time")
        assert counted(reuses, reason="reuse") == reuse_before + 1
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
        writes_before = fragment_writes()
        with pytest.raises(InjectedTaskError):
            pending.to_array()
        with pytest.raises(InjectedTaskError):
            pending.materialize()
        # A failing sweep writes nothing and frees nothing.
        assert server.pool.n_fragments == n_before
        assert fragment_writes() == writes_before
        assert pending.is_lazy
        np.testing.assert_array_equal(base.to_array(), data)


def fusion_count_and_sum():
    """Observations and summed lengths of ``ophidia_plan_fusion_length``."""
    family = get_registry().snapshot().to_json().get(
        "ophidia_plan_fusion_length", {"series": []})
    return (sum(e["count"] for e in family["series"]),
            sum(e["sum"] for e in family["series"]))


def executeplan_entries(server):
    return [e for e in server.operator_log if e["operator"] == "oph_executeplan"]


class TestFusionAccounting:
    def test_fused_sweep_counts_passes_and_logs_plan(self, lazy_client):
        server = lazy_client.server
        registry = get_registry()
        before = registry.snapshot()

        base = base_cube(lazy_client, np.random.default_rng(4).normal(size=(4, 6, 3)))
        chain = base.apply(MUL.format(k=2)).transform(_sin).apply(PRED)
        chain.to_array()
        delta = registry.snapshot().delta(before)
        assert delta.value("ophidia_fragment_passes_run_total") == 1
        assert delta.value("ophidia_fragment_passes_avoided_total") == 2
        assert delta.value("ophidia_materialize_bytes_avoided_total") > 0
        entry = executeplan_entries(server)[-1]
        assert entry["fused"] == ["oph_apply", "oph_transform", "oph_apply"]

    def test_fusion_length_histogram_observes_chain(self, lazy_client):
        count0, sum0 = fusion_count_and_sum()
        base = base_cube(lazy_client, np.ones((3, 4, 2)))
        base.apply(MUL.format(k=2)).apply(MUL.format(k=3)).reduce("sum", dim="time")
        count1, sum1 = fusion_count_and_sum()
        assert count1 == count0 + 1
        # Two fused applies plus the reduce terminal in one sweep.
        assert sum1 == sum0 + 3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_materialize_counts_only_the_chain(self, lazy_client, k):
        """Storing a k-operator chain is one sweep of k operators: k-1
        passes avoided, fusion length k, and no fused-plan entry for a
        single operator (the store itself is not a fused operator)."""
        server = lazy_client.server
        avoided = "ophidia_fragment_passes_avoided_total"
        chain = base_cube(lazy_client, np.ones((3, 4, 2)))
        for factor in range(2, 2 + k):
            chain = chain.apply(MUL.format(k=factor))
        avoided0, fusion0 = counted(avoided), fusion_count_and_sum()
        plans0 = len(executeplan_entries(server))
        chain.materialize()
        assert counted(avoided) == avoided0 + k - 1
        assert fusion_count_and_sum() == (fusion0[0] + 1, fusion0[1] + k)
        plans = executeplan_entries(server)
        assert len(plans) == plans0 + (k > 1)
        if k > 1:
            assert plans[-1]["fused"] == ["oph_apply"] * k

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
