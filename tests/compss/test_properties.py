"""Property-based tests: dependency-order correctness on random DAGs.

The core guarantee of the COMPSs runtime: whatever the DAG shape and
worker count, every task executes after all tasks it depends on.  We
generate random DAGs, express them as chained futures, record actual
execution order, and verify topological consistency and result
correctness against a sequential oracle.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compss import COMPSs, compss_wait_on, task


@st.composite
def random_dags(draw):
    """A DAG as {node: sorted list of predecessor nodes < node}."""
    n = draw(st.integers(min_value=1, max_value=14))
    edges = {}
    for node in range(n):
        if node == 0:
            edges[node] = []
            continue
        k = draw(st.integers(min_value=0, max_value=min(3, node)))
        preds = draw(
            st.lists(st.integers(0, node - 1), min_size=k, max_size=k, unique=True)
        )
        edges[node] = sorted(preds)
    return edges


def oracle(edges):
    """Sequential evaluation of the same computation."""
    values = {}
    for node in sorted(edges):
        values[node] = node + sum(values[p] for p in edges[node])
    return values


class TestRandomDAGs:
    @given(random_dags(), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_execution_respects_topological_order(self, edges, n_workers):
        order = []
        lock = threading.Lock()

        @task(returns=1)
        def node_task(node, *pred_values):
            with lock:
                order.append(node)
            return node + sum(pred_values)

        with COMPSs(n_workers=n_workers) as rt:
            futures = {}
            for node in sorted(edges):
                futures[node] = node_task(
                    node, *[futures[p] for p in edges[node]]
                )
            results = {n: compss_wait_on(f) for n, f in futures.items()}
            # Every edge runs forward in submission order: acyclic.
            for u, v in rt.graph.edges():
                assert rt.graph.task(u).submit_order < rt.graph.task(v).submit_order

        # Every node ran exactly once, after all its predecessors.
        assert sorted(order) == sorted(edges)
        position = {node: i for i, node in enumerate(order)}
        for node, preds in edges.items():
            for p in preds:
                assert position[p] < position[node], (
                    f"{p} must precede {node}: order={order}"
                )
        assert results == oracle(edges)

    @given(random_dags())
    @settings(max_examples=15, deadline=None)
    def test_graph_census_matches_dag(self, edges):
        @task(returns=1)
        def node_task(node, *pred_values):
            return node + sum(pred_values)

        with COMPSs(n_workers=3) as rt:
            futures = {}
            for node in sorted(edges):
                futures[node] = node_task(node, *[futures[p] for p in edges[node]])
            compss_wait_on(list(futures.values()))
            assert len(rt.graph) == len(edges)
            n_edges = sum(len(p) for p in edges.values())
            assert len(rt.graph.edges()) == n_edges
            assert rt.graph.counts_by_state().get("COMPLETED") == len(edges)

    @given(st.integers(1, 20), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_linear_chain_is_strictly_sequential(self, length, n_workers):
        order = []
        lock = threading.Lock()

        @task(returns=1)
        def step(i, prev):
            with lock:
                order.append(i)
            return i

        with COMPSs(n_workers=n_workers):
            prev = None
            for i in range(length):
                prev = step(i, prev)
            assert compss_wait_on(prev) == length - 1
        assert order == list(range(length))

    @given(st.integers(2, 24))
    @settings(max_examples=10, deadline=None)
    def test_wide_fanout_joins_correctly(self, width):
        @task(returns=1)
        def leaf(i):
            return i * i

        @task(returns=1)
        def join(values):
            return sum(values)

        with COMPSs(n_workers=4):
            total = join([leaf(i) for i in range(width)])
            assert compss_wait_on(total) == sum(i * i for i in range(width))
