"""The task graph's own invariants: insertion order, not task id order,
is the topological order, and networkx (when installed) agrees on every
query."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compss.task_graph import TaskGraph, TaskNode


def _node(task_id):
    return TaskNode(task_id, "f", None, (), {}, 1, (), None, 0)


def test_a_later_id_inserted_first_is_the_producer():
    # Task ids are drawn before the runtime lock, so task 2 can reach the
    # graph before task 1 and be its producer.
    graph = TaskGraph()
    assert graph.add_task(_node(2), []) == []
    assert graph.add_task(_node(1), [2, 2, 1, 99]) == [2]
    assert graph.edges() == [(2, 1)]
    assert graph.descendants(2) == {1}
    assert graph.descendants(1) == set()
    assert graph.critical_path_length() == 2
    assert graph.max_width() == 1
    assert [t.task_id for t in graph.tasks()] == [1, 2]


def test_empty_graph():
    graph = TaskGraph()
    assert len(graph) == 0
    assert graph.edges() == []
    assert graph.critical_path_length() == 0
    assert graph.max_width() == 0


@st.composite
def inserted_dags(draw):
    """``[(task_id, depends_on)]`` in insertion order: a random DAG whose
    ids are a random permutation, inserted in a random topological order.
    ``depends_on`` may repeat a producer or name the task itself."""
    n = draw(st.integers(1, 16))
    ids = draw(st.permutations(range(1, n + 1)))
    return [(tid, draw(st.lists(st.sampled_from(ids[:i + 1]), max_size=4)))
            for i, tid in enumerate(ids)]


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@given(inserted_dags())
@settings(max_examples=80, deadline=None)
def test_queries_match_networkx(nx, inserted):
    graph, oracle = TaskGraph(), nx.DiGraph()
    for tid, depends_on in inserted:
        graph.add_task(_node(tid), depends_on)
        oracle.add_node(tid)
        for dep in set(depends_on):
            if dep != tid:
                oracle.add_edge(dep, tid)

    assert len(graph) == oracle.number_of_nodes()
    assert graph.edges() == list(oracle.edges)
    for tid in oracle:
        assert graph.successors(tid) == list(oracle.successors(tid))
        assert graph.predecessors(tid) == list(oracle.predecessors(tid))
        assert graph.descendants(tid) == nx.descendants(oracle, tid)
    assert graph.critical_path_length() == nx.dag_longest_path_length(oracle) + 1
    assert graph.max_width() == max(map(len, nx.topological_generations(oracle)))
