"""YAML-subset parser and TOSCA topology model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpcwaas import (
    NodeTemplate,
    TOSCAError,
    Topology,
    YAMLError,
    parse_yaml,
    topology_from_yaml,
)


class TestYAMLScalars:
    def test_types(self):
        assert parse_yaml("a: 1")["a"] == 1
        assert parse_yaml("a: 1.5")["a"] == 1.5
        assert parse_yaml("a: true")["a"] is True
        assert parse_yaml("a: false")["a"] is False
        assert parse_yaml("a: null")["a"] is None
        assert parse_yaml("a:")["a"] is None
        assert parse_yaml("a: hello world")["a"] == "hello world"

    def test_quoted_strings(self):
        assert parse_yaml("a: 'x: y'")["a"] == "x: y"
        assert parse_yaml('a: "42"')["a"] == "42"

    def test_flow_list(self):
        assert parse_yaml("a: [1, 2, 3]")["a"] == [1, 2, 3]
        assert parse_yaml("a: ['x', 'y']")["a"] == ["x", "y"]
        assert parse_yaml("a: []")["a"] == []

    def test_comments_and_blanks(self):
        doc = parse_yaml("""
# header comment
a: 1   # trailing
b: 2
""")
        assert doc == {"a": 1, "b": 2}

    def test_hash_inside_quotes_kept(self):
        assert parse_yaml("a: 'v#1'")["a"] == "v#1"

    def test_empty_document(self):
        assert parse_yaml("") is None
        assert parse_yaml("# only a comment\n") is None


class TestYAMLStructure:
    def test_nested_mapping(self):
        doc = parse_yaml("""
outer:
  inner:
    deep: value
  sibling: 2
top: 3
""")
        assert doc == {"outer": {"inner": {"deep": "value"}, "sibling": 2}, "top": 3}

    def test_sequences(self):
        doc = parse_yaml("""
items:
  - one
  - 2
  - true
""")
        assert doc == {"items": ["one", 2, True]}

    def test_sequence_of_mappings(self):
        doc = parse_yaml("""
requirements:
  - host: cluster
  - dependency: baseline_data
""")
        assert doc["requirements"] == [{"host": "cluster"}, {"dependency": "baseline_data"}]

    def test_sequence_item_with_multiple_keys(self):
        doc = parse_yaml("""
steps:
  - name: load
    retries: 2
  - name: compute
""")
        assert doc["steps"] == [{"name": "load", "retries": 2}, {"name": "compute"}]

    def test_root_sequence(self):
        assert parse_yaml("- a\n- b\n") == ["a", "b"]


class TestYAMLErrors:
    def test_tabs_rejected(self):
        with pytest.raises(YAMLError):
            parse_yaml("a:\n\tb: 1")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(YAMLError):
            parse_yaml("a: 1\na: 2")

    def test_anchor_rejected(self):
        with pytest.raises(YAMLError):
            parse_yaml("a: &anchor 1")

    def test_flow_mapping_rejected(self):
        with pytest.raises(YAMLError):
            parse_yaml("a: {x: 1}")

    def test_block_scalar_rejected(self):
        with pytest.raises(YAMLError):
            parse_yaml("a: |\n  text")

    def test_unterminated_quote(self):
        with pytest.raises(YAMLError):
            parse_yaml("a: 'oops")

    def test_bad_line(self):
        with pytest.raises(YAMLError):
            parse_yaml("just a line without colon\n")

    def test_error_carries_line_number(self):
        with pytest.raises(YAMLError, match="line 2"):
            parse_yaml("a: 1\na: 2")


EXAMPLE_TOSCA = """
tosca_definitions_version: tosca_simple_yaml_1_3
metadata:
  template_name: climate-extremes
topology_template:
  inputs:
    years:
      default: [2030]
  node_templates:
    zeus_access:
      type: eflows.nodes.ComputeAccess
      properties:
        queue: p_medium
    climate_env:
      type: eflows.nodes.PythonEnvironment
      properties:
        packages: [numpy, pyophidia]
      requirements:
        - host: zeus_access
    app:
      type: eflows.nodes.PyCOMPSsApplication
      properties:
        entrypoint: repro.workflow.extreme_events
      requirements:
        - host: climate_env
"""


class TestTopology:
    def test_from_yaml(self):
        topo = topology_from_yaml(EXAMPLE_TOSCA)
        assert topo.name == "climate-extremes"
        assert set(topo.node_templates) == {"zeus_access", "climate_env", "app"}
        assert topo.node_templates["climate_env"].requirements == ["zeus_access"]
        assert topo.inputs["years"]["default"] == [2030]

    def test_deployment_order_respects_requirements(self):
        topo = topology_from_yaml(EXAMPLE_TOSCA)
        order = [t.name for t in topo.deployment_order()]
        assert order.index("zeus_access") < order.index("climate_env")
        assert order.index("climate_env") < order.index("app")

    def test_unknown_requirement_rejected(self):
        topo = Topology("t")
        topo.add(NodeTemplate("a", "x", requirements=["ghost"]))
        with pytest.raises(TOSCAError):
            topo.validate()

    def test_cycle_rejected(self):
        topo = Topology("t")
        topo.add(NodeTemplate("a", "x", requirements=["b"]))
        topo.add(NodeTemplate("b", "x", requirements=["a"]))
        with pytest.raises(TOSCAError, match="requirement cycle: a -> b -> a"):
            topo.deployment_order()

    def test_self_requirement_rejected(self):
        topo = Topology("t")
        topo.add(NodeTemplate("z", "x"))
        topo.add(NodeTemplate("a", "x", requirements=["z", "a"]))
        with pytest.raises(TOSCAError, match="requirement cycle: a -> a"):
            topo.validate()

    def test_duplicate_template_rejected(self):
        topo = Topology("t")
        topo.add(NodeTemplate("a", "x"))
        with pytest.raises(TOSCAError):
            topo.add(NodeTemplate("a", "y"))

    def test_missing_sections_rejected(self):
        with pytest.raises(TOSCAError):
            topology_from_yaml("a: 1")
        with pytest.raises(TOSCAError):
            topology_from_yaml(
                "topology_template:\n  node_templates:\n    a:\n      properties: {}"
                .replace("{}", "")
            )

    def test_untyped_template_rejected(self):
        bad = """
topology_template:
  node_templates:
    a:
      properties:
        x: 1
"""
        with pytest.raises(TOSCAError):
            topology_from_yaml(bad)


@st.composite
def requirement_dags(draw):
    """Templates as {name: requirements}, every requirement drawn from
    the names before it in a random order, duplicates allowed."""
    names = draw(st.lists(st.sampled_from("abcdefghij"), min_size=1,
                          max_size=10, unique=True))
    names += [f"t{i}" for i in range(draw(st.integers(0, 12)))]
    names = draw(st.permutations(names))
    return {name: draw(st.lists(st.sampled_from(names[:i]), max_size=4))
            if i else [] for i, name in enumerate(names)}


def _topology(requirements, order):
    topo = Topology("t")
    for name in order:
        topo.add(NodeTemplate(name, "x", requirements=list(requirements[name])))
    return topo


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


class TestDeploymentOrderProperties:
    @given(requirement_dags(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_lexicographic_sort(self, nx, requirements, rnd):
        order = sorted(requirements)
        rnd.shuffle(order)
        graph = nx.DiGraph()
        graph.add_nodes_from(order)
        graph.add_edges_from((req, name) for name in order
                             for req in requirements[name])
        deployed = [t.name for t in _topology(requirements, order).deployment_order()]
        assert deployed == list(nx.lexicographical_topological_sort(graph))

    @given(requirement_dags(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cycle_error_names_a_real_cycle(self, requirements, data):
        names = list(requirements)
        loop = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        for name, req in zip(loop, loop[1:] + loop[:1]):
            requirements[name].append(req)
        with pytest.raises(TOSCAError) as err:
            _topology(requirements, names).validate()
        cycle = str(err.value).removeprefix("requirement cycle: ").split(" -> ")
        assert cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        for name, req in zip(cycle, cycle[1:]):
            assert req in requirements[name]
