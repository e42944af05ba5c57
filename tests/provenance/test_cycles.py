"""Unit tests for cycle analysis and the Section 3.3 theorem check."""

import pytest

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.inference.exact import exact_probability
from repro.provenance.cycles import (
    cyclic_tuples,
    has_cycles,
    strongly_connected_components,
    tuple_dependency_edges,
    verify_cycle_elimination,
)
from repro.provenance.graph import (
    ProvenanceGraph, add_firings, register_program)


def build(source):
    program = parse_program(source)
    engine = Engine(program)
    engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return graph


ACYCLIC = """
t1 0.5: p(1).
r1 1.0: d(X) :- p(X).
"""

CYCLIC = """
t1 0.9: trust(1,2).
t2 0.8: trust(2,1).
r1 1.0: tp(X,Y) :- trust(X,Y).
r2 1.0: tp(X,Z) :- trust(X,Y), tp(Y,Z).
"""


class TestSCC:
    def test_no_cycles_in_acyclic_graph(self):
        graph = build(ACYCLIC)
        assert not has_cycles(graph)
        assert cyclic_tuples(graph) == frozenset()

    def test_detects_mutual_recursion_cycle(self):
        graph = build(CYCLIC)
        assert has_cycles(graph)
        cyclic = cyclic_tuples(graph)
        assert "tp(1,1)" in cyclic or "tp(1,2)" in cyclic

    def test_scc_on_explicit_edges(self):
        edges = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
        components = strongly_connected_components(edges)
        assert components == [frozenset({"a", "b", "c"})]

    def test_self_loop_detected(self):
        components = strongly_connected_components({"a": {"a"}})
        assert components == [frozenset({"a"})]

    def test_trivial_components_excluded(self):
        components = strongly_connected_components({"a": {"b"}, "b": set()})
        assert components == []

    def test_multiple_components(self):
        edges = {
            "a": {"b"}, "b": {"a"},
            "x": {"y"}, "y": {"x"},
            "solo": {"a"},
        }
        components = strongly_connected_components(edges)
        assert sorted(map(sorted, components)) == [["a", "b"], ["x", "y"]]

    def test_tuple_dependency_projection(self):
        graph = build(ACYCLIC)
        edges = tuple_dependency_edges(graph)
        assert edges == {"d(1)": {"p(1)"}}


class TestTheorem:
    def test_verify_cycle_elimination_passes(self):
        graph = build(CYCLIC)
        values = verify_cycle_elimination(
            graph, "tp(1,1)", exact_probability, graph.probability_map(),
            max_rounds=2)
        assert len(values) == 3
        assert values[0] == pytest.approx(values[1])
        assert values[0] == pytest.approx(values[2])

    def test_verify_on_acquaintance(self):
        from repro.data import ACQUAINTANCE
        graph = build(ACQUAINTANCE)
        values = verify_cycle_elimination(
            graph, 'know("Ben","Elena")', exact_probability,
            graph.probability_map(), max_rounds=2)
        assert values[0] == pytest.approx(0.16384)

    def test_three_node_trust_cycle(self):
        graph = build("""
            t1 0.7: trust(1,2).
            t2 0.6: trust(2,3).
            t3 0.5: trust(3,1).
            r1 1.0: tp(X,Y) :- trust(X,Y).
            r2 1.0: tp(X,Z) :- trust(X,Y), tp(Y,Z).
        """)
        values = verify_cycle_elimination(
            graph, "tp(1,1)", exact_probability, graph.probability_map(),
            max_rounds=2)
        # tp(1,1) requires the full cycle: p = 0.7·0.6·0.5.
        assert values[0] == pytest.approx(0.21)
