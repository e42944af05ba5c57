"""Unit tests for the provenance graph and its construction from the
engine's firing table."""

import pytest

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.provenance.extraction import extract_polynomial
from repro import P3, P3Config
from repro.provenance.graph import (
    ProvenanceGraph,
    RuleExecution,
    add_firings,
    register_program,
)
from repro.provenance.polynomial import rule_literal, tuple_literal


def build(source):
    """Evaluate a program and return (graph, program, result)."""
    program = parse_program(source)
    engine = Engine(program)
    result = engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return graph, program, result


SIMPLE = """
t1 0.5: p(1).
t2 0.6: q(1).
r1 0.8: d(X) :- p(X), q(X).
"""


class TestRuleExecution:
    def test_exec_id(self):
        execution = RuleExecution("r1", "d(1)", ("p(1)", "q(1)"), 0.8)
        assert execution.exec_id == "r1[p(1);q(1)]"

    def test_equality_ignores_probability(self):
        first = RuleExecution("r1", "d(1)", ("p(1)",), 0.8)
        second = RuleExecution("r1", "d(1)", ("p(1)",), 0.8)
        assert first == second
        assert hash(first) == hash(second)

    def test_immutable(self):
        execution = RuleExecution("r1", "d(1)", ("p(1)",), 0.8)
        with pytest.raises(AttributeError):
            execution.head = "other"


class TestGraphBuilding:
    def test_base_tuples_registered(self):
        graph, _, _ = build(SIMPLE)
        assert graph.is_base("p(1)")
        assert graph.base_probability("p(1)") == 0.5
        assert graph.base_label("p(1)") == "t1"

    def test_rules_registered(self):
        graph, _, _ = build(SIMPLE)
        assert graph.rule_probability("r1") == 0.8

    def test_derivations_recorded(self):
        graph, _, _ = build(SIMPLE)
        derivations = graph.derivations_of("d(1)")
        assert len(derivations) == 1
        assert derivations[0].body == ("p(1)", "q(1)")

    def test_duplicate_execution_ignored(self):
        graph = ProvenanceGraph()
        execution = RuleExecution("r1", "d(1)", ("p(1)",), 0.8)
        assert graph.add_execution(execution)
        assert not graph.add_execution(execution)
        assert len(graph.derivations_of("d(1)")) == 1

    def test_derivation_order_refreshed_after_new_execution(self):
        graph = ProvenanceGraph()
        graph.add_execution(RuleExecution("r2", "d(1)", ("q(1)",), 0.5))
        first = graph.derivations_of("d(1)")
        assert [e.exec_id for e in first] == ["r2[q(1)]"]
        assert graph.add_execution(
            RuleExecution("r1", "d(1)", ("p(1)",), 0.8))
        assert [e.exec_id for e in graph.derivations_of("d(1)")] == \
            ["r1[p(1)]", "r2[q(1)]"]

    def test_duplicate_execution_keeps_cached_order(self):
        graph = ProvenanceGraph()
        execution = RuleExecution("r1", "d(1)", ("p(1)",), 0.8)
        graph.add_execution(execution)
        graph.add_execution(RuleExecution("r2", "d(1)", ("q(1)",), 0.5))
        cached = graph.derivations_of("d(1)")
        assert not graph.add_execution(
            RuleExecution("r1", "d(1)", ("p(1)",), 0.8))
        assert graph.derivations_of("d(1)") is cached

    def test_is_derived_vs_base(self):
        graph, _, _ = build(SIMPLE)
        assert graph.is_derived("d(1)")
        assert not graph.is_derived("p(1)")
        assert not graph.is_base("d(1)")

    def test_contains(self):
        graph, _, _ = build(SIMPLE)
        assert "d(1)" in graph
        assert "p(1)" in graph
        assert "missing(1)" not in graph

    def test_counts(self):
        graph, _, _ = build(SIMPLE)
        assert graph.vertex_count() == 3 + 1  # p, q, d tuples + 1 execution
        assert graph.edge_count() == 3  # two inputs + one output edge


class TestProbabilityMap:
    def test_covers_tuples_and_rules(self):
        graph, _, _ = build(SIMPLE)
        probs = graph.probability_map()
        assert probs[tuple_literal("p(1)")] == 0.5
        assert probs[tuple_literal("q(1)")] == 0.6
        assert probs[rule_literal("r1")] == 0.8

    def test_unused_rule_still_present(self):
        graph, _, _ = build("""
            p(1).
            r1 0.3: never(X) :- missing(X), p(X).
        """)
        assert graph.probability_map()[rule_literal("r1")] == 0.3


class TestTableReconstruction:
    """The graph is built from the engine's firing table; built in one
    pass it equals the live graph grown batch by batch from a cursor."""

    def test_matches_live_graph(self):
        live = P3.from_source(SIMPLE)
        live.evaluate()
        live.add_facts(["t3 0.7: p(2).", "t4 0.9: q(2)."])
        graph, _, _ = build(SIMPLE + "t3 0.7: p(2). t4 0.9: q(2).")
        assert graph.tuple_keys() == live.graph.tuple_keys()
        assert graph.executions() == live.graph.executions()
        assert graph.probability_map() == live.graph.probability_map()

    def test_matches_on_recursive_program(self):
        from repro.data import ACQUAINTANCE
        graph, _, _ = build(ACQUAINTANCE)
        grounded = P3.from_source(ACQUAINTANCE, P3Config(grounding="query"))
        grounded.evaluate()
        key = 'know("Ben","Elena")'
        assert extract_polynomial(graph, key) == extract_polynomial(
            grounded.provenance_for(key), key)

    def test_body_order_recovered(self):
        graph, _, _ = build("""
            p(1). q(1).
            r1 1.0: d(X) :- q(X), p(X).
        """)
        [execution] = graph.derivations_of("d(1)")
        assert execution.body == ("q(1)", "p(1)")


class TestSubgraph:
    def test_rooted_subgraph_contains_support(self):
        graph, _, _ = build(SIMPLE)
        sub = graph.reachable_subgraph("d(1)")
        assert "p(1)" in sub
        assert "q(1)" in sub
        assert len(sub.derivations_of("d(1)")) == 1

    def test_subgraph_excludes_unrelated(self):
        graph, _, _ = build(SIMPLE + "t3 0.9: unrelated(2).")
        sub = graph.reachable_subgraph("d(1)")
        assert "unrelated(2)" not in sub

    def test_subgraph_with_cycles_terminates(self):
        graph, _, _ = build("""
            trust(1,2). trust(2,1).
            r1 1.0: tp(X,Y) :- trust(X,Y).
            r2 1.0: tp(X,Z) :- trust(X,Y), tp(Y,Z).
        """)
        sub = graph.reachable_subgraph("tp(1,1)")
        assert "trust(1,2)" in sub

    def test_hop_limit_truncates(self):
        graph, _, _ = build("""
            edge(1,2). edge(2,3). edge(3,4).
            r1 1.0: path(X,Y) :- edge(X,Y).
            r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
        """)
        shallow = graph.reachable_subgraph("path(1,4)", hop_limit=1)
        deep = graph.reachable_subgraph("path(1,4)", hop_limit=None)
        assert shallow.vertex_count() < deep.vertex_count()


class TestRendering:
    def test_dot_output_shape(self):
        graph, _, _ = build(SIMPLE)
        dot = graph.to_dot(root="d(1)")
        assert dot.startswith("digraph provenance {")
        assert "shape=box" in dot
        assert "shape=oval" in dot
        assert dot.rstrip().endswith("}")

    def test_dot_escapes_quotes(self):
        graph, _, _ = build('t1 0.5: p("x").')
        assert '\\"x\\"' in graph.to_dot()

    def test_text_tree(self):
        graph, _, _ = build(SIMPLE)
        text = graph.to_text("d(1)")
        assert "d(1)" in text
        assert "via r1" in text
        assert "[base p=0.5]" in text

    def test_text_marks_cycles(self):
        graph, _, _ = build("""
            trust(1,2). trust(2,1).
            r1 1.0: tp(X,Y) :- trust(X,Y).
            r2 1.0: tp(X,Z) :- trust(X,Y), tp(Y,Z).
        """)
        text = graph.to_text("tp(1,1)")
        assert "(cycle)" in text

    def test_edges_iteration(self):
        graph, _, _ = build(SIMPLE)
        edges = list(graph.edges())
        assert ("p(1)", "r1[p(1);q(1)]") in edges
        assert ("r1[p(1);q(1)]", "d(1)") in edges
