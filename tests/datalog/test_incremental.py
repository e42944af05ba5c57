"""Unit and property tests for incremental provenance maintenance."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.ast import ClauseError, Fact
from repro.datalog.engine import Engine, EvaluationError
from repro.datalog.incremental import IncrementalSession
from repro.datalog.parser import parse_program
from repro.datalog.rewrite import PROV_RELATION, RULE_RELATION
from repro.datalog.terms import Atom, Constant, Variable
from repro.datalog.terms import atom as make_atom
from repro.provenance.extraction import extract_polynomial
from repro.provenance.graph import (
    GraphBuilder, graph_from_tables, register_program)

TC = """
edge(1,2). edge(2,3).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
"""


def atoms(database, relation=None):
    return {str(atom) for atom in database.atoms(relation)}


def scratch(source):
    """From-scratch evaluation returning (atoms, firing_count, graph)."""
    program = parse_program(source)
    builder = GraphBuilder()
    register_program(builder.graph, program)
    result = Engine(program, recorder=builder, capture_tables=False).run()
    return ({str(a) for a in result.database.atoms()},
            result.firing_count, builder.graph)


class TestInitialRun:
    def test_matches_engine(self):
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False)
        expected, firings, _ = scratch(TC)
        assert atoms(session.database) == expected
        assert session.firing_count == firings

    def test_rejects_negation(self):
        program = parse_program("""
            p(1). q(2).
            r1 1.0: a(X) :- p(X), not q(X).
        """)
        with pytest.raises(ClauseError):
            IncrementalSession(program)


class TestInsertion:
    def test_single_fact_extends_closure(self):
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False)
        delta = session.add_fact(Fact(make_atom("edge", 3, 4), 1.0, "n1"))
        assert delta.firing_count > 0
        assert "path(1,4)" in atoms(session.database, "path")
        assert "path(3,4)" in atoms(session.database, "path")

    def test_equivalent_to_scratch(self):
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False)
        session.add_fact(Fact(make_atom("edge", 3, 4), 1.0, "n1"))
        session.add_fact(Fact(make_atom("edge", 4, 1), 1.0, "n2"))
        expected, firings, _ = scratch(
            TC + "n1 1.0: edge(3,4). n2 1.0: edge(4,1).")
        assert atoms(session.database) == expected
        assert session.firing_count == firings

    def test_cycle_created_by_insertion(self):
        # Inserting edge(3,1) closes a cycle; the model must match scratch.
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False)
        session.add_fact(Fact(make_atom("edge", 3, 1), 1.0, "n1"))
        expected, firings, _ = scratch(TC + "n1 1.0: edge(3,1).")
        assert atoms(session.database) == expected
        assert session.firing_count == firings

    def test_duplicate_fact_is_noop(self):
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False)
        before = session.firing_count
        delta = session.add_fact(Fact(make_atom("edge", 1, 2), 1.0, "dup"))
        assert delta.firing_count == 0
        assert session.firing_count == before

    def test_duplicate_label_rejected(self):
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False)
        with pytest.raises(ClauseError):
            session.add_fact(Fact(make_atom("edge", 9, 9 + 1), 1.0, "t1"))

    def test_batch_insertion(self):
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False)
        session.add_facts([
            Fact(make_atom("edge", 3, 4), 0.5, "n1"),
            Fact(make_atom("edge", 4, 5), 0.5, "n2"),
        ])
        assert "path(1,5)" in atoms(session.database, "path")
        assert session.insertions == 1

    def test_max_tuples_enforced_on_insertion(self):
        session = IncrementalSession(parse_program(TC),
                                     capture_tables=False, max_tuples=8)
        with pytest.raises(EvaluationError):
            session.add_facts([
                Fact(make_atom("edge", 3, 4), 1.0, "n1"),
                Fact(make_atom("edge", 4, 5), 1.0, "n2"),
            ])


class TestProvenanceGrowth:
    def test_graph_identical_to_scratch(self):
        program = parse_program(TC)
        builder = GraphBuilder()
        register_program(builder.graph, program)
        session = IncrementalSession(program, recorder=builder,
                                     capture_tables=False)
        session.add_fact(Fact(make_atom("edge", 3, 1), 0.8, "n1"))

        _, _, scratch_graph = scratch(TC + "n1 0.8: edge(3,1).")
        assert builder.graph.executions() == scratch_graph.executions()
        for key in ("path(1,1)", "path(3,2)"):
            incremental = extract_polynomial(builder.graph, key)
            from_scratch = extract_polynomial(scratch_graph, key)
            assert incremental == from_scratch

    def test_probability_map_includes_new_fact(self):
        program = parse_program(TC)
        builder = GraphBuilder()
        register_program(builder.graph, program)
        session = IncrementalSession(program, recorder=builder,
                                     capture_tables=False)
        session.add_fact(Fact(make_atom("edge", 3, 4), 0.3, "n1"))
        from repro.provenance.polynomial import tuple_literal
        assert builder.graph.probability_map()[
            tuple_literal("edge(3,4)")] == 0.3


class TestCaptureTablesGrow:
    def test_tables_follow_insertions(self):
        program = parse_program(TC)
        builder = GraphBuilder()
        register_program(builder.graph, program)
        session = IncrementalSession(program, recorder=builder)
        database = session.database
        r2_rows = Atom(RULE_RELATION,
                       (Variable("E"), Constant("r2"), Variable("B")))

        def expected_r2_rows():
            return sum(len(set(execution.body))
                       for execution in builder.graph.executions()
                       if execution.rule_label == "r2")

        # Read the tables (building a match index) before inserting.
        assert len(list(database.match(r2_rows))) == expected_r2_rows()
        session.add_fact(Fact(make_atom("edge", 3, 4), 1.0, "n1"))
        assert database.count(PROV_RELATION) == session.firing_count
        # Reading prov_ first renders both tables; the rule_ index must
        # still see the new rows.
        assert len(list(database.atoms(PROV_RELATION))) == \
            session.firing_count
        assert len(list(database.match(r2_rows))) == expected_r2_rows()
        rebuilt = graph_from_tables(database, session.program)
        assert rebuilt.executions() == builder.graph.executions()


@st.composite
def edge_batches(draw):
    nodes = list(range(4))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    initial = draw(st.permutations(pairs))[:draw(st.integers(1, 4))]
    later = [p for p in draw(st.permutations(pairs))
             if p not in initial][:draw(st.integers(1, 4))]
    return sorted(initial), sorted(later)


class TestIncrementalEqualsScratchProperty:
    @settings(max_examples=30, deadline=None)
    @given(edge_batches())
    def test_any_insertion_order_matches_scratch(self, batches):
        initial, later = batches
        source = "\n".join(
            ["e%d 0.5: edge(%d,%d)." % (i, a, b)
             for i, (a, b) in enumerate(initial)]
            + ["r1 1.0: path(X,Y) :- edge(X,Y).",
               "r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z)."])
        session = IncrementalSession(parse_program(source),
                                     capture_tables=False)
        for index, (a, b) in enumerate(later):
            session.add_fact(Fact(make_atom("edge", a, b), 0.5,
                                  "x%d" % index))

        full_source = source + "\n" + "\n".join(
            "x%d 0.5: edge(%d,%d)." % (i, a, b)
            for i, (a, b) in enumerate(later))
        expected, firings, _ = scratch(full_source)
        assert atoms(session.database) == expected
        assert session.firing_count == firings
