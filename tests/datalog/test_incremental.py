"""Unit and property tests for incremental provenance maintenance.

Insertions go through :meth:`repro.core.system.P3.add_facts`, which
extends the kept engine's model in place; every result must equal a
from-scratch evaluation of the extended program.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import P3, P3Config
from repro.datalog.ast import ClauseError, Fact
from repro.datalog.engine import Engine, EvaluationError
from repro.datalog.parser import parse_program
from repro.datalog.terms import atom as make_atom
from repro.io.serialize import graph_to_json
from repro.provenance.extraction import extract_polynomial
from repro.provenance.graph import (
    ProvenanceGraph, add_firings, register_program)
from repro.provenance.polynomial import tuple_literal

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
    engine = Engine(program)
    result = engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return ({str(a) for a in result.database.atoms()},
            result.firing_count, graph)


def live(source, **config):
    """An evaluated P3 system whose ``add_facts`` extends its engine."""
    system = P3(parse_program(source), P3Config(**config))
    system.evaluate()
    return system


def firings(system):
    """Distinct rule firings so far (one execution vertex each)."""
    return len(system.graph.executions())


def graph_bytes(system):
    return json.dumps(graph_to_json(system.graph), sort_keys=True)


class TestInitialRun:
    def test_matches_engine(self):
        system = live(TC)
        expected, count, _ = scratch(TC)
        assert atoms(system.database) == expected
        assert firings(system) == count

    def test_rejects_negation(self):
        program = parse_program("""
            p(1). q(2).
            r1 1.0: a(X) :- p(X), not q(X).
        """)
        engine = Engine(program)
        engine.run()
        with pytest.raises(ClauseError):
            engine.extend([Fact(make_atom("p", 3), 1.0, "n1")])


class TestInsertion:
    def test_single_fact_extends_closure(self):
        system = live(TC)
        delta = system.add_fact(Fact(make_atom("edge", 3, 4), 1.0, "n1"))
        assert delta.firing_count > 0
        assert "path(1,4)" in atoms(system.database, "path")
        assert "path(3,4)" in atoms(system.database, "path")

    def test_equivalent_to_scratch(self):
        system = live(TC)
        system.add_fact(Fact(make_atom("edge", 3, 4), 1.0, "n1"))
        system.add_fact(Fact(make_atom("edge", 4, 1), 1.0, "n2"))
        expected, count, _ = scratch(
            TC + "n1 1.0: edge(3,4). n2 1.0: edge(4,1).")
        assert atoms(system.database) == expected
        assert firings(system) == count

    def test_cycle_created_by_insertion(self):
        # Inserting edge(3,1) closes a cycle; the model must match scratch.
        system = live(TC)
        system.add_fact(Fact(make_atom("edge", 3, 1), 1.0, "n1"))
        expected, count, _ = scratch(TC + "n1 1.0: edge(3,1).")
        assert atoms(system.database) == expected
        assert firings(system) == count

    def test_duplicate_fact_is_noop(self):
        system = live(TC)
        before = firings(system)
        delta = system.add_fact(Fact(make_atom("edge", 1, 2), 1.0, "dup"))
        assert delta.firing_count == 0
        assert firings(system) == before
        assert system.epoch == 0

    def test_duplicate_label_rejected(self):
        system = live(TC)
        with pytest.raises(ClauseError):
            system.add_fact(Fact(make_atom("edge", 9, 9 + 1), 1.0, "t1"))

    def test_batch_insertion(self):
        system = live(TC)
        system.add_facts([
            Fact(make_atom("edge", 3, 4), 0.5, "n1"),
            Fact(make_atom("edge", 4, 5), 0.5, "n2"),
        ])
        assert "path(1,5)" in atoms(system.database, "path")
        assert system.epoch == 1

    def test_max_tuples_enforced_on_insertion(self):
        # 5 rows and 7 prov/rule table rows before the insertion.
        system = live(TC, max_tuples=16)
        with pytest.raises(EvaluationError):
            system.add_facts([
                Fact(make_atom("edge", 3, 4), 1.0, "n1"),
                Fact(make_atom("edge", 4, 5), 1.0, "n2"),
            ])


class TestProvenanceGrowth:
    def test_graph_identical_to_scratch(self):
        system = live(TC)
        system.add_fact(Fact(make_atom("edge", 3, 1), 0.8, "n1"))

        _, _, scratch_graph = scratch(TC + "n1 0.8: edge(3,1).")
        assert system.graph.executions() == scratch_graph.executions()
        for key in ("path(1,1)", "path(3,2)"):
            incremental = extract_polynomial(system.graph, key)
            from_scratch = extract_polynomial(scratch_graph, key)
            assert incremental == from_scratch

    def test_probability_map_includes_new_fact(self):
        system = live(TC)
        system.add_fact(Fact(make_atom("edge", 3, 4), 0.3, "n1"))
        assert system.graph.probability_map()[
            tuple_literal("edge(3,4)")] == 0.3
        assert system.probabilities[tuple_literal("edge(3,4)")] == 0.3


class TestCaptureTablesGrow:
    def test_tables_follow_insertions(self):
        system = live(TC)
        table = system._engine.firings

        def expected_rows():
            return sum(1 + len(set(execution.body))
                       for execution in system.graph.executions())

        assert table.row_count() == expected_rows()
        system.add_fact(Fact(make_atom("edge", 3, 4), 1.0, "n1"))
        assert len(table) == firings(system)
        assert table.row_count() == expected_rows()
        rebuilt = ProvenanceGraph()
        add_firings(rebuilt, system._engine)
        assert rebuilt.executions() == system.graph.executions()
        assert system.database.relations() == ["edge", "path"]


CHAIN = """
t1 0.5: edge(1,2).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
"""

#: Two new facts sharing one label: the batch must be refused whole.
CLASHING_BATCH = ["n1 0.5: edge(2,3).", "n1 0.5: edge(3,4)."]


class TestBatchIsAllOrNothing:
    def assert_untouched(self, system):
        assert [str(fact.atom) for fact in system.program.facts] == [
            "edge(1,2)"]
        assert system.epoch == 0

    def test_full_grounding(self):
        system = P3.from_source(CHAIN)
        system.evaluate()
        with pytest.raises(ClauseError):
            system.add_facts(CLASHING_BATCH)
        self.assert_untouched(system)
        assert not system.holds("path(1,3)")
        assert graph_bytes(system) == graph_bytes(live(CHAIN))

    def test_query_grounding(self):
        system = P3.from_source(CHAIN, P3Config(grounding="query"))
        system.evaluate()
        with pytest.raises(ClauseError):
            system.add_facts(CLASHING_BATCH)
        self.assert_untouched(system)
        assert not system.holds("path(1,3)")
        assert system.holds("path(1,2)")

    def test_not_yet_evaluated(self):
        system = P3.from_source(CHAIN)
        with pytest.raises(ClauseError):
            system.add_facts(CLASHING_BATCH)
        self.assert_untouched(system)
        system.evaluate()
        assert not system.holds("path(1,3)")

    def test_label_clash_with_the_program(self):
        system = P3.from_source(CHAIN)
        system.evaluate()
        with pytest.raises(ClauseError):
            system.add_facts(["n1 0.5: edge(2,3).", "t1 0.5: edge(3,4)."])
        self.assert_untouched(system)

    def test_auto_labels_avoid_the_batch_labels(self):
        system = P3.from_source(CHAIN)
        system.evaluate()
        system.add_facts(["0.5: edge(2,3).", "t2 0.5: edge(3,4)."])
        assert sorted(fact.label for fact in system.program.facts) == [
            "t1", "t2", "t3"]


class TestBaseFactOverDerivedRow:
    """Inserting a base fact whose tuple is already derived adds a base
    derivation (and its literal) without adding a row."""

    INSERTED = "p9 0.4: path(1,2)."

    def test_matches_from_scratch(self):
        system = live(CHAIN)
        assert system.probability_of("path(1,2)", method="bdd") == \
            pytest.approx(0.5)
        system.add_facts(self.INSERTED)
        fresh = live(CHAIN + self.INSERTED)
        assert system.epoch == 1
        assert system.probability_of("path(1,2)", method="bdd") == \
            pytest.approx(0.7)
        assert fresh.probability_of("path(1,2)", method="bdd") == \
            pytest.approx(0.7)
        assert system.probabilities == fresh.probabilities
        assert graph_bytes(system) == graph_bytes(fresh)

    def test_query_grounding_agrees(self):
        system = P3.from_source(CHAIN, P3Config(grounding="query"))
        system.evaluate()
        system.add_facts(self.INSERTED)
        assert system.probability_of("path(1,2)", method="bdd") == \
            pytest.approx(0.7)

    def test_repeat_is_a_duplicate(self):
        system = live(CHAIN)
        system.add_facts(self.INSERTED)
        system.add_facts("p10 0.9: path(1,2).")
        assert system.epoch == 1
        assert system.probability_of("path(1,2)", method="bdd") == \
            pytest.approx(0.7)


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
        system = live(source)
        for index, (a, b) in enumerate(later):
            system.add_fact(Fact(make_atom("edge", a, b), 0.5,
                                 "x%d" % index))

        full_source = source + "\n" + "\n".join(
            "x%d 0.5: edge(%d,%d)." % (i, a, b)
            for i, (a, b) in enumerate(later))
        expected, count, _ = scratch(full_source)
        assert atoms(system.database) == expected
        assert firings(system) == count
