"""Equivalence tests for the query-directed grounder.

The contract: ``ground_goal`` returns a provenance subgraph already
normalized to the *original* program (no magic/adorned artifacts), and
every answer's polynomial is byte-identical to what full evaluation
produces for the same key.  The adversarial shapes here — constants in
rule bodies, several adornments of one relation in a single batch,
mutual recursion — are exactly the ones that bend magic-set label
bookkeeping out of shape.
"""

import pytest

from repro.data import ACQUAINTANCE, paper_fragment
from repro.datalog.engine import Engine, EvaluationError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Atom, Constant, Variable, atom as make_atom
from repro.ground import FactStore, ground_goal
from repro.provenance import (
    ProvenanceGraph, add_firings, extract_polynomial, register_program)

TC = """
edge(1,2). edge(2,3). edge(3,4). edge(4,5). edge(10,11).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
"""


def full_graph(source_or_program):
    program = (parse_program(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    engine = Engine(program)
    engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return graph


def assert_matches_full(source_or_program, pattern, expected_answers=None):
    """Ground ``pattern`` and compare every answer against full evaluation."""
    program = (parse_program(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    goal = ground_goal(program, pattern)
    full = full_graph(program)
    if expected_answers is not None:
        assert sorted(goal.answers) == sorted(expected_answers)
    assert goal.answers, "goal derived nothing"
    for key in goal.answers:
        assert key in full, key
        assert extract_polynomial(goal.graph, key) == \
            extract_polynomial(full, key), key
    return goal, full


class TestEquivalence:
    def test_ground_query_transitive_closure(self):
        goal, _ = assert_matches_full(
            TC, make_atom("path", 1, 4), ["path(1,4)"])
        # Relevance: the disconnected 10-11 component must not appear.
        assert not any("10" in key for key in goal.graph.tuple_keys())

    def test_pattern_query_matches_full_answers(self):
        pattern = Atom("path", (Constant(1), Variable("X")))
        expected = ["path(1,%d)" % n for n in (2, 3, 4, 5)]
        assert_matches_full(TC, pattern, expected)

    def test_trust_fragment(self):
        assert_matches_full(paper_fragment().to_program(),
                            make_atom("mutualTrustPath", 1, 6),
                            ["mutualTrustPath(1,6)"])

    def test_acquaintance_idb_with_base_facts(self):
        # know/2 is IDB *and* has base facts: exercises the bridge-rule
        # collapse and base-tuple re-registration.
        assert_matches_full(ACQUAINTANCE,
                            make_atom("know", "Ben", "Elena"),
                            ['know("Ben","Elena")'])

    def test_no_magic_artifacts(self):
        goal, _ = assert_matches_full(
            paper_fragment().to_program(),
            make_atom("mutualTrustPath", 1, 6))
        for key in goal.graph.tuple_keys():
            assert "@" not in key and not key.startswith("m_")
        for execution in goal.graph.executions():
            assert "@" not in execution.rule_label
            assert not execution.rule_label.startswith("mg")

    def test_subgraph_of_full(self):
        goal, full = assert_matches_full(
            paper_fragment().to_program(),
            make_atom("mutualTrustPath", 1, 6))
        assert goal.graph.tuple_keys() <= full.tuple_keys()
        assert goal.graph.executions() <= full.executions()


class TestAdversarialShapes:
    def test_constants_in_rule_bodies(self):
        # A constant in the body atom binds a column before any variable
        # does; the compiled plan must treat it as a bound index column.
        source = """
        e(1,2). e(2,3). e(1,3). e(3,4).
        r1 0.9: hub(X) :- e(1,X).
        r2 0.8: hop(X,Y) :- hub(X), e(X,Y).
        r3 0.7: report(Y) :- hop(2,Y).
        """
        assert_matches_full(source, make_atom("report", 3), ["report(3)"])

    def test_constant_in_head(self):
        source = """
        e(1,2). e(2,3).
        r1 0.9: tagged(X,7) :- e(X,Y).
        """
        assert_matches_full(source, make_atom("tagged", 1, 7),
                            ["tagged(1,7)"])

    def test_repeated_variable_in_body_atom(self):
        # self(X) :- e(X,X): both columns bind the same slot; the second
        # occurrence is a post-row equality check, not an index lookup.
        source = """
        e(1,1). e(1,2). e(3,3).
        r1 0.9: self(X) :- e(X,X).
        """
        assert_matches_full(source, Atom("self", (Variable("X"),)),
                            ["self(1)", "self(3)"])

    def test_multiple_adornments_single_batch(self):
        # One grounding pass whose rules demand p under both bf and bb:
        # the label map must keep every adorned copy pointing at the
        # original rule label.
        source = """
        e(1,2). e(2,3). e(3,1). e(2,4).
        r1 0.9: p(X,Y) :- e(X,Y).
        r2 0.8: p(X,Z) :- e(X,Y), p(Y,Z).
        r3 0.7: q(X) :- p(1,X), p(X,4).
        """
        # The e-cycle 1->2->3->1 plus e(2,4) makes q derivable for all of
        # 1, 2, 3 (each reaches 4 and is reachable from 1).
        assert_matches_full(source, Atom("q", (Variable("X"),)),
                            ["q(1)", "q(2)", "q(3)"])

    def test_mutual_recursion(self):
        source = """
        e(1,2). e(2,3). e(3,4).
        r1 0.9: even(X,Y) :- e(X,Y), e(Y,Y2), odd(Y2,Y2).
        r2 0.8: even(X,X) :- e(X,Y).
        r3 0.7: odd(X,X) :- e(X,Y).
        r4 0.6: odd(X,Z) :- even(X,Y), e(Y,Z).
        """
        pattern = Atom("odd", (Constant(1), Variable("Z")))
        assert_matches_full(source, pattern)

    def test_comparison_guards(self):
        source = """
        t1 0.9: trust(1,2). t2 0.8: trust(2,3). t3 0.7: trust(3,1).
        r1 1.0: tp(X,Y) :- trust(X,Y).
        r2 1.0: tp(X,Z) :- trust(X,Y), tp(Y,Z), X!=Z.
        """
        assert_matches_full(source, make_atom("tp", 1, 3), ["tp(1,3)"])


class TestBudgets:
    def test_max_rounds_raises_evaluation_error(self):
        program = parse_program(TC)
        with pytest.raises(EvaluationError, match="max_rounds"):
            ground_goal(program, make_atom("path", 1, 5), max_rounds=1)

    def test_max_tuples_raises_evaluation_error(self):
        program = parse_program(TC)
        with pytest.raises(EvaluationError, match="max_tuples"):
            ground_goal(program, make_atom("path", 1, 5), max_tuples=6)

    def test_generous_budgets_pass(self):
        program = parse_program(TC)
        goal = ground_goal(program, make_atom("path", 1, 5),
                           max_rounds=100, max_tuples=10_000)
        assert goal.answers == ["path(1,5)"]


class TestSharedBaseStore:
    def test_two_goals_share_one_base_store(self):
        program = parse_program(TC)
        base = FactStore.from_program(program)
        count_before = base.count()
        goal_a = ground_goal(program, make_atom("path", 1, 3),
                             base_store=base)
        goal_b = ground_goal(program, make_atom("path", 2, 5),
                             base_store=base)
        # Grounding never mutates the shared base.
        assert base.count() == count_before
        assert goal_a.answers == ["path(1,3)"]
        assert goal_b.answers == ["path(2,5)"]

    def test_stats_populated(self):
        goal = ground_goal(parse_program(TC), make_atom("path", 1, 4))
        assert goal.stats["rounds"] >= 1
        assert goal.stats["firings"] >= 1
        assert goal.stats["derived_rows"] >= 1
        assert goal.stats["total_rows"] >= goal.stats["derived_rows"]
