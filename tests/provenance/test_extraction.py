"""Unit tests for polynomial extraction and cycle removal."""

import pytest

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.inference.exact import exact_probability
from repro.provenance.extraction import (
    ExtractionError,
    extract_polynomial,
    extract_unrolled,
)
from repro.provenance.graph import (
    ProvenanceGraph, add_firings, register_program)
from repro.provenance.polynomial import (
    Polynomial,
    rule_literal,
    tuple_literal,
)


def build(source):
    program = parse_program(source)
    engine = Engine(program)
    engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return graph


class TestAcyclicExtraction:
    def test_single_derivation(self):
        graph = build("""
            t1 0.5: p(1).
            r1 0.8: d(X) :- p(X).
        """)
        poly = extract_polynomial(graph, "d(1)")
        assert poly == Polynomial.of([rule_literal("r1"),
                                      tuple_literal("p(1)")])

    def test_alternative_derivations(self):
        graph = build("""
            t1 0.5: p(1).
            t2 0.5: q(1).
            r1 1.0: d(X) :- p(X).
            r2 1.0: d(X) :- q(X).
        """)
        poly = extract_polynomial(graph, "d(1)")
        assert len(poly) == 2

    def test_conjunction(self):
        graph = build("""
            t1 0.5: p(1).
            t2 0.5: q(1).
            r1 1.0: d(X) :- p(X), q(X).
        """)
        poly = extract_polynomial(graph, "d(1)")
        [monomial] = list(poly)
        assert len(monomial) == 3  # r1, p(1), q(1)

    def test_nested_derived_tuples_expand(self):
        graph = build("""
            t1 0.5: p(1).
            r1 1.0: mid(X) :- p(X).
            r2 1.0: top(X) :- mid(X).
        """)
        poly = extract_polynomial(graph, "top(1)")
        literals = poly.literals()
        assert tuple_literal("p(1)") in literals
        assert tuple_literal("mid(1)") not in literals

    def test_base_tuple_extraction(self):
        graph = build("t1 0.5: p(1).")
        assert extract_polynomial(graph, "p(1)") == Polynomial.of(
            [tuple_literal("p(1)")])

    def test_unknown_tuple_raises(self):
        graph = build("t1 0.5: p(1).")
        with pytest.raises(KeyError):
            extract_polynomial(graph, "missing(1)")

    def test_underivable_tuple_is_zero(self):
        # A tuple key present only as rule input that is not base: cannot
        # happen from real evaluation, so check via a constructed graph.
        from repro.provenance.graph import ProvenanceGraph, RuleExecution
        graph = ProvenanceGraph()
        graph.add_execution(RuleExecution("r1", "d(1)", ("ghost(1)",), 1.0))
        assert extract_polynomial(graph, "d(1)").is_zero

    def test_rule_literal_shared_across_executions(self):
        # Both firings of r1 must map to the SAME rule literal (ProbLog
        # semantics: the clause is one random variable).
        graph = build("""
            t1 0.5: p(1).
            t2 0.5: p(2).
            r1 1.0: d(X) :- p(X).
            r2 1.0: both(X,Y) :- d(X), d(Y), X!=Y.
        """)
        poly = extract_polynomial(graph, "both(1,2)")
        assert poly.rule_literals() == frozenset(
            {rule_literal("r1"), rule_literal("r2")})


CYCLIC = """
t1 0.9: trust(1,2).
t2 0.8: trust(2,1).
t3 0.7: trust(2,3).
r1 1.0: tp(X,Y) :- trust(X,Y).
r2 1.0: tp(X,Z) :- trust(X,Y), tp(Y,Z).
"""


class TestCyclicExtraction:
    def test_terminates_and_contains_only_base_and_rule_literals(self):
        graph = build(CYCLIC)
        poly = extract_polynomial(graph, "tp(1,3)")
        for literal in poly.literals():
            assert literal.is_rule or literal.key.startswith("trust(")

    def test_cycle_free_derivations_only(self):
        graph = build(CYCLIC)
        poly = extract_polynomial(graph, "tp(1,3)")
        # Only derivation: trust(1,2) then trust(2,3); the 1->2->1->2->3
        # path revisits tp and must be absent.
        assert len(poly) == 1

    def test_unrolled_equals_cycle_free_probability(self):
        graph = build(CYCLIC)
        probs = graph.probability_map()
        baseline = exact_probability(
            extract_polynomial(graph, "tp(1,1)"), probs)
        for rounds in (1, 2):
            unrolled = extract_unrolled(graph, "tp(1,1)", rounds)
            assert exact_probability(unrolled, probs) == pytest.approx(
                baseline)

    def test_unrolled_rejects_negative_rounds(self):
        graph = build(CYCLIC)
        with pytest.raises(ValueError):
            extract_unrolled(graph, "tp(1,1)", -1)

    def test_base_and_derived_tuple_keeps_base_literal(self):
        # know("Ben","Steve") is base and re-derivable through a cycle; its
        # polynomial must include the base literal even when blocked.
        from repro.data import ACQUAINTANCE
        graph = build(ACQUAINTANCE)
        poly = extract_polynomial(graph, 'know("Ben","Steve")')
        assert tuple_literal('know("Ben","Steve")') in poly.literals()
        # Cycle-free: the base literal alone absorbs everything else.
        assert poly == Polynomial.of([tuple_literal('know("Ben","Steve")')])


class TestHopLimit:
    CHAIN = """
    t1 0.5: edge(1,2).
    t2 0.5: edge(2,3).
    t3 0.5: edge(3,4).
    r1 1.0: path(X,Y) :- edge(X,Y).
    r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
    """

    def test_unbounded_reaches_deep(self):
        graph = build(self.CHAIN)
        poly = extract_polynomial(graph, "path(1,4)")
        assert not poly.is_zero

    def test_tight_limit_blocks_deep_derivations(self):
        graph = build(self.CHAIN)
        poly = extract_polynomial(graph, "path(1,4)", hop_limit=2)
        assert poly.is_zero

    def test_limit_exactly_sufficient(self):
        graph = build(self.CHAIN)
        # path(1,4) needs 3 nested derived expansions.
        poly = extract_polynomial(graph, "path(1,4)", hop_limit=3)
        assert not poly.is_zero

    def test_limit_prunes_alternatives(self):
        graph = build("""
            t1 0.5: edge(1,2).
            t2 0.5: edge(2,3).
            t3 0.5: direct(1,3).
            r1 1.0: path(X,Y) :- edge(X,Y).
            r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
            r3 1.0: path(X,Y) :- direct(X,Y).
        """)
        full = extract_polynomial(graph, "path(1,3)")
        limited = extract_polynomial(graph, "path(1,3)", hop_limit=1)
        assert len(full) == 2
        assert len(limited) == 1  # only the direct derivation survives


class TestBudget:
    def test_max_monomials_enforced(self):
        source_lines = []
        for index in range(8):
            source_lines.append("p%d 0.5: p(%d)." % (index + 1, index))
            source_lines.append("q%d 1.0: q(%d)." % (index + 1, index))
        source_lines.append("r1 1.0: d(X) :- p(X), q(X).")
        source_lines.append("r2 1.0: any(1) :- d(X).")
        graph = build("\n".join(source_lines))
        with pytest.raises(ExtractionError):
            extract_polynomial(graph, "any(1)", max_monomials=3)

    def test_budget_not_triggered_when_large_enough(self):
        graph = build("""
            t1 0.5: p(1).
            r1 1.0: d(X) :- p(X).
        """)
        poly = extract_polynomial(graph, "d(1)", max_monomials=10)
        assert len(poly) == 1


class TestMemoisation:
    def test_shared_subtuple_extracted_consistently(self):
        # Diamond: top needs mid1 and mid2, both of which need bottom.
        graph = build("""
            t1 0.5: bottom(1).
            r1 1.0: mid1(X) :- bottom(X).
            r2 1.0: mid2(X) :- bottom(X).
            r3 1.0: top(X) :- mid1(X), mid2(X).
        """)
        poly = extract_polynomial(graph, "top(1)")
        [monomial] = list(poly)
        # bottom(1) appears once (idempotent conjunction).
        assert tuple_literal("bottom(1)") in monomial.literals
        assert len(monomial) == 4  # r1 r2 r3 bottom


class TestExtractMany:
    def test_matches_individual_extraction(self):
        graph = build(CYCLIC)
        roots = sorted(key for key in graph.tuple_keys()
                       if key.startswith("tp("))
        from repro.provenance.extraction import extract_many
        batch = extract_many(graph, roots)
        for key in roots:
            assert batch[key] == extract_polynomial(graph, key)

    def test_hop_limit_respected(self):
        graph = build(TestHopLimit.CHAIN)
        from repro.provenance.extraction import extract_many
        batch = extract_many(graph, ["path(1,4)"], hop_limit=2)
        assert batch["path(1,4)"].is_zero

    def test_unknown_root_raises(self):
        graph = build(CYCLIC)
        from repro.provenance.extraction import extract_many
        with pytest.raises(KeyError):
            extract_many(graph, ["ghost(1)"])

    def test_shared_memo_is_faster_not_wrong(self):
        # On the trust fragment, batch extraction over every trustPath
        # tuple must agree with per-tuple extraction.
        from repro.data import paper_fragment
        from repro.provenance.extraction import extract_many
        program = paper_fragment().to_program()
        engine = Engine(program)
        engine.run()
        graph = ProvenanceGraph()
        register_program(graph, program)
        add_firings(graph, engine)
        roots = sorted(key for key in graph.tuple_keys()
                       if key.startswith("trustPath("))
        batch = extract_many(graph, roots, hop_limit=6)
        for key in roots:
            assert batch[key] == extract_polynomial(graph, key, hop_limit=6)
