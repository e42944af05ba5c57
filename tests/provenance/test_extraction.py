"""Unit tests for polynomial extraction and cycle removal."""

import pytest

from repro.audit.generator import generate_cases
from repro.core.errors import BudgetExceededError
from repro.core.system import P3
from repro.data import paper_fragment
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
from repro.resilience.budgets import ResourceBudget, activate_budget


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


def fragment_system():
    p3 = P3(paper_fragment().to_program())
    p3.evaluate()
    return p3


def assert_well_formed_partial(partial, full, probabilities):
    """A budget partial must under-approximate the full polynomial."""
    for monomial in partial:
        assert any(complete.subsumes(monomial) for complete in full), \
            "partial monomial %r is not a derivation of the root" % (
                monomial,)
    assert exact_probability(partial, probabilities) <= \
        exact_probability(full, probabilities) + 1e-12


def budgeted_partial(graph, key, budget, hop_limit=None):
    """Extract under ``budget``; the polynomial, or the escaping error's
    root-level partial when the budget trips."""
    with activate_budget(budget):
        try:
            return extract_polynomial(graph, key, hop_limit=hop_limit), None
        except BudgetExceededError as exc:
            assert isinstance(exc.partial, Polynomial), \
                "budget error lost its partial"
            return exc.partial, exc.resource


class TestRootPartials:
    """A :class:`BudgetExceededError` escaping extraction carries a
    well-formed under-approximation: every monomial of its ``partial``
    is a complete derivation of the root, so its probability is a sound
    lower bound (the executor answers it as a partial outcome)."""

    #: Caps chosen to trip at different extraction depths.
    CAPS = (1, 2, 5, 11)

    def test_partial_on_monomial_budget(self):
        p3 = fragment_system()
        key = "mutualTrustPath(1,6)"
        full = p3.polynomial_of(key)
        assert len(full) > 1, "fixture too small to trip the budget"
        partial, resource = budgeted_partial(
            p3.graph, key, ResourceBudget(max_monomials=1))
        assert resource == "monomials"
        assert_well_formed_partial(partial, full, p3.probabilities)

    def test_partial_on_node_visit_budget(self):
        p3 = fragment_system()
        key = "mutualTrustPath(1,6)"
        partial, resource = budgeted_partial(
            p3.graph, key, ResourceBudget(max_node_visits=3))
        assert resource == "node_visits"
        assert_well_formed_partial(partial, p3.polynomial_of(key),
                                   p3.probabilities)

    def _check_case(self, case):
        p3 = P3.from_source(case.program_source)
        p3.evaluate()
        full = p3.polynomial_of(case.query_key, hop_limit=case.hop_limit)
        for cap in self.CAPS:
            for budget in (ResourceBudget(max_node_visits=cap),
                           ResourceBudget(max_monomials=cap)):
                partial, _ = budgeted_partial(
                    p3.graph, case.query_key, budget,
                    hop_limit=case.hop_limit)
                assert_well_formed_partial(partial, full, p3.probabilities)

    def test_program_cases_yield_sound_partials(self):
        cases = generate_cases(30, seed=2020, include_corpus=True,
                               include_programs=True)
        program_cases = [case for case in cases if case.is_program_case]
        assert program_cases, "sweep generated no program cases"
        for case in program_cases:
            self._check_case(case)

    def test_random_program_cases_second_seed(self):
        cases = generate_cases(20, seed=77, include_corpus=False,
                               include_programs=True)
        program_cases = [case for case in cases if case.is_program_case]
        assert program_cases, "sweep generated no program cases"
        for case in program_cases:
            self._check_case(case)


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
