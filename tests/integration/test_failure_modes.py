"""Failure-injection and edge-case integration tests.

Production users hit limits, degenerate inputs, and odd data long before
they hit the happy path.  These tests pin down the behaviour at those
edges: configured budgets fire the right exceptions, degenerate
probabilities stay exact, odd constants round-trip, and deep recursion
stays within Python's limits at realistic scales.
"""

import pytest

from repro import P3, P3Config
from repro.core.errors import UnknownTupleError
from repro.datalog.engine import EvaluationError
from repro.provenance.extraction import ExtractionError


class TestEngineLimits:
    def test_max_tuples_surfaces_through_facade(self):
        source = "\n".join(
            ["edge(%d,%d)." % (i, i + 1) for i in range(20)]
            + ["r1 1.0: path(X,Y) :- edge(X,Y).",
               "r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z)."])
        p3 = P3.from_source(source, P3Config(max_tuples=10))
        with pytest.raises(EvaluationError):
            p3.evaluate()

    def test_max_rounds_surfaces_through_facade(self):
        source = """
            edge(1,2). edge(2,3). edge(3,4).
            r1 1.0: path(X,Y) :- edge(X,Y).
            r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
        """
        p3 = P3.from_source(source, P3Config(max_rounds=1))
        with pytest.raises(EvaluationError):
            p3.evaluate()

    def test_generous_limits_do_not_fire(self):
        p3 = P3.from_source("p(1). r1 1.0: q(X) :- p(X).",
                            P3Config(max_rounds=50, max_tuples=1000))
        p3.evaluate()
        assert p3.holds("q", 1)


class TestExtractionBudget:
    def test_max_monomials_surfaces_through_facade(self):
        lines = []
        for index in range(10):
            lines.append("p%d 0.5: p(%d)." % (index, index))
        lines.append("r1 1.0: d(X) :- p(X).")
        lines.append("r2 1.0: agg(1) :- d(X).")
        p3 = P3.from_source("\n".join(lines), P3Config(max_monomials=3))
        p3.evaluate()
        with pytest.raises(ExtractionError):
            p3.polynomial_of("agg", 1)


class TestDegeneratePrograms:
    def test_empty_program(self):
        p3 = P3.from_source("")
        result = p3.evaluate()
        assert result.derived_count == 0
        assert result.firing_count == 0

    def test_facts_only(self):
        p3 = P3.from_source("t1 0.5: p(1). t2 1.0: q(2).")
        p3.evaluate()
        assert p3.probability_of("p", 1) == 0.5
        assert p3.probability_of("q", 2) == 1.0

    def test_rules_without_matching_facts(self):
        p3 = P3.from_source("r1 1.0: q(X) :- nothing(X). seed(0).")
        p3.evaluate()
        assert not p3.holds("q", 0)
        with pytest.raises(UnknownTupleError):
            p3.polynomial_of("q", 0)

    def test_zero_probability_fact(self):
        p3 = P3.from_source("t1 0.0: p(1). r1 1.0: q(X) :- p(X).")
        p3.evaluate()
        # Derivable in the logical sense, probability zero.
        assert p3.holds("q", 1)
        assert p3.probability_of("q", 1) == 0.0

    def test_all_certain_program(self):
        p3 = P3.from_source("""
            live("a","x"). live("b","x").
            r1 1.0: know(P,Q) :- live(P,C), live(Q,C), P != Q.
        """)
        p3.evaluate()
        assert p3.probability_of("know", "a", "b") == 1.0


class TestOddConstants:
    def test_unicode_constants(self):
        p3 = P3.from_source('t1 0.7: name("café", "北京").')
        p3.evaluate()
        assert p3.probability_of("name", "café", "北京") == 0.7

    def test_constants_with_special_characters(self):
        p3 = P3.from_source('t1 0.5: path("a/b", "c d (e)").')
        p3.evaluate()
        assert p3.holds("path", "a/b", "c d (e)")

    def test_mixed_type_constants(self):
        p3 = P3.from_source('t1 0.5: rec(1, 2.5, "three").')
        p3.evaluate()
        assert p3.probability_of("rec", 1, 2.5, "three") == 0.5

    def test_int_vs_string_distinct(self):
        p3 = P3.from_source('t1 0.5: p(1). t2 0.9: p("1").')
        p3.evaluate()
        assert p3.probability_of("p", 1) == 0.5
        assert p3.probability_of("p", "1") == 0.9


class TestDeepRecursion:
    def test_long_chain_evaluates_and_extracts(self):
        length = 150
        lines = ["edge(%d,%d)." % (i, i + 1) for i in range(length)]
        lines.append("r1 1.0: path(X,Y) :- edge(X,Y).")
        lines.append("r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).")
        p3 = P3.from_source("\n".join(lines))
        p3.evaluate()
        key = "path(0,%d)" % length
        assert p3.holds(key)
        poly = p3.polynomial_of(key)
        assert len(poly) == 1
        assert p3.probability_of(key) == 1.0

    def test_wide_fanout(self):
        lines = ["t%d 0.5: src(%d)." % (i, i) for i in range(100)]
        lines.append("r1 1.0: any(1) :- src(X).")
        p3 = P3.from_source("\n".join(lines))
        p3.evaluate()
        poly = p3.polynomial_of("any", 1)
        assert len(poly) == 100
        # Exact inference still fine: independent union.
        expected = 1.0 - 0.5 ** 100
        assert p3.probability_of("any", 1) == pytest.approx(expected)


class TestQueryRobustness:
    def test_influence_on_certain_polynomial(self, acquaintance):
        report = acquaintance.influence("know", "Ben", "Steve")
        # The tuple is certain (base p=1): nothing can influence it except
        # itself being counterfactual.
        top = report.most_influential
        assert top.influence == pytest.approx(1.0)

    def test_modification_of_certain_tuple_downward(self, acquaintance):
        plan = acquaintance.modify("know", "Ben", "Steve", target=0.4)
        assert plan.reached
        updated = plan.updated_probabilities(acquaintance.probabilities)
        from repro.inference import exact_probability
        poly = acquaintance.polynomial_of("know", "Ben", "Steve")
        assert exact_probability(poly, updated) == pytest.approx(0.4)

    def test_sufficient_provenance_on_single_monomial(self, acquaintance):
        result = acquaintance.sufficient_provenance(
            "live", "Steve", "DC", epsilon=0.5, method="naive")
        assert len(result.sufficient) == 1
