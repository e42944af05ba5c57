"""Unit tests for the Influence Query."""

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.provenance.polynomial import rule_literal, tuple_literal
from repro.queries.influence import (
    exact_influence,
    influence_query,
    mc_influence,
    parallel_influence,
    top_k_influence,
)


class TestDefinition:
    """Definition 4.1 on small formulas."""

    def test_counterfactual_literal_has_full_influence(self):
        poly = make_polynomial(("a",))
        a = tuple_literal("a")
        assert exact_influence(poly, {a: 0.5}, a) == pytest.approx(1.0)

    def test_literal_in_one_of_two_branches(self):
        poly = make_polynomial(("a",), ("b",))
        a, b = tuple_literal("a"), tuple_literal("b")
        # Inf_a = 1 - P[b] (a decides unless b already true).
        assert exact_influence(poly, {a: 0.5, b: 0.3}, a) == pytest.approx(0.7)

    def test_absent_literal_zero_influence(self):
        poly = make_polynomial(("a",))
        a, b = tuple_literal("a"), tuple_literal("b")
        assert exact_influence(poly, {a: 0.5, b: 0.5}, b) == 0.0

    def test_influence_independent_of_own_probability(self):
        poly = make_polynomial(("a", "b"))
        a, b = tuple_literal("a"), tuple_literal("b")
        low = exact_influence(poly, {a: 0.1, b: 0.7}, a)
        high = exact_influence(poly, {a: 0.9, b: 0.7}, a)
        assert low == pytest.approx(high)

    def test_monotone_dnf_influence_nonnegative(self):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("d",))
        probs = random_probabilities(poly, seed=6)
        for literal in poly.literals():
            assert exact_influence(poly, probs, literal) >= 0.0


class TestTable2:
    """The paper's Table 2 on the Acquaintance example (exact values)."""

    def test_ranking(self, acquaintance):
        poly = acquaintance.polynomial_of("know", "Ben", "Elena")
        report = influence_query(poly, acquaintance.probabilities)
        ranking = [str(lit) for lit in report.ranking()]
        assert ranking[0] == "r3"
        assert ranking[1] == "r1"
        assert ranking[2] == 'know("Ben","Steve")'

    def test_exact_values(self, acquaintance):
        poly = acquaintance.polynomial_of("know", "Ben", "Elena")
        report = influence_query(poly, acquaintance.probabilities)
        # Paper reports 0.896/0.2/0.1792 using the non-inclusion-exclusion
        # sum; the exact values are below (DESIGN.md §4).
        assert report.score_of(rule_literal("r3")) == pytest.approx(0.8192)
        assert report.score_of(rule_literal("r1")) == pytest.approx(0.1808)
        assert report.score_of(
            tuple_literal('know("Ben","Steve")')) == pytest.approx(0.16384)


class TestTrustQuery2B:
    """Query 2B: most influential trust tuples (paper values 0.51/0.48)."""

    def test_most_influential(self, trust_fragment):
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        report = influence_query(poly, trust_fragment.probabilities)
        tuples_only = report.filter(lambda lit: lit.is_tuple)
        first, second = tuples_only.top(2)
        assert str(first.literal) == "trust(6,2)"
        assert first.influence == pytest.approx(0.51, abs=0.01)
        assert str(second.literal) == "trust(2,6)"
        assert second.influence == pytest.approx(0.48, abs=0.01)

    def test_footnote3_ordering(self, trust_fragment):
        # trust(6,2) beats trust(2,1) because P[trust(2,1)]=0.9 nearly
        # guarantees the 6->1 path once trust(6,2) holds.
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        report = influence_query(poly, trust_fragment.probabilities)
        assert report.score_of(tuple_literal("trust(6,2)")) > report.score_of(
            tuple_literal("trust(2,1)"))


class TestMethods:
    def test_mc_matches_exact(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = {lit: 0.5 for lit in poly.literals()}
        a = tuple_literal("a")
        truth = exact_influence(poly, probs, a)
        estimate = mc_influence(poly, probs, a, samples=40000, seed=1)
        assert estimate == pytest.approx(truth, abs=0.02)

    def test_parallel_matches_exact(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = {lit: 0.5 for lit in poly.literals()}
        a = tuple_literal("a")
        truth = exact_influence(poly, probs, a)
        estimate = parallel_influence(poly, probs, a, samples=40000, seed=1)
        assert estimate == pytest.approx(truth, abs=0.02)

    def test_query_method_dispatch(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = {lit: 0.5 for lit in poly.literals()}
        for method in ("exact", "mc", "parallel"):
            report = influence_query(poly, probs, method=method,
                                     samples=20000, seed=2)
            assert len(report) == 3
            assert report.method == method

    def test_unknown_method(self):
        poly = make_polynomial(("a",))
        with pytest.raises(ValueError):
            influence_query(poly, {tuple_literal("a"): 0.5}, method="nope")

    def test_mc_rejects_nonpositive_samples(self):
        poly = make_polynomial(("a",))
        with pytest.raises(ValueError):
            mc_influence(poly, {tuple_literal("a"): 0.5},
                         tuple_literal("a"), samples=0)


class TestCircuitGradient:
    """Exact influence is one compile and one gradient pass per query."""

    def test_one_compile_per_query(self, trust_fragment, monkeypatch):
        from repro.inference.circuit import Circuit
        compiles = []
        compile_ = Circuit.compile

        def spy(polynomial):
            compiles.append(polynomial)
            return compile_(polynomial)

        monkeypatch.setattr(Circuit, "compile", spy)
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        report = influence_query(poly, trust_fragment.probabilities)
        assert len(report) == len(poly.literals())
        assert compiles == [poly]

    def test_matches_pinned_brute_force(self, trust_fragment):
        from repro.inference.exact import brute_force_probability
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        probs = trust_fragment.probabilities
        report = influence_query(poly, probs)
        for score in report:
            pinned = dict(probs)
            pinned[score.literal] = 1.0
            high = brute_force_probability(poly, pinned)
            pinned[score.literal] = 0.0
            low = brute_force_probability(poly, pinned)
            assert abs(score.influence - (high - low)) <= 1e-12

    def test_budget_exceeded_is_typed(self, trust_fragment):
        from repro.core.errors import BudgetExceededError
        from repro.resilience.budgets import ResourceBudget, activate_budget
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        with activate_budget(ResourceBudget(max_compiled_bytes=1024)):
            with pytest.raises(BudgetExceededError):
                influence_query(poly, trust_fragment.probabilities)


class TestReport:
    def test_top_k(self):
        poly = make_polynomial(("a",), ("b", "c"))
        probs = {lit: 0.5 for lit in poly.literals()}
        top = top_k_influence(poly, probs, k=2)
        assert len(top) == 2
        assert top[0].influence >= top[1].influence

    def test_filter(self):
        poly = make_polynomial(("r1", "a"), ("b",))
        probs = {lit: 0.5 for lit in poly.literals()}
        report = influence_query(poly, probs)
        rules_only = report.filter(lambda lit: lit.is_rule)
        assert all(score.literal.is_rule for score in rules_only)

    def test_score_of_missing_literal(self):
        poly = make_polynomial(("a",))
        report = influence_query(poly, {tuple_literal("a"): 0.5})
        with pytest.raises(KeyError):
            report.score_of(tuple_literal("zz"))

    def test_explicit_literal_subset(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = {lit: 0.5 for lit in poly.literals()}
        subset = [tuple_literal("a")]
        report = influence_query(poly, probs, literals=subset)
        assert len(report) == 1

    def test_empty_report(self):
        from repro.queries.influence import InfluenceReport
        report = InfluenceReport([], "exact")
        assert report.most_influential is None
        assert len(report) == 0
