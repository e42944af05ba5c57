"""Unit tests for the ROBDD package."""

import itertools
import json
import pathlib
import random

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.core.errors import BudgetExceededError
from repro.inference import bdd as bdd_module
from repro.inference.bdd import (
    BDD,
    ONE,
    ZERO,
    bdd_probability,
    from_polynomial,
)
from repro.inference.exact import brute_force_probability
from repro.inference.registry import get_backend
from repro.io.serialize import polynomial_from_json
from repro.provenance.polynomial import Polynomial, tuple_literal

DATA = pathlib.Path(__file__).parent / "data"

A = tuple_literal("a")
B = tuple_literal("b")
C = tuple_literal("c")


class TestConstruction:
    def test_rejects_duplicate_order(self):
        with pytest.raises(ValueError):
            BDD([A, A])

    def test_variable_node(self):
        bdd = BDD([A])
        node = bdd.variable(A)
        assert not bdd.is_terminal(node)
        level, low, high = bdd.node(node)
        assert (level, low, high) == (0, ZERO, ONE)

    def test_hash_consing(self):
        bdd = BDD([A])
        assert bdd.variable(A) == bdd.variable(A)

    def test_terminals_have_no_structure(self):
        bdd = BDD([A])
        with pytest.raises(ValueError):
            bdd.node(ZERO)


class TestApply:
    def test_and(self):
        bdd = BDD([A, B])
        root = bdd.apply("and", bdd.variable(A), bdd.variable(B))
        assert bdd.evaluate(root, {A: True, B: True})
        assert not bdd.evaluate(root, {A: True, B: False})

    def test_or(self):
        bdd = BDD([A, B])
        root = bdd.apply("or", bdd.variable(A), bdd.variable(B))
        assert bdd.evaluate(root, {A: False, B: True})
        assert not bdd.evaluate(root, {A: False, B: False})

    def test_unknown_op(self):
        bdd = BDD([A])
        with pytest.raises(ValueError):
            bdd.apply("xor", ZERO, ONE)

    def test_terminal_shortcuts(self):
        bdd = BDD([A])
        var = bdd.variable(A)
        assert bdd.apply("and", var, ZERO) == ZERO
        assert bdd.apply("and", var, ONE) == var
        assert bdd.apply("or", var, ONE) == ONE
        assert bdd.apply("or", var, ZERO) == var

    def test_idempotence(self):
        bdd = BDD([A])
        var = bdd.variable(A)
        assert bdd.apply("and", var, var) == var
        assert bdd.apply("or", var, var) == var

    def test_reduction_collapses_redundant_tests(self):
        # a·b + a·¬b is just a; monotone inputs can't express ¬b directly,
        # but (a AND (b OR not-b-shaped)) arises via OR of cofactors:
        bdd = BDD([A, B])
        left = bdd.apply("and", bdd.variable(A), bdd.variable(B))
        root = bdd.apply("or", left, bdd.variable(A))
        assert root == bdd.variable(A)

    def test_conjoin_disjoin(self):
        bdd = BDD([A, B, C])
        root = bdd.disjoin([
            bdd.apply("and", bdd.variable(A), bdd.variable(B)),
            bdd.variable(C),
        ])
        assert bdd.evaluate(root, {A: True, B: True, C: False})
        assert bdd.evaluate(root, {A: False, B: False, C: True})
        assert not bdd.evaluate(root, {A: True, B: False, C: False})


class TestFromPolynomial:
    def test_zero(self):
        bdd, root = from_polynomial(Polynomial.zero())
        assert root == ZERO

    def test_one(self):
        bdd, root = from_polynomial(Polynomial.one())
        assert root == ONE

    def test_truth_table_equivalence(self):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("a", "c"))
        bdd, root = from_polynomial(poly)
        for values in itertools.product((False, True), repeat=3):
            assignment = dict(zip(sorted(poly.literals()), values))
            assert bdd.evaluate(root, assignment) == poly.evaluate(assignment)

    def test_explicit_order_respected(self):
        poly = make_polynomial(("a", "b"))
        bdd, root = from_polynomial(poly, order=[B, A])
        assert bdd.order == (B, A)
        assert bdd.evaluate(root, {A: True, B: True})


class TestProbability:
    def test_single_variable(self):
        poly = make_polynomial(("a",))
        assert bdd_probability(poly, {A: 0.3}) == pytest.approx(0.3)

    def test_matches_brute_force(self):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("a", "c"))
        probs = random_probabilities(poly, seed=3)
        assert bdd_probability(poly, probs) == pytest.approx(
            brute_force_probability(poly, probs))

    def test_independent_of_variable_order(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = random_probabilities(poly, seed=5)
        default = bdd_probability(poly, probs)
        reversed_order = bdd_probability(
            poly, probs, order=sorted(poly.literals(), reverse=True))
        assert default == pytest.approx(reversed_order)

    def test_terminal_polynomials(self):
        assert bdd_probability(Polynomial.zero(), {}) == 0.0
        assert bdd_probability(Polynomial.one(), {}) == 1.0


class TestDefaultOrder:
    def test_first_occurrence_in_str_sorted_monomials(self):
        # Monomials in str order: a·d, b·c, b·e.  A frequency order would
        # put b first.
        poly = make_polynomial(("c", "b"), ("a", "d"), ("b", "e"))
        bdd, _ = from_polynomial(poly)
        assert [str(literal) for literal in bdd.order] == [
            "a", "d", "b", "c", "e"]


class TestMonomialChains:
    def test_chain_builds_only_live_nodes(self):
        # One node per literal: no apply intermediates are left dead.
        bdd, root = from_polynomial(make_polynomial(("c", "a", "b")))
        assert len(bdd._nodes) == bdd.size(root) == 3


class TestTrustPathOrderRegression:
    """``trustPath(553,2469)`` on ``generate_network()``, query grounding,
    hop limit 4: 24 monomials over 54 literals.  A frequency variable
    order compiled it into 71,389 nodes."""

    @pytest.fixture(scope="class")
    def case(self):
        document = json.loads(
            (DATA / "trust_path_553_2469.json").read_text())
        polynomial = polynomial_from_json(document["polynomial"])
        probabilities = {literal: document["probabilities"][literal.key]
                         for literal in polynomial.literals()}
        return polynomial, probabilities

    def test_fixture_shape(self, case):
        polynomial, _ = case
        assert (len(polynomial), len(polynomial.literals())) == (24, 54)

    @pytest.mark.parametrize("name", ["exact", "bdd"])
    def test_value(self, case, name):
        polynomial, probabilities = case
        reading = get_backend(name).run(polynomial, probabilities)
        assert reading.value == pytest.approx(0.8812320204634623, abs=1e-12)

    def test_compiled_forest_stays_small(self, case):
        polynomial, _ = case
        bdd, _ = from_polynomial(polynomial)
        # The whole forest, not just the nodes reachable from the root.
        assert len(bdd._nodes) < 5000


class TestCounting:
    def test_model_count(self):
        poly = make_polynomial(("a",), ("b",))
        bdd, root = from_polynomial(poly)
        # a OR b over 2 variables: 3 models.
        assert bdd.model_count(root) == 3

    def test_satisfying_assignments_match_count(self):
        poly = make_polynomial(("a", "b"), ("c",))
        bdd, root = from_polynomial(poly)
        models = list(bdd.satisfying_assignments(root))
        assert len(models) == bdd.model_count(root)
        for model in models:
            assert poly.evaluate(model)

    def test_size_reporting(self):
        poly = make_polynomial(("a", "b"), ("c",))
        bdd, root = from_polynomial(poly)
        assert bdd.size(root) >= 3
        assert bdd.size(ZERO) == 0


class TestBalancedDisjoin:
    def test_same_root_as_left_fold(self):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("c", "d"),
                               ("a", "d"), ("e",))
        bdd, root = from_polynomial(poly)
        folded = ZERO
        for monomial in sorted(poly.monomials, key=str):
            chain = ONE
            for literal in monomial.literals:
                chain = bdd.apply("and", chain, bdd.variable(literal))
            folded = bdd.apply("or", folded, chain)
        assert folded == root  # hash-consed: same function, same node

    def test_constant_shortcuts(self):
        bdd = BDD([A, B])
        assert bdd.disjoin([]) == ZERO
        assert bdd.disjoin([bdd.variable(A), ONE, bdd.variable(B)]) == ONE


class TestBudget:
    def test_node_growth_is_metered(self):
        from repro.core.errors import BudgetExceededError
        from repro.resilience.budgets import ResourceBudget, activate_budget
        poly = make_polynomial(("a", "b"), ("b", "c"), ("c", "d"))
        with activate_budget(ResourceBudget(max_compiled_bytes=1024)):
            with pytest.raises(BudgetExceededError) as caught:
                from_polynomial(poly)
        assert caught.value.resource == "compiled_bytes"
        with activate_budget(ResourceBudget(max_compiled_bytes=1 << 20)):
            assert from_polynomial(poly)[1] not in (ZERO, ONE)


def _chain_probability(probabilities):
    """Oracle for x0·x1 + x1·x2 + ...: P[no two adjacent true], by DP."""
    miss_false, miss_true = 1.0, 0.0  # last literal false / true
    for p in probabilities:
        miss_false, miss_true = ((miss_false + miss_true) * (1.0 - p),
                                 miss_false * p)
    return 1.0 - miss_false - miss_true


class TestDeepChain:
    """The 1,500-monomial chain DNF compiles to a BDD about 1,500 levels
    deep: past the default recursion limit for a recursive apply."""

    @pytest.fixture(scope="class")
    def chain(self):
        literals = [tuple_literal("x%04d" % i) for i in range(1501)]
        poly = Polynomial.from_monomials(
            [[literals[i], literals[i + 1]] for i in range(1500)])
        rng = random.Random(5)
        probs = {lit: rng.uniform(0.03, 0.07) for lit in literals}
        expected = _chain_probability([probs[lit] for lit in literals])
        assert 0.5 < expected < 0.99  # not saturated
        return poly, probs, expected

    def test_bdd_probability_matches_dp(self, chain):
        poly, probs, expected = chain
        assert bdd_probability(poly, probs) == pytest.approx(
            expected, abs=1e-12)

    def test_ladder_answers_on_the_bdd_rung(self, chain):
        from repro.resilience import FallbackLadder
        poly, probs, expected = chain
        ladder = FallbackLadder(["bdd", "parallel"],
                                sleep=lambda seconds: None,
                                rng=random.Random(0))
        reading, record = ladder.run(poly, probs)
        assert record.answered_by == "bdd"
        assert reading.value == pytest.approx(expected, abs=1e-12)

    def test_out_of_memory_is_typed(self, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(bdd_module.BDD, "_make", exhausted)
        with pytest.raises(BudgetExceededError) as caught:
            from_polynomial(make_polynomial(("a", "b"), ("b", "c")))
        assert caught.value.resource == "compiled_bytes"
