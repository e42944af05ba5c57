"""Unit tests for the exact decision-DNNF circuit."""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_polynomial, random_probabilities

from repro.core.errors import BudgetExceededError
from repro.inference import circuit as circuit_module
from repro.inference.circuit import (
    AND,
    DECISION,
    ONE,
    OR,
    ZERO,
    Circuit,
    exact_gradient,
    exact_probability,
)
from repro.inference.exact import brute_force_probability
from repro.io.serialize import polynomial_from_json
from repro.provenance.polynomial import Polynomial, tuple_literal
from repro.queries.influence import exact_influence, influence_query

DATA = pathlib.Path(__file__).parent / "data"

A, B, C, D, E = (tuple_literal(x) for x in "abcde")


def _root(circuit):
    return circuit.nodes[circuit.root - 2]


def _kinds(circuit):
    return [node[0] for node in circuit.nodes]


class TestNodeKinds:
    def test_constants(self):
        for polynomial, root in ((Polynomial.zero(), ZERO),
                                 (Polynomial.one(), ONE)):
            compiled = Circuit.compile(polynomial)
            assert (compiled.root, len(compiled)) == (root, 0)
            assert compiled.probability({}) == float(root)

    def test_single_literal(self):
        compiled = Circuit.compile(Polynomial.of([A]))
        assert compiled.nodes == [(AND, (0,), ONE)]

    def test_single_monomial_is_and(self):
        compiled = Circuit.compile(Polynomial.of([A, B, C]))
        kind, bits, child = _root(compiled)
        assert (kind, child, len(compiled)) == (AND, ONE, 1)
        assert {compiled.literals[bit] for bit in bits} == {A, B, C}

    def test_disjoint_union_is_or(self):
        compiled = Circuit.compile(Polynomial.from_monomials([[A], [B]]))
        assert _root(compiled)[0] == OR
        assert DECISION not in _kinds(compiled)

    def test_nested_structure(self):
        # a·(b + c·(d + e)) expanded: ANDs and ORs only.
        poly = Polynomial.from_monomials([[A, B], [A, C, D], [A, C, E]])
        compiled = Circuit.compile(poly)
        assert DECISION not in _kinds(compiled)
        assert sorted(_kinds(compiled)) == [AND] * 5 + [OR] * 2

    def test_product_of_sums_shares_cofactors(self):
        # (a+b)·(c+d) has no common literal and one component: one
        # decision, whose two branches share the node for c + d.
        poly = Polynomial.from_monomials([[A, C], [A, D], [B, C], [B, D]])
        compiled = Circuit.compile(poly)
        assert _kinds(compiled).count(DECISION) == 1
        assert _kinds(compiled).count(OR) == 1

    def test_p4_needs_a_decision(self):
        poly = Polynomial.from_monomials([[A, B], [B, C], [C, D]])
        assert _root(Circuit.compile(poly))[0] == DECISION

    def test_triangle_needs_a_decision(self):
        poly = Polynomial.from_monomials([[A, B], [B, C], [A, C]])
        assert _root(Circuit.compile(poly))[0] == DECISION


class TestDecisionRule:
    def test_most_frequent_literal(self):
        # b is in three monomials, a and c in two.
        poly = make_polynomial(("a", "b"), ("b", "c"), ("b", "d"),
                               ("a", "c"))
        compiled = Circuit.compile(poly)
        assert compiled.literals[_root(compiled)[1]] == B

    def test_ties_go_to_the_first_occurrence(self):
        poly = make_polynomial(("c", "d"), ("b", "c"), ("a", "b"))
        compiled = Circuit.compile(poly)
        # First occurrence in str-sorted monomials: a, b, c, d.
        assert compiled.literals == (A, B, C, D)
        assert compiled.literals[_root(compiled)[1]] == B

    def test_high_cofactor_is_absorbed(self):
        # b=1 leaves a + c + c·d; c·d is absorbed by c.
        poly = make_polynomial(("a", "b"), ("b", "c"), ("c", "d"))
        compiled = Circuit.compile(poly)
        _, _, low, high = _root(compiled)
        kind, children = compiled.nodes[high - 2]
        assert kind == OR and len(children) == 2


class TestProbability:
    def test_matches_brute_force(self):
        poly = Polynomial.from_monomials([[A, C], [A, D], [B, C], [B, D]])
        probs = {A: 0.3, B: 0.4, C: 0.5, D: 0.6}
        assert exact_probability(poly, probs) == pytest.approx(
            brute_force_probability(poly, probs), abs=1e-12)

    def test_terminals(self):
        assert exact_probability(Polynomial.zero(), {}) == 0.0
        assert exact_probability(Polynomial.one(), {}) == 1.0


class TestInfluence:
    def test_absent_literal_zero(self):
        poly = Polynomial.of([A])
        assert exact_influence(poly, {A: 0.5, B: 0.5}, B) == 0.0


def _pinned_influence(polynomial, probabilities, literal):
    """Oracle: Inf_x(λ) from brute force with p(x) pinned to 1 and 0."""
    pinned = dict(probabilities)
    pinned[literal] = 1.0
    high = brute_force_probability(polynomial, pinned)
    pinned[literal] = 0.0
    return high - brute_force_probability(polynomial, pinned)


class TestGradient:
    """The forward/backward pass against brute-force cofactors."""

    def _check(self, polynomial, probabilities, extra=()):
        value, partials = exact_gradient(polynomial, probabilities)
        assert abs(value - brute_force_probability(
            polynomial, probabilities)) <= 1e-12
        for literal in sorted(polynomial.literals()) + list(extra):
            expected = _pinned_influence(polynomial, probabilities, literal)
            assert abs(partials.get(literal, 0.0) - expected) <= 1e-12

    def test_audit_generator_polynomials(self):
        from repro.audit.generator import generate_cases
        absent = tuple_literal("absent")
        for case in generate_cases(80, seed=11):
            probabilities = dict(case.probabilities)
            probabilities[absent] = 0.5
            self._check(case.polynomial, probabilities, extra=[absent])

    def test_constants(self):
        assert exact_gradient(Polynomial.zero(), {}) == (0.0, {})
        assert exact_gradient(Polynomial.one(), {}) == (1.0, {})

    def test_single_monomial(self):
        poly = make_polynomial(("a", "b", "c"))
        probs = {A: 0.2, B: 0.5, C: 0.9}
        value, partials = exact_gradient(poly, probs)
        assert value == pytest.approx(0.09, abs=1e-15)
        assert partials[A] == pytest.approx(0.45, abs=1e-15)
        assert partials[B] == pytest.approx(0.18, abs=1e-15)
        assert partials[C] == pytest.approx(0.1, abs=1e-15)

    def test_disjoint_support(self):
        poly = make_polynomial(("a", "b"), ("c",), ("d", "e"))
        self._check(poly, random_probabilities(poly, seed=2))

    def test_deterministic_literals(self):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("d",))
        probs = random_probabilities(poly, seed=4)
        probs[B] = 1.0
        probs[tuple_literal("d")] = 0.0
        self._check(poly, probs)

    def test_absent_literal_is_zero(self):
        poly = make_polynomial(("a",))
        assert exact_gradient(poly, {A: 0.5, B: 0.5})[1].get(B, 0.0) == 0.0

    def test_probability_is_the_forward_pass(self):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("a", "c"))
        probs = random_probabilities(poly, seed=8)
        assert exact_gradient(poly, probs)[0] == exact_probability(
            poly, probs)


@st.composite
def factored_formulas(draw, literals=None, depth=0):
    """Random AND/OR trees over distinct literals, expanded to DNF."""
    if literals is None:
        count = draw(st.integers(min_value=1, max_value=6))
        literals = [tuple_literal("x%d" % i) for i in range(count)]
    if len(literals) == 1 or depth >= 3:
        return Polynomial.of([literals[0]])
    parts = draw(st.integers(min_value=2, max_value=min(3, len(literals))))
    cuts = sorted(draw(st.permutations(range(1, len(literals))))[:parts - 1])
    pieces = [literals[start:stop] for start, stop
              in zip([0] + cuts, cuts + [len(literals)])]
    children = [draw(factored_formulas(piece, depth + 1))
                for piece in pieces]
    result = children[0]
    conjoin = draw(st.booleans())
    for child in children[1:]:
        result = result * child if conjoin else result + child
    return result


class TestFactoredFormulas:
    """Formulas in which every literal occurs once."""

    @settings(max_examples=60, deadline=None)
    @given(factored_formulas(), st.integers(0, 2**16))
    def test_probability_matches_brute_force(self, poly, seed):
        rng = random.Random(seed)
        probs = {lit: round(rng.uniform(0.05, 0.95), 3)
                 for lit in poly.literals()}
        assert exact_probability(poly, probs) == pytest.approx(
            brute_force_probability(poly, probs), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(factored_formulas(), st.integers(0, 2**16))
    def test_gradient_matches_cofactors(self, poly, seed):
        rng = random.Random(seed)
        probs = {lit: round(rng.uniform(0.05, 0.95), 3)
                 for lit in poly.literals()}
        partials = exact_gradient(poly, probs)[1]
        for literal in poly.literals():
            assert partials[literal] == pytest.approx(
                _pinned_influence(poly, probs, literal), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(factored_formulas())
    def test_size_is_small(self, poly):
        # Shared cofactors keep the circuit within a few nodes per literal.
        assert len(Circuit.compile(poly)) <= 3 * len(poly.literals())


class TestHop5Regression:
    """``trustPath(1994,1591)`` on the full network, query grounding, hop
    limit 5: 195 monomials over 286 literals.  The first-occurrence BDD
    runs out of memory on it."""

    @pytest.fixture(scope="class")
    def case(self):
        document = json.loads(
            (DATA / "trust_path_1994_1591_hop5.json").read_text())
        polynomial = polynomial_from_json(document["polynomial"])
        probabilities = {literal: document["probabilities"][literal.key]
                         for literal in polynomial.literals()}
        return polynomial, probabilities

    def test_fixture_shape(self, case):
        polynomial, _ = case
        assert (len(polynomial), len(polynomial.literals())) == (195, 286)

    def test_exact_probability(self, case):
        polynomial, probabilities = case
        assert exact_probability(polynomial, probabilities) == \
            pytest.approx(0.9002075408567976, abs=1e-12)

    def test_exact_influence(self, case):
        polynomial, probabilities = case
        report = influence_query(polynomial, probabilities, method="exact")
        assert len(report) == 286
        best = report.most_influential
        pinned = dict(probabilities)
        pinned[best.literal] = 0.0
        # Equation 16 at p = 0 gives the intercept P[λ|x=0].
        assert exact_probability(polynomial, pinned) == pytest.approx(
            0.9002075408567976 - best.influence * probabilities[best.literal],
            abs=1e-12)


def _chain_probability(probabilities):
    """Oracle for x0·x1 + x1·x2 + ...: P[no two adjacent true], by DP."""
    miss_false, miss_true = 1.0, 0.0  # last literal false / true
    for p in probabilities:
        miss_false, miss_true = ((miss_false + miss_true) * (1.0 - p),
                                 miss_false * p)
    return 1.0 - miss_false - miss_true


class TestRobustness:
    def test_deep_chain_compiles_without_recursion(self):
        # About 500 nested decisions: past the default recursion limit
        # for a recursive compile.
        literals = [tuple_literal("e%04d" % i) for i in range(1001)]
        poly = Polynomial.from_monomials(
            [[literals[i], literals[i + 1]] for i in range(1000)])
        rng = random.Random(1)
        probs = {lit: rng.uniform(0.0, 0.2) for lit in literals}
        assert exact_probability(poly, probs) == pytest.approx(
            _chain_probability([probs[lit] for lit in literals]), abs=1e-12)

    def test_node_growth_is_metered(self):
        from repro.resilience.budgets import ResourceBudget, activate_budget
        poly = make_polynomial(("a", "b"), ("b", "c"), ("c", "d"))
        with activate_budget(ResourceBudget(max_compiled_bytes=1024)):
            with pytest.raises(BudgetExceededError) as caught:
                Circuit.compile(poly)
        assert caught.value.resource == "compiled_bytes"
        with activate_budget(ResourceBudget(max_compiled_bytes=1 << 20)):
            assert Circuit.compile(poly).root not in (ZERO, ONE)

    def test_out_of_memory_is_typed(self, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(circuit_module, "_plan", exhausted)
        with pytest.raises(BudgetExceededError) as caught:
            Circuit.compile(make_polynomial(("a", "b"), ("b", "c")))
        assert caught.value.resource == "compiled_bytes"
