"""Property-based tests: all probability backends agree on random DNFs."""

from hypothesis import given, settings, strategies as st

from repro.inference.bdd import bdd_probability
from repro.inference.exact import brute_force_probability, exact_probability
from repro.inference.karp_luby import union_bound
from repro.inference.montecarlo import monte_carlo_probability
from repro.inference.kernel import kernel_probability
from repro.provenance.polynomial import Monomial, Polynomial, tuple_literal

LITERAL_POOL = [tuple_literal(name) for name in "abcdefg"]


@st.composite
def polynomial_and_probabilities(draw):
    count = draw(st.integers(min_value=0, max_value=5))
    monomials = []
    for _ in range(count):
        width = draw(st.integers(min_value=1, max_value=3))
        literals = draw(st.permutations(LITERAL_POOL))[:width]
        monomials.append(Monomial(literals))
    poly = Polynomial(monomials)
    probs = {
        literal: draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]))
        for literal in LITERAL_POOL
    }
    return poly, probs


class TestBackendAgreement:
    @settings(max_examples=60, deadline=None)
    @given(polynomial_and_probabilities())
    def test_exact_equals_brute_force(self, case):
        poly, probs = case
        assert abs(exact_probability(poly, probs)
                   - brute_force_probability(poly, probs)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(polynomial_and_probabilities())
    def test_bdd_equals_brute_force(self, case):
        poly, probs = case
        assert abs(bdd_probability(poly, probs)
                   - brute_force_probability(poly, probs)) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(polynomial_and_probabilities(), st.integers(0, 2**31 - 1))
    def test_monte_carlo_within_tolerance(self, case, seed):
        poly, probs = case
        truth = exact_probability(poly, probs)
        estimate = monte_carlo_probability(poly, probs, 4000, seed=seed)
        # 5-sigma bound: fails with probability < 1e-6 per example.
        bound = 5 * max(estimate.standard_error, 0.008)
        assert abs(estimate.value - truth) <= bound

    @settings(max_examples=15, deadline=None)
    @given(polynomial_and_probabilities(), st.integers(0, 2**31 - 1))
    def test_parallel_mc_within_tolerance(self, case, seed):
        poly, probs = case
        truth = exact_probability(poly, probs)
        estimate = kernel_probability(poly, probs, 4000, seed=seed)
        bound = 5 * max(estimate.standard_error, 0.008)
        assert abs(estimate.value - truth) <= bound


class TestStructuralBounds:
    @settings(max_examples=60, deadline=None)
    @given(polynomial_and_probabilities())
    def test_probability_in_unit_interval(self, case):
        poly, probs = case
        value = exact_probability(poly, probs)
        assert -1e-12 <= value <= 1 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(polynomial_and_probabilities())
    def test_union_bound_dominates(self, case):
        poly, probs = case
        assert union_bound(poly, probs) >= exact_probability(poly, probs) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(polynomial_and_probabilities())
    def test_monotone_in_literal_probability(self, case):
        poly, probs = case
        if not poly.literals():
            return
        target = sorted(poly.literals())[0]
        baseline = exact_probability(poly, probs)
        raised = dict(probs)
        raised[target] = min(1.0, probs[target] + 0.3)
        assert exact_probability(poly, raised) >= baseline - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(polynomial_and_probabilities())
    def test_restriction_brackets_probability(self, case):
        # P[λ|x=0] ≤ P[λ] ≤ P[λ|x=1] for monotone DNF.
        poly, probs = case
        if not poly.literals():
            return
        target = sorted(poly.literals())[0]
        middle = exact_probability(poly, probs)
        low = exact_probability(poly.restrict(target, False), probs)
        high = exact_probability(poly.restrict(target, True), probs)
        assert low - 1e-9 <= middle <= high + 1e-9
