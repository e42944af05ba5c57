"""Unit and property tests for anytime bounded approximation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import P3
from repro.data import ACQUAINTANCE, paper_fragment
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.inference.bounded import BoundedResult, bounded_probability
from repro.inference.exact import exact_probability
from repro.provenance.extraction import extract_bounds, extract_polynomial
from repro.provenance.graph import (
    ProvenanceGraph, add_firings, register_program)


def build(source):
    program = parse_program(source)
    engine = Engine(program)
    engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return graph


CHAIN = """
t1 0.9: edge(1,2).
t2 0.8: edge(2,3).
t3 0.7: edge(3,4).
t4 0.6: edge(4,5).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
"""


class TestExtractBounds:
    def test_lower_matches_plain_extraction(self):
        graph = build(CHAIN)
        for limit in (1, 2, 3):
            lower, _ = extract_bounds(graph, "path(1,5)", limit)
            assert lower == extract_polynomial(
                graph, "path(1,5)", hop_limit=limit)

    def test_bounds_bracket_truth(self):
        graph = build(CHAIN)
        probs = graph.probability_map()
        truth = exact_probability(
            extract_polynomial(graph, "path(1,5)"), probs)
        for limit in (1, 2, 3, 4, 5):
            lower, upper = extract_bounds(graph, "path(1,5)", limit)
            low_p = exact_probability(lower, probs)
            up_p = 1.0 if upper.is_one else exact_probability(upper, probs)
            assert low_p - 1e-12 <= truth <= up_p + 1e-12

    def test_bounds_coincide_at_full_depth(self):
        graph = build(CHAIN)
        lower, upper = extract_bounds(graph, "path(1,5)", 10)
        assert lower == upper

    def test_requires_positive_limit(self):
        graph = build(CHAIN)
        with pytest.raises(ValueError):
            extract_bounds(graph, "path(1,5)", 0)

    def test_unknown_root(self):
        graph = build(CHAIN)
        with pytest.raises(KeyError):
            extract_bounds(graph, "ghost(1)", 2)

    def test_upper_bound_on_cut_tuple_is_one(self):
        graph = build(CHAIN)
        _, upper = extract_bounds(graph, "path(1,5)", 1)
        # At depth 1 the recursive branch is cut; the direct edge branch
        # does not exist for (1,5), so the upper bound collapses to the
        # optimistic r2-only monomial.
        assert not upper.is_zero


class TestBoundedProbability:
    def test_converges_to_exact(self):
        graph = build(CHAIN)
        probs = graph.probability_map()
        result = bounded_probability(graph, "path(1,5)", probs,
                                     epsilon=1e-9)
        truth = exact_probability(extract_polynomial(graph, "path(1,5)"),
                                  probs)
        assert result.converged
        assert result.lower == pytest.approx(truth)
        assert result.upper == pytest.approx(truth)

    def test_history_monotone(self):
        p3 = P3(paper_fragment().to_program())
        p3.evaluate()
        result = bounded_probability(
            p3.graph, "mutualTrustPath(1,6)", p3.probabilities,
            epsilon=1e-6)
        lowers = [low for _, low, _ in result.history]
        uppers = [up for _, _, up in result.history]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)

    def test_interval_always_contains_truth(self):
        p3 = P3.from_source(ACQUAINTANCE)
        p3.evaluate()
        result = bounded_probability(
            p3.graph, 'know("Ben","Elena")', p3.probabilities,
            epsilon=0.5)  # loose: stops early
        truth = 0.16384
        assert result.lower - 1e-12 <= truth <= result.upper + 1e-12

    def test_early_stop_on_loose_epsilon(self):
        graph = build(CHAIN)
        probs = graph.probability_map()
        strict = bounded_probability(graph, "path(1,5)", probs,
                                     epsilon=1e-9)
        loose = bounded_probability(graph, "path(1,5)", probs, epsilon=0.9)
        assert loose.hop_limit <= strict.hop_limit

    def test_max_hop_cap_respected(self):
        graph = build(CHAIN)
        probs = graph.probability_map()
        result = bounded_probability(graph, "path(1,5)", probs,
                                     epsilon=0.0, max_hop_limit=2,
                                     initial_hop_limit=1)
        assert result.hop_limit <= 2

    def test_estimate_is_midpoint(self):
        result = BoundedResult(0.2, 0.4, 3, False, [])
        assert result.estimate == pytest.approx(0.3)
        assert result.gap == pytest.approx(0.2)

    def test_validation(self):
        graph = build(CHAIN)
        probs = graph.probability_map()
        with pytest.raises(ValueError):
            bounded_probability(graph, "path(1,5)", probs, epsilon=-1)
        with pytest.raises(ValueError):
            bounded_probability(graph, "path(1,5)", probs,
                                initial_hop_limit=0)


@st.composite
def chain_programs(draw):
    length = draw(st.integers(min_value=2, max_value=5))
    lines = []
    for index in range(length):
        probability = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
        lines.append("t%d %.1f: edge(%d,%d)."
                     % (index + 1, probability, index, index + 1))
    # Optional shortcut edges make multiple path lengths coexist.
    if draw(st.booleans()) and length > 2:
        lines.append("s1 0.5: edge(0,%d)." % (length - 1))
    lines.append("r1 1.0: path(X,Y) :- edge(X,Y).")
    lines.append("r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).")
    return "\n".join(lines), length


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(chain_programs())
    def test_bounds_bracket_and_converge(self, case):
        source, length = case
        graph = build(source)
        probs = graph.probability_map()
        key = "path(0,%d)" % length
        truth = exact_probability(extract_polynomial(graph, key), probs)
        previous_gap = 1.0
        for limit in (1, 2, 4, 8):
            lower, upper = extract_bounds(graph, key, limit)
            low_p = exact_probability(lower, probs)
            up_p = 1.0 if upper.is_one else exact_probability(upper, probs)
            assert low_p - 1e-12 <= truth <= up_p + 1e-12
            gap = up_p - low_p
            assert gap <= previous_gap + 1e-12
            previous_gap = gap
        assert previous_gap == pytest.approx(0.0, abs=1e-12)


class TestIntervalOrdering:
    """Regression tests for the inverted-interval bug: with a noisy (or
    merely rounding) evaluator and epsilon near machine precision, the
    envelope updates could leave ``upper`` a hair below ``lower``."""

    def test_constructor_repairs_inversion(self):
        result = BoundedResult(0.5, 0.5 - 1e-15, 2, True, [])
        assert result.lower <= result.upper
        assert result.gap >= 0.0

    def test_constructor_keeps_valid_intervals(self):
        result = BoundedResult(0.2, 0.4, 2, False, [])
        assert (result.lower, result.upper) == (0.2, 0.4)

    def test_noisy_evaluator_tiny_epsilon(self):
        # A deterministic evaluator whose alternating rounding error once
        # drove upper < lower at convergence.
        graph = build(CHAIN)
        probs = graph.probability_map()
        calls = [0]

        def noisy(polynomial, probabilities):
            calls[0] += 1
            noise = 3e-16 if calls[0] % 2 else -3e-16
            return exact_probability(polynomial, probabilities) + noise

        result = bounded_probability(
            graph, "path(1,5)", probs, epsilon=1e-15, evaluator=noisy)
        assert result.lower <= result.upper
        for _, low, up in result.history:
            assert low <= up

    def test_interval_ordered_at_every_depth(self):
        graph = build(CHAIN)
        probs = graph.probability_map()
        for epsilon in (0.0, 1e-15, 1e-9, 0.5):
            result = bounded_probability(graph, "path(1,5)", probs,
                                         epsilon=epsilon)
            assert 0.0 <= result.lower <= result.upper <= 1.0
