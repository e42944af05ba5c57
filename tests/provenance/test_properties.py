"""Property-based tests (hypothesis) for provenance invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.inference.exact import brute_force_probability, exact_probability
from repro.provenance.extraction import extract_polynomial, extract_unrolled
from repro.provenance.graph import (
    ProvenanceGraph, add_firings, register_program)
from repro.provenance.polynomial import (
    Monomial,
    Polynomial,
    tuple_literal,
)

LITERAL_POOL = [tuple_literal(name) for name in "abcdefgh"]


@st.composite
def polynomials(draw, max_monomials=6, max_width=4):
    """Random monotone DNFs over an 8-literal pool."""
    count = draw(st.integers(min_value=0, max_value=max_monomials))
    monomials = []
    for _ in range(count):
        width = draw(st.integers(min_value=1, max_value=max_width))
        literals = draw(st.permutations(LITERAL_POOL))[:width]
        monomials.append(Monomial(literals))
    return Polynomial(monomials)


@st.composite
def assignments(draw):
    return {lit: draw(st.booleans()) for lit in LITERAL_POOL}


class TestAbsorptionInvariants:
    @given(polynomials())
    def test_no_monomial_subsumes_another(self, poly):
        for left, right in itertools.permutations(poly.monomials, 2):
            assert not left.subsumes(right)

    @given(polynomials(), assignments())
    def test_absorption_preserves_truth(self, poly, assignment):
        # Rebuild without absorption and compare truth values.
        raw_value = any(
            all(assignment[lit] for lit in monomial.literals)
            for monomial in poly.monomials
        )
        assert poly.evaluate(assignment) == raw_value

    @given(polynomials(), polynomials())
    def test_addition_idempotent(self, left, right):
        total = left + right
        assert total + total == total

    @given(polynomials(), polynomials(), assignments())
    def test_addition_is_disjunction(self, left, right, assignment):
        assert (left + right).evaluate(assignment) == (
            left.evaluate(assignment) or right.evaluate(assignment))

    @given(polynomials(), polynomials(), assignments())
    def test_multiplication_is_conjunction(self, left, right, assignment):
        assert (left * right).evaluate(assignment) == (
            left.evaluate(assignment) and right.evaluate(assignment))

    @given(polynomials(), assignments())
    def test_restrict_consistent_with_evaluate(self, poly, assignment):
        literal = LITERAL_POOL[0]
        restricted = poly.restrict(literal, assignment[literal])
        assert restricted.evaluate(assignment) == poly.evaluate(assignment)

    @given(polynomials())
    def test_shannon_decomposition(self, poly):
        # λ = x·λ|x=1 + ¬x·λ|x=0; for monotone DNF this implies
        # λ|x=0 ⊆ λ|x=1 pointwise.
        literal = LITERAL_POOL[0]
        high = poly.restrict(literal, True)
        low = poly.restrict(literal, False)
        for assignment in _all_assignments():
            if low.evaluate(assignment):
                assert high.evaluate(assignment)


def _all_assignments():
    for values in itertools.product((False, True), repeat=len(LITERAL_POOL)):
        yield dict(zip(LITERAL_POOL, values))


@st.composite
def random_trust_programs(draw):
    """Small random recursive trust programs (possibly cyclic)."""
    node_count = draw(st.integers(min_value=2, max_value=4))
    nodes = list(range(1, node_count + 1))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edge_count = draw(st.integers(min_value=1, max_value=min(5, len(pairs))))
    chosen = draw(st.permutations(pairs))[:edge_count]
    lines = [
        "r1 1.0: tp(X,Y) :- trust(X,Y).",
        "r2 0.9: tp(X,Z) :- trust(X,Y), tp(Y,Z).",
    ]
    for index, (a, b) in enumerate(sorted(chosen)):
        probability = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
        lines.append("t%d %.1f: trust(%d,%d)." % (index + 1, probability, a, b))
    return "\n".join(lines)


def _build_graph(source):
    program = parse_program(source)
    engine = Engine(program)
    engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return graph


class TestCycleEliminationProperty:
    @settings(max_examples=25, deadline=None)
    @given(random_trust_programs(), st.integers(min_value=1, max_value=2))
    def test_unrolling_never_changes_probability(self, source, rounds):
        graph = _build_graph(source)
        probs = graph.probability_map()
        targets = [key for key in graph.tuple_keys()
                   if key.startswith("tp(")][:4]
        for key in targets:
            baseline = exact_probability(
                extract_polynomial(graph, key), probs)
            unrolled = exact_probability(
                extract_unrolled(graph, key, rounds), probs)
            assert abs(baseline - unrolled) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(random_trust_programs())
    def test_polynomials_contain_only_base_and_rule_literals(self, source):
        graph = _build_graph(source)
        for key in graph.tuple_keys():
            if not key.startswith("tp("):
                continue
            poly = extract_polynomial(graph, key)
            for literal in poly.literals():
                assert literal.is_rule or literal.key.startswith("trust(")

    @settings(max_examples=15, deadline=None)
    @given(random_trust_programs())
    def test_extraction_matches_brute_force_reachability(self, source):
        # P[tp(a,b)] > 0 iff b reachable from a in the trust graph.
        graph = _build_graph(source)
        probs = graph.probability_map()
        edges = [key for key in graph.tuple_keys()
                 if key.startswith("trust(")]
        adjacency = {}
        for key in edges:
            a, b = key[len("trust("):-1].split(",")
            adjacency.setdefault(int(a), set()).add(int(b))
        for key in graph.tuple_keys():
            if not key.startswith("tp("):
                continue
            a, b = (int(x) for x in key[len("tp("):-1].split(","))
            poly = extract_polynomial(graph, key)
            reachable = _reachable(adjacency, a, b)
            assert (exact_probability(poly, probs) > 0) == reachable


def _reachable(adjacency, start, goal):
    frontier = [start]
    seen = set()
    while frontier:
        node = frontier.pop()
        for successor in adjacency.get(node, ()):
            if successor == goal:
                return True
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return False


class TestHopLimitMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(random_trust_programs())
    def test_probability_nondecreasing_in_hop_limit(self, source):
        graph = _build_graph(source)
        probs = graph.probability_map()
        for key in sorted(graph.tuple_keys()):
            if not key.startswith("tp("):
                continue
            values = [
                exact_probability(
                    extract_polynomial(graph, key, hop_limit=limit), probs)
                for limit in (1, 2, 3, None)
            ]
            for earlier, later in zip(values, values[1:]):
                assert later >= earlier - 1e-12
