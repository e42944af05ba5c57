"""Property-based tests (hypothesis) for provenance invariants."""

import hashlib
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import P3, P3Config
from repro.data import generate_network
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.inference.exact import brute_force_probability, exact_probability
from repro.provenance.extraction import extract_polynomial, extract_unrolled
from repro.provenance.graph import (
    ProvenanceGraph, add_firings, register_program)
from repro.provenance.polynomial import (
    Monomial,
    Polynomial,
    rule_literal,
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


def reference_absorb(monomials):
    """Naive absorption: keep each monomial no other one is a proper
    subset of, by ``frozenset`` comparison of the literal sets."""
    unique = frozenset(monomials)
    return frozenset(
        monomial for monomial in unique
        if not any(other.literals < monomial.literals for other in unique))


#: Eleven tuple names and one rule label.
WIDE_NAMES = ["t%d" % index for index in range(11)] + ["r1"]


def _fresh(name):
    """A new Literal object per use, as extraction builds them."""
    return rule_literal(name) if name.startswith("r") else tuple_literal(name)


@st.composite
def raw_monomials(draw, max_monomials=40, max_width=5):
    """Unabsorbed monomial lists over a 12-literal pool, with duplicates
    and now and then the empty monomial."""
    count = draw(st.integers(min_value=0, max_value=max_monomials))
    monomials = []
    for _ in range(count):
        names = draw(st.lists(st.sampled_from(WIDE_NAMES), min_size=1,
                              max_size=max_width))
        monomials.append(Monomial(_fresh(name) for name in names))
    if count and draw(st.integers(min_value=0, max_value=9)) == 0:
        monomials.append(Monomial())
    return monomials


def _product(left, right):
    return [Monomial(a.literals | b.literals) for a in left for b in right]


class TestAbsorptionMatchesReference:
    """The int-mask algebra against naive ``frozenset`` absorption."""

    @settings(max_examples=200, deadline=None)
    @given(raw_monomials())
    def test_construction(self, raw):
        polynomial = Polynomial(raw)
        assert polynomial.monomials == reference_absorb(raw)
        assert hash(polynomial) == hash(reference_absorb(raw))

    @settings(max_examples=200, deadline=None)
    @given(raw_monomials(), raw_monomials(),
           st.integers(min_value=0, max_value=40))
    def test_sum(self, left, right, shared):
        right = right + left[:shared]
        expected = reference_absorb(
            reference_absorb(left) | reference_absorb(right))
        assert (Polynomial(left) + Polynomial(right)).monomials == expected
        assert (Polynomial(right) + Polynomial(left)).monomials == expected

    @settings(max_examples=100, deadline=None)
    @given(raw_monomials(max_monomials=15), raw_monomials(max_monomials=15))
    def test_product(self, left, right):
        expected = reference_absorb(
            _product(reference_absorb(left), reference_absorb(right)))
        assert (Polynomial(left) * Polynomial(right)).monomials == expected

    @settings(max_examples=150, deadline=None)
    @given(raw_monomials(), st.sampled_from(WIDE_NAMES))
    def test_product_with_one_literal(self, raw, name):
        single = Polynomial.from_literal(_fresh(name))
        polynomial = Polynomial(raw)
        expected = reference_absorb(
            _product(single.monomials, polynomial.monomials))
        assert (single * polynomial).monomials == expected
        assert (polynomial * single).monomials == expected

    @settings(max_examples=200, deadline=None)
    @given(raw_monomials(), st.sampled_from(WIDE_NAMES), st.booleans())
    def test_restrict(self, raw, name, value):
        literal = _fresh(name)
        polynomial = Polynomial(raw)
        if value:
            cofactor = [monomial.without(literal)
                        for monomial in polynomial.monomials]
        else:
            cofactor = [monomial for monomial in polynomial.monomials
                        if not monomial.contains(literal)]
        assert polynomial.restrict(literal, value).monomials \
            == reference_absorb(cofactor)

    @pytest.mark.parametrize("case", ["in all", "in none", "mixed"])
    @settings(max_examples=150, deadline=None)
    @given(raw=raw_monomials(), name=st.sampled_from(WIDE_NAMES))
    def test_times_literal(self, case, raw, name):
        literal = _fresh(name)
        if case == "in all":
            raw = [Monomial(m.literals | {literal}) for m in raw]
        elif case == "in none":
            raw = [m.without(literal) for m in raw]
        else:
            raw = ([Monomial(m.literals | {literal}) for m in raw[::2]]
                   + [m.without(literal) for m in raw[1::2]])
        polynomial = Polynomial(raw)
        having = sum(literal in m.literals for m in polynomial.monomials)
        observed = ("in all" if having == len(polynomial)
                    else "in none" if having == 0 else "mixed")
        assume(len(polynomial) > 0 and observed == case)
        product = polynomial.times_literal(_fresh(name))
        assert product.monomials == reference_absorb(
            Monomial(m.literals | {literal}) for m in polynomial.monomials)
        if case == "in all":
            assert product is polynomial


#: ``str()`` digest of ``mutualTrustPath(50,68)`` on the Section-6.2
#: sample at hop limit 6, as the frozenset-subset absorption built it.
BIG_KEY_DIGEST = (
    "ec2720e2d9f042ba5a7e2e0690942477a86167b9eba2049be21ec7c7f4d46ff4")


class TestSection62BigKey:
    def test_polynomial_pinned(self):
        sample = generate_network().sample_nodes_edges(150, 150, seed=5)
        p3 = P3(sample.to_program(), P3Config(hop_limit=6))
        p3.evaluate()
        polynomial = p3.polynomial_of("mutualTrustPath(50,68)")
        assert len(polynomial) == 1199
        assert hashlib.sha256(
            str(polynomial).encode("utf-8")).hexdigest() == BIG_KEY_DIGEST
        assert reference_absorb(polynomial.monomials) == polynomial.monomials


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
