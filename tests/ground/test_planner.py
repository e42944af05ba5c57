"""Planner integration tests: query-directed grounding through P3.

The headline contract is indistinguishability — a system configured with
``grounding="query"`` must answer every facade and executor query with
the same bytes as full evaluation, while only grounding what the asked
queries actually demand.
"""

import json

import pytest

from repro import P3, P3Config
from repro.data import ACQUAINTANCE, paper_fragment
from repro.datalog.ast import Fact, Program, Rule
from repro.datalog.parser import parse_program
from repro.datalog.terms import atom as make_atom
from repro.exec.specs import QuerySpec
from repro.ground import AUTO_FACT_THRESHOLD, GroundingPlanner

TRUST_SOURCE = """
query(trustPath(1,6)).
%s
""" % "\n".join(line for line in
                str(paper_fragment().to_program()).splitlines())


def fragment_pair():
    """(query-directed, full) systems over the Table 5 fragment."""
    program = paper_fragment().to_program()
    directed = P3(program, P3Config(grounding="query"))
    directed.evaluate()
    full = P3(paper_fragment().to_program())
    full.evaluate()
    return directed, full


class TestSupports:
    def test_full_mode_never_plans(self):
        program = paper_fragment().to_program()
        assert not GroundingPlanner.supports(program, P3Config())
        assert not GroundingPlanner.supports(
            program, P3Config(grounding="full"))

    def test_query_mode_plans(self):
        program = paper_fragment().to_program()
        assert GroundingPlanner.supports(
            program, P3Config(grounding="query"))

    def test_no_rules_never_plans(self):
        program = parse_program("t1 0.9: trust(1,2).")
        assert not GroundingPlanner.supports(
            program, P3Config(grounding="query"))

    def test_negation_never_plans(self):
        program = parse_program("""
            p(1). q(1).
            r1 1.0: a(X) :- p(X), not q(X).
        """)
        assert not GroundingPlanner.supports(
            program, P3Config(grounding="query"))

    def test_auto_uses_fact_threshold(self):
        program = paper_fragment().to_program()
        assert len(program.facts) < AUTO_FACT_THRESHOLD
        assert not GroundingPlanner.supports(
            program, P3Config(grounding="auto"))
        extra = [Fact(make_atom("trust", 1000 + index, 2000 + index),
                      probability=0.5, label="x%d" % index)
                 for index in range(AUTO_FACT_THRESHOLD)]
        big = Program(list(program.rules) + list(program.facts) + extra)
        assert GroundingPlanner.supports(big, P3Config(grounding="auto"))


class TestFacadeParity:
    def test_planner_created_and_lazy(self):
        directed, _ = fragment_pair()
        planner = directed.grounding_planner
        assert planner is not None
        assert planner.stats["goals"] == 0  # nothing asked yet

    def test_probability_parity(self):
        directed, full = fragment_pair()
        key = "mutualTrustPath(1,6)"
        assert directed.probability_of(key) == full.probability_of(key)
        assert directed.grounding_planner.stats["goals"] == 1

    def test_polynomial_byte_identical(self):
        directed, full = fragment_pair()
        key = "mutualTrustPath(1,6)"
        assert directed.polynomial_of(key) == full.polynomial_of(key)
        assert str(directed.polynomial_of(key)) == \
            str(full.polynomial_of(key))

    def test_probability_map_parity(self):
        directed, full = fragment_pair()
        assert directed.probabilities == full.probabilities

    def test_holds_parity(self):
        directed, full = fragment_pair()
        assert directed.holds("mutualTrustPath", 1, 6) == \
            full.holds("mutualTrustPath", 1, 6)
        assert directed.holds("mutualTrustPath", 6, 1) == \
            full.holds("mutualTrustPath", 6, 1)

    def test_unknown_key_parity(self):
        from repro.core.errors import UnknownTupleError
        directed, _ = fragment_pair()
        with pytest.raises(UnknownTupleError):
            directed.probability_of("trustPath(99,100)")

    def test_registered_queries_parity(self):
        directed = P3.from_source(TRUST_SOURCE,
                                  config=P3Config(grounding="query"))
        directed.evaluate()
        full = P3.from_source(TRUST_SOURCE)
        full.evaluate()
        assert directed.answer_queries() == full.answer_queries()

    def test_top_derivations_parity(self):
        directed, full = fragment_pair()
        key = "mutualTrustPath(1,6)"
        assert directed.top_derivations(key, k=3) == \
            full.top_derivations(key, k=3)

    def test_coverage_subsumption_no_regrounding(self):
        directed, _ = fragment_pair()
        directed.probability_of("mutualTrustPath(1,6)")
        stats = dict(directed.grounding_planner.stats)
        # trustPath(1,6) was demanded while deriving the mutual path, so
        # asking for it must not ground a second goal.
        directed.probability_of("trustPath(1,6)")
        assert directed.grounding_planner.stats["goals"] == stats["goals"]


class TestExecutorEnvelopeParity:
    KEYS = ("mutualTrustPath(1,6)", "trustPath(1,6)", "trustPath(2,5)")

    @staticmethod
    def envelope(p3):
        specs = [QuerySpec.probability(key)
                 for key in TestExecutorEnvelopeParity.KEYS]
        batch = p3.executor().run(specs)
        results = {outcome.spec.key: outcome.value for outcome in batch}
        document = {"version": 1, "kind": "query_batch",
                    "results": {key: results[key] for key in sorted(results)}}
        return json.dumps(document, indent=2, sort_keys=True)

    def test_query_batch_json_byte_identical(self):
        directed, full = fragment_pair()
        assert self.envelope(directed) == self.envelope(full)


class TestFallback:
    @staticmethod
    def reserved_program():
        # The parser refuses m_-prefixed relations, but a programmatically
        # built Program can smuggle one in; magic_transform raises, and
        # the planner must fall back to full evaluation.
        from repro.datalog.terms import Atom, Variable
        rule = Rule(Atom("p", (Variable("X"),)),
                    (Atom("m_aux", (Variable("X"),)),),
                    label="r1", probability=0.9)
        fact = Fact(make_atom("m_aux", 1), probability=0.8, label="t1")
        return Program([rule, fact])

    def test_reserved_relation_triggers_fallback(self):
        program = self.reserved_program()
        directed = P3(program, P3Config(grounding="query"))
        directed.evaluate()
        planner = directed.grounding_planner
        assert planner is not None and not planner.fallback_active
        probability = directed.probability_of("p(1)")
        assert planner.fallback_active
        assert planner.stats["fallbacks"] == 1
        full = P3(self.reserved_program())
        full.evaluate()
        assert probability == full.probability_of("p(1)")
        assert directed.polynomial_of("p(1)") == full.polynomial_of("p(1)")

    def test_fallback_is_sticky(self):
        directed = P3(self.reserved_program(), P3Config(grounding="query"))
        directed.evaluate()
        directed.probability_of("p(1)")
        directed.probability_of("p(1)")
        assert directed.grounding_planner.stats["fallbacks"] == 1


class TestLifecycle:
    def test_add_facts_resets_planner(self):
        directed = P3(paper_fragment().to_program(),
                      P3Config(grounding="query"))
        directed.evaluate()
        directed.probability_of("trustPath(1,2)")
        first = directed.grounding_planner
        directed.add_facts("t99 0.9: trust(6,1).")
        directed.evaluate()
        second = directed.grounding_planner
        assert second is not first
        # The new edge closes a cycle; the re-grounded system must see it.
        full = P3.from_source(
            str(paper_fragment().to_program()) + "\nt99 0.9: trust(6,1).")
        full.evaluate()
        key = "trustPath(6,2)"
        assert directed.probability_of(key) == full.probability_of(key)

    def test_attach_store_incompatible(self, tmp_path):
        from repro.store import ProvenanceStore
        directed = P3(paper_fragment().to_program(),
                      P3Config(grounding="query"))
        directed.evaluate()
        with ProvenanceStore(str(tmp_path / "prov.db")) as store:
            with pytest.raises(ValueError):
                directed.attach_store(store)

    def test_acquaintance_parity_end_to_end(self):
        directed = P3.from_source(ACQUAINTANCE,
                                  config=P3Config(grounding="query"))
        directed.evaluate()
        full = P3.from_source(ACQUAINTANCE)
        full.evaluate()
        key = 'know("Ben","Elena")'
        assert directed.probability_of(key) == full.probability_of(key)
        assert directed.polynomial_of(key) == full.polynomial_of(key)
