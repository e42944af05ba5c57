"""Unit tests for the P3 facade."""

import pytest

from repro import P3, P3Config
from repro.core.errors import (
    NotEvaluatedError,
    UnknownLiteralError,
    UnknownTupleError,
)
from repro.data import ACQUAINTANCE
from repro.provenance.polynomial import rule_literal, tuple_literal


@pytest.fixture()
def fresh():
    return P3.from_source(ACQUAINTANCE)


class TestLifecycle:
    def test_queries_require_evaluation(self, fresh):
        with pytest.raises(NotEvaluatedError):
            fresh.probability_of("know", "Ben", "Elena")
        with pytest.raises(NotEvaluatedError):
            _ = fresh.graph

    def test_evaluate_idempotent(self, fresh):
        first = fresh.evaluate()
        second = fresh.evaluate()
        assert first is second

    def test_evaluated_flag(self, fresh):
        assert not fresh.evaluated
        fresh.evaluate()
        assert fresh.evaluated

    def test_repr_mentions_state(self, fresh):
        assert "not evaluated" in repr(fresh)
        fresh.evaluate()
        assert "not evaluated" not in repr(fresh)


class TestConstruction:
    def test_from_file(self, tmp_path):
        path = tmp_path / "program.pl"
        path.write_text(ACQUAINTANCE)
        p3 = P3.from_file(str(path))
        p3.evaluate()
        assert p3.holds("know", "Ben", "Elena")

    def test_from_program_object(self):
        from repro.data import acquaintance_program
        p3 = P3(acquaintance_program())
        p3.evaluate()
        assert p3.holds("know", "Steve", "Elena")


class TestTupleAddressing:
    def test_tuple_key_format(self):
        assert P3.tuple_key("know", "Ben", "Elena") == 'know("Ben","Elena")'
        assert P3.tuple_key("trust", 1, 2) == "trust(1,2)"

    def test_relation_plus_values(self, acquaintance):
        by_values = acquaintance.probability_of("know", "Ben", "Elena")
        by_key = acquaintance.probability_of('know("Ben","Elena")')
        assert by_values == by_key

    def test_holds(self, acquaintance):
        assert acquaintance.holds("know", "Ben", "Elena")
        assert acquaintance.holds("live", "Steve", "DC")
        assert not acquaintance.holds("know", "Mary", "Ben")

    def test_unknown_tuple_raises(self, acquaintance):
        with pytest.raises(UnknownTupleError):
            acquaintance.polynomial_of("know", "Mary", "Ben")
        with pytest.raises(UnknownTupleError):
            acquaintance.explain("nothing", 1)


class TestProbabilities:
    def test_known_values(self, acquaintance):
        assert acquaintance.probability_of(
            "know", "Ben", "Elena") == pytest.approx(0.16384)
        assert acquaintance.probability_of(
            "know", "Steve", "Elena") == pytest.approx(0.8192)

    def test_base_tuple_probability(self, acquaintance):
        assert acquaintance.probability_of(
            "like", "Steve", "Veggies") == pytest.approx(0.4)

    def test_method_override(self, acquaintance):
        estimate = acquaintance.probability_of(
            "know", "Ben", "Elena", method="parallel")
        assert estimate == pytest.approx(0.16384, abs=0.02)

    def test_polynomial_cache(self, acquaintance):
        first = acquaintance.polynomial_of("know", "Ben", "Elena")
        second = acquaintance.polynomial_of("know", "Ben", "Elena")
        assert first is second

    def test_hop_limit_distinct_cache_entries(self, acquaintance):
        full = acquaintance.polynomial_of("know", "Ben", "Elena")
        limited = acquaintance.polynomial_of(
            "know", "Ben", "Elena", hop_limit=1)
        assert full is not limited


class TestLiteralResolution:
    def test_rule_label(self, acquaintance):
        assert acquaintance.literal("r3") == rule_literal("r3")

    def test_base_tuple_key(self, acquaintance):
        key = 'like("Steve","Veggies")'
        assert acquaintance.literal(key) == tuple_literal(key)

    def test_unknown_literal(self, acquaintance):
        with pytest.raises(UnknownLiteralError):
            acquaintance.literal("nonexistent")


class TestQueryPlumbing:
    def test_explain(self, acquaintance):
        explanation = acquaintance.explain("know", "Ben", "Elena")
        assert explanation.derivation_count == 2

    def test_sufficient_provenance(self, acquaintance):
        result = acquaintance.sufficient_provenance(
            "know", "Ben", "Elena", epsilon=0.05, method="naive")
        assert len(result.sufficient) == 1

    def test_influence_filters(self, acquaintance):
        rules = acquaintance.influence("know", "Ben", "Elena", kind="rule")
        assert all(s.literal.is_rule for s in rules)
        live_only = acquaintance.influence(
            "know", "Ben", "Elena", relation="live")
        assert all(s.literal.key.startswith("live(") for s in live_only)

    def test_modify_only_rules(self, acquaintance):
        plan = acquaintance.modify(
            "know", "Ben", "Elena", target=0.3, only_rules=True)
        assert all(step.literal.is_rule for step in plan.steps)

    def test_modify_only_tuples(self, trust_fragment):
        plan = trust_fragment.modify(
            "mutualTrustPath", 1, 6, target=0.5, only_tuples=True)
        assert all(step.literal.is_tuple for step in plan.steps)

    def test_derived_atoms_iteration(self, acquaintance):
        know = set(map(str, acquaintance.derived_atoms("know")))
        assert 'know("Ben","Elena")' in know


class TestConfig:
    def test_defaults(self):
        config = P3Config()
        assert config.probability_method == "exact"
        assert config.samples == 10000

    def test_validation(self):
        with pytest.raises(ValueError):
            P3Config(samples=0)
        with pytest.raises(ValueError):
            P3Config(hop_limit=0)

    def test_replace(self):
        config = P3Config(samples=500)
        updated = config.replace(seed=7)
        assert updated.samples == 500
        assert updated.seed == 7
        assert config.seed is None

    def test_replace_rejects_unknown(self):
        with pytest.raises(TypeError):
            P3Config().replace(bogus=1)

    def test_hop_limit_flows_to_polynomials(self):
        source = """
            t1 0.5: edge(1,2).
            t2 0.5: edge(2,3).
            t3 0.5: edge(3,4).
            r1 1.0: path(X,Y) :- edge(X,Y).
            r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
        """
        limited = P3.from_source(source, P3Config(hop_limit=2))
        limited.evaluate()
        assert limited.probability_of("path", 1, 4) == 0.0
        full = P3.from_source(source)
        full.evaluate()
        assert full.probability_of("path", 1, 4) == pytest.approx(0.125)

    def test_seeded_estimation_reproducible(self):
        config = P3Config(probability_method="mc", samples=2000, seed=11)
        first = P3.from_source(ACQUAINTANCE, config)
        first.evaluate()
        second = P3.from_source(ACQUAINTANCE, config)
        second.evaluate()
        assert first.probability_of("know", "Ben", "Elena") == \
            second.probability_of("know", "Ben", "Elena")
