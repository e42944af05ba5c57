"""Unit tests for stratification analysis and stratified negation."""

import pytest

from repro.datalog.engine import evaluate
from repro.datalog.parser import parse_clause, parse_program
from repro.datalog.stratification import (
    StratificationError,
    check_negation_determinism,
    dependency_edges,
    deterministic_relations,
    rule_strata,
    stratify,
    support_closure,
    validate_program,
)


def derived(result, relation):
    return set(map(str, result.database.atoms(relation)))


class TestParserNegation:
    def test_not_keyword(self):
        rule = parse_clause("r1 1.0: q(X) :- p(X), not s(X).")
        assert len(rule.negations) == 1
        assert rule.negations[0].relation == "s"

    def test_prolog_naf_operator(self):
        rule = parse_clause("r1 1.0: q(X) :- p(X), \\+ s(X).")
        assert len(rule.negations) == 1

    def test_not_as_relation_name_still_parses(self):
        # 'not' immediately followed by '(' is a relation named not.
        rule = parse_clause("r1 1.0: q(X) :- not(X).")
        assert rule.body[0].relation == "not"
        assert not rule.negations

    def test_roundtrip(self):
        rule = parse_clause("r1 1.0: q(X) :- p(X), not s(X).")
        assert str(parse_clause(str(rule))) == str(rule)

    def test_unsafe_negation_rejected(self):
        with pytest.raises(Exception):
            parse_clause("r1 1.0: q(X) :- p(X), not s(Y).")


class TestStratify:
    def test_negation_free_single_stratum(self):
        program = parse_program("""
            p(1).
            r1 1.0: q(X) :- p(X).
            r2 1.0: s(X) :- q(X).
        """)
        strata = stratify(program)
        assert strata["p"] == strata["q"] == strata["s"] == 0

    def test_negation_bumps_stratum(self):
        program = parse_program("""
            p(1). q(1).
            r1 1.0: a(X) :- p(X), not q(X).
            r2 1.0: b(X) :- a(X).
        """)
        strata = stratify(program)
        assert strata["q"] == 0
        assert strata["a"] == 1
        assert strata["b"] == 1

    def test_chained_negation(self):
        program = parse_program("""
            p(1).
            r1 1.0: a(X) :- p(X), not b(X).
            r2 1.0: b(X) :- p(X), not c(X).
            r3 1.0: c(X) :- p(X).
        """)
        strata = stratify(program)
        assert strata["c"] < strata["b"] < strata["a"]

    def test_unstratifiable_rejected(self):
        program = parse_program("""
            s(1).
            r1 1.0: a(X) :- s(X), not b(X).
            r2 1.0: b(X) :- s(X), not a(X).
        """)
        with pytest.raises(StratificationError):
            stratify(program)

    def test_negation_inside_recursion_rejected(self):
        program = parse_program("""
            e(1,2).
            r1 1.0: p(X,Y) :- e(X,Y).
            r2 1.0: p(X,Y) :- e(X,Z), p(Z,Y), not p(Y,X).
        """)
        with pytest.raises(StratificationError):
            stratify(program)

    def test_dependency_edges_include_negative(self):
        program = parse_program("""
            p(1).
            r1 1.0: a(X) :- p(X), not q(X).
        """)
        assert ("a", "q", True) in dependency_edges(program)
        assert ("a", "p", False) in dependency_edges(program)

    def test_rule_strata_grouping(self):
        program = parse_program("""
            p(1).
            r1 1.0: a(X) :- p(X).
            r2 1.0: b(X) :- p(X), not a(X).
        """)
        groups = rule_strata(program)
        assert [r.label for r in groups[0]] == ["r1"]
        assert [r.label for r in groups[1]] == ["r2"]


class TestDeterminism:
    def test_probabilistic_fact_breaks_determinism(self):
        program = parse_program("t1 0.5: p(1). q(1).")
        deterministic = deterministic_relations(program)
        assert "p" not in deterministic
        assert "q" in deterministic

    def test_probabilistic_rule_propagates(self):
        program = parse_program("""
            q(1).
            r1 0.5: a(X) :- q(X).
            r2 1.0: b(X) :- a(X).
        """)
        deterministic = deterministic_relations(program)
        assert "a" not in deterministic
        assert "b" not in deterministic
        assert "q" in deterministic

    def test_support_closure(self):
        program = parse_program("""
            q(1).
            r1 1.0: a(X) :- q(X).
            r2 1.0: b(X) :- a(X).
        """)
        assert support_closure(program, "b") == {"b", "a", "q"}

    def test_negating_probabilistic_relation_rejected(self):
        program = parse_program("""
            t1 0.5: p(1).
            q(1).
            r1 1.0: bad(X) :- q(X), not p(X).
        """)
        with pytest.raises(StratificationError):
            check_negation_determinism(program)

    def test_negating_deterministic_relation_allowed(self):
        program = parse_program("""
            p(1). q(1). q(2).
            r1 0.7: ok(X) :- q(X), not p(X).
        """)
        validate_program(program)  # must not raise


class TestStratifiedEvaluation:
    def test_set_difference(self):
        result = evaluate(parse_program("""
            all(1). all(2). all(3).
            some(2).
            r1 1.0: rest(X) :- all(X), not some(X).
        """))
        assert derived(result, "rest") == {"rest(1)", "rest(3)"}

    def test_unreachable_pairs(self):
        result = evaluate(parse_program("""
            node(1). node(2). node(3).
            edge(1,2). edge(2,3).
            r1 1.0: reach(X,Y) :- edge(X,Y).
            r2 1.0: reach(X,Z) :- edge(X,Y), reach(Y,Z).
            r3 1.0: cut(X,Y) :- node(X), node(Y), not reach(X,Y), X != Y.
        """))
        assert "cut(1,2)" not in derived(result, "cut")
        assert "cut(1,3)" not in derived(result, "cut")
        assert "cut(3,1)" in derived(result, "cut")

    def test_negation_with_probabilistic_upper_stratum(self):
        # The negated relation is deterministic; the rule using negation
        # may itself be probabilistic.
        result = evaluate(parse_program("""
            person(1). person(2).
            banned(2).
            r1 0.6: eligible(X) :- person(X), not banned(X).
        """))
        assert derived(result, "eligible") == {"eligible(1)"}

    def test_provenance_recorded_for_negation_rules(self):
        from repro.provenance import (
            ProvenanceGraph, add_firings, register_program)
        from repro.datalog.engine import Engine
        from repro.provenance import extract_polynomial
        program = parse_program("""
            person(1).
            banned(2).
            r1 0.6: eligible(X) :- person(X), not banned(X).
        """)
        engine = Engine(program)
        engine.run()
        graph = ProvenanceGraph()
        register_program(graph, program)
        add_firings(graph, engine)
        poly = extract_polynomial(graph, "eligible(1)")
        # Negated subgoals contribute nothing to the polynomial.
        keys = {lit.key for lit in poly.literals()}
        assert keys == {"r1", "person(1)"}

    def test_three_strata_pipeline(self):
        result = evaluate(parse_program("""
            item(1). item(2). item(3).
            flagged(1).
            r1 1.0: clean(X) :- item(X), not flagged(X).
            r2 1.0: promoted(X) :- clean(X), not flagged(X).
            r3 1.0: rejected(X) :- item(X), not clean(X).
        """))
        assert derived(result, "clean") == {"clean(2)", "clean(3)"}
        assert derived(result, "promoted") == {"promoted(2)", "promoted(3)"}
        assert derived(result, "rejected") == {"rejected(1)"}

    def test_recursion_below_negation(self):
        result = evaluate(parse_program("""
            edge(1,2). edge(2,3). node(1). node(2). node(3). node(4).
            r1 1.0: reach(X,Y) :- edge(X,Y).
            r2 1.0: reach(X,Z) :- edge(X,Y), reach(Y,Z).
            r3 1.0: isolated(X) :- node(X), not reach(1,X), X != 1.
        """))
        assert derived(result, "isolated") == {"isolated(4)"}

    def test_unstratifiable_program_fails_at_engine(self):
        with pytest.raises(StratificationError):
            evaluate(parse_program("""
                s(1).
                r1 1.0: a(X) :- s(X), not b(X).
                r2 1.0: b(X) :- s(X), not a(X).
            """))
