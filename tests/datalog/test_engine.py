"""Unit tests for semi-naive evaluation and firing capture."""

import pytest

from repro.datalog.ast import Fact
from repro.datalog.engine import Engine, EvaluationError, evaluate
from repro.datalog.parser import parse_program
from repro.datalog.terms import atom
from repro.provenance.graph import ProvenanceGraph, register_program


TC = """
t1 1.0: edge(1,2).
t2 1.0: edge(2,3).
t3 1.0: edge(3,4).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
"""


def firings_of(engine):
    """Every firing in the engine's table as (label, head, body) keys."""
    keys = engine.keys
    return [(rule.label, keys[head], tuple(keys[gid] for gid in body))
            for rule, head, body in engine.firings.rows()]


def derived(result, relation):
    return set(map(str, result.database.atoms(relation)))


class TestBasicEvaluation:
    def test_transitive_closure(self):
        result = evaluate(parse_program(TC))
        assert derived(result, "path") == {
            "path(1,2)", "path(2,3)", "path(3,4)",
            "path(1,3)", "path(2,4)", "path(1,4)",
        }

    def test_nonrecursive_join(self):
        result = evaluate(parse_program("""
            p(1). q(1). q(2).
            r1 1.0: both(X) :- p(X), q(X).
        """))
        assert derived(result, "both") == {"both(1)"}

    def test_guards_filter(self):
        result = evaluate(parse_program("""
            n(1). n(2). n(3).
            r1 1.0: pair(X,Y) :- n(X), n(Y), X<Y.
        """))
        assert derived(result, "pair") == {
            "pair(1,2)", "pair(1,3)", "pair(2,3)",
        }

    def test_constants_in_rule_body(self):
        result = evaluate(parse_program("""
            p(1,"a"). p(2,"b").
            r1 1.0: onlya(X) :- p(X,"a").
        """))
        assert derived(result, "onlya") == {"onlya(1)"}

    def test_no_rules(self):
        result = evaluate(parse_program("p(1). p(2)."))
        assert result.derived_count == 0
        assert result.rounds == 1

    def test_facts_not_duplicated(self):
        result = evaluate(parse_program("p(1). r1 1.0: p2(X) :- p(X)."))
        assert result.database.count("p") == 1

    def test_cyclic_graph_terminates(self):
        result = evaluate(parse_program("""
            edge(1,2). edge(2,3). edge(3,1).
            r1 1.0: path(X,Y) :- edge(X,Y).
            r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
        """))
        # Full closure of a 3-cycle: all 9 ordered pairs.
        assert len(derived(result, "path")) == 9

    def test_mutual_recursion(self):
        result = evaluate(parse_program("""
            start(1).
            r1 1.0: even(X) :- start(X).
            r2 1.0: odd(Y) :- even(X), succ(X,Y).
            r3 1.0: even(Y) :- odd(X), succ(X,Y).
            succ(1,2). succ(2,3). succ(3,4).
        """))
        assert derived(result, "even") == {"even(1)", "even(3)"}
        assert derived(result, "odd") == {"odd(2)", "odd(4)"}


class TestFiringCapture:
    def test_every_distinct_firing_recorded(self):
        engine = Engine(parse_program(TC))
        engine.run()
        firings = firings_of(engine)
        # r1 fires 3× (one per edge); r2 fires once per (edge, path) pair:
        # (1,2)+path(2,*): 2 firings; (2,3)+path(3,4): 1; total 3.
        r1 = [f for f in firings if f[0] == "r1"]
        r2 = [f for f in firings if f[0] == "r2"]
        assert len(r1) == 3
        assert len(r2) == 3

    def test_no_duplicate_firings(self):
        engine = Engine(parse_program(TC))
        engine.run()
        firings = firings_of(engine)
        assert len(firings) == len(set(firings))

    def test_rederivation_of_base_fact_recorded(self):
        # know(Ben,Steve) is base AND re-derivable through the recursive
        # rule — the paper's cyclic-provenance situation.
        from repro.data import ACQUAINTANCE
        engine = Engine(parse_program(ACQUAINTANCE))
        engine.run()
        heads = [head for _, head, _ in firings_of(engine)]
        assert 'know("Ben","Steve")' in heads

    def test_multiple_derivations_same_tuple_all_recorded(self):
        engine = Engine(parse_program("""
            p(1). q(1).
            r1 1.0: d(X) :- p(X).
            r2 1.0: d(X) :- q(X).
        """))
        engine.run()
        derivations = [f for f in firings_of(engine) if f[1] == "d(1)"]
        assert {f[0] for f in derivations} == {"r1", "r2"}

    def test_facts_recorded(self):
        program = parse_program("t1 0.5: p(1). t2 0.7: p(1).")
        engine = Engine(program)
        engine.run()
        assert engine.keys == ["p(1)"]
        graph = ProvenanceGraph()
        register_program(graph, program)
        # The first of repeated base facts counts, as in the store.
        assert graph.base_probability("p(1)") == 0.5
        assert graph.base_label("p(1)") == "t1"

    def test_firing_count_matches_recorder(self):
        engine = Engine(parse_program(TC))
        result = engine.run()
        assert result.firing_count == len(engine.firings)

    def test_semi_naive_matches_naive_firings(self):
        # Ground truth: enumerate firings naively on the final database.
        program = parse_program(TC)
        engine = Engine(program)
        result = engine.run()
        paths = derived(result, "path")
        edges = derived(result, "edge")
        expected = set()
        import re
        pairs = {tuple(map(int, re.findall(r"\d+", e))) for e in edges}
        path_pairs = {tuple(map(int, re.findall(r"\d+", p))) for p in paths}
        for (x, y) in pairs:
            expected.add(("r1", "path(%d,%d)" % (x, y),
                          ("edge(%d,%d)" % (x, y),)))
        for (x, y) in pairs:
            for (a, z) in path_pairs:
                if a == y:
                    expected.add(("r2", "path(%d,%d)" % (x, z),
                                  ("edge(%d,%d)" % (x, y),
                                   "path(%d,%d)" % (y, z))))
        assert set(firings_of(engine)) == expected


class TestCaptureTables:
    def test_capture_tables_present_by_default(self):
        engine = Engine(parse_program(TC))
        result = engine.run()
        # One prov row per firing plus one rule row per body tuple: r1's
        # three firings have one body tuple each, r2's three have two.
        assert engine.firings.row_count() == 6 + 3 + 3 * 2
        assert result.database.relations() == ["edge", "path"]

    def test_one_prov_row_per_firing(self):
        engine = Engine(parse_program(TC))
        result = engine.run()
        assert len(engine.firings) == result.firing_count

    def test_derived_count_excludes_capture_rows(self):
        result = evaluate(parse_program(TC))
        assert result.derived_count == 6  # the six path tuples


class TestLimits:
    def test_max_rounds(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_program(TC), max_rounds=1)

    def test_max_tuples(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_program(TC), max_tuples=4)

    def test_limits_permit_normal_run(self):
        result = evaluate(parse_program(TC), max_rounds=10, max_tuples=1000)
        assert result.rounds <= 10


class TestDeterminism:
    def test_same_result_across_runs(self):
        first = evaluate(parse_program(TC))
        second = evaluate(parse_program(TC))
        assert derived(first, "path") == derived(second, "path")
        assert first.firing_count == second.firing_count
