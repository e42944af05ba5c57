"""Unit tests for the magic-set transformation and goal-directed querying."""

import pytest

from repro.core.goal import goal_directed_query
from repro.datalog.ast import Program
from repro.datalog.engine import Engine
from repro.datalog.magic import (
    MagicTransformError,
    adorned_name,
    adornment_of,
    magic_name,
    magic_transform,
)
from repro.datalog.parser import parse_program
from repro.datalog.terms import Atom, Constant, Variable, atom as make_atom
from repro.data import ACQUAINTANCE, paper_fragment
from repro.inference import exact_probability
from repro.provenance import (
    ProvenanceGraph,
    add_firings,
    extract_polynomial,
    register_program,
)

TC = """
edge(1,2). edge(2,3). edge(3,4). edge(4,5). edge(10,11).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
"""


def evaluate(program):
    engine = Engine(program)
    result = engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return graph, result


def evaluate_magic(magic, program):
    """Evaluate a magic program over ``program``'s facts.

    The magic program holds only rules and its seed fact; the grounder
    reads the original facts in place from its fact store, so a
    stand-alone evaluation has to supply them.
    """
    return evaluate(Program(list(program.facts) + list(magic.program.facts)
                            + list(magic.program.rules)))


class TestAdornments:
    def test_all_constants_bound(self):
        assert adornment_of(make_atom("p", 1, "a"), set()) == "bb"

    def test_variables_free_unless_bound(self):
        x, y = Variable("X"), Variable("Y")
        atom = Atom("p", (x, y))
        assert adornment_of(atom, set()) == "ff"
        assert adornment_of(atom, {x}) == "bf"

    def test_names(self):
        assert adorned_name("path", "bf") == "path@bf"
        assert magic_name("path", "bf") == "m_path@bf"


class TestTransformValidation:
    def test_rejects_edb_query(self):
        program = parse_program(TC)
        with pytest.raises(MagicTransformError):
            magic_transform(program, make_atom("edge", 1, 2))

    def test_rejects_negation(self):
        program = parse_program("""
            p(1). q(1).
            r1 1.0: a(X) :- p(X), not q(X).
        """)
        with pytest.raises(MagicTransformError):
            magic_transform(program, make_atom("a", 1))


class TestEquivalence:
    def test_bound_bound_answers(self):
        program = parse_program(TC)
        magic = magic_transform(program, make_atom("path", 1, 4))
        graph, _ = evaluate_magic(magic, program)
        assert "path@bb(1,4)" in graph.tuple_keys()

    def test_bound_free_answers_match_full(self):
        pattern = Atom("path", (Constant(1), Variable("X")))
        result = goal_directed_query(
            parse_program(TC), "path", pattern=pattern)
        full_graph, _ = evaluate(parse_program(TC))
        expected = sorted(
            key for key in full_graph.tuple_keys()
            if key.startswith("path(1,"))
        assert result.answers() == expected

    def test_goal_directed_skips_irrelevant_component(self):
        # Node 10-11 is disconnected from the query; magic must not derive
        # any path tuples there.
        pattern = Atom("path", (Constant(1), Variable("X")))
        program = parse_program(TC)
        magic = magic_transform(program, pattern)
        graph, _ = evaluate_magic(magic, program)
        derived = [key for key in graph.tuple_keys()
                   if key.startswith("path@")]
        assert "path@bf(1,5)" in derived
        assert not any("10" in key for key in derived)

    @pytest.mark.parametrize("source, query, seed", [
        (TC, make_atom("path", 1, 4), "m_path@bb(1,4)"),
        # know/2 is IDB with base facts: bridged, not copied.
        (ACQUAINTANCE, make_atom("know", "Ben", "Elena"),
         'm_know@bb("Ben","Elena")'),
    ])
    def test_magic_program_holds_only_the_seed_fact(self, source, query,
                                                     seed):
        magic = magic_transform(parse_program(source), query)
        assert [str(fact.atom) for fact in magic.program.facts] == [seed]

    def test_fewer_firings_on_large_graph(self):
        lines = []
        for index in range(60):
            lines.append("edge(%d,%d)." % (index, index + 1))
        lines.append("r1 1.0: path(X,Y) :- edge(X,Y).")
        lines.append("r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).")
        source = "\n".join(lines)
        _, full = evaluate(parse_program(source))
        directed = goal_directed_query(parse_program(source), "path", 0, 5)
        assert directed.firing_count < full.firing_count

    def test_provenance_polynomial_identical_trust(self):
        program = paper_fragment().to_program()
        directed = goal_directed_query(program, "mutualTrustPath", 1, 6)
        normalized = directed.polynomial_of("mutualTrustPath(1,6)")
        full_graph, _ = evaluate(paper_fragment().to_program())
        full_poly = extract_polynomial(full_graph, "mutualTrustPath(1,6)")
        assert normalized == full_poly

    def test_provenance_polynomial_identical_acquaintance(self):
        # Exercises the base-fact bridge (know/2 is IDB with base facts)
        # and the recursive cycle.
        program = parse_program(ACQUAINTANCE)
        directed = goal_directed_query(program, "know", "Ben", "Elena")
        normalized = directed.polynomial_of('know("Ben","Elena")')
        full_graph, _ = evaluate(parse_program(ACQUAINTANCE))
        assert normalized == extract_polynomial(
            full_graph, 'know("Ben","Elena")')

    def test_probability_identical(self):
        program = paper_fragment().to_program()
        directed = goal_directed_query(program, "mutualTrustPath", 1, 6)
        normalized = directed.polynomial_of("mutualTrustPath(1,6)")
        full_graph, _ = evaluate(paper_fragment().to_program())
        probs = full_graph.probability_map()
        assert exact_probability(normalized, probs) == pytest.approx(
            0.354942, abs=1e-6)


class TestOriginalGraphTranslation:
    def test_hop_limited_extraction_identical(self):
        # The cleaned graph must agree with full evaluation even under hop
        # limits (derivation depths must line up exactly).
        from repro import P3, P3Config
        for limit in (1, 2, 3, None):
            result = goal_directed_query(
                paper_fragment().to_program(), "mutualTrustPath", 1, 6,
                config=P3Config(hop_limit=limit))
            full = P3(paper_fragment().to_program(),
                      P3Config(hop_limit=limit))
            full.evaluate()
            assert result.polynomial_of("mutualTrustPath(1,6)") == \
                full.polynomial_of("mutualTrustPath", 1, 6), \
                "hop limit %r diverged" % limit

    def test_no_magic_artifacts_in_graph(self):
        result = goal_directed_query(
            paper_fragment().to_program(), "mutualTrustPath", 1, 6)
        for key in result.graph.tuple_keys():
            assert "@" not in key
            assert not key.startswith("m_")
        for execution in result.graph.executions():
            assert "@" not in execution.rule_label

    def test_graph_subset_of_full(self):
        from repro import P3
        result = goal_directed_query(
            paper_fragment().to_program(), "mutualTrustPath", 1, 6)
        full = P3(paper_fragment().to_program())
        full.evaluate()
        assert result.graph.tuple_keys() <= full.graph.tuple_keys()
        assert result.graph.executions() <= full.graph.executions()


class TestGoalDirectedFacade:
    def test_ground_query(self):
        result = goal_directed_query(
            paper_fragment().to_program(), "mutualTrustPath", 1, 6)
        assert result.answers() == ["mutualTrustPath(1,6)"]
        assert result.probability_of(
            "mutualTrustPath(1,6)") == pytest.approx(0.354942, abs=1e-6)

    def test_pattern_query(self):
        pattern = Atom("trustPath", (Constant(1), Variable("X")))
        result = goal_directed_query(
            paper_fragment().to_program(), "trustPath", pattern=pattern)
        assert "trustPath(1,6)" in result.answers()

    def test_polynomial_matches_full_evaluation(self):
        from repro import P3
        result = goal_directed_query(
            parse_program(ACQUAINTANCE), "know", "Ben", "Elena")
        p3 = P3.from_source(ACQUAINTANCE)
        p3.evaluate()
        assert result.polynomial_of('know("Ben","Elena")') == \
            p3.polynomial_of("know", "Ben", "Elena")

    def test_grounds_without_an_engine(self, monkeypatch):
        from repro.datalog import engine as engine_module

        def explode(self, *args, **kwargs):
            raise AssertionError("goal_directed_query must not build an Engine")

        monkeypatch.setattr(engine_module.Engine, "__init__", explode)
        result = goal_directed_query(
            paper_fragment().to_program(), "mutualTrustPath", 1, 6)
        assert result.answers() == ["mutualTrustPath(1,6)"]

    def test_unknown_key_raises(self):
        result = goal_directed_query(
            paper_fragment().to_program(), "mutualTrustPath", 1, 6)
        with pytest.raises(KeyError):
            result.polynomial_of("other(1)")


class TestReservedRelations:
    """Programmatically built programs can smuggle in names the parser
    refuses; ``magic_transform`` must reject them with a typed error
    before generating colliding magic relations."""

    def _program_with(self, relation):
        from repro.datalog.ast import Fact, Program, Rule
        rule = Rule(Atom("p", (Variable("X"),)),
                    (Atom(relation, (Variable("X"),)),),
                    label="r1", probability=0.9)
        return Program([rule, Fact(make_atom(relation, 1), label="t1")])

    def test_magic_prefixed_relation_rejected(self):
        from repro.datalog.magic import ReservedRelationError
        program = self._program_with("m_aux")
        with pytest.raises(ReservedRelationError) as info:
            magic_transform(program, make_atom("p", 1))
        assert "m_aux" in info.value.names
        assert "m_aux" in str(info.value)

    def test_adorned_separator_relation_rejected(self):
        from repro.datalog.magic import ReservedRelationError
        program = self._program_with("path@bb")
        with pytest.raises(ReservedRelationError):
            magic_transform(program, make_atom("p", 1))

    def test_reserved_query_relation_rejected(self):
        from repro.datalog.ast import Fact, Program, Rule
        from repro.datalog.magic import ReservedRelationError
        rule = Rule(Atom("m_p", (Variable("X"),)),
                    (Atom("q", (Variable("X"),)),),
                    label="r1", probability=0.9)
        program = Program([rule, Fact(make_atom("q", 1), label="t1")])
        with pytest.raises(ReservedRelationError):
            magic_transform(program, make_atom("m_p", 1))

    def test_error_is_transform_error(self):
        from repro.datalog.magic import ReservedRelationError
        assert issubclass(ReservedRelationError, MagicTransformError)


class TestDepthIndexedDemand:
    BEN_ELENA = make_atom("know", "Ben", "Elena")

    def test_unbounded_transform_is_unchanged(self):
        magic = magic_transform(parse_program(ACQUAINTANCE), self.BEN_ELENA)
        assert magic.depth is None
        assert str(magic.program).splitlines() == [
            'magicseed 1.0: m_know@bb("Ben","Elena").',
            "r1@bb 0.8: know@bb(P1,P2) :- m_know@bb(P1,P2), live(P1,C), "
            "live(P2,C), P1!=P2.",
            "r2@bb 0.4: know@bb(P1,P2) :- m_know@bb(P1,P2), like(P1,L), "
            "like(P2,L), P1!=P2.",
            "mg1 1.0: m_know@bf(P1) :- m_know@bb(P1,P3).",
            "mg2 1.0: m_know@bb(P2,P3) :- m_know@bb(P1,P3), know@bf(P1,P2).",
            "r3@bb 0.2: know@bb(P1,P3) :- m_know@bb(P1,P3), know@bf(P1,P2), "
            "know@bb(P2,P3), P1!=P3.",
            "r1@bf 0.8: know@bf(P1,P2) :- m_know@bf(P1), live(P1,C), "
            "live(P2,C), P1!=P2.",
            "r2@bf 0.4: know@bf(P1,P2) :- m_know@bf(P1), like(P1,L), "
            "like(P2,L), P1!=P2.",
            "mg3 1.0: m_know@bf(P1) :- m_know@bf(P1).",
            "mg4 1.0: m_know@bf(P2) :- m_know@bf(P1), know@bf(P1,P2).",
            "r3@bf 0.2: know@bf(P1,P3) :- m_know@bf(P1), know@bf(P1,P2), "
            "know@bf(P2,P3), P1!=P3.",
            "bridge1 1.0: know@bb(V0,V1) :- m_know@bb(V0,V1), know(V0,V1).",
            "bridge2 1.0: know@bf(V0,V1) :- m_know@bf(V0), know(V0,V1).",
        ]

    def test_seed_carries_the_depth_and_successors_lower_it(self):
        magic = magic_transform(parse_program(ACQUAINTANCE), self.BEN_ELENA,
                                depth=3)
        assert magic.depth == 3
        assert [str(fact.atom) for fact in magic.program.facts] == [
            'm_know@bb("Ben","Elena",3)', "m_succ(1,0)", "m_succ(2,1)",
            "m_succ(3,2)"]

    def test_rules_fire_and_demand_only_below_remaining_depth_one(self):
        magic = magic_transform(parse_program(TC), make_atom("path", 1, 4),
                                depth=2)
        rules = {rule.label: str(rule) for rule in magic.program.rules}
        # path holds no base facts: it is never demanded at depth 0, and
        # a rule reading it fires only at remaining depth 2 or more.
        assert rules["mg1"] == (
            "mg1 1.0: m_path@bb(Y,Z,@R1) :- m_path@bb(X,Z,@R), "
            "m_succ(@R,@R1), m_succ(@R1,@R2), edge(X,Y).")
        assert rules["r2@bb"] == (
            "r2@bb 1.0: path@bb(X,Z) :- m_path@bb(X,Z,@R), m_succ(@R,@R1), "
            "m_succ(@R1,@R2), edge(X,Y), path@bb(Y,Z).")
        assert rules["r1@bb"] == (
            "r1@bb 1.0: path@bb(X,Y) :- m_path@bb(X,Y,@R), m_succ(@R,@R1), "
            "edge(X,Y).")

    def test_base_relations_are_bridged_at_any_depth(self):
        magic = magic_transform(parse_program(ACQUAINTANCE), self.BEN_ELENA,
                                depth=1)
        rules = {rule.label: str(rule) for rule in magic.program.rules}
        assert rules["bridge1"] == (
            "bridge1 1.0: know@bb(V0,V1) :- m_know@bb(V0,V1,@R), "
            "know(V0,V1).")
        # know holds base facts, so demand reaches it at depth 0.
        assert rules["mg1"] == (
            "mg1 1.0: m_know@bf(P1,@R1) :- m_know@bb(P1,P3,@R), "
            "m_succ(@R,@R1).")

    @pytest.mark.parametrize("depth", [-1, 1.5, True, "2"])
    def test_rejects_invalid_depth(self, depth):
        with pytest.raises(ValueError, match="depth"):
            magic_transform(parse_program(TC), make_atom("path", 1, 4),
                            depth=depth)
