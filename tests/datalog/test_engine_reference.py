"""Semi-naive engine vs a naive reference evaluator, on random programs.

The reference evaluator below is deliberately simple: re-derive everything
from everything until fixpoint, collecting (rule, head, body) firings into
a set.  The production engine must produce exactly the same model and the
same firing set on every random program hypothesis throws at it.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.provenance.graph import ProvenanceGraph, add_firings


def naive_reference(program):
    """Naive fixpoint: returns (atoms, firings) as string sets."""
    atoms = {fact.atom for fact in program.facts}
    firings = set()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            for binding in _all_bindings(rule, atoms):
                head = rule.head.substitute(binding)
                body = tuple(atom.substitute(binding) for atom in rule.body)
                key = (rule.label, str(head), tuple(map(str, body)))
                if key not in firings:
                    firings.add(key)
                    changed = True
                if head not in atoms:
                    atoms.add(head)
                    changed = True
    return {str(atom) for atom in atoms}, firings


def _all_bindings(rule, atoms):
    from repro.datalog.terms import unify_atom

    def extend(position, subst):
        if position == len(rule.body):
            if all(guard.evaluate(subst) for guard in rule.constraints):
                yield dict(subst)
            return
        pattern = rule.body[position]
        # Snapshot: the caller mutates `atoms` while consuming bindings;
        # anything added mid-sweep is picked up by the next fixpoint round.
        for atom in list(atoms):
            extended = unify_atom(pattern, atom, subst)
            if extended is not None:
                yield from extend(position + 1, extended)

    yield from extend(0, {})


@st.composite
def random_programs(draw):
    """Small random edge/path-style programs, possibly cyclic."""
    node_count = draw(st.integers(min_value=2, max_value=4))
    nodes = list(range(node_count))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edge_count = draw(st.integers(min_value=1, max_value=min(6, len(pairs))))
    edges = draw(st.permutations(pairs))[:edge_count]
    lines = ["t%d 0.5: edge(%d,%d)." % (i + 1, a, b)
             for i, (a, b) in enumerate(sorted(edges))]
    lines.append("r1 1.0: path(X,Y) :- edge(X,Y).")
    lines.append("r2 0.9: path(X,Z) :- edge(X,Y), path(Y,Z).")
    if draw(st.booleans()):
        lines.append("r3 0.8: loop(X) :- path(X,X).")
    if draw(st.booleans()):
        lines.append("r4 0.7: mutual(X,Y) :- path(X,Y), path(Y,X), X!=Y.")
    return "\n".join(lines)


class TestSemiNaiveCompleteness:
    @settings(max_examples=40, deadline=None)
    @given(random_programs())
    def test_same_model_and_firings(self, source):
        program = parse_program(source)
        engine = Engine(program)
        result = engine.run()
        graph = ProvenanceGraph()
        add_firings(graph, engine)
        engine_firings = {(e.rule_label, e.head, e.body)
                          for e in graph.executions()}
        engine_atoms = {str(atom) for atom in result.database.atoms()}

        reference_atoms, reference_firings = naive_reference(
            parse_program(source))

        assert engine_atoms == reference_atoms
        assert len(engine.firings) == len(reference_firings)
        assert engine_firings == reference_firings

    @settings(max_examples=20, deadline=None)
    @given(random_programs())
    def test_deterministic_across_runs(self, source):
        first = Engine(parse_program(source)).run()
        second = Engine(parse_program(source)).run()
        assert {str(a) for a in first.database.atoms()} == \
            {str(a) for a in second.database.atoms()}
        assert first.firing_count == second.firing_count


class TestParserRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(random_programs())
    def test_str_reparse_fixpoint(self, source):
        program = parse_program(source)
        once = str(program)
        twice = str(parse_program(once))
        assert once == twice

    @settings(max_examples=25, deadline=None)
    @given(random_programs())
    def test_reparsed_program_evaluates_identically(self, source):
        original = Engine(parse_program(source)).run()
        reparsed = Engine(parse_program(str(parse_program(source)))).run()
        assert {str(a) for a in original.database.atoms()} == \
            {str(a) for a in reparsed.database.atoms()}
