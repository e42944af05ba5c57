"""Stratified-negation engine vs a naive stratified reference evaluator.

The reference computes strata with the same analysis, then runs a naive
(everything-against-everything) fixpoint per stratum with negation checked
against the accumulating database.  The production engine must agree on
every random stratifiable program hypothesis produces.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datalog.stratification import rule_strata
from repro.datalog.terms import unify_atom


def naive_stratified_reference(program):
    """Naive stratum-by-stratum fixpoint; returns atom strings."""
    atoms = {fact.atom for fact in program.facts}
    for stratum in rule_strata(program):
        changed = True
        while changed:
            changed = False
            for rule in stratum:
                for binding in _bindings(rule, atoms):
                    if not all(guard.evaluate(binding)
                               for guard in rule.constraints):
                        continue
                    if any(neg.substitute(binding) in atoms
                           for neg in rule.negations):
                        continue
                    head = rule.head.substitute(binding)
                    if head not in atoms:
                        atoms.add(head)
                        changed = True
    return {str(atom) for atom in atoms}


def _bindings(rule, atoms):
    def extend(position, subst):
        if position == len(rule.body):
            yield dict(subst)
            return
        pattern = rule.body[position]
        for atom in list(atoms):
            extended = unify_atom(pattern, atom, subst)
            if extended is not None:
                yield from extend(position + 1, extended)

    yield from extend(0, {})


@st.composite
def stratified_programs(draw):
    """Random 3-stratum programs: facts, reachability, negation layers."""
    node_count = draw(st.integers(min_value=2, max_value=4))
    nodes = list(range(node_count))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edge_count = draw(st.integers(min_value=1, max_value=min(5, len(pairs))))
    edges = sorted(draw(st.permutations(pairs))[:edge_count])
    flagged = sorted(set(
        draw(st.lists(st.sampled_from(nodes), max_size=2))))

    lines = ["node(%d)." % n for n in nodes]
    lines += ["edge(%d,%d)." % (a, b) for a, b in edges]
    lines += ["flag(%d)." % n for n in flagged]
    lines += [
        "r1 1.0: reach(X,Y) :- edge(X,Y).",
        "r2 1.0: reach(X,Z) :- edge(X,Y), reach(Y,Z).",
        "r3 1.0: clean(X) :- node(X), not flag(X).",
        "r4 1.0: island(X,Y) :- node(X), node(Y), not reach(X,Y), X != Y.",
    ]
    if draw(st.booleans()):
        lines.append(
            "r5 1.0: goodpair(X,Y) :- island(X,Y), clean(X), not flag(Y).")
    return "\n".join(lines)


class TestStratifiedEngineReference:
    @settings(max_examples=40, deadline=None)
    @given(stratified_programs())
    def test_same_model(self, source):
        engine_result = Engine(parse_program(source)).run()
        engine_atoms = {str(a) for a in engine_result.database.atoms()}
        reference = naive_stratified_reference(parse_program(source))
        assert engine_atoms == reference

    @settings(max_examples=20, deadline=None)
    @given(stratified_programs())
    def test_negation_free_subset_unaffected(self, source):
        # reach/2 lives in the bottom stratum and must equal what the plain
        # positive program derives.
        positive_only = "\n".join(
            line for line in source.splitlines()
            if not line.startswith(("r3", "r4", "r5")))
        full = Engine(parse_program(source)).run()
        plain = Engine(parse_program(positive_only)).run()
        full_reach = {str(a) for a in full.database.atoms("reach")}
        plain_reach = {str(a) for a in plain.database.atoms("reach")}
        assert full_reach == plain_reach
