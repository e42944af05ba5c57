"""Possible-worlds check: P3's answer is the probability of the goal.

Under the paper's semantics every base tuple and every rule label is an
independent Boolean variable (Cozman & Mauá, *On the Semantics and
Complexity of Probabilistic Logic Programs*).  For programs of at most 12
such variables this test enumerates every world, evaluates each one with
a naive fixpoint written here (it shares no code with the engine, the
grounder, extraction or inference), and sums the weights of the worlds
in which the goal holds.  ``P3.probability_of`` must give that sum under
full and query grounding with no hop limit.
"""

import itertools
import random

import pytest

from repro import P3, P3Config
from repro.audit.generator import generate_cases
from repro.datalog.parser import parse_program
from repro.datalog.terms import Atom, Constant, Variable

MAX_VARIABLES = 12

LINEAR = (
    "r1 0.9: path(X,Y) :- edge(X,Y).\n"
    "r2 0.7: path(X,Z) :- edge(X,Y), path(Y,Z), X!=Z.\n"
)
DOUBLY = (
    "r1 0.9: path(X,Y) :- edge(X,Y).\n"
    "r2 0.6: path(X,Z) :- path(X,Y), path(Y,Z), X!=Z.\n"
)
MUTUAL = (
    "r1 0.9: odd(X,Y) :- edge(X,Y).\n"
    "r2 0.8: even(X,Z) :- odd(X,Y), edge(Y,Z), X!=Z.\n"
    "r3 0.7: odd(X,Z) :- even(X,Y), edge(Y,Z), X!=Z.\n"
)


def _edge_program(rules, seed, edges):
    """``rules`` over a random, possibly cyclic digraph on four nodes."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    lines = [rules]
    for index, (src, dst) in enumerate(rng.sample(pairs, edges)):
        lines.append("e%d %.2f: edge(%d,%d)."
                     % (index + 1, rng.uniform(0.2, 0.95), src, dst))
    return "\n".join(lines)


def _rule_set_programs():
    programs = []
    for name, rules in (("linear", LINEAR), ("doubly", DOUBLY),
                        ("mutual", MUTUAL)):
        for seed in (0, 1):
            programs.append(("%s-%d" % (name, seed),
                             _edge_program(rules, seed, 8)))
    return programs


def _audit_programs():
    cases = generate_cases(60, seed=0)
    return [(case.name, case.program_source) for case in cases
            if case.is_program_case]


# -- the oracle -------------------------------------------------------------------

def _bind(pattern, ground, binding):
    if pattern.relation != ground.relation or \
            len(pattern.args) != len(ground.args):
        return None
    binding = dict(binding)
    for term, value in zip(pattern.args, ground.args):
        if isinstance(term, Variable):
            if binding.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return binding


def _matches(body, atoms, binding):
    if not body:
        yield binding
        return
    for atom in atoms:
        extended = _bind(body[0], atom, binding)
        if extended is not None:
            yield from _matches(body[1:], atoms, extended)


def _value(term, binding):
    return binding[term] if isinstance(term, Variable) else term


def _guards_hold(rule, binding):
    for guard in rule.constraints:
        left = _value(guard.left, binding)
        right = _value(guard.right, binding)
        assert guard.op in ("!=", "==") and isinstance(left, Constant)
        if (left == right) != (guard.op == "=="):
            return False
    return True


def _model(facts, rules):
    """Every atom a naive bottom-up fixpoint derives from one world."""
    atoms = set(facts)
    while True:
        derived = {
            Atom(rule.head.relation,
                 [_value(term, binding) for term in rule.head.args])
            for rule in rules
            for binding in _matches(rule.body, list(atoms), {})
            if _guards_hold(rule, binding)
        }
        if derived <= atoms:
            return atoms
        atoms |= derived


def possible_worlds(source):
    """``{goal key: P[goal]}`` for every atom the rules can derive."""
    program = parse_program(source)
    facts, rules = program.facts, program.rules
    assert not any(rule.negations for rule in rules)
    clauses = facts + rules
    assert len(clauses) <= MAX_VARIABLES
    heads = {rule.head.relation for rule in rules}
    totals = {}
    for world in itertools.product((False, True), repeat=len(clauses)):
        weight = 1.0
        for clause, present in zip(clauses, world):
            weight *= clause.probability if present else \
                1.0 - clause.probability
        model = _model(
            [fact.atom for fact, present in zip(facts, world) if present],
            [rule for rule, present in zip(rules, world[len(facts):])
             if present])
        for atom in model:
            if atom.relation in heads:
                totals[str(atom)] = totals.get(str(atom), 0.0) + weight
    return totals


# -- the check --------------------------------------------------------------------

PROGRAMS = _rule_set_programs() + _audit_programs()


@pytest.mark.parametrize("grounding", ["full", "query"])
@pytest.mark.parametrize("name,source", PROGRAMS,
                         ids=[name for name, _ in PROGRAMS])
def test_probability_is_the_weight_of_the_worlds(name, source, grounding):
    expected = possible_worlds(source)
    assert expected
    p3 = P3.from_source(source, P3Config(grounding=grounding))
    p3.evaluate()
    for key, weight in sorted(expected.items()):
        assert p3.probability_of(key) == pytest.approx(weight, abs=1e-12), \
            key


def test_oracle_sees_the_guard():
    # path(1,1) needs a cycle through 1, which the X!=Z guard cuts.
    source = (LINEAR + "e1 0.5: edge(1,2).\ne2 0.5: edge(2,1).\n")
    worlds = possible_worlds(source)
    assert "path(1,1)" not in worlds
    assert worlds["path(1,2)"] == pytest.approx(0.9 * 0.5)
