"""Differential tests: depth-indexed demand against unbounded grounding.

``ground_goal(program, key, depth=H)`` grounds only what extraction at hop
limit ``H`` can read.  For every derived key of a family of generated
programs — linear, non-linear, left-recursive, a two-atom ``mutual``
head and comparison guards, each with base facts in an IDB relation —
extraction over the bounded graph must equal extraction over the
unbounded one by ``str()``, and a root the bounded goal leaves out must
have a zero polynomial at that hop limit.
"""

import random

import pytest

from repro.data import ACQUAINTANCE
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_atom, parse_program
from repro.ground import ground_goal
from repro.provenance import (
    ProvenanceGraph, add_firings, extract_polynomial, register_program)

HOP_LIMITS = (0, 1, 2, 4)

#: Rule sets over edge facts ``e/2`` and base facts of the IDB ``p/2``.
SHAPES = {
    "linear": """
        r1 0.9: p(X,Y) :- e(X,Y).
        r2 0.8: p(X,Z) :- e(X,Y), p(Y,Z).
    """,
    "nonlinear": """
        r1 0.9: p(X,Y) :- e(X,Y).
        r2 0.7: p(X,Z) :- p(X,Y), p(Y,Z).
    """,
    "left-recursive": """
        r1 0.9: p(X,Y) :- e(X,Y).
        r2 0.8: p(X,Z) :- p(X,Y), e(Y,Z).
    """,
    "mutual": """
        r1 0.9: p(X,Y) :- e(X,Y).
        r2 0.8: p(X,Z) :- e(X,Y), p(Y,Z).
        r3 0.6: mutual(X,Y) :- p(X,Y), p(Y,X).
    """,
    "guards": """
        r1 0.9: p(X,Y) :- e(X,Y).
        r2 0.8: p(X,Z) :- e(X,Y), p(Y,Z), X!=Z.
        r3 0.7: q(X,Z) :- p(X,Y), p(Y,Z), X<Z.
    """,
}


def generated(shape: str, seed: int) -> str:
    """``SHAPES[shape]`` over a random 5-node graph with two base ``p``s."""
    rng = random.Random("%s-%d" % (shape, seed))
    pairs = [(a, b) for a in range(5) for b in range(5) if a != b]
    lines = ["e%d %.2f: e(%d,%d)." % (index, rng.choice((0.5, 0.6, 0.9)),
                                      a, b)
             for index, (a, b) in enumerate(rng.sample(pairs, 7))]
    lines += ["b%d 0.4: p(%d,%d)." % (index, a, b)
              for index, (a, b) in enumerate(rng.sample(pairs, 2))]
    return "\n".join(lines) + SHAPES[shape]


def derived_keys(program):
    engine = Engine(program)
    engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return sorted(key for key in graph.tuple_keys() if graph.is_derived(key))


def mismatches(source: str):
    """Every (key, hop limit) where bounded and unbounded grounding
    extract differently; also returns how many checks ran."""
    program = parse_program(source)
    found, checks = [], 0
    for key in derived_keys(program):
        pattern = parse_atom(key)
        unbounded = ground_goal(program, pattern).graph
        for hop in HOP_LIMITS:
            bounded = ground_goal(program, pattern, depth=hop)
            assert bounded.stats["depth"] == hop
            expected = str(extract_polynomial(unbounded, key, hop_limit=hop))
            if key in bounded.graph:
                got = str(extract_polynomial(bounded.graph, key,
                                             hop_limit=hop))
            else:
                got = "0"  # a root left out must extract to zero
            checks += 1
            if got != expected:
                found.append((key, hop, got, expected))
    return found, checks


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(8))
def test_bounded_extraction_equals_unbounded(shape, seed):
    found, checks = mismatches(generated(shape, seed))
    assert checks > 0
    assert found == []


def test_acquaintance_at_every_hop_limit():
    found, checks = mismatches(ACQUAINTANCE)
    assert checks > 0
    assert found == []


def test_base_facts_are_read_at_remaining_depth_zero():
    # know(a,c) at hop 1 is r3 over two base facts read at depth 0: the
    # bridge rule has to fire under demand at depth 0.
    program = parse_program("""
        k1 0.5: know(1,2).
        k2 0.6: know(2,3).
        r3 0.2: know(X,Z) :- know(X,Y), know(Y,Z), X!=Z.
    """)
    goal = ground_goal(program, parse_atom("know(1,3)"), depth=1)
    assert str(extract_polynomial(goal.graph, "know(1,3)", hop_limit=1)) \
        == "r3·know(1,2)·know(2,3)"


def test_bounded_goal_grounds_less_and_records_its_depth():
    source = "\n".join("e%d 0.9: e(%d,%d)." % (i, i, i + 1)
                       for i in range(12)) + SHAPES["linear"]
    program = parse_program(source)
    unbounded = ground_goal(program, parse_atom("p(0,3)"))
    bounded = ground_goal(program, parse_atom("p(0,3)"), depth=3)
    assert bounded.stats["firings"] < unbounded.stats["firings"]
    assert unbounded.stats["depth"] is None
    assert bounded.stats["depth"] == 3
