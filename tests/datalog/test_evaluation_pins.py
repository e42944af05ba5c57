"""Pinned evaluation outputs: the fixpoint's observable behaviour, frozen.

Every number below was recorded from the engine and must not drift when
the evaluation loop changes underneath: round counts, firing counts,
derived-tuple counts, per-relation cardinalities, the row count of the
paper's ``prov``/``rule`` tables (the engine's firing table), a digest of
the sorted rule execution ids, and whether the
``max_rounds``/``max_tuples`` safety rails trip.

Regenerate a pin only when evaluation semantics change on purpose, by
calling :func:`print_pins` (with ``src`` on the path, from the
repository root) and pasting what it prints.
"""

import hashlib

import pytest

from repro import P3, P3Config
from repro.data import ACQUAINTANCE, generate_network
from repro.datalog.ast import Fact
from repro.datalog.engine import Engine, EvaluationError
from repro.datalog.parser import parse_program
from repro.datalog.terms import atom as make_atom
from repro.provenance.graph import (
    ProvenanceGraph, add_firings, register_program)

STRATIFIED = """
node(1). node(2). node(3). node(4).
edge(1,2). edge(2,3). edge(3,1). edge(4,4).
flag(2).
r1 1.0: reach(X,Y) :- edge(X,Y).
r2 1.0: reach(X,Z) :- edge(X,Y), reach(Y,Z).
r3 1.0: clean(X) :- node(X), not flag(X).
r4 1.0: island(X,Y) :- node(X), node(Y), not reach(X,Y), X != Y.
r5 1.0: goodpair(X,Y) :- island(X,Y), clean(X), not flag(Y).
"""

TC = """
t1 1.0: edge(1,2).
t2 1.0: edge(2,3).
t3 1.0: edge(3,4).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
"""

_SAMPLE = {}


def trust_sample_source():
    """The seed-7 100-node BFS sample of the synthetic trust network."""
    if "source" not in _SAMPLE:
        sample = generate_network().bfs_sample(100, seed=7)
        _SAMPLE["source"] = str(sample.to_program())
    return _SAMPLE["source"]


def digest(exec_ids):
    return hashlib.sha256(
        "\n".join(sorted(exec_ids)).encode("utf-8")).hexdigest()


def observe(result, graph, engine):
    """The pinned view of one evaluation."""
    exec_ids = [execution.exec_id for execution in graph.executions()]
    return {
        "rounds": result.rounds,
        "firings": result.firing_count,
        "derived": result.derived_count,
        "counts": dict(sorted(result.database.snapshot_counts().items())),
        "table_rows": engine.firings.row_count(),
        "exec_sha256": digest(exec_ids),
    }


def run_engine(source, **limits):
    program = parse_program(source)
    engine = Engine(program, **limits)
    result = engine.run()
    graph = ProvenanceGraph()
    register_program(graph, program)
    add_firings(graph, engine)
    return observe(result, graph, engine)


def run_session(source, inserted=()):
    """P3 initial run plus one ``add_facts`` batch; both observed."""
    system = P3(parse_program(source), P3Config())
    initial = observe(system.evaluate(), system.graph, system._engine)
    if not inserted:
        return initial, None
    delta = system.add_facts(list(inserted))
    after = observe(delta, system.graph, system._engine)
    return initial, after


def trips(source, **limits):
    try:
        Engine(parse_program(source), **limits).run()
    except EvaluationError:
        return True
    return False


ACQ_PIN = {
    "rounds": 3, "firings": 6, "derived": 3,
    "counts": {"know": 4, "like": 2, "live": 3},
    # prov_ + rule_ rows
    "table_rows": 6 + 12,
    "exec_sha256":
        "145720185fac11e20b157beb0322984898ffc452591c7789163ce43a78081405",
}
TRUST_PIN = {
    "rounds": 10, "firings": 22737, "derived": 11350,
    "counts": {"mutualTrustPath": 4556, "trust": 224, "trustPath": 6794},
    "table_rows": 22737 + 45250,
    "exec_sha256":
        "5677dce79da0438ccb61b013ed9e02e457c4e924a3888e9c38e8dee211ce87da",
}
STRATIFIED_PIN = {
    "rounds": 7, "firings": 27, "derived": 23,
    "counts": {"clean": 3, "edge": 4, "flag": 1, "goodpair": 4,
               "island": 6, "node": 4, "reach": 10},
    "table_rows": 27 + 47,
    "exec_sha256":
        "f6d31c708780fc78f136fae70015a30c23f114fd4285f3ae2912ebf635c8b095",
}
TC_INITIAL_PIN = {
    "rounds": 4, "firings": 6, "derived": 6,
    "counts": {"edge": 3, "path": 6},
    "table_rows": 6 + 9,
    "exec_sha256":
        "80cf7d56ee22bad75f5e5b74e9ef6cd98e2c19edcad8b2d50273ac6cf28c68f7",
}
#: The insertion delta's own rounds/firings/derived, with the counts and
#: digest of the whole grown model.
TC_DELTA_PIN = {
    "rounds": 5, "firings": 19, "derived": 14,
    "counts": {"edge": 5, "path": 20},
    "table_rows": 25 + 45,
    "exec_sha256":
        "394310da933d6d49ebec68658304258abd27926d10aba8452ceab3994b3d196b",
}

TC_INSERTED = (Fact(make_atom("edge", 4, 1), 0.5, "n1"),
               Fact(make_atom("edge", 4, 5), 0.5, "n2"))

#: (source name, limits, trips?).  Tuple limits count every stored row
#: plus the ``table_rows``; each pair sits on either side of the model's
#: final size or round count.
LIMIT_PINS = [
    ("tc", {"max_rounds": 4}, False),
    ("tc", {"max_rounds": 3}, True),
    ("tc", {"max_tuples": 24}, False),
    ("tc", {"max_tuples": 12}, True),
    ("stratified", {"max_rounds": 7}, False),
    ("stratified", {"max_rounds": 6}, True),
    ("stratified", {"max_tuples": 106}, False),
    ("stratified", {"max_tuples": 60}, True),
    ("trust", {"max_rounds": 10}, False),
    ("trust", {"max_rounds": 9}, True),
    ("trust", {"max_tuples": 79561}, False),
    ("trust", {"max_tuples": 40000}, True),
]

SOURCES = {
    "acquaintance": lambda: ACQUAINTANCE,
    "trust": trust_sample_source,
    "stratified": lambda: STRATIFIED,
    "tc": lambda: TC,
}


def print_pins():
    """Print freshly recorded pins in this module's literal format."""
    for name, value in (
            ("ACQ_PIN", run_engine(ACQUAINTANCE)),
            ("TRUST_PIN", run_engine(trust_sample_source())),
            ("STRATIFIED_PIN", run_engine(STRATIFIED)),
            ("TC_INITIAL_PIN / TC_DELTA_PIN",
             run_session(TC, inserted=TC_INSERTED))):
        print(name, "=", repr(value))
    for name, limits, _ in LIMIT_PINS:
        print(name, limits, trips(SOURCES[name](), **limits))


class TestEnginePins:
    def test_acquaintance(self):
        assert run_engine(ACQUAINTANCE) == ACQ_PIN

    def test_trust_sample(self):
        assert run_engine(trust_sample_source()) == TRUST_PIN

    def test_stratified_negation(self):
        assert run_engine(STRATIFIED) == STRATIFIED_PIN


class TestSessionPins:
    def test_session_initial_matches_engine_pins(self):
        initial, _ = run_session(trust_sample_source())
        assert initial == TRUST_PIN
        initial, _ = run_session(ACQUAINTANCE)
        assert initial == run_engine(ACQUAINTANCE)

    def test_insertion_delta(self):
        initial, after = run_session(TC, inserted=TC_INSERTED)
        assert initial == TC_INITIAL_PIN
        assert after == TC_DELTA_PIN


class TestLimitPins:
    @pytest.mark.parametrize("name,limits,expected", LIMIT_PINS,
                             ids=["%s-%s" % (name, "-".join(
                                 "%s=%d" % item
                                 for item in sorted(limits.items())))
                                 for name, limits, _ in LIMIT_PINS])
    def test_limit_trips(self, name, limits, expected):
        assert trips(SOURCES[name](), **limits) is expected
