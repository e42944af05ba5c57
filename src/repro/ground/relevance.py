"""Demand-driven grounding: magic sets evaluated over the term arena.

:func:`ground_goal` runs the existing magic-set transform
(:mod:`repro.datalog.magic`) for one query pattern and evaluates the
rewritten program with the shared semi-naive loop
(:mod:`repro.datalog.fixpoint`) over a
:class:`~repro.datalog.arena.FactStore` overlay — original EDB tables
are read in place, and only the demand (``m_*``) and adorned relations
the query actually reaches are ever materialized.  The result is
translated straight into a *cleaned*
:class:`~repro.provenance.graph.ProvenanceGraph` in original terms:

- magic tuples and the executions deriving them are dropped,
- bridge executions (adorned wrappers around stored IDB facts) collapse
  onto the base tuple they wrap,
- adorned rule labels map back to the original labels.

With a ``depth`` (a hop limit), demand is indexed by the remaining depth
(see :mod:`repro.datalog.magic`): only derivations extraction at that hop
limit can read are grounded.

This is the only magic-set evaluation path: the planner
(:mod:`repro.ground.planner`) and
:func:`repro.core.goal.goal_directed_query` both run it.  Tuple keys are
rendered through ``str(Atom(...))`` — the same code path the engine's
tuple keys take — so extraction over the grounded subgraph yields
polynomials byte-identical to full evaluation (asserted in
``tests/ground/``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..datalog.arena import FactStore
from ..datalog.ast import Program, Rule
from ..datalog.fixpoint import Fixpoint
from ..datalog.magic import (
    ADORN_SEP, MAGIC_PREFIX, MagicProgram, magic_transform)
from ..datalog.rewrite import FiringTable, compile_program
from ..datalog.terms import Atom, unify_atom
from ..provenance.graph import ProvenanceGraph, RuleExecution

#: Rule roles in the magic-transformed program.
_KIND_MAGIC = "magic"      # derives m_* demand tuples; pure bookkeeping
_KIND_ADORNED = "adorned"  # adorned copy of an original rule
_KIND_BRIDGE = "bridge"    # wraps a stored IDB fact into its adorned copy


class GroundedGoal:
    """Outcome of query-directed grounding for one pattern.

    Attributes
    ----------
    pattern:
        The queried atom.
    magic:
        The :class:`~repro.datalog.magic.MagicProgram` that was evaluated.
    graph:
        Cleaned provenance subgraph in original relations and rule labels
        — the query-relevant part of what full evaluation would build.
    answers:
        Original-relation tuple keys matching the pattern, in derivation
        order.
    atoms:
        Derived ground atoms (original relations) that are not base
        facts, for merging into the planner's model.
    stats:
        Evaluation counters: depth, rounds, firings, derived_rows,
        total_rows, seconds.
    """

    __slots__ = ("pattern", "magic", "graph", "answers", "atoms", "stats")

    def __init__(self, pattern: Atom, magic: MagicProgram,
                 graph: ProvenanceGraph, answers: List[str],
                 atoms: List[Atom], stats: Dict[str, Any]) -> None:
        self.pattern = pattern
        self.magic = magic
        self.graph = graph
        self.answers = answers
        self.atoms = atoms
        self.stats = stats


def ground_goal(program: Program, pattern: Atom,
                base_store: Optional[FactStore] = None,
                max_rounds: Optional[int] = None,
                max_tuples: Optional[int] = None,
                depth: Optional[int] = None) -> GroundedGoal:
    """Ground ``program`` restricted to derivations relevant to ``pattern``.

    ``base_store`` — a :class:`FactStore` previously built from the same
    program — lets repeated goals share interned EDB tables; when omitted
    one is built on the fly.  ``max_rounds`` / ``max_tuples`` carry the
    engine's safety-rail semantics (``max_tuples`` counts all facts
    visible to the grounder) and raise
    :class:`~repro.datalog.engine.EvaluationError` when exceeded.
    ``depth`` grounds only the derivations extraction at that hop limit
    can read; ``None`` grounds every derivation.

    Raises :class:`~repro.datalog.magic.MagicTransformError` for programs
    outside the magic fragment (negation, non-IDB query relation,
    reserved names).
    """
    rt = telemetry.runtime()
    if not rt.enabled:
        return _ground_goal(program, pattern, base_store,
                            max_rounds, max_tuples, depth)
    with rt.tracer.span("ground.goal", pattern=str(pattern)) as span:
        goal = _ground_goal(program, pattern, base_store,
                            max_rounds, max_tuples, depth)
        span.set_attributes(answers=len(goal.answers), **goal.stats)
    return goal


def _ground_goal(program: Program, pattern: Atom,
                 base_store: Optional[FactStore],
                 max_rounds: Optional[int],
                 max_tuples: Optional[int],
                 depth: Optional[int]) -> GroundedGoal:
    started = time.perf_counter()
    magic = magic_transform(program, pattern, depth)
    if base_store is None:
        base_store = FactStore.from_program(program)
    store = FactStore(parent=base_store)

    # The magic program's only facts are its seed and successor table;
    # EDB rows and IDB base facts are read in place from the parent tables.
    for fact in magic.program.facts:
        store.add(fact.atom.relation, fact.atom.as_values())

    firings = FiringTable()
    fixpoint = Fixpoint(
        store, [compile_program(magic.program)], firings.append,
        max_rounds=max_rounds, max_tuples=max_tuples)
    fixpoint.run()

    graph, answers, atoms = _translate(store, magic, firings, pattern)
    stats = {
        "depth": depth,
        "rounds": fixpoint.rounds,
        "firings": len(firings),
        "derived_rows": store.local_count(),
        "total_rows": store.count(),
        "seconds": time.perf_counter() - started,
    }
    return GroundedGoal(pattern, magic, graph, answers, atoms, stats)


# -- translation to a cleaned provenance graph ---------------------------------


def _rule_kind(rule: Rule, magic: MagicProgram) -> str:
    if rule.head.relation.startswith(MAGIC_PREFIX):
        return _KIND_MAGIC
    if rule.label in magic.label_map:
        return _KIND_ADORNED
    return _KIND_BRIDGE


def _translate(store: FactStore, magic: MagicProgram,
               firings: FiringTable, pattern: Atom
               ) -> Tuple[ProvenanceGraph, List[str], List[Atom]]:
    graph = ProvenanceGraph()
    for rule in magic.program.rules:
        original = magic.label_map.get(rule.label)
        if original is not None:
            graph.add_rule(original, rule.probability)

    key_of: Dict[int, str] = {}
    atom_rows: Set[Tuple[str, Tuple[int, ...]]] = set()
    atoms: List[Atom] = []

    def render(gid: int) -> str:
        """Original-terms key for a grounded fact, registering base-ness.

        Adorned and original spellings of one tuple render to the same
        bytes because both go through ``str(Atom(...))`` — the exact key
        path of the engine's tuple keys.
        """
        key = key_of.get(gid)
        if key is not None:
            return key
        table, position = store.location(gid)
        row = table.rows[position]
        relation = table.name
        at = relation.find(ADORN_SEP)
        original_relation = relation[:at] if at != -1 else relation
        arena = store.arena
        atom = Atom(original_relation,
                    tuple(arena.constant(tid) for tid in row))
        key = str(atom)
        key_of[gid] = key
        meta = store.meta(gid)
        if meta is None and at != -1:
            # Adorned copy: if the original relation stores this very row,
            # the stripped key *is* that base fact (bridge collapse).
            original_table = store.table(original_relation)
            if original_table is not None:
                base_position = original_table.local_index(row)
                if base_position is not None:
                    meta = store.meta(original_table.gids[base_position])
        if meta is not None:
            graph.add_base_tuple(key, meta[0], meta[1])
        elif at != -1 and (original_relation, row) not in atom_rows:
            atom_rows.add((original_relation, row))
            atoms.append(atom)
        return key

    kinds = {rule.label: _rule_kind(rule, magic)
             for rule in magic.program.rules}
    for rule, head_gid, body_gids in firings.rows():
        kind = kinds[rule.label]
        if kind == _KIND_MAGIC:
            continue
        if kind == _KIND_BRIDGE:
            # rel@ad(args) <- [m_..., rel(args)]: the wrapped base tuple
            # takes the adorned tuple's place and the execution vanishes.
            for gid in body_gids:
                if not store.relation_of(gid).startswith(MAGIC_PREFIX):
                    render(gid)
            continue
        head_key = render(head_gid)
        body_keys = tuple(
            render(gid) for gid in body_gids
            if not store.relation_of(gid).startswith(MAGIC_PREFIX))
        graph.add_execution(RuleExecution(
            magic.label_map[rule.label], head_key, body_keys,
            rule.probability))

    answers: List[str] = []
    answer_table = store.table(magic.query_relation)
    if answer_table is not None:
        arena = store.arena
        for position, gid in enumerate(answer_table.gids):
            # The adorned answer table holds every tuple derived under
            # this adornment — including ones sub-demands asked for.
            # Only tuples unifying with the query pattern are answers.
            ground = Atom(pattern.relation,
                          tuple(arena.constant(tid)
                                for tid in answer_table.rows[position]))
            if unify_atom(pattern, ground) is None:
                continue
            answers.append(render(gid))
    return graph, answers, atoms
