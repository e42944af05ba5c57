"""Incremental provenance maintenance: insert facts without re-evaluating.

Section 3.2's premise is that provenance is maintained *alongside*
evaluation; in a live system the base data keeps changing.  Deletion is
already served by provenance itself (:mod:`repro.queries.whatif` — no
re-evaluation needed).  This module adds the insertion side: an
:class:`IncrementalSession` keeps the engine's fixpoint state (interned
tables and the round snapshots that delimit semi-naive deltas) alive
between updates, so newly inserted facts are treated as just another
delta of the same loop — every new rule firing is enumerated exactly
once, and the provenance graph grows in place.

The result is guaranteed identical to evaluating the extended program from
scratch (model, firing set, and polynomials — property-tested in
``tests/datalog/test_incremental.py``).  The :class:`repro.core.system.P3`
facade keeps one session alive after ``evaluate()`` (for negation-free
programs) and exposes insertion through ``P3.add_facts``, growing the
provenance graph and probability map in place.

Limitations: insertion only (monotone growth; deletions would require
DRed-style retraction of derived state), and no stratified negation (an
insertion into a lower stratum can invalidate negation-dependent tuples,
which is a retraction in disguise).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .. import telemetry
from .ast import ClauseError, Fact, Program
from .database import Database
from .engine import Engine, EvaluationResult, ProvenanceRecorder


class IncrementalSession:
    """A resumable evaluation: full run first, then per-insertion deltas.

    The session owns an :class:`~repro.datalog.engine.Engine` whose
    fixpoint state (interned tables and their round snapshots) stays
    alive between updates; inserted facts are appended as the next
    semi-naive delta of the same loop.
    """

    def __init__(self, program: Program,
                 recorder: Optional[ProvenanceRecorder] = None,
                 capture_tables: bool = True,
                 max_rounds: Optional[int] = None,
                 max_tuples: Optional[int] = None) -> None:
        if any(rule.negations for rule in program.rules):
            raise ClauseError(
                "IncrementalSession does not support negation: an insertion "
                "could retract negation-dependent tuples")
        self.program = program
        self.recorder = recorder
        self.capture_tables = capture_tables
        self.max_rounds = max_rounds
        self.max_tuples = max_tuples
        self._engine = Engine(program, recorder=recorder,
                              capture_tables=capture_tables,
                              max_rounds=max_rounds, max_tuples=max_tuples)
        self._insertions = 0
        #: The initial full evaluation, summarised exactly like an
        #: ``Engine.run()`` so the session can stand in for the engine in
        #: the P3 facade.
        self.initial_result = self._engine.run()

    # -- public API ----------------------------------------------------------

    @property
    def database(self) -> Database:
        return self._engine.database

    @property
    def firing_count(self) -> int:
        return self._engine.firing_count

    @property
    def rounds(self) -> int:
        return self._engine.rounds

    @property
    def insertions(self) -> int:
        """How many insertion batches have been applied."""
        return self._insertions

    def add_fact(self, fact: Fact) -> EvaluationResult:
        """Insert one fact; returns statistics for the delta evaluation."""
        return self.add_facts([fact])

    def add_facts(self, facts: Iterable[Fact]) -> EvaluationResult:
        """Insert a batch of facts and propagate their consequences.

        New facts form the next semi-naive delta; rounds then run until
        fixpoint.  Duplicate facts are ignored (a duplicate of an existing
        tuple adds no derivations).

        With telemetry enabled the delta propagation is one
        ``update.delta`` span carrying inserted/round/firing counts.
        """
        rt = telemetry.runtime()
        if not rt.enabled:
            return self._add_facts(facts)
        with rt.tracer.span("update.delta") as span:
            delta = self._add_facts(facts)
            span.set_attributes(rounds=delta.rounds,
                                firings=delta.firing_count,
                                derived=delta.derived_count)
        return delta

    def _add_facts(self, facts: Iterable[Fact]) -> EvaluationResult:
        database = self.database
        fresh: List[Fact] = []
        seen = set()
        for fact in facts:
            if not isinstance(fact, Fact):
                raise TypeError("add_facts expects Fact instances")
            if self._label_taken(fact):
                raise ClauseError(
                    "Duplicate clause label: %r" % fact.label)
            if fact.atom in database or fact.atom in seen:
                continue
            seen.add(fact.atom)
            self.program.add(fact)
            fresh.append(fact)
        delta = self._engine.extend(fresh)
        if fresh:
            self._insertions += 1
        return delta

    # -- internals ---------------------------------------------------------------

    def _label_taken(self, fact: Fact) -> bool:
        if fact.label is None:
            return False
        try:
            self.program.fact_by_label(fact.label)
            return True
        except KeyError:
            return False

    def __repr__(self) -> str:
        return ("IncrementalSession(<%d tuples, %d firings, %d insertions>)"
                % (self.database.count(), self.firing_count,
                   self._insertions))
