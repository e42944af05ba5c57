"""Bottom-up evaluation with provenance capture.

The engine evaluates a compiled ProbLog program to fixpoint.  Unlike a plain
Datalog engine, which only cares about *which* tuples are derivable, the
provenance requirements of Section 3 demand that **every distinct rule
firing** be enumerated — a firing that re-derives an existing tuple is a new
derivation and must appear in the provenance graph.  The semi-naive loop
that guarantees this lives in :mod:`repro.datalog.fixpoint` and runs over
interned rows; the engine seeds it, stratifies programs with negation, and
renders each new row's tuple key once.  The evaluated model is the fact
store's rows, read through a :class:`~repro.datalog.arena.ModelView`.

Provenance is captured once (Section 3.2): each firing lands in the
engine's packed :class:`~repro.datalog.rewrite.FiringTable`, from which
:func:`repro.provenance.graph.add_firings` builds the provenance graph.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from .. import telemetry
from .arena import FactStore, ModelView
from .ast import ClauseError, Fact, Program
from .fixpoint import EvaluationError, FiringSink, Fixpoint, RulePlan
from .rewrite import CompiledRule, FiringTable, compile_program
from .terms import Atom

__all__ = ["Engine", "EvaluationError", "EvaluationResult", "evaluate"]


class EvaluationResult:
    """Outcome of running the engine: the evaluated model plus statistics.

    ``database`` is the model's :class:`~repro.datalog.arena.ModelView`;
    a warm-started :class:`~repro.core.system.P3` leaves it ``None``
    until its rows are first read.
    """

    def __init__(self, database: Optional[ModelView], rounds: int,
                 firing_count: int, elapsed_seconds: float,
                 derived_count: int) -> None:
        self.database = database
        self.rounds = rounds
        self.firing_count = firing_count
        self.elapsed_seconds = elapsed_seconds
        self.derived_count = derived_count

    def __repr__(self) -> str:
        return (
            "EvaluationResult(rounds=%d, firings=%d, derived=%d, %.3fs)"
            % (self.rounds, self.firing_count, self.derived_count,
               self.elapsed_seconds)
        )


class Engine:
    """Bottom-up semi-naive evaluator for a ProbLog program.

    Parameters
    ----------
    program:
        The parsed program to evaluate.
    max_rounds / max_tuples:
        Safety limits; exceeding either raises :class:`EvaluationError`.
        ``max_tuples`` counts every stored tuple plus the rows of the
        paper's ``prov``/``rule`` tables
        (:meth:`~repro.datalog.rewrite.FiringTable.row_count`).

    After :meth:`run`, ``firings`` holds every firing and ``keys`` the
    tuple key of every stored row, by gid; :meth:`extend` propagates
    inserted base facts into the evaluated model (negation-free programs
    only) and appends to both.
    """

    def __init__(self, program: Program,
                 max_rounds: Optional[int] = None,
                 max_tuples: Optional[int] = None) -> None:
        self.program = program
        self.max_rounds = max_rounds
        self.max_tuples = max_tuples
        compiled: List[CompiledRule] = compile_program(program)
        self._negation = any(rule.negations for rule in program.rules)
        # Stratified evaluation: rules run lowest stratum first so negated
        # relations are complete before any rule negating them fires.  For
        # negation-free programs this is a single stratum.
        if self._negation:
            from .stratification import rule_strata, validate_program
            validate_program(program)
            by_rule = {id(c.rule): c for c in compiled}
            self._strata: List[List[CompiledRule]] = [
                [by_rule[id(rule)] for rule in group]
                for group in rule_strata(program)
            ]
        else:
            self._strata = [compiled] if compiled else [[]]
        self._fixpoint: Optional[Fixpoint] = None
        self.firings = FiringTable()
        #: gid → tuple key, for every stored row (base facts and derived).
        self.keys: List[str] = []

    @property
    def database(self) -> ModelView:
        """The evaluated model (after :meth:`run`)."""
        return self._model

    @property
    def rounds(self) -> int:
        return self._fixpoint.rounds if self._fixpoint is not None else 0

    @property
    def firing_count(self) -> int:
        return (self._fixpoint.firing_count
                if self._fixpoint is not None else 0)

    def run(self) -> EvaluationResult:
        """Evaluate the program to fixpoint and return the result.

        With telemetry enabled the whole fixpoint is one
        ``evaluate.fixpoint`` span carrying round/firing/derived counts.
        """
        rt = telemetry.runtime()
        if not rt.enabled:
            return self._run()
        with rt.tracer.span("evaluate.fixpoint",
                            rules=len(self.program.rules),
                            strata=len(self._strata)) as span:
            result = self._run()
            span.set_attributes(rounds=result.rounds,
                                firings=result.firing_count,
                                derived=result.derived_count)
        return result

    def _run(self) -> EvaluationResult:
        start = time.perf_counter()
        store = self._store = FactStore()
        firings = self.firings = FiringTable()
        self.keys = []
        self._model = ModelView([store])
        # The callbacks close over the evaluation state, not the engine,
        # so a discarded engine is freed by reference counting alone.
        self._fixpoint = Fixpoint(
            store, self._strata, _firing_sink(store, self.keys, firings),
            max_rounds=self.max_rounds, max_tuples=self.max_tuples,
            stored_rows=lambda: store.count() + firings.row_count())
        for fact in self.program.facts:
            self._seed(fact)
        base_count = self._store.count()
        self._fixpoint.run()
        return EvaluationResult(
            self._model, self._fixpoint.rounds,
            self._fixpoint.firing_count, time.perf_counter() - start,
            self._store.count() - base_count)

    def extend(self, facts: Sequence[Fact]) -> EvaluationResult:
        """Insert base facts into the evaluated model and propagate them.

        The new facts are the next semi-naive delta of the kept fixpoint,
        so every new firing is enumerated exactly once and the result
        equals evaluating the extended program from scratch.  A fact
        whose atom is already a base fact is skipped; one whose atom is
        already derived is recorded as a base fact without a new row.
        Returns the delta's statistics.  Programs with negation are
        refused: an insertion could retract negation-dependent tuples.
        """
        if self._negation:
            raise ClauseError(
                "Incremental insertion does not support negation: an "
                "insertion could retract negation-dependent tuples")
        if self._fixpoint is None:
            raise RuntimeError("Engine.extend requires a completed run()")
        start = time.perf_counter()
        fixpoint = self._fixpoint
        before_rows = self._store.count()
        before_rounds, before_firings = fixpoint.rounds, fixpoint.firing_count
        inserted = sum(1 for fact in facts if self._seed(fact))
        if inserted:
            fixpoint.resume()
        return EvaluationResult(
            self._model, fixpoint.rounds - before_rounds,
            fixpoint.firing_count - before_firings,
            time.perf_counter() - start,
            self._store.count() - before_rows - inserted)

    # -- internals ---------------------------------------------------------

    def _seed(self, fact: Fact) -> bool:
        """Store one base fact; True when it added a row.

        A fact whose row was derived before becomes a base fact too — it
        adds a base derivation, not a row.  A repeated base fact is
        skipped.
        """
        atom = fact.atom
        meta = (fact.probability, fact.label)
        gid, inserted = self._store.add(atom.relation, atom.as_values(),
                                        meta=meta)
        if inserted:
            self.keys.append(str(atom))
        elif self._store.meta(gid) is None:
            self._store.set_meta(gid, meta)
        return inserted


def _firing_sink(store: FactStore, keys: List[str],
                 firings: FiringTable) -> FiringSink:
    """The per-firing callback: render a new head's key once and pack the
    firing into the table."""
    constant = store.arena.constant
    append = firings.append

    def on_firing(plan: RulePlan, head: int, body: Tuple[int, ...],
                  inserted: bool) -> None:
        if inserted:
            table, position = store.location(head)
            keys.append(str(Atom(table.name, tuple(
                constant(tid) for tid in table.rows[position]))))
        append(plan, head, body)

    return on_firing


def evaluate(program: Program,
             max_rounds: Optional[int] = None,
             max_tuples: Optional[int] = None) -> EvaluationResult:
    """Convenience wrapper: build an :class:`Engine` and run it."""
    return Engine(program, max_rounds=max_rounds,
                  max_tuples=max_tuples).run()
