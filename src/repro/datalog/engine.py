"""Bottom-up evaluation with provenance capture.

The engine evaluates a compiled ProbLog program to fixpoint.  Unlike a plain
Datalog engine, which only cares about *which* tuples are derivable, the
provenance requirements of Section 3 demand that **every distinct rule
firing** be enumerated — a firing that re-derives an existing tuple is a new
derivation and must appear in the provenance graph.  The semi-naive loop
that guarantees this lives in :mod:`repro.datalog.fixpoint` and runs over
interned rows; the engine seeds it, stratifies programs with negation, and
materialises each new tuple once as an atom, for the recorder.  The
evaluated model is the fact store's rows, read through a
:class:`~repro.datalog.arena.ModelView`.

Provenance is captured two ways simultaneously (both per Section 3.2):

- a :class:`ProvenanceRecorder` callback receives facts and firings as they
  happen (the live path used to build the provenance graph), and
- ``prov_``/``rule_`` capture tuples join the model itself (the
  relational-tables path; see :class:`~repro.datalog.rewrite.CaptureTables`),
  unless disabled for baseline timing runs.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from .. import telemetry
from .arena import FactStore, ModelView
from .ast import ClauseError, Fact, Program, Rule
from .fixpoint import EvaluationError, FiringSink, Fixpoint, RulePlan
from .rewrite import CaptureTables, CompiledRule, compile_program
from .terms import Atom

__all__ = ["Engine", "EvaluationError", "EvaluationResult",
           "ProvenanceRecorder", "evaluate"]


class ProvenanceRecorder(Protocol):
    """Callback protocol for live provenance capture."""

    def record_fact(self, fact: Fact) -> None:
        """Called once per base fact seeded into the model."""

    def record_firing(self, rule: Rule, head: Atom,
                      body: Tuple[Atom, ...]) -> None:
        """Called once per distinct rule firing (head and ground body)."""


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
    recorder:
        Optional live provenance recorder (e.g.
        :class:`repro.provenance.graph.GraphBuilder`).
    capture_tables:
        When True (default), keep the ``prov_``/``rule_`` capture tables
        of the Section 3.2 rewrite in the model.  Disable to measure
        the "without provenance" baseline of Figure 9.
    max_rounds / max_tuples:
        Safety limits; exceeding either raises :class:`EvaluationError`.
        ``max_tuples`` counts every stored tuple, capture rows included.

    After :meth:`run`, :meth:`extend` propagates inserted base facts into
    the evaluated model (negation-free programs only).
    """

    def __init__(self, program: Program,
                 recorder: Optional[ProvenanceRecorder] = None,
                 capture_tables: bool = True,
                 max_rounds: Optional[int] = None,
                 max_tuples: Optional[int] = None) -> None:
        self.program = program
        self.recorder = recorder
        self.capture_tables = capture_tables
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
        self._store = FactStore()
        #: gid → atom, for every stored row (base facts and derived).
        self._atoms: List[Atom] = []
        captures = CaptureTables(self._atoms) if self.capture_tables else None
        self._model = ModelView([self._store], captures)
        # The sinks close over the evaluation state, not the engine, so a
        # discarded engine is freed by reference counting alone.
        self._fixpoint = Fixpoint(
            self._store, self._strata,
            _firing_sink(self._store, self._atoms, captures, self.recorder),
            max_rounds=self.max_rounds, max_tuples=self.max_tuples,
            stored_rows=_row_counter(self._store, captures))
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
        """Store and record one base fact; True when it added a row.

        A fact whose row was derived before is recorded too — it adds a
        base derivation, not a row.  A repeated base fact is skipped.
        """
        atom = fact.atom
        meta = (fact.probability, fact.label)
        gid, inserted = self._store.add(atom.relation, atom.as_values(),
                                        meta=meta)
        if inserted:
            self._atoms.append(atom)
        elif self._store.meta(gid) is None:
            self._store.set_meta(gid, meta)
        else:
            return False
        if self.recorder is not None:
            self.recorder.record_fact(fact)
        return inserted


def _firing_sink(store: FactStore, atoms: List[Atom],
                 captures: Optional[CaptureTables],
                 recorder: Optional[ProvenanceRecorder]) -> FiringSink:
    """The per-firing callback: materialise a new head once, capture the
    firing by id, and report it to the recorder as atoms."""
    constant = store.arena.constant

    def on_firing(plan: RulePlan, head: int, body: Tuple[int, ...],
                  inserted: bool) -> None:
        if inserted:
            table, position = store.location(head)
            atom = Atom(table.name, tuple(
                constant(tid) for tid in table.rows[position]))
            atoms.append(atom)
        if captures is not None:
            captures.append(plan.compiled, head, body)
        if recorder is not None:
            recorder.record_firing(
                plan.rule, atoms[head], tuple(atoms[gid] for gid in body))

    return on_firing


def _row_counter(store: FactStore, captures: Optional[CaptureTables]
                 ) -> Callable[[], int]:
    """Every stored row, capture rows included (the ``max_tuples`` count)."""
    if captures is None:
        return store.count
    return lambda: store.count() + captures.row_count()


def evaluate(program: Program,
             recorder: Optional[ProvenanceRecorder] = None,
             capture_tables: bool = True,
             max_rounds: Optional[int] = None,
             max_tuples: Optional[int] = None) -> EvaluationResult:
    """Convenience wrapper: build an :class:`Engine` and run it."""
    engine = Engine(program, recorder=recorder, capture_tables=capture_tables,
                    max_rounds=max_rounds, max_tuples=max_tuples)
    return engine.run()
