"""The P3 system facade: program in, provenance queries out.

Typical use::

    from repro import P3

    p3 = P3.from_source(PROGRAM_TEXT)
    p3.evaluate()
    print(p3.probability_of("know", "Ben", "Elena"))
    explanation = p3.explain("know", "Ben", "Elena")
    report = p3.influence("know", "Ben", "Elena", kind="tuple")
    plan = p3.modify("know", "Ben", "Elena", target=0.5)

    p3.add_facts('t9 0.8: live("Dana","NYC").')   # live update: provenance
    print(p3.probability_of("know", "Dana", "Ben"))  # grows in place

Tuples can be addressed either by relation name plus argument values, or by
their canonical key string (e.g. ``'know("Ben","Elena")'``).
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from .. import telemetry
from ..datalog.arena import FactStore, ModelView
from ..datalog.ast import Fact, Program
from ..datalog.engine import Engine, EvaluationResult
from ..datalog.parser import parse_atom, parse_facts, parse_program
from ..datalog.terms import Atom, atom as make_atom
from ..exec.specs import QuerySpec
from ..provenance.graph import ProvenanceGraph, add_firings, register_program
from ..provenance.polynomial import (
    Literal,
    Polynomial,
    rule_literal,
    tuple_literal,
)
from ..queries.derivation import SufficientProvenance
from ..queries.explanation import Explanation
from ..queries.influence import InfluenceReport
from ..queries.modification import ModificationPlan
from ..queries.topk import top_k_derivations
from ..queries.whatif import WhatIfReport, what_if_deletion
from .config import P3Config
from .errors import NotEvaluatedError, UnknownLiteralError, UnknownTupleError

if TYPE_CHECKING:
    from ..exec.executor import QueryExecutor
    from ..ground.planner import GroundingPlanner
    from ..telemetry.metrics import MetricsRegistry


class P3:
    """Provenance for Probabilistic logic Programs.

    Construct from a :class:`~repro.datalog.ast.Program` (or use
    :meth:`from_source`/:meth:`from_file`), call :meth:`evaluate` once, then
    issue any number of provenance queries.
    """

    def __init__(self, program: Program,
                 config: Optional[P3Config] = None) -> None:
        self.program = program
        self.config = config or P3Config()
        if self.config.telemetry is not None:
            from .. import telemetry
            telemetry.configure(self.config.telemetry)
        self._result: Optional[EvaluationResult] = None
        self._graph: Optional[ProvenanceGraph] = None
        self._probabilities: Optional[Dict[Literal, float]] = None
        self._executor: Optional["QueryExecutor"] = None
        #: The evaluation engine, kept for negation-free programs so
        #: :meth:`add_facts` can extend the model in place.
        self._engine: Optional[Engine] = None
        #: How many of the engine's firings the graph holds.
        self._firings = 0
        #: Query-directed grounding planner (``config.grounding`` 'query'
        #: or 'auto'); None under classic full evaluation.
        self._planner: Optional["GroundingPlanner"] = None
        self._epoch = 0
        self._warm_started = False
        #: Optional durable provenance store (see :mod:`repro.store`);
        #: when attached, every mutation appends an epoch batch to it.
        self._store: Optional[object] = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_source(cls, source: str,
                    config: Optional[P3Config] = None) -> "P3":
        """Parse program text and wrap it in a P3 instance."""
        return cls(parse_program(source), config=config)

    @classmethod
    def from_file(cls, path: Union[str, "os.PathLike[str]"],
                  config: Optional[P3Config] = None) -> "P3":
        """Parse a program file and wrap it in a P3 instance.

        Accepts any :class:`os.PathLike` and always reads UTF-8,
        independent of the platform's locale encoding.
        """
        with open(os.fspath(path), encoding="utf-8") as handle:
            return cls.from_source(handle.read(), config=config)

    @classmethod
    def warm_start(cls, program: Program, graph: ProvenanceGraph,
                   epoch: int = 0,
                   config: Optional[P3Config] = None) -> "P3":
        """Restore an already-evaluated system without re-evaluation.

        ``graph`` comes from a durable store (:mod:`repro.store`, see
        :meth:`from_store`) and the probability map is read off it;
        ``epoch`` is the mutation counter the state was captured at,
        threaded straight into the executor's epoch-tagged caches so
        cache entries and ``update`` envelopes report the restored epoch,
        not 0.

        The synthetic :class:`~repro.datalog.engine.EvaluationResult`
        reports 0 rounds and 0 seconds — the tell that no fixpoint
        evaluation ran.  The model's rows are parsed back from the graph's
        tuple keys (every vertex is in the least model) on the first read
        of :attr:`database`.

        A warm-started system keeps no engine: the first
        :meth:`add_facts` falls back to one full re-evaluation (after
        which updates are incremental again).
        """
        if epoch < 0:
            raise ValueError("epoch must be non-negative, got %d" % epoch)
        p3 = cls(program, config=config)
        derived = sum(1 for key in graph.tuple_keys()
                      if not graph.is_base(key))
        p3._result = EvaluationResult(
            None, rounds=0, firing_count=len(graph.executions()),
            elapsed_seconds=0.0, derived_count=derived)
        p3._graph = graph
        p3._probabilities = graph.probability_map()
        p3._epoch = epoch
        p3._warm_started = True
        return p3

    @classmethod
    def from_store(cls, path: Union[str, "os.PathLike[str]"],
                   config: Optional[P3Config] = None,
                   epoch: Optional[int] = None,
                   attach: bool = True) -> "P3":
        """Warm-start from a durable provenance store (see
        :mod:`repro.store`).

        ``epoch=None`` restores the latest committed epoch; an explicit
        epoch restores the graph *as of* that epoch (chain-of-custody
        time travel).  With ``attach=True`` (default) the store stays
        attached, so later :meth:`add_facts` calls append new epoch
        batches to it; attaching only applies at the latest epoch — an
        as-of restore is a read-only view and always detaches (appending
        from the middle of the chain would fork history).
        """
        from ..store import ProvenanceStore
        store = ProvenanceStore(os.fspath(path), create=False)
        try:
            system = store.open_system(cls, config=config, epoch=epoch)
        except BaseException:
            store.close()
            raise
        if attach and epoch is None:
            system._store = store
        else:
            store.close()
        return system

    # -- evaluation --------------------------------------------------------------

    def evaluate(self) -> EvaluationResult:
        """Run the program to fixpoint, capturing provenance.

        Idempotent: repeated calls return the first result.

        For negation-free programs (the common case) the
        :class:`~repro.datalog.engine.Engine` is kept alive so
        :meth:`add_facts` can later extend the model without
        re-evaluating from scratch.  For programs with stratified
        negation, :meth:`add_facts` falls back to a full re-evaluation.

        Under ``config.grounding='query'`` (or ``'auto'`` on large
        programs) no fixpoint runs here at all: a
        :class:`~repro.ground.planner.GroundingPlanner` registers base
        facts and rules immediately and grounds derived provenance on
        demand, goal by goal, as queries arrive.
        """
        if self._result is None:
            from ..ground.planner import GroundingPlanner
            if GroundingPlanner.supports(self.program, self.config):
                self._planner = GroundingPlanner(self)
                self._result = self._planner.bootstrap()
                self._graph = self._planner.graph
                self._probabilities = self._graph.probability_map()
                self._warm_started = False
                return self._result
            engine = Engine(
                self.program,
                max_rounds=self.config.max_rounds,
                max_tuples=self.config.max_tuples,
            )
            self._result = engine.run()
            if not any(rule.negations for rule in self.program.rules):
                self._engine = engine
            graph = ProvenanceGraph()
            register_program(graph, self.program)
            self._firings = add_firings(graph, engine)
            self._graph = graph
            self._probabilities = graph.probability_map()
            self._warm_started = False
            self._sync_store()
        return self._result

    @property
    def evaluated(self) -> bool:
        return self._result is not None

    @property
    def warm_started(self) -> bool:
        """True when this system was restored without re-evaluation."""
        return self._warm_started

    # -- durable persistence -----------------------------------------------------

    @property
    def store(self) -> Optional[object]:
        """The attached :class:`repro.store.ProvenanceStore`, if any."""
        return self._store

    def attach_store(self, store: object) -> None:
        """Attach a durable provenance store.

        If the system is already evaluated, the current graph is synced
        into the store immediately (an initial snapshot, or a catch-up
        append); afterwards every :meth:`add_facts` mutation appends its
        delta as a new epoch batch, making the store an append-only
        chain-of-custody log of the system's evolution.

        Incompatible with query-directed grounding: the planner's graph
        is lazily grown per goal, and snapshotting a partial graph would
        record an incomplete least model as if it were authoritative.
        """
        if self._planner is not None:
            raise ValueError(
                "cannot attach a durable store under query-directed "
                "grounding (config.grounding=%r): the provenance graph "
                "is grown lazily per goal; use grounding='full'"
                % self.config.grounding)
        self._store = store
        if self.evaluated:
            self._sync_store()

    def detach_store(self) -> Optional[object]:
        """Detach (and return) the store without closing it."""
        store, self._store = self._store, None
        return store

    def _sync_store(self) -> None:
        if self._planner is not None:
            return  # lazy graphs are never snapshotted (see attach_store)
        if self._store is not None and self._graph is not None:
            self._store.sync(self)  # type: ignore[attr-defined]

    # -- live updates ------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Mutation counter: bumped whenever the evaluated state changes.

        The batch executor tags every cache entry with the epoch it was
        computed under; entries from an older epoch are invalidated on
        access, so queries can never see pre-update results.
        """
        return self._epoch

    def add_fact(self, fact: Union[Fact, str]) -> Optional[EvaluationResult]:
        """Insert one base fact; see :meth:`add_facts`."""
        return self.add_facts([fact])

    def add_facts(self, facts: Union[str, Sequence[Union[Fact, str]]]
                  ) -> Optional[EvaluationResult]:
        """Insert base facts into a live system.

        ``facts`` is a :class:`~repro.datalog.ast.Fact` sequence, a
        sequence of fact-clause strings, or one program-source string
        containing only facts (e.g. ``'t9 0.5: edge(3,4).'``).

        On an evaluated negation-free system the consequences propagate
        incrementally (semi-naive deltas over the kept engine, one
        ``update.delta`` span): the provenance graph and probability map
        grow in place, the epoch is bumped, and the executor's caches
        invalidate themselves — no from-scratch re-evaluation happens.
        Returns the delta :class:`~repro.datalog.engine.EvaluationResult`.

        Programs with stratified negation cannot be maintained
        incrementally (an insertion may retract negation-dependent
        tuples); for those the facts are added and the whole system is
        re-evaluated, returning the fresh result.

        Before :meth:`evaluate`, the facts simply join the program and
        ``None`` is returned; the first evaluation picks them up.

        A fact whose atom already is a base fact, or repeats one earlier
        in the batch, is ignored.  The batch is all or nothing: a label
        the program or the batch already uses raises
        :class:`~repro.datalog.ast.ClauseError` before anything changes.
        """
        fresh = self._fresh_facts(self._coerce_facts(facts))
        self.program.add_facts(fresh)
        if self._result is None:
            if fresh:
                self._epoch += 1
            return None
        if self._engine is None:
            # Stratified negation, a warm-started restore, or a lazy
            # grounding planner (none keep an engine): re-evaluate.  For
            # the planner that means a fresh bootstrap — cheap, since no
            # fixpoint runs — with coverage reset so every goal re-grounds
            # against the updated facts.
            if not fresh:
                return self._result
            self._epoch += 1
            self._result = None
            self._graph = None
            self._probabilities = None
            self._planner = None
            return self.evaluate()
        if self._executor is not None:
            with self._executor.time_stage("update"):
                delta = self._extend(fresh)
        else:
            delta = self._extend(fresh)
        if not fresh:
            return delta  # every fact was a duplicate; nothing changed
        self._epoch += 1
        # Grow the graph and the probability map by the delta in place.
        graph, probabilities = self._graph, self._probabilities
        assert graph is not None and probabilities is not None
        for fact in fresh:
            key = str(fact.atom)
            graph.add_base_tuple(key, fact.probability, fact.label)
            probabilities[graph.tuple_literal_of(key)] = \
                graph.base_probability(key)
        self._firings = add_firings(graph, self._engine, self._firings)
        self._sync_store()
        return delta

    def _extend(self, facts: List[Fact]) -> EvaluationResult:
        """Propagate fresh facts through the kept engine, as one
        ``update.delta`` span when tracing."""
        assert self._engine is not None
        rt = telemetry.runtime()
        if not rt.enabled:
            return self._engine.extend(facts)
        with rt.tracer.span("update.delta") as span:
            delta = self._engine.extend(facts)
            span.set_attributes(rounds=delta.rounds,
                                firings=delta.firing_count,
                                derived=delta.derived_count)
        return delta

    def _fresh_facts(self, facts: List[Fact]) -> List[Fact]:
        """The facts of a batch that are not base facts yet, in order."""
        held = {fact.atom for fact in self.program.facts}
        fresh: List[Fact] = []
        for fact in facts:
            if fact.atom not in held:
                held.add(fact.atom)
                fresh.append(fact)
        return fresh

    @staticmethod
    def _coerce_facts(facts: Union[str, Sequence[Union[Fact, str]]]
                      ) -> List[Fact]:
        """Normalise the accepted fact spellings into Fact instances."""
        if isinstance(facts, str):
            sources: Sequence[Union[Fact, str]] = [facts]
        else:
            sources = list(facts)
        fact_list: List[Fact] = []
        for entry in sources:
            if isinstance(entry, Fact):
                fact_list.append(entry)
                continue
            if not isinstance(entry, str):
                raise TypeError(
                    "add_facts expects Fact instances or fact source "
                    "strings, got %r" % (entry,))
            # parse_facts raises ParseError (a ValueError) on rules or
            # query/evidence directives; add_facts takes base facts only.
            fact_list.extend(parse_facts(entry))
        return fact_list

    def _require_evaluated(self) -> None:
        if self._result is None:
            raise NotEvaluatedError(
                "Call P3.evaluate() before issuing provenance queries")

    @property
    def graph(self) -> ProvenanceGraph:
        """The full provenance graph (requires :meth:`evaluate`).

        Under query-directed grounding this is the lazily-grown planner
        graph; use :meth:`provenance_for` to guarantee a given tuple's
        derivations are present before reading it directly.
        """
        self._require_evaluated()
        assert self._graph is not None
        return self._graph

    @property
    def grounding_planner(self) -> Optional["GroundingPlanner"]:
        """The active query-directed grounding planner, if any."""
        return self._planner

    def provenance_for(self, key: str) -> ProvenanceGraph:
        """The provenance graph, guaranteed authoritative for ``key``.

        Under full evaluation this is just :attr:`graph`.  Under
        query-directed grounding it first makes the planner ground the
        goal (at most once per pattern), so ``key``'s membership and
        derivations in the returned graph are final.
        """
        self._require_evaluated()
        if self._planner is not None:
            self._planner.ensure(key)
        return self.graph

    @property
    def database(self) -> ModelView:
        """The evaluated model's relations (requires :meth:`evaluate`)."""
        self._require_evaluated()
        assert self._result is not None and self._graph is not None
        if self._result.database is None:
            # A warm start keeps only the graph; parse its rows back on
            # first read.
            store = FactStore()
            for key in self._graph.tuple_keys():
                atom = parse_atom(key)
                store.add(atom.relation, atom.as_values())
            self._result.database = ModelView([store])
        return self._result.database

    @property
    def probabilities(self) -> Dict[Literal, float]:
        """Literal → probability map over all base tuples and rules."""
        self._require_evaluated()
        assert self._probabilities is not None
        return self._probabilities

    # -- batch execution -----------------------------------------------------------

    def executor(self, **overrides: object) -> "QueryExecutor":
        """The shared batch query executor for this system.

        Created lazily on first use (with the config's cache settings)
        and reused afterwards, so every facade query shares one set of
        caches.  Keyword overrides (``polynomial_cache_size``,
        ``result_cache_size``) return a **throwaway** executor built with
        those settings — the shared executor, and its warm caches, stay
        untouched.  Use :meth:`configure_executor` to replace the shared
        executor instead.
        """
        self._require_evaluated()
        from ..exec.executor import QueryExecutor
        if overrides:
            return QueryExecutor(self, **overrides)  # type: ignore[arg-type]
        if self._executor is None:
            self._executor = QueryExecutor(self)
        return self._executor

    def configure_executor(self, **overrides: object) -> "QueryExecutor":
        """Install a fresh shared executor built with ``overrides``.

        Replaces (and closes) any existing shared executor; its caches
        start cold.  Every later facade query uses the new executor.
        """
        self._require_evaluated()
        from ..exec.executor import QueryExecutor
        if self._executor is not None:
            self._executor.close()
        self._executor = QueryExecutor(self, **overrides)  # type: ignore[arg-type]
        return self._executor

    def metrics_registries(self) -> List["MetricsRegistry"]:
        """The registries of this system's shared executor and grounding
        planner, where those exist: what a metrics export merges in."""
        owners = (self._executor, self._planner)
        return [owner.metrics for owner in owners if owner is not None]

    # -- tuple addressing ----------------------------------------------------------

    @staticmethod
    def tuple_key(relation: str, *values: object) -> str:
        """Canonical key string of a ground tuple: ``relation("a",1)``."""
        return str(make_atom(relation, *values))  # type: ignore[arg-type]

    def _resolve_key(self, relation_or_key: str, values: Sequence[object]) -> str:
        if values:
            return self.tuple_key(relation_or_key, *values)
        return relation_or_key

    def holds(self, relation_or_key: str, *values: object) -> bool:
        """Is the tuple derivable (present in the least model)?"""
        self._require_evaluated()
        key = self._resolve_key(relation_or_key, values)
        graph = self.provenance_for(key)
        return key in graph and (
            graph.is_base(key) or graph.is_derived(key))

    def derived_atoms(self, relation: Optional[str] = None) -> Iterator[Atom]:
        """Iterate atoms in the evaluated database (optionally one relation)."""
        self._require_evaluated()
        yield from self.database.atoms(relation)

    # -- provenance access -----------------------------------------------------------

    def polynomial_of(self, relation_or_key: str, *values: object,
                      hop_limit: Optional[int] = None) -> Polynomial:
        """Extract (through the executor's bounded LRU) the λ⁰ provenance
        polynomial of a tuple."""
        self._require_evaluated()
        key = self._resolve_key(relation_or_key, values)
        return self.executor().polynomial(key, hop_limit=hop_limit)

    def probability_of(self, relation_or_key: str, *values: object,
                       method: Optional[str] = None,
                       hop_limit: Optional[int] = None) -> float:
        """Success probability P[tuple] (Equations 1-5).

        Results are cached on ``(key, hop_limit, method, samples, seed)``,
        so repeated calls — and batches issued via :meth:`executor` —
        reuse each other's inference work.
        """
        return self.executor().execute(QuerySpec.probability(
            self._resolve_key(relation_or_key, values),
            method=method, hop_limit=hop_limit))

    def literal(self, key_or_label: str) -> Literal:
        """Resolve a string to the tuple or rule literal it names."""
        self._require_evaluated()
        rules = self.graph.rules()
        if key_or_label in rules:
            return rule_literal(key_or_label)
        if self.graph.is_base(key_or_label):
            return tuple_literal(key_or_label)
        raise UnknownLiteralError(key_or_label)

    # -- the four query types -----------------------------------------------------------

    def explain(self, relation_or_key: str, *values: object,
                method: Optional[str] = None,
                hop_limit: Optional[int] = None) -> Explanation:
        """Explanation Query (Section 4.1).

        ``method=None`` resolves to ``config.probability_method``.
        """
        return self.executor().execute(QuerySpec.explain(
            self._resolve_key(relation_or_key, values),
            method=method, hop_limit=hop_limit))

    def sufficient_provenance(self, relation_or_key: str, *values: object,
                              epsilon: float,
                              method: Optional[str] = None,
                              hop_limit: Optional[int] = None
                              ) -> SufficientProvenance:
        """Derivation Query (Section 4.2): ε-sufficient provenance.

        ``method=None`` resolves to ``config.derivation_method``.
        """
        return self.executor().execute(QuerySpec.derive(
            self._resolve_key(relation_or_key, values), epsilon,
            method=method, hop_limit=hop_limit))

    def influence(self, relation_or_key: str, *values: object,
                  method: Optional[str] = None,
                  relation: Optional[str] = None,
                  kind: Optional[str] = None,
                  hop_limit: Optional[int] = None) -> InfluenceReport:
        """Influence Query (Section 4.3).

        ``relation`` filters to base-tuple literals of one relation (the
        paper's Query 1B drills into ``hasImg``/``sim`` separately);
        ``kind`` is "tuple" or "rule" to restrict literal kinds.
        ``method=None`` resolves to ``config.influence_method``.
        """
        return self.executor().execute(QuerySpec.influence(
            self._resolve_key(relation_or_key, values), method=method,
            kind_filter=kind, relation=relation, hop_limit=hop_limit))

    def modify(self, relation_or_key: str, *values: object,
               target: float,
               strategy: str = "greedy",
               only_tuples: bool = False,
               only_rules: bool = False,
               hop_limit: Optional[int] = None,
               max_steps: Optional[int] = None) -> ModificationPlan:
        """Modification Query (Section 4.4): reach ``target`` at low cost.

        To restrict the modifiable literals by an arbitrary predicate,
        call :func:`repro.queries.modification.modification_query` on
        :meth:`polynomial_of` directly.
        """
        return self.executor().execute(QuerySpec.modify(
            self._resolve_key(relation_or_key, values), target,
            strategy=strategy, only_tuples=only_tuples,
            only_rules=only_rules, hop_limit=hop_limit,
            max_steps=max_steps))

    # -- query/evidence directives and conditioning -----------------------------

    def registered_queries(self) -> List[str]:
        """Ground tuple keys matching the program's ``query(...)`` directives.

        Patterns with variables are matched against the evaluated database;
        ground patterns are returned as-is (whether derivable or not).
        """
        self._require_evaluated()
        keys: List[str] = []
        seen = set()
        for pattern in self.program.queries:
            if self._planner is not None:
                self._planner.ensure_pattern(pattern)
            if pattern.is_ground:
                candidates = [str(pattern)]
            else:
                candidates = sorted(
                    str(pattern.substitute(subst))
                    for subst in self.database.match(pattern)
                )
            for key in candidates:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        return keys

    def conditional_probability_of(self, relation_or_key: str,
                                   *values: object,
                                   evidence: Optional[Dict[str, bool]] = None,
                                   hop_limit: Optional[int] = None) -> float:
        """P[tuple | evidence]: program ``evidence(...)`` directives plus
        any per-call observations (tuple key → observed truth)."""
        return self.executor().execute(QuerySpec.conditional(
            self._resolve_key(relation_or_key, values), evidence=evidence,
            hop_limit=hop_limit))

    def answer_queries(self, hop_limit: Optional[int] = None
                       ) -> Dict[str, float]:
        """Answer every ``query(...)`` directive, conditioned on the
        program's ``evidence(...)`` directives (if any).

        Batched through the shared executor: underivable queries answer
        0.0 immediately, and the rest run as one batch with all inference
        going through the shared caches.
        """
        results: Dict[str, float] = {}
        kind = "conditional" if self.program.evidence else "probability"
        specs = []
        for key in self.registered_queries():
            if key not in self.provenance_for(key):
                results[key] = 0.0
                continue
            specs.append(QuerySpec(kind, key, {"hop_limit": hop_limit}))
        if specs:
            batch = self.executor().run(specs)
            for outcome in batch:
                if outcome.error is not None:
                    if outcome.exception is not None:
                        raise outcome.exception
                    raise RuntimeError(
                        "query %s failed: %s"
                        % (outcome.spec.key, outcome.error))
                results[outcome.spec.key] = outcome.value
        return results

    # -- extensions beyond the paper's four query types -----------------------

    def top_derivations(self, relation_or_key: str, *values: object,
                        k: int = 3,
                        hop_limit: Optional[int] = None):
        """The k most probable derivations, found lazily (no full DNF).

        Returns a list of ``(Monomial, probability)`` pairs, best first —
        the generalisation of the "most important derivation" shown in the
        paper's Figures 4 and 8.
        """
        self._require_evaluated()
        key = self._resolve_key(relation_or_key, values)
        graph = self.provenance_for(key)
        if key not in graph:
            raise UnknownTupleError(key)
        limit = hop_limit if hop_limit is not None else self.config.hop_limit
        return top_k_derivations(
            graph, key, self.probabilities, k, hop_limit=limit)

    def what_if(self, deleted: Sequence[str],
                targets: Sequence[str],
                hop_limit: Optional[int] = None) -> WhatIfReport:
        """Deletion scenario: remove base tuples / rules, report the damage.

        ``deleted`` holds tuple keys or rule labels; ``targets`` holds the
        derived tuples whose probability deltas should be reported.  Also
        lists every tuple that loses all of its derivations.
        """
        self._require_evaluated()
        deleted_literals = [self.literal(name) for name in deleted]
        target_polynomials = {
            key: self.polynomial_of(key, hop_limit=hop_limit)
            for key in targets
        }
        return what_if_deletion(
            self.graph, self.probabilities, deleted_literals,
            target_polynomials)

    def why_not(self, relation_or_key: str, *values: object):
        """Why-not provenance: explain why a tuple was NOT derived.

        Returns a :class:`repro.queries.whynot.WhyNotReport` listing, per
        rule, the closest near-miss instantiation — which subgoals are
        missing and which guards block.
        """
        self._require_evaluated()
        from ..datalog.parser import parse_atom
        from ..queries.whynot import why_not as run_why_not
        key = self._resolve_key(relation_or_key, values)
        # Under query-directed grounding, ground the goal first so the
        # database holds the query-relevant portion of the model; near
        # misses outside that portion are invisible (see docs/GROUNDING.md).
        self.provenance_for(key)
        return run_why_not(self.program, self.database, parse_atom(key))

    def __repr__(self) -> str:
        state = "evaluated" if self.evaluated else "not evaluated"
        return "P3(<%d facts, %d rules>, %s)" % (
            len(self.program.facts), len(self.program.rules), state)

