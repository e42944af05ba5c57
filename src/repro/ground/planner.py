"""The grounding planner: lazy, query-directed evaluation for P3.

Under ``P3Config(grounding='query')`` (or ``'auto'`` on large programs)
:meth:`P3.evaluate` no longer runs the program to fixpoint.  Instead it
bootstraps a :class:`GroundingPlanner`: base facts and rule labels are
registered immediately (so ``probabilities`` and ``holds`` on base tuples
behave exactly as after full evaluation), and derived provenance is
grounded on demand, one goal at a time, through
:func:`repro.ground.relevance.ground_goal`.

Coverage contract
-----------------
Coverage is per key *and* depth.  Unbounded magic-set grounding of a
goal produces *complete* derivations for every derived tuple it touches
(the demand predicate of a tuple triggers all of its rules,
recursively).  The planner therefore marks every derived key of such a
subgraph — and the goal pattern itself — as covered at depth ``None``:
its presence, absence, and execution set in the merged graph are final,
so extraction over the merged graph is byte-identical to
full-evaluation extraction.

A ground key asked with a hop limit ``H`` (``ensure(key, H)``, from
polynomial extraction) is grounded with depth-indexed demand instead,
and only that key is covered, at ``H``: extraction of it at any hop
limit up to ``H`` is byte-identical to full evaluation.  (By induction
on the remaining depth ``R``: every full derivation of height at most
``R`` fires under that demand, and every execution the merged graph
holds beyond those has a body whose left-to-right prefix was demanded
at ``R-1`` too, or a factor that is zero on both graphs.)  The other
derived keys of a bounded subgraph stay uncovered.  A coverage of
``None``, or one at least the asked depth, is enough; anything less
grounds again.  A bounded goal that does not derive its root is
replaced by an unbounded one, so an underivable key raises
``UnknownTupleError`` and a key derivable only beyond ``H`` answers
``0.0``, exactly as under full grounding.
Non-ground patterns, and every caller that asks without a hop limit
(``holds``, ``registered_queries``, ``top_derivations``, ``why_not``,
``explain``), stay unbounded.  Patterns subsumed by an earlier
(unbounded) non-ground goal are answered from coverage alone.

Fallback ladder
---------------
Goals the magic fragment cannot handle (negation never reaches here —
``supports`` rejects it — but e.g. programmatic reserved names can) drop
to the ``'full'`` rung: one ordinary fixpoint evaluation whose firings
are added to the same graph in place, with the planner's model view
repointed at the full model, after which the planner answers everything
from it.  Budget trips (:class:`~repro.datalog.engine.EvaluationError`
from ``max_rounds``/``max_tuples``) are *not* a fallback trigger: full
evaluation would only hit the same rail harder, so they propagate.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set

from .. import telemetry
from ..core.config import P3Config
from ..datalog.arena import FactStore, ModelView
from ..datalog.ast import ClauseError, Program
from ..datalog.engine import Engine, EvaluationResult
from ..datalog.magic import MagicTransformError
from ..datalog.parser import ParseError, parse_atom
from ..datalog.terms import Atom, unify_atom
from ..provenance.graph import ProvenanceGraph, add_firings, register_program
from ..telemetry.metrics import MetricsRegistry
from .relevance import GroundedGoal, ground_goal

#: ``grounding='auto'`` switches to query-directed grounding at this many
#: program facts: below it, full evaluation is typically cheaper than the
#: per-goal transform + grounding round-trips.
AUTO_FACT_THRESHOLD = 512

#: Rung order of the planner's internal fallback ladder.
RUNGS = ("query", "full")

#: The planner's counts: (``stats`` field, metric name, help).
_COUNTS = (
    ("goals", "p3_ground_goals_total", "Goals grounded query-directed"),
    ("fallbacks", "p3_ground_fallbacks_total",
     "Planner drops to full evaluation"),
    ("derived_rows", "p3_ground_rows_total",
     "Rows materialized by query-directed grounding"),
    ("firings", "p3_ground_firings_total",
     "Rule firings of query-directed grounding"),
)


class GroundingPlanner:
    """Per-system planner deciding how each goal gets grounded.

    Thread-safety: goal grounding and graph merging run under one lock,
    mirroring the service-level contract for updates (readers of an
    already-covered key never block).
    """

    def __init__(self, system) -> None:
        self._system = system
        self._program: Program = system.program
        self._lock = threading.RLock()
        self.graph = ProvenanceGraph()
        self._store = FactStore.from_program(self._program)
        # Merged goal rows live in a store of their own: ground_goal
        # overlays ``_store``, and its bridge rules would fire on IDB rows
        # stored there.
        self._derived = FactStore()
        #: The model grounded so far: base facts plus merged goal rows.
        self.database = ModelView([self._store, self._derived])
        self._idb: Set[str] = self._program.idb_relations()
        #: Covered key → covered depth (``None``: every depth).
        self._covered: Dict[str, Optional[int]] = {}
        self._signatures: List[Atom] = []
        self._signature_keys: Set[str] = set()
        self._fallback = False
        #: The one store of the planner's counts (see :attr:`stats`).
        self.metrics = MetricsRegistry()
        self._series = {
            field: self.metrics.counter(name, help=text).labels()
            for field, name, text in _COUNTS}

    @property
    def stats(self) -> Dict[str, int]:
        """Goals grounded, fallbacks taken, rows derived and firings."""
        return {field: int(series.value())
                for field, series in self._series.items()}

    # -- plan selection ----------------------------------------------------------

    @staticmethod
    def supports(program: Program, config: P3Config) -> bool:
        """Should this program/config pair evaluate lazily?"""
        mode = getattr(config, "grounding", "full")
        if mode == "full":
            return False
        if not program.rules:
            return False
        if any(rule.negations for rule in program.rules):
            return False
        if mode == "query":
            return True
        return len(program.facts) >= AUTO_FACT_THRESHOLD

    @property
    def fallback_active(self) -> bool:
        """True once the planner dropped to the ``'full'`` rung."""
        return self._fallback

    # -- bootstrap ---------------------------------------------------------------

    def bootstrap(self) -> EvaluationResult:
        """Register base facts and rules; derive nothing yet.

        The returned synthetic result reports 0 rounds and 0 seconds —
        the same tell a warm start gives — and its database holds exactly
        the base facts until goals start landing.
        """
        register_program(self.graph, self._program)
        return EvaluationResult(
            self.database, rounds=0, firing_count=0, elapsed_seconds=0.0,
            derived_count=0)

    # -- coverage ----------------------------------------------------------------

    def ensure(self, key: str, depth: Optional[int] = None) -> None:
        """Make the merged graph authoritative for ``key`` up to ``depth``.

        After this returns, ``key``'s membership and derivations in the
        planner graph are final for extraction at any hop limit up to
        ``depth`` (every hop limit when ``None``): extraction, ``holds``,
        and top-k behave exactly as they would after full evaluation.
        Unparseable keys and non-IDB relations need no grounding (base
        facts were registered at bootstrap).
        """
        if self._fallback or self._covers(key, depth):
            return
        if key.partition("(")[0] not in self._idb:
            return
        try:
            pattern = parse_atom(key)
        except ParseError:
            return  # not a tuple key; membership tests will say no
        if not pattern.is_ground:
            self.ensure_pattern(pattern)
            return
        with self._lock:
            if self._fallback or self._covers(key, depth):
                return
            for signature in self._signatures:
                if unify_atom(signature, pattern, {}) is not None:
                    self._covered[key] = None
                    return
            if depth is not None:
                goal = self._ground_goal(pattern, depth)
                if goal is None:
                    return  # fell back to full evaluation
                if goal.graph.is_derived(str(pattern)):
                    self._merge(goal)
                    self._covered[key] = depth
                    return
            self._ground(pattern)
            self._covered[key] = None

    def _covers(self, key: str, depth: Optional[int]) -> bool:
        if key not in self._covered:
            return False
        covered = self._covered[key]
        return covered is None or (depth is not None and covered >= depth)

    def ensure_pattern(self, pattern: Atom) -> None:
        """Make the merged graph/database authoritative for a pattern.

        Used by ``registered_queries``: after this, matching ``pattern``
        against the planner database finds exactly the tuples full
        evaluation would.
        """
        if self._fallback or pattern.relation not in self._idb:
            return
        if pattern.is_ground:
            self.ensure(str(pattern))
            return
        key = str(pattern)
        with self._lock:
            if self._fallback or key in self._signature_keys:
                return
            self._ground(pattern)

    # -- grounding ---------------------------------------------------------------

    def _ground(self, pattern: Atom) -> None:
        """Ground one unbounded goal, merge it and cover what it derived."""
        goal = self._ground_goal(pattern)
        if goal is None:
            return
        self._merge(goal)
        # Every derived key of the subgraph has its complete execution
        # set (see module docstring), so all of them are covered — not
        # just the answers.
        subgraph = goal.graph
        for key in subgraph.tuple_keys():
            if subgraph.is_derived(key):
                self._covered[key] = None
        for key in goal.answers:
            self._covered[key] = None
        self._signatures.append(pattern)
        self._signature_keys.add(str(pattern))

    def _ground_goal(self, pattern: Atom, depth: Optional[int] = None
                     ) -> Optional[GroundedGoal]:
        """Ground one goal and count it; ``None`` once it fell back.

        Transform errors drop the planner to the ``'full'`` rung.
        """
        config = self._system.config
        try:
            goal = ground_goal(
                self._program, pattern, base_store=self._store,
                max_rounds=config.max_rounds, max_tuples=config.max_tuples,
                depth=depth)
        except (MagicTransformError, ClauseError) as exc:
            self._fall_back(str(exc))
            return None
        self._series["goals"].inc()
        self._series["derived_rows"].inc(goal.stats["derived_rows"])
        self._series["firings"].inc(goal.stats["firings"])
        return goal

    def _merge(self, goal: GroundedGoal) -> None:
        """Add a goal's subgraph and derived rows to the planner's model."""
        graph = self.graph
        subgraph = goal.graph
        for key in subgraph.tuple_keys():
            if subgraph.is_base(key):
                graph.add_base_tuple(key, subgraph.base_probability(key),
                                     subgraph.base_label(key))
        for label, probability in subgraph.rules().items():
            graph.add_rule(label, probability)
        for execution in subgraph.executions():
            graph.add_execution(execution)
        for atom in goal.atoms:
            self._derived.add(atom.relation, atom.as_values())

    def _fall_back(self, reason: str) -> None:
        """Drop to the ``'full'`` rung: one fixpoint evaluation, merged."""
        config = self._system.config
        engine = Engine(self._program, max_rounds=config.max_rounds,
                        max_tuples=config.max_tuples)
        with telemetry.runtime().tracer.span("ground.fallback",
                                             reason=reason):
            result = engine.run()
        # Bootstrap registered the base facts and rules already.
        add_firings(self.graph, engine)
        self.database.stores = result.database.stores
        self._fallback = True
        self._series["fallbacks"].inc()
