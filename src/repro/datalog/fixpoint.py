"""The semi-naive fixpoint: one compiled loop for every evaluation mode.

Section 3.2 requires **every distinct rule firing** to be captured while
the program evaluates — a firing that re-derives an existing tuple is a
new derivation and must appear in the provenance graph.  This module is
the only place firings are enumerated.  Full evaluation and insertion
deltas (:class:`~repro.datalog.engine.Engine`) and demand-driven
magic-set grounding (:func:`repro.ground.relevance.ground_goal`) both run
it over a :class:`~repro.datalog.arena.FactStore`.

Each rule is compiled once into a slot plan: variables become integer
slots, constants become term ids, comparison guards and negated subgoals
sit at the earliest body position binding their variables (the schedule
of :class:`~repro.datalog.rewrite.CompiledRule`).  Joins then compare
small ints through the tables' column indexes; no unification happens.

Semi-naive windows
------------------
Tables are append-only, so a table's rows are ordered by the round that
derived them and "every row derived before round ``k``" is a prefix.
A stratum starts with one naive round over every row present.  Each
later round snapshots the table lengths at its start and, for every body
position ``i`` holding a relation that grew last round, runs one pass in
which positions before ``i`` see rows older than that delta, position
``i`` sees the delta, and positions after ``i`` see every row up to the
snapshot.  A firing is thereby enumerated exactly once — in the round
after its newest body row appeared, pivoting on the first position
holding such a row — so no firing set is needed, and round counts are
those of the classical algorithm.  A stratum ends after a round that
adds no row.

Insertion deltas resume the same loop: the caller appends base rows,
and :meth:`Fixpoint.resume` treats exactly those rows as the next delta.
"""

from __future__ import annotations

import operator
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple)

from .arena import FactStore, TermArena
from .rewrite import CompiledRule
from .terms import Constant, Variable


class EvaluationError(RuntimeError):
    """Raised when evaluation exceeds configured safety limits."""


_OPERATORS: Dict[str, Callable[[object, object], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: A head or negated-subgoal argument: ``(True, slot)`` for a variable,
#: ``(False, tid)`` for a constant.
ArgPlan = Tuple[bool, int]


class AtomPlan:
    """One body atom compiled against the slot layout of its rule."""

    __slots__ = ("relation", "consts", "prechecks", "binds", "postchecks")

    def __init__(self, relation: str,
                 consts: Tuple[Tuple[int, int], ...],
                 prechecks: Tuple[Tuple[int, int], ...],
                 binds: Tuple[Tuple[int, int], ...],
                 postchecks: Tuple[Tuple[int, int], ...]) -> None:
        self.relation = relation
        self.consts = consts          # (column, term id): constant argument
        self.prechecks = prechecks    # (column, slot): var bound earlier
        self.binds = binds            # (column, slot): first occurrence
        self.postchecks = postchecks  # (column, slot): repeat within atom


class RulePlan:
    """A compiled rule ready for arena evaluation."""

    __slots__ = ("compiled", "rule", "head_relation", "head_args",
                 "num_slots", "atoms", "guards", "negations")

    def __init__(self, compiled: CompiledRule, arena: TermArena) -> None:
        rule = compiled.rule
        self.compiled = compiled
        self.rule = rule
        slots: Dict[Variable, int] = {}
        atoms: List[AtomPlan] = []
        for atom in rule.body:
            consts: List[Tuple[int, int]] = []
            prechecks: List[Tuple[int, int]] = []
            binds: List[Tuple[int, int]] = []
            postchecks: List[Tuple[int, int]] = []
            local = set()
            for column, arg in enumerate(atom.args):
                if isinstance(arg, Constant):
                    consts.append((column, arena.intern(arg.value)))
                    continue
                slot = slots.get(arg)
                if slot is None:
                    slot = slots[arg] = len(slots)
                    local.add(arg)
                    binds.append((column, slot))
                elif arg in local:
                    # Repeated variable within this atom: the index lookup
                    # cannot see the binding yet, so check the row instead.
                    postchecks.append((column, slot))
                else:
                    prechecks.append((column, slot))
            atoms.append(AtomPlan(atom.relation, tuple(consts),
                                  tuple(prechecks), tuple(binds),
                                  tuple(postchecks)))

        def args_of(atom) -> Tuple[ArgPlan, ...]:
            return tuple(
                (False, arena.intern(arg.value)) if isinstance(arg, Constant)
                else (True, slots[arg])
                for arg in atom.args)

        self.head_relation = rule.head.relation
        self.head_args = args_of(rule.head)
        self.num_slots = len(slots)
        self.atoms = tuple(atoms)
        self.guards = tuple(
            tuple(_compile_guard(guard, slots, arena) for guard in position)
            for position in compiled.guard_schedule)
        self.negations = tuple(
            tuple((negated.relation, args_of(negated))
                  for negated in position)
            for position in compiled.negation_schedule)

    def __repr__(self) -> str:
        return "RulePlan(%s)" % self.rule


def _compile_guard(comparison, slots: Dict[Variable, int],
                   arena: TermArena) -> Callable[[List[int]], bool]:
    """Compile a Comparison to a predicate over the slot environment.

    Mirrors :meth:`repro.datalog.builtins.Comparison.evaluate` exactly,
    including the mixed-type rule: a TypeError reads as false, except for
    ``!=`` which reads as true.
    """
    op = _OPERATORS[comparison.op]
    true_on_type_error = comparison.op == "!="

    def resolver(term):
        if isinstance(term, Variable):
            slot = slots[term]
            value_of = arena.value
            return lambda env: value_of(env[slot])
        value = term.value
        return lambda env: value

    left = resolver(comparison.left)
    right = resolver(comparison.right)

    def guard(env: List[int]) -> bool:
        try:
            return op(left(env), right(env))
        except TypeError:
            return true_on_type_error

    return guard


#: Called once per firing: ``(plan, head gid, body gids, head inserted)``.
FiringSink = Callable[[RulePlan, int, Tuple[int, ...], bool], None]


class Fixpoint:
    """Semi-naive evaluation of compiled rule strata over a fact store.

    ``on_firing`` receives every distinct firing exactly once, in
    enumeration order.  ``stored_rows`` returns the row count the
    ``max_tuples`` rail limits (default: the store's facts); both rails
    raise :class:`EvaluationError`.
    """

    def __init__(self, store: FactStore,
                 strata: Sequence[Sequence[CompiledRule]],
                 on_firing: FiringSink,
                 max_rounds: Optional[int] = None,
                 max_tuples: Optional[int] = None,
                 stored_rows: Optional[Callable[[], int]] = None) -> None:
        self.store = store
        self.strata: List[List[RulePlan]] = [
            [RulePlan(compiled, store.arena) for compiled in stratum]
            for stratum in strata]
        self.on_firing = on_firing
        self.max_rounds = max_rounds
        self.max_tuples = max_tuples
        self.stored_rows = stored_rows or store.count
        self.rounds = 0
        self.firing_count = 0
        #: Table lengths when the latest round started: the delta of the
        #: next round is every row past these.
        self._snapshot: Dict[str, int] = {}

    def run(self) -> None:
        """Evaluate every stratum, lowest first, to its fixpoint."""
        for plans in self.strata:
            self._rounds(plans, naive=True)

    def resume(self) -> None:
        """Propagate the rows appended since the last round ended.

        Only sound for a single negation-free stratum: an insertion into
        a lower stratum could retract negation-dependent tuples.
        """
        (plans,) = self.strata
        self._rounds(plans, naive=False)

    def _lengths(self) -> Dict[str, int]:
        store = self.store
        return {name: len(store.table(name))  # type: ignore[arg-type]
                for name in store.relations()}

    def _rounds(self, plans: Sequence[RulePlan], naive: bool) -> None:
        store = self.store
        while True:
            self.rounds += 1
            if self.max_rounds is not None and self.rounds > self.max_rounds:
                raise EvaluationError(
                    "Exceeded max_rounds=%d" % self.max_rounds)
            before = self._snapshot
            start = self._lengths()
            self._snapshot = start
            count = store.count()
            for plan in plans:
                atoms = plan.atoms
                if naive:
                    windows = [(0, start.get(atom.relation, 0))
                               for atom in atoms]
                    self._apply(plan, windows)
                    continue
                for pivot, pivot_atom in enumerate(atoms):
                    low = before.get(pivot_atom.relation, 0)
                    high = start.get(pivot_atom.relation, 0)
                    if low >= high:
                        continue
                    windows = []
                    for position, atom in enumerate(atoms):
                        if position < pivot:
                            windows.append(
                                (0, before.get(atom.relation, 0)))
                        elif position == pivot:
                            windows.append((low, high))
                        else:
                            windows.append((0, start.get(atom.relation, 0)))
                    self._apply(plan, windows)
            naive = False
            if store.count() == count:
                return

    def _apply(self, plan: RulePlan,
               windows: Sequence[Tuple[int, int]]) -> None:
        """Enumerate ``plan``'s firings whose body rows lie in ``windows``."""
        store = self.store
        steps = []
        for atom_plan, (low, high), guards, negations in zip(
                plan.atoms, windows, plan.guards, plan.negations):
            table = store.table(atom_plan.relation)
            if table is None or low >= high:
                return
            steps.append((table, table.rows, table.gids, low, high,
                          atom_plan.consts, atom_plan.prechecks,
                          atom_plan.binds, atom_plan.postchecks, guards,
                          negations))

        env: List[int] = [0] * plan.num_slots
        gids: List[int] = [0] * len(steps)
        head_args = plan.head_args
        head_relation = plan.head_relation
        on_firing = self.on_firing
        max_tuples = self.max_tuples

        def negation_holds(negations) -> bool:
            for relation, args in negations:
                table = store.table(relation)
                if table is None:
                    continue
                row = tuple(env[value] if is_slot else value
                            for is_slot, value in args)
                if table.local_index(row) is not None:
                    return False
            return True

        def fire() -> None:
            head_row = tuple(env[value] if is_slot else value
                             for is_slot, value in head_args)
            head_gid, inserted = store.add_row(head_relation, head_row)
            self.firing_count += 1
            on_firing(plan, head_gid, tuple(gids), inserted)
            if (inserted and max_tuples is not None
                    and self.stored_rows() > max_tuples):
                raise EvaluationError("Exceeded max_tuples=%d" % max_tuples)

        last = len(steps) - 1

        def descend(position: int) -> None:
            (table, rows, table_gids, low, high, consts, prechecks, binds,
             postchecks, guards, negations) = steps[position]
            if prechecks:
                bound = list(consts)
                for column, slot in prechecks:
                    bound.append((column, env[slot]))
            else:
                bound = consts
            for row_position in table.match(bound, low, high):
                row = rows[row_position]
                for column, slot in binds:
                    env[slot] = row[column]
                ok = True
                for column, slot in postchecks:
                    if row[column] != env[slot]:
                        ok = False
                        break
                if ok and guards:
                    for guard in guards:
                        if not guard(env):
                            ok = False
                            break
                if not ok or (negations and not negation_holds(negations)):
                    continue
                gids[position] = table_gids[row_position]
                if position == last:
                    fire()
                else:
                    descend(position + 1)

        try:
            descend(0)
        finally:
            # The recursive closure references itself through its cell;
            # clearing the cell lets reference counting free it (and the
            # evaluation state it reaches) without waiting for the GC.
            del descend
