"""ExSPAN-style compile-time rule rewrite (Section 3.2 of the paper).

Each source rule ``rid p: H :- B1,...,Bn`` is compiled into a single
:class:`CompiledRule` that — exactly as the paper's footnote requires —
evaluates its body *once* per match and then performs three actions:

1. derive the head tuple ``H`` (the original rule),
2. record the dependency between the rule execution and its input tuples
   (the paper's ``rule(rid, (B1,...,Bn))`` table), and
3. record that ``H`` has a derivation from this rule execution (the
   paper's ``prov(H, p, rid)`` table).

Both tables are kept once, in interned-id form: a :class:`FiringTable`
holds one packed entry per firing — the ``prov`` row — whose body gids
are its ``rule`` rows, and the provenance graph is built from it.  The
tables are not relations of the evaluated model.

The compiler also schedules each comparison guard at the earliest body
position where all its variables are bound, so joins prune eagerly.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

from .ast import Program, Rule
from .builtins import Comparison
from .terms import Atom

if TYPE_CHECKING:
    from .fixpoint import RulePlan

#: The paper's ``prov(head, probability, rule_execution)`` table name.
PROV_RELATION = "prov_"
#: The paper's ``rule(rule_execution, rule_label, body)`` table name.
RULE_RELATION = "rule_"

#: Names reserved for the provenance tables; user programs may not define them.
RESERVED_RELATIONS = frozenset({PROV_RELATION, RULE_RELATION})


class RewriteError(ValueError):
    """Raised when a program cannot be compiled (e.g. reserved relation use)."""


class CompiledRule:
    """A source rule plus its guard and negation schedules."""

    __slots__ = ("rule", "guard_schedule", "negation_schedule")

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.guard_schedule = _schedule_guards(rule)
        self.negation_schedule = _schedule_negations(rule)

    @property
    def label(self) -> str:
        return self.rule.label  # type: ignore[return-value]

    @property
    def head(self) -> Atom:
        return self.rule.head

    @property
    def body(self) -> Tuple[Atom, ...]:
        return self.rule.body

    def __repr__(self) -> str:
        return "CompiledRule(%s)" % self.rule


class FiringTable:
    """Every firing of one evaluation, packed by id: the paper's tables.

    The fixpoint appends each firing (:meth:`append` is a
    :data:`~repro.datalog.fixpoint.FiringSink`) as its rule, head gid and
    body gids — packed into integer arrays, so a firing costs no
    per-firing Python objects.  One firing is one ``prov`` row of the
    Section 3.2 rewrite; its distinct body tuples are its ``rule`` rows.
    The provenance graph is built from this table
    (:func:`repro.provenance.graph.add_firings`).
    """

    def __init__(self) -> None:
        self._rules: List[Rule] = []
        self._heads = array("q")
        self._bodies = array("q")  # every firing's body gids, concatenated
        self._ends = array("q")    # end offset of each firing's body
        self._rule_rows = 0
        self._counted = 0

    def append(self, plan: "RulePlan", head: int, body: Tuple[int, ...],
               inserted: bool = False) -> None:
        """Record one firing of ``plan.rule``."""
        self._rules.append(plan.rule)
        self._heads.append(head)
        self._bodies.extend(body)
        self._ends.append(len(self._bodies))

    def __len__(self) -> int:
        return len(self._rules)

    def body(self, index: int) -> Sequence[int]:
        """The body gids of firing ``index``, in source order."""
        ends = self._ends
        return self._bodies[ends[index - 1] if index else 0:ends[index]]

    def rows(self, start: int = 0) -> Iterator[Tuple[Rule, int, Sequence[int]]]:
        """``(rule, head gid, body gids)`` of every firing from ``start``."""
        for index in range(start, len(self._rules)):
            yield self._rules[index], self._heads[index], self.body(index)

    def row_count(self) -> int:
        """Rows of the paper's tables: one ``prov`` row per firing plus
        one ``rule`` row per distinct body tuple of a firing."""
        for index in range(self._counted, len(self._rules)):
            self._rule_rows += len(set(self.body(index)))
        self._counted = len(self._rules)
        return len(self._rules) + self._rule_rows


def _schedule_guards(rule: Rule) -> List[List[Comparison]]:
    """Assign each guard to the earliest body position binding its variables.

    Returns a list with one slot per body position; slot ``i`` holds the
    guards that become fully bound once body atoms ``0..i`` are matched.
    """
    schedule: List[List[Comparison]] = [[] for _ in rule.body]
    bound: set = set()
    remaining = list(rule.constraints)
    for position, atom in enumerate(rule.body):
        bound.update(atom.variables())
        still_pending: List[Comparison] = []
        for guard in remaining:
            if all(var in bound for var in guard.variables()):
                schedule[position].append(guard)
            else:
                still_pending.append(guard)
        remaining = still_pending
    if remaining:
        # Rule safety guarantees every guard variable occurs in the body,
        # so this is unreachable for validated rules.
        raise RewriteError(
            "Guards %s of rule %s have unbound variables"
            % (remaining, rule.label)
        )
    return schedule


def _schedule_negations(rule: Rule) -> List[List[Atom]]:
    """Assign each negated subgoal to the earliest position binding it.

    Negated subgoals are checked as soon as their variables are bound by
    the positive join prefix — stratified evaluation guarantees the negated
    relation is already complete at that point.
    """
    schedule: List[List[Atom]] = [[] for _ in rule.body]
    bound: set = set()
    remaining = list(rule.negations)
    for position, atom in enumerate(rule.body):
        bound.update(atom.variables())
        still_pending: List[Atom] = []
        for negated in remaining:
            if all(var in bound for var in negated.variables()):
                schedule[position].append(negated)
            else:
                still_pending.append(negated)
        remaining = still_pending
    if remaining:
        raise RewriteError(
            "Negated subgoals %s of rule %s have unbound variables"
            % ([str(a) for a in remaining], rule.label)
        )
    return schedule


def compile_program(program: Program) -> List[CompiledRule]:
    """Compile every rule of a program, validating reserved-relation use."""
    for name in program.relations():
        if name in RESERVED_RELATIONS:
            raise RewriteError(
                "Relation %r is reserved for provenance capture" % name
            )
    return [CompiledRule(rule) for rule in program.rules]


def relation_dependencies(program: Program) -> Dict[str, set]:
    """Head-relation → set of body relations it depends on (transitively closed
    by callers when needed)."""
    deps: Dict[str, set] = {}
    for head_rel, body_rel in program.dependency_pairs():
        deps.setdefault(head_rel, set()).add(body_rel)
    return deps
