"""ExSPAN-style compile-time rule rewrite (Section 3.2 of the paper).

Each source rule ``rid p: H :- B1,...,Bn`` is compiled into a single
:class:`CompiledRule` that — exactly as the paper's footnote requires —
evaluates its body *once* per match and then performs three actions:

1. derive the head tuple ``H`` (the original rule),
2. record the dependency between the rule execution and its input tuples
   (the paper's ``rule(rid, (B1,...,Bn))`` table), and
3. record that ``H`` has a derivation from this rule execution (the
   paper's ``prov(H, p, rid)`` table).

The two capture tables are relations (:data:`PROV_RELATION` and
:data:`RULE_RELATION`) of the evaluated model, so provenance is
"maintained in relational tables" and the provenance graph can be
reconstructed from them after the fact (see
:func:`repro.provenance.graph.graph_from_tables`).
While the fixpoint runs they grow in interned-id form
(:class:`CaptureTables`): one entry per firing, rendered as the paper-form
tuples only when the tables are read.

The compiler also schedules each comparison guard at the earliest body
position where all its variables are bound, so joins prune eagerly.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Set, Tuple

from .ast import Program, Rule
from .builtins import Comparison
from .terms import Atom, Constant

#: Relation storing ``prov(head_repr, probability, rule_execution_id)`` tuples.
PROV_RELATION = "prov_"
#: Relation storing ``rule(rule_execution_id, rule_label, body_repr)`` tuples.
RULE_RELATION = "rule_"

#: Relations reserved for provenance capture; user programs may not define them.
RESERVED_RELATIONS = frozenset({PROV_RELATION, RULE_RELATION})


class RewriteError(ValueError):
    """Raised when a program cannot be compiled (e.g. reserved relation use)."""


def execution_id(rule_label: str, body_atoms: Sequence[Atom]) -> str:
    """Deterministic identifier for one rule execution (rid + ground body)."""
    return "%s[%s]" % (rule_label, ";".join(str(atom) for atom in body_atoms))


class CompiledRule:
    """A source rule plus its guard schedule and provenance-capture recipe."""

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

    def capture_atoms(self, head: Atom, body_atoms: Sequence[Atom]) -> List[Atom]:
        """Build the ``prov``/``rule`` capture tuples for one firing."""
        exec_id = execution_id(self.label, body_atoms)
        prov = Atom(PROV_RELATION, (
            Constant(str(head)),
            Constant(float(self.rule.probability)),
            Constant(exec_id),
        ))
        captures = [prov]
        for body_atom in body_atoms:
            captures.append(Atom(RULE_RELATION, (
                Constant(exec_id),
                Constant(self.label),
                Constant(str(body_atom)),
            )))
        return captures

    def __repr__(self) -> str:
        return "CompiledRule(%s)" % self.rule


class CaptureTables:
    """The ``prov_``/``rule_`` capture tables of one evaluation, by id.

    The evaluator appends each firing as its compiled rule, head gid and
    body gids — packed into integer arrays, so captured firings cost no
    per-firing Python objects.  ``atom_of`` maps a gid to its (already
    materialised) atom.  Table sizes are known without rendering — one
    ``prov_`` row per firing, one ``rule_`` row per distinct body tuple —
    and the paper-form rows are built on the first read that needs them
    (:meth:`atoms`).
    """

    def __init__(self, atom_of: Sequence[Atom]) -> None:
        self._atom_of = atom_of
        self._rules: List[CompiledRule] = []
        self._heads = array("q")
        self._bodies = array("q")  # every firing's body gids, concatenated
        self._ends = array("q")    # end offset of each firing's body
        self._rule_rows = 0
        self._counted = 0
        self._rendered = 0
        self._atoms: Dict[str, Set[Atom]] = {
            PROV_RELATION: set(), RULE_RELATION: set()}

    def append(self, compiled: "CompiledRule", head: int,
               body: Tuple[int, ...]) -> None:
        self._rules.append(compiled)
        self._heads.append(head)
        self._bodies.extend(body)
        self._ends.append(len(self._bodies))

    def _body(self, index: int) -> Sequence[int]:
        ends = self._ends
        return self._bodies[ends[index - 1] if index else 0:ends[index]]

    def size(self, relation: str) -> int:
        if relation == PROV_RELATION:
            return len(self._rules)
        for index in range(self._counted, len(self._rules)):
            self._rule_rows += len(set(self._body(index)))
        self._counted = len(self._rules)
        return self._rule_rows

    def row_count(self) -> int:
        """Rows across both tables."""
        return self.size(PROV_RELATION) + self.size(RULE_RELATION)

    def relations(self) -> Tuple[str, ...]:
        """The tables' relation names, once any firing is captured."""
        return (PROV_RELATION, RULE_RELATION) if self._rules else ()

    def atoms(self, relation: str) -> Set[Atom]:
        """One table's paper-form rows, rendering new firings first."""
        self.render()
        return self._atoms[relation]

    def render(self) -> None:
        """Materialise every not-yet-rendered firing's capture atoms."""
        atom_of = self._atom_of
        prov, rule = self._atoms[PROV_RELATION], self._atoms[RULE_RELATION]
        for index in range(self._rendered, len(self._rules)):
            captures = self._rules[index].capture_atoms(
                atom_of[self._heads[index]],
                [atom_of[gid] for gid in self._body(index)])
            prov.add(captures[0])
            rule.update(captures[1:])
        self._rendered = len(self._rules)


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
