"""Magic-set transformation: goal-directed evaluation of one query.

Bottom-up evaluation computes the *entire* least model, but a provenance
query cares about one tuple (or one pattern).  The classical magic-set
transformation specialises the program to the query: *magic* predicates
propagate the demanded bindings top-down (following a left-to-right
sideways-information-passing strategy), and every original rule is guarded
by the magic predicate of its head adornment, so the engine only derives
tuples that can contribute to the query.

Correctness contract (tested in ``tests/datalog/test_magic.py``): for the
queried pattern, the transformed program derives exactly the matching
tuples of the original least model, and — once
:func:`repro.ground.relevance.ground_goal` translates its firings back to
original relations and rule labels — their provenance polynomials are
*identical* to those extracted from full evaluation.  All magic
clauses carry probability 1.0; magic literals are deterministic demand
markers and are stripped from polynomials.

Limitations: programs with negation are rejected (magic sets under
stratified negation require more careful labelling), as are reserved
relation names.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .ast import Fact, Program, Rule
from .terms import Atom, Constant, Term, Variable

#: Separator between a relation name and its adornment.
ADORN_SEP = "@"
#: Prefix of magic (demand) relations.
MAGIC_PREFIX = "m_"


class MagicTransformError(ValueError):
    """Raised when a program or query cannot be magic-transformed."""


class ReservedRelationError(MagicTransformError):
    """The input program already uses reserved relation names.

    ``m_``-prefixed names are magic demand predicates and names
    containing ``@`` are adornment-specialised copies; a program that
    defines either would collide with the rewrite's own output.  The
    parser rejects ``m_`` names at parse time; this guard covers
    programs built programmatically.
    """

    def __init__(self, names: Set[str]) -> None:
        self.names = frozenset(names)
        listed = ", ".join(repr(name) for name in sorted(self.names))
        super().__init__(
            "program uses reserved relation names (%s): names starting "
            "with %r or containing %r are reserved for the magic-set "
            "transform; rename these relations" % (listed, MAGIC_PREFIX, ADORN_SEP))


def adornment_of(atom: Atom, bound: Set[Variable]) -> str:
    """The b/f string of an atom under a set of bound variables."""
    letters = []
    for arg in atom.args:
        if isinstance(arg, Constant) or arg in bound:
            letters.append("b")
        else:
            letters.append("f")
    return "".join(letters)


def adorned_name(relation: str, adornment: str) -> str:
    return "%s%s%s" % (relation, ADORN_SEP, adornment)


def magic_name(relation: str, adornment: str) -> str:
    return MAGIC_PREFIX + adorned_name(relation, adornment)


def _bound_args(atom: Atom, adornment: str) -> Tuple[Term, ...]:
    return tuple(arg for arg, letter in zip(atom.args, adornment)
                 if letter == "b")


class MagicProgram:
    """Outcome of the transformation.

    Attributes
    ----------
    program:
        The rewritten program: the magic seed fact, magic rules, guarded
        adorned rules and bridge rules.  It holds none of the original
        facts; it is evaluated over a fact store that already holds them
        (see :func:`repro.ground.relevance.ground_goal`).
    query_relation:
        The adorned relation holding the query's answers
        (e.g. ``trustPath@bf``).
    label_map:
        Adorned rule label → original rule label (bridge and magic rules
        have none).
    """

    def __init__(self, program: Program, query_relation: str,
                 original_relation: str,
                 label_map: Dict[str, str]) -> None:
        self.program = program
        self.query_relation = query_relation
        self.original_relation = original_relation
        self.label_map = dict(label_map)

    def __repr__(self) -> str:
        return "MagicProgram(query=%s, <%d clauses>)" % (
            self.query_relation, len(self.program))


def magic_transform(program: Program, query: Atom) -> MagicProgram:
    """Specialise ``program`` to the query pattern ``query``.

    The pattern's constants become bound positions; its variables stay
    free.  Only rules (transitively) relevant to the query's relation are
    kept.
    """
    reserved = {
        name
        for name in (program.relations() | {query.relation})
        if name.startswith(MAGIC_PREFIX) or ADORN_SEP in name
    }
    if reserved:
        raise ReservedRelationError(reserved)
    if any(rule.negations for rule in program.rules):
        raise MagicTransformError(
            "Magic-set transformation does not support negation")
    idb = program.idb_relations()
    if query.relation not in idb:
        raise MagicTransformError(
            "Query relation %r is not derived by any rule" % query.relation)

    rules_by_head: Dict[str, List[Rule]] = {}
    for rule in program.rules:
        rules_by_head.setdefault(rule.head.relation, []).append(rule)

    transformed = Program()
    label_map: Dict[str, str] = {}
    label_counts: Dict[str, int] = {}

    # Worklist of (relation, adornment) pairs still to expand.
    query_adornment = adornment_of(query, set())
    pending: List[Tuple[str, str]] = [(query.relation, query_adornment)]
    done: Set[Tuple[str, str]] = set()

    # Seed: the magic fact carrying the query's constants.
    seed_args = _bound_args(query, query_adornment)
    seed_relation = magic_name(query.relation, query_adornment)
    if seed_args:
        transformed.add(Fact(Atom(seed_relation, seed_args), 1.0,
                             "magicseed"))
    else:
        transformed.add(Fact(Atom(seed_relation + "_seed", ()), 1.0,
                             "magicseed"))

    while pending:
        relation, adornment = pending.pop()
        if (relation, adornment) in done:
            continue
        done.add((relation, adornment))
        for rule in rules_by_head.get(relation, ()):
            _adorn_rule(rule, adornment, idb, transformed, pending,
                        label_map, label_counts)

    # The original facts are not copied: EDB rows and IDB base facts stay
    # in the caller's fact store under their original relations and are
    # read there in place.  IDB relations with base facts (the
    # Acquaintance know/2 shape) get a deterministic bridge rule per
    # demanded adornment.
    fact_relations = {fact.atom.relation for fact in program.facts}
    bridge_index = 0
    for relation, adornment in sorted(done):
        if relation not in fact_relations:
            continue
        variables = tuple(Variable("V%d" % i) for i in range(len(adornment)))
        head = Atom(adorned_name(relation, adornment), variables)
        body = [
            Atom(magic_name(relation, adornment),
                 _bound_args(head, adornment)) if "b" in adornment
            else Atom(magic_name(relation, adornment) + "_seed", ()),
            Atom(relation, variables),
        ]
        bridge_index += 1
        transformed.add(Rule(head, body, (), 1.0,
                             "bridge%d" % bridge_index))

    return MagicProgram(
        transformed,
        adorned_name(query.relation, query_adornment),
        query.relation,
        label_map,
    )


def _adorn_rule(rule: Rule, adornment: str, idb: Set[str],
                transformed: Program, pending: List[Tuple[str, str]],
                label_map: Dict[str, str],
                label_counts: Dict[str, int]) -> None:
    """Emit the adorned version of one rule plus its magic rules."""
    head = rule.head
    bound: Set[Variable] = {
        arg for arg, letter in zip(head.args, adornment)
        if letter == "b" and isinstance(arg, Variable)
    }

    magic_head_atom = _magic_guard(head, adornment)
    new_body: List[Atom] = [magic_head_atom]
    prefix_for_sip: List[Atom] = [magic_head_atom]

    for atom in rule.body:
        if atom.relation in idb:
            sub_adornment = adornment_of(atom, bound)
            # Magic rule: demand for this subgoal, given the prefix.
            demand_args = _bound_args(atom, sub_adornment)
            if demand_args:
                demand_head = Atom(
                    magic_name(atom.relation, sub_adornment), demand_args)
            else:
                demand_head = Atom(
                    magic_name(atom.relation, sub_adornment) + "_seed", ())
            transformed.add(Rule(
                demand_head, list(prefix_for_sip), (), 1.0,
                _fresh_label(label_counts, "mg")))
            pending.append((atom.relation, sub_adornment))
            adorned_atom = Atom(adorned_name(atom.relation, sub_adornment),
                                atom.args)
            new_body.append(adorned_atom)
            prefix_for_sip.append(adorned_atom)
        else:
            new_body.append(atom)
            prefix_for_sip.append(atom)
        bound.update(atom.variables())

    adorned_head = Atom(adorned_name(head.relation, adornment), head.args)
    label = _adorned_label(rule, adornment, label_counts)
    label_map[label] = rule.label or label
    transformed.add(Rule(adorned_head, new_body, rule.constraints,
                         rule.probability, label))


def _magic_guard(head: Atom, adornment: str) -> Atom:
    args = _bound_args(head, adornment)
    if args:
        return Atom(magic_name(head.relation, adornment), args)
    return Atom(magic_name(head.relation, adornment) + "_seed", ())


def _adorned_label(rule: Rule, adornment: str,
                   label_counts: Dict[str, int]) -> str:
    base = "%s%s%s" % (rule.label or "r", ADORN_SEP, adornment)
    count = label_counts.get(base, 0)
    label_counts[base] = count + 1
    return base if count == 0 else "%s_%d" % (base, count)


def _fresh_label(label_counts: Dict[str, int], prefix: str) -> str:
    count = label_counts.get(prefix, 0) + 1
    label_counts[prefix] = count
    return "%s%d" % (prefix, count)
