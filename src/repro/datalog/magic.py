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

Depth-indexed demand: Section 6.1 bounds provenance queries by a hop
limit, and extraction at hop limit ``H`` never reads a derivation deeper
than ``H``.  ``magic_transform(program, query, depth=H)`` gives every
demand relation a final column ``R``, the remaining depth: the seed is
``m_q(args, H)``, and the successor facts ``m_succ(r, r-1)`` for
``r = 1..H`` lower it without an arithmetic builtin.  An adorned rule
fires only under its head's demand at ``R >= 1`` and demands its IDB
body atoms at ``R-1``.  Extraction at remaining depth 0 reads only a
tuple's base literal, so a rule with an IDB body atom whose relation
holds no base facts needs ``R-1 >= 1`` for both: demand at ``R-1 = 0``
reaches only relations holding base facts.  Bridge rules fire under
demand at any depth.  Adorned relations carry no depth column, so
firings that differ only in ``R`` collapse into one rule execution.
Every derivation of height at most ``H`` below the query is derived (the
planner's coverage argument is in :mod:`repro.ground.planner`).

Limitations: programs with negation are rejected (magic sets under
stratified negation require more careful labelling), as are reserved
relation names.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .ast import Fact, Program, Rule
from .terms import Atom, Constant, Term, Variable

#: Separator between a relation name and its adornment.
ADORN_SEP = "@"
#: Prefix of magic (demand) relations.
MAGIC_PREFIX = "m_"
#: Successor relation of depth-indexed demand: ``m_succ(r, r-1)``.
_SUCC_RELATION = MAGIC_PREFIX + "succ"
#: Remaining-depth variables of depth-indexed rules; the ``@`` keeps them
#: apart from any variable a parsed program can name.
_DEPTH, _DEPTH_1, _DEPTH_2 = (Variable(ADORN_SEP + name)
                              for name in ("R", "R1", "R2"))


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


def _demand(relation: str, adornment: str, args: Tuple[Term, ...],
            depth: Optional[Term] = None) -> Atom:
    """The demand atom of ``relation@adornment`` for bound ``args``.

    An adornment with no bound position demands through the nullary
    ``..._seed`` relation; ``depth`` appends the remaining-depth column.
    """
    name = magic_name(relation, adornment)
    if not args:
        name += "_seed"
    if depth is not None:
        args = args + (depth,)
    return Atom(name, args)


def _succ(depth: Term, lowered: Term) -> Atom:
    return Atom(_SUCC_RELATION, (depth, lowered))


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
    depth:
        The hop limit demand was indexed by, or ``None`` (unbounded).
    """

    def __init__(self, program: Program, query_relation: str,
                 original_relation: str,
                 label_map: Dict[str, str],
                 depth: Optional[int] = None) -> None:
        self.program = program
        self.query_relation = query_relation
        self.original_relation = original_relation
        self.label_map = dict(label_map)
        self.depth = depth

    def __repr__(self) -> str:
        return "MagicProgram(query=%s, <%d clauses>)" % (
            self.query_relation, len(self.program))


def magic_transform(program: Program, query: Atom,
                    depth: Optional[int] = None) -> MagicProgram:
    """Specialise ``program`` to the query pattern ``query``.

    The pattern's constants become bound positions; its variables stay
    free.  Only rules (transitively) relevant to the query's relation are
    kept.  A ``depth`` (a hop limit, ``>= 0``) indexes demand by the
    remaining depth (see the module docstring); ``None`` demands every
    derivation.
    """
    if depth is not None and (isinstance(depth, bool)
                              or not isinstance(depth, int) or depth < 0):
        raise ValueError("depth must be a non-negative int or None, got %r"
                         % (depth,))
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
    fact_relations = {fact.atom.relation for fact in program.facts}

    transformed = Program()
    label_map: Dict[str, str] = {}
    label_counts: Dict[str, int] = {}

    # Worklist of (relation, adornment) pairs still to expand.
    query_adornment = adornment_of(query, set())
    pending: List[Tuple[str, str]] = [(query.relation, query_adornment)]
    done: Set[Tuple[str, str]] = set()

    # Seed: the magic fact carrying the query's constants (and depth).
    transformed.add(Fact(
        _demand(query.relation, query_adornment,
                _bound_args(query, query_adornment),
                None if depth is None else Constant(depth)),
        1.0, "magicseed"))
    for remaining in range(1, (depth or 0) + 1):
        transformed.add(Fact(
            _succ(Constant(remaining), Constant(remaining - 1)), 1.0,
            "magicsucc%d" % remaining))

    while pending:
        relation, adornment = pending.pop()
        if (relation, adornment) in done:
            continue
        done.add((relation, adornment))
        for rule in rules_by_head.get(relation, ()):
            _adorn_rule(rule, adornment, idb, transformed, pending,
                        label_map, label_counts,
                        None if depth is None else fact_relations)

    # The original facts are not copied: EDB rows and IDB base facts stay
    # in the caller's fact store under their original relations and are
    # read there in place.  IDB relations with base facts (the
    # Acquaintance know/2 shape) get a deterministic bridge rule per
    # demanded adornment, firing under demand at any remaining depth.
    bridge_index = 0
    for relation, adornment in sorted(done):
        if relation not in fact_relations:
            continue
        variables = tuple(Variable("V%d" % i) for i in range(len(adornment)))
        head = Atom(adorned_name(relation, adornment), variables)
        body = [
            _demand(relation, adornment, _bound_args(head, adornment),
                    None if depth is None else _DEPTH),
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
        depth,
    )


def _adorn_rule(rule: Rule, adornment: str, idb: Set[str],
                transformed: Program, pending: List[Tuple[str, str]],
                label_map: Dict[str, str],
                label_counts: Dict[str, int],
                fact_relations: Optional[Set[str]] = None) -> None:
    """Emit the adorned version of one rule plus its magic rules.

    ``fact_relations`` (the relations holding base facts) switches on
    depth-indexed demand: the rule fires under its head's demand at
    ``R >= 1`` and demands each IDB body atom at ``R-1``.  At ``R-1 = 0``
    extraction reads only base literals, so a rule with an IDB body atom
    whose relation holds no base facts needs ``R-1 >= 1`` for both.
    That check is what guarding each IDB body atom with its own demand
    at ``R-1`` amounts to, without the extra join.
    """
    indexed = fact_relations is not None
    head = rule.head
    bound: Set[Variable] = {
        arg for arg, letter in zip(head.args, adornment)
        if letter == "b" and isinstance(arg, Variable)
    }

    # The adorned body doubles as the sideways-information-passing
    # prefix of each magic rule.
    new_body: List[Atom] = [_demand(
        head.relation, adornment, _bound_args(head, adornment),
        _DEPTH if indexed else None)]
    if indexed:
        new_body.append(_succ(_DEPTH, _DEPTH_1))
        if any(atom.relation in idb and atom.relation not in fact_relations
               for atom in rule.body):
            new_body.append(_succ(_DEPTH_1, _DEPTH_2))  # R-1 >= 1

    for atom in rule.body:
        if atom.relation in idb:
            sub_adornment = adornment_of(atom, bound)
            # Magic rule: demand for this subgoal, given the prefix.
            demand_head = _demand(atom.relation, sub_adornment,
                                  _bound_args(atom, sub_adornment),
                                  _DEPTH_1 if indexed else None)
            transformed.add(Rule(
                demand_head, list(new_body), (), 1.0,
                _fresh_label(label_counts, "mg")))
            pending.append((atom.relation, sub_adornment))
            new_body.append(Atom(adorned_name(atom.relation, sub_adornment),
                                 atom.args))
        else:
            new_body.append(atom)
        bound.update(atom.variables())

    adorned_head = Atom(adorned_name(head.relation, adornment), head.args)
    label = _adorned_label(rule, adornment, label_counts)
    label_map[label] = rule.label or label
    transformed.add(Rule(adorned_head, new_body, rule.constraints,
                         rule.probability, label))


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
