"""Clause-level AST for ProbLog programs: facts, rules, and programs.

A :class:`Program` is the parsed form of Figure 1's syntax: a set of
probabilistic facts (``tid p: atom.``) and weighted conjunctive rules
(``rid p: head :- body.``).  Probabilities default to 1.0, which recovers
plain Datalog.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .builtins import Comparison
from .terms import Atom, Variable

_LABEL_COUNTER_FACT = "t"
_LABEL_COUNTER_RULE = "r"


class ClauseError(ValueError):
    """Raised for malformed clauses (bad probability, unsafe rule, ...)."""


def _check_probability(probability: float, context: str) -> float:
    try:
        probability = float(probability)
    except (TypeError, ValueError):
        raise ClauseError("%s probability must be a number" % context)
    if not 0.0 <= probability <= 1.0:
        raise ClauseError(
            "%s probability must be in [0, 1], got %s" % (context, probability)
        )
    return probability


class Fact:
    """A probabilistic base tuple: ``tid p: atom.``"""

    __slots__ = ("label", "probability", "atom")

    def __init__(self, atom: Atom, probability: float = 1.0,
                 label: Optional[str] = None) -> None:
        if not atom.is_ground:
            raise ClauseError("Facts must be ground: %s" % atom)
        self.atom = atom
        self.probability = _check_probability(probability, "Fact")
        self.label = label

    @property
    def is_probabilistic(self) -> bool:
        return self.probability < 1.0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fact)
            and other.atom == self.atom
            and other.probability == self.probability
            and other.label == self.label
        )

    def __hash__(self) -> int:
        return hash(("Fact", self.atom, self.probability, self.label))

    def __repr__(self) -> str:
        return "Fact(%r, %r, %r)" % (self.atom, self.probability, self.label)

    def __str__(self) -> str:
        prefix = "%s %s: " % (self.label or "_", _fmt_prob(self.probability))
        return "%s%s." % (prefix, self.atom)


class Rule:
    """A weighted conjunctive rule: ``rid p: head :- b1, ..., bn, guards.``

    ``body`` holds the positive relational subgoals in source order;
    ``constraints`` holds the comparison guards; ``negations`` holds
    negated subgoals (``not q(...)``, the stratified-negation extension —
    see :mod:`repro.datalog.stratification`).  Rules must be *safe*: every
    head, guard, and negated-subgoal variable must occur in some positive
    body atom.
    """

    __slots__ = ("label", "probability", "head", "body", "constraints",
                 "negations")

    def __init__(self, head: Atom, body: Sequence[Atom],
                 constraints: Sequence[Comparison] = (),
                 probability: float = 1.0,
                 label: Optional[str] = None,
                 negations: Sequence[Atom] = ()) -> None:
        body = tuple(body)
        constraints = tuple(constraints)
        negations = tuple(negations)
        if not body:
            raise ClauseError("Rule body must contain at least one atom: %s" % head)
        body_vars: Set[Variable] = set()
        for atom in body:
            body_vars.update(atom.variables())
        for var in head.variables():
            if var not in body_vars:
                raise ClauseError(
                    "Unsafe rule: head variable %s of %s not bound in body"
                    % (var, head)
                )
        for guard in constraints:
            for var in guard.variables():
                if var not in body_vars:
                    raise ClauseError(
                        "Unsafe rule: guard variable %s of %s not bound in body"
                        % (var, guard)
                    )
        for negated in negations:
            for var in negated.variables():
                if var not in body_vars:
                    raise ClauseError(
                        "Unsafe rule: negated subgoal variable %s of %s not "
                        "bound in a positive body atom" % (var, negated)
                    )
        self.head = head
        self.body = body
        self.constraints = constraints
        self.negations = negations
        self.probability = _check_probability(probability, "Rule")
        self.label = label

    @property
    def is_probabilistic(self) -> bool:
        return self.probability < 1.0

    @property
    def is_recursive(self) -> bool:
        """True when the head relation also appears in the body (direct recursion)."""
        return any(atom.relation == self.head.relation for atom in self.body)

    def variables(self) -> Set[Variable]:
        result: Set[Variable] = set(self.head.variables())
        for atom in self.body:
            result.update(atom.variables())
        for guard in self.constraints:
            result.update(guard.variables())
        for negated in self.negations:
            result.update(negated.variables())
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and other.head == self.head
            and other.body == self.body
            and other.constraints == self.constraints
            and other.negations == self.negations
            and other.probability == self.probability
            and other.label == self.label
        )

    def __hash__(self) -> int:
        return hash(
            ("Rule", self.head, self.body, self.constraints, self.negations,
             self.probability, self.label)
        )

    def __repr__(self) -> str:
        return "Rule(%r, %r, %r, %r, %r, negations=%r)" % (
            self.head, self.body, self.constraints, self.probability,
            self.label, self.negations,
        )

    def __str__(self) -> str:
        parts = [str(atom) for atom in self.body]
        parts.extend("not %s" % atom for atom in self.negations)
        parts.extend(str(guard) for guard in self.constraints)
        prefix = "%s %s: " % (self.label or "_", _fmt_prob(self.probability))
        return "%s%s :- %s." % (prefix, self.head, ", ".join(parts))


def _fmt_prob(probability: float) -> str:
    text = "%g" % probability
    return text if "." in text or "e" in text else text + ".0"


class Program:
    """A ProbLog program: an ordered collection of facts and rules.

    Labels (``tid``/``rid``) are auto-assigned when missing and must be
    unique; they identify rule literals in provenance polynomials.
    """

    def __init__(self, clauses: Iterable[object] = ()) -> None:
        self.facts: List[Fact] = []
        self.rules: List[Rule] = []
        #: ``query(...)`` directives: atom patterns (may contain variables).
        self.queries: List[Atom] = []
        #: ``evidence(...)`` directives: (ground atom, observed truth).
        self.evidence: List[Tuple[Atom, bool]] = []
        self._labels: Set[str] = set()
        self._fact_counter = 0
        self._rule_counter = 0
        for clause in clauses:
            self.add(clause)

    def add(self, clause: object) -> None:
        """Add a fact or rule, auto-labelling it if needed."""
        if isinstance(clause, Fact):
            clause.label = self._assign_label(clause.label, _LABEL_COUNTER_FACT)
            self.facts.append(clause)
        elif isinstance(clause, Rule):
            clause.label = self._assign_label(clause.label, _LABEL_COUNTER_RULE)
            self.rules.append(clause)
        else:
            raise TypeError("Program clauses must be Fact or Rule, got %r" % clause)

    def add_facts(self, facts: Sequence[Fact]) -> None:
        """Add facts all or none: every label is checked, against the
        program and within the batch, before any fact is added."""
        labels: Set[str] = set()
        for fact in facts:
            if fact.label is not None:
                if fact.label in self._labels or fact.label in labels:
                    raise ClauseError("Duplicate clause label: %r" % fact.label)
                labels.add(fact.label)
        # Reserved up front, so no auto-label of the batch can take one.
        self._labels |= labels
        for fact in facts:
            if fact.label is None:
                fact.label = self._assign_label(None, _LABEL_COUNTER_FACT)
            self.facts.append(fact)

    def _assign_label(self, label: Optional[str], prefix: str) -> str:
        if label is None:
            label = self._next_label(prefix)
        if label in self._labels:
            raise ClauseError("Duplicate clause label: %r" % label)
        self._labels.add(label)
        return label

    def _next_label(self, prefix: str) -> str:
        while True:
            if prefix == _LABEL_COUNTER_FACT:
                self._fact_counter += 1
                candidate = "%s%d" % (prefix, self._fact_counter)
            else:
                self._rule_counter += 1
                candidate = "%s%d" % (prefix, self._rule_counter)
            if candidate not in self._labels:
                return candidate

    def add_query(self, pattern: Atom) -> None:
        """Register a ``query(...)`` directive (pattern may have variables)."""
        self.queries.append(pattern)

    def add_evidence(self, atom: Atom, observed: bool = True) -> None:
        """Register an ``evidence(...)`` directive (ground observation)."""
        if not atom.is_ground:
            raise ClauseError("Evidence must be ground: %s" % atom)
        self.evidence.append((atom, observed))

    @property
    def clauses(self) -> List[object]:
        return list(self.facts) + list(self.rules)

    def rule_by_label(self, label: str) -> Rule:
        for rule in self.rules:
            if rule.label == label:
                return rule
        raise KeyError("No rule labelled %r" % label)

    def fact_by_label(self, label: str) -> Fact:
        for fact in self.facts:
            if fact.label == label:
                return fact
        raise KeyError("No fact labelled %r" % label)

    def relations(self) -> Set[str]:
        """All relation names mentioned anywhere in the program."""
        names: Set[str] = set()
        for fact in self.facts:
            names.add(fact.atom.relation)
        for rule in self.rules:
            names.add(rule.head.relation)
            for atom in rule.body:
                names.add(atom.relation)
            for atom in rule.negations:
                names.add(atom.relation)
        return names

    def edb_relations(self) -> Set[str]:
        """Relations defined only by facts (the extensional database)."""
        return self.relations() - self.idb_relations()

    def idb_relations(self) -> Set[str]:
        """Relations appearing in some rule head (the intensional database)."""
        return {rule.head.relation for rule in self.rules}

    def dependency_pairs(self) -> Iterator[Tuple[str, str]]:
        """Yield (head_relation, body_relation) dependency edges."""
        for rule in self.rules:
            for atom in rule.body:
                yield rule.head.relation, atom.relation

    def probabilities(self) -> Dict[str, float]:
        """Map every clause label to its probability."""
        result = {fact.label: fact.probability for fact in self.facts}
        result.update({rule.label: rule.probability for rule in self.rules})
        return result

    def __len__(self) -> int:
        return len(self.facts) + len(self.rules)

    def __iter__(self) -> Iterator[object]:
        return iter(self.clauses)

    def __str__(self) -> str:
        lines = [str(clause) for clause in self.clauses]
        lines.extend("query(%s)." % pattern for pattern in self.queries)
        lines.extend(
            "evidence(%s,%s)." % (atom, "true" if observed else "false")
            for atom, observed in self.evidence)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Program(<%d facts, %d rules>)" % (len(self.facts), len(self.rules))
