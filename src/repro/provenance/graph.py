"""The provenance graph of Section 3.1.

A directed graph with two vertex kinds:

- **tuple vertices** (rectangles in the paper's figures): one per ground
  atom, annotated with the base probability when the atom is a base tuple;
- **rule-execution vertices** (ovals): one per distinct rule firing,
  annotated with the rule's probability.

Edges run from input tuples into the rule execution that consumes them, and
from a rule execution to the tuple it derives.  The graph may contain cycles
when the program is recursive; cycle *handling* happens at polynomial
extraction time (see :mod:`repro.provenance.extraction`), the graph itself
records every firing faithfully.

:func:`add_firings` builds the graph from an engine's
:class:`~repro.datalog.rewrite.FiringTable` — the Section 3.2 ``prov``/
``rule`` tables, packed by id — one firing per rule-execution vertex.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple)

from ..datalog.ast import Program
from .polynomial import Literal, ProbabilityMap, rule_literal, tuple_literal

if TYPE_CHECKING:
    from ..datalog.engine import Engine


class RuleExecution:
    """One rule-execution vertex: a rule fired on a specific ground body."""

    __slots__ = ("exec_id", "rule_label", "head", "body", "probability", "_hash")

    def __init__(self, rule_label: str, head: str, body: Tuple[str, ...],
                 probability: float) -> None:
        object.__setattr__(self, "rule_label", rule_label)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "probability", float(probability))
        object.__setattr__(
            self, "exec_id", "%s[%s]" % (rule_label, ";".join(body))
        )
        object.__setattr__(self, "_hash", hash((rule_label, head, tuple(body))))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RuleExecution is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RuleExecution)
            and other.rule_label == self.rule_label
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "RuleExecution(%r -> %r)" % (self.exec_id, self.head)

    def __str__(self) -> str:
        return self.exec_id


class ProvenanceGraph:
    """Bipartite derivation graph over tuple keys and rule executions.

    Tuples are keyed by their canonical atom rendering (``str(atom)``), which
    keeps the graph independent of term object identity and matches the keys
    used by tuple literals in provenance polynomials.
    """

    def __init__(self) -> None:
        # tuple key -> base probability (only for base tuples)
        self._base_probability: Dict[str, float] = {}
        self._base_labels: Dict[str, str] = {}
        # tuple key -> rule executions deriving it
        self._derivations: Dict[str, List[RuleExecution]] = defaultdict(list)
        # tuple key -> its derivations sorted by exec_id (derivations_of);
        # an entry is dropped when the key gains an execution
        self._ordered: Dict[str, Tuple[RuleExecution, ...]] = {}
        self._execution_set: Set[RuleExecution] = set()
        # rule label -> probability
        self._rule_probability: Dict[str, float] = {}
        self._tuple_keys: Set[str] = set()
        # base tuple key -> its literal, made once and reused by every
        # probability map (see tuple_literal_of)
        self._literals: Dict[str, Literal] = {}

    # -- construction ---------------------------------------------------------

    def add_base_tuple(self, key: str, probability: float,
                       label: Optional[str] = None) -> None:
        """Register a base tuple vertex with its probability."""
        self._base_probability[key] = float(probability)
        if label is not None:
            self._base_labels[key] = label
        self._tuple_keys.add(key)

    def add_rule(self, label: str, probability: float) -> None:
        """Register a rule and its probability (for rule literals)."""
        self._rule_probability[label] = float(probability)

    def add_execution(self, execution: RuleExecution) -> bool:
        """Add a rule-execution vertex and its edges; True when new."""
        if execution in self._execution_set:
            return False
        self._execution_set.add(execution)
        self._derivations[execution.head].append(execution)
        self._ordered.pop(execution.head, None)
        self._tuple_keys.add(execution.head)
        self._tuple_keys.update(execution.body)
        if execution.rule_label not in self._rule_probability:
            self._rule_probability[execution.rule_label] = execution.probability
        return True

    # -- inspection -------------------------------------------------------------

    def tuple_keys(self) -> FrozenSet[str]:
        return frozenset(self._tuple_keys)

    def executions(self) -> FrozenSet[RuleExecution]:
        return frozenset(self._execution_set)

    def is_base(self, key: str) -> bool:
        return key in self._base_probability

    def is_derived(self, key: str) -> bool:
        return bool(self._derivations.get(key))

    def __contains__(self, key: str) -> bool:
        return key in self._tuple_keys

    def derivations_of(self, key: str) -> Tuple[RuleExecution, ...]:
        """Rule executions whose head is the given tuple, in ``exec_id`` order.

        The sorted tuple is cached until the key gains an execution.
        """
        ordered = self._ordered.get(key)
        if ordered is None:
            ordered = self._ordered[key] = tuple(sorted(
                self._derivations.get(key, ()), key=lambda e: e.exec_id))
        return ordered

    def base_probability(self, key: str) -> float:
        return self._base_probability[key]

    def base_label(self, key: str) -> Optional[str]:
        return self._base_labels.get(key)

    def rule_probability(self, label: str) -> float:
        return self._rule_probability[label]

    def rules(self) -> Dict[str, float]:
        return dict(self._rule_probability)

    def tuple_literal_of(self, key: str) -> Literal:
        """The literal of tuple ``key``, made once per graph."""
        literal = self._literals.get(key)
        if literal is None:
            literal = self._literals[key] = tuple_literal(key)
        return literal

    def probability_map(self) -> Dict[Literal, float]:
        """The :data:`ProbabilityMap` over every literal this graph defines."""
        literal_of = self.tuple_literal_of
        result: Dict[Literal, float] = {}
        for key, prob in self._base_probability.items():
            result[literal_of(key)] = prob
        for label, prob in self._rule_probability.items():
            result[rule_literal(label)] = prob
        return result

    # -- traversal ----------------------------------------------------------------

    def reachable_subgraph(self, root: str,
                           hop_limit: Optional[int] = None) -> "ProvenanceGraph":
        """The provenance of ``root``: the subgraph reachable downward from it.

        ``hop_limit`` bounds the number of derived-tuple expansions along any
        path, mirroring the querying hop limit of Section 6.1.
        """
        sub = ProvenanceGraph()
        sub._rule_probability.update(self._rule_probability)
        # Without a hop limit, visiting each tuple once suffices; with one,
        # a tuple must be re-expanded when reached at a shallower depth, so
        # we track the best (smallest) depth seen per tuple.
        best_depth: Dict[str, int] = {}
        stack: List[Tuple[str, int]] = [(root, 0)]
        sub._tuple_keys.add(root)
        while stack:
            key, depth = stack.pop()
            previous = best_depth.get(key)
            if previous is not None and previous <= depth:
                continue
            best_depth[key] = depth
            if key in self._base_probability:
                sub.add_base_tuple(key, self._base_probability[key],
                                   self._base_labels.get(key))
            if hop_limit is not None and depth >= hop_limit:
                continue
            for execution in self._derivations.get(key, ()):
                sub.add_execution(execution)
                for body_key in execution.body:
                    stack.append((body_key, depth + 1))
        return sub

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Yield all (source, target) edges using vertex display keys."""
        for execution in sorted(self._execution_set, key=lambda e: e.exec_id):
            for body_key in execution.body:
                yield body_key, execution.exec_id
            yield execution.exec_id, execution.head

    def vertex_count(self) -> int:
        return len(self._tuple_keys) + len(self._execution_set)

    def edge_count(self) -> int:
        return sum(len(e.body) + 1 for e in self._execution_set)

    # -- rendering ----------------------------------------------------------------

    def to_dot(self, root: Optional[str] = None) -> str:
        """Graphviz DOT rendering (tuples as boxes, executions as ovals)."""
        lines = ["digraph provenance {", "  rankdir=BT;"]
        tuple_ids = {key: "t%d" % i for i, key in enumerate(sorted(self._tuple_keys))}
        exec_ids = {
            execution: "e%d" % i
            for i, execution in enumerate(
                sorted(self._execution_set, key=lambda e: e.exec_id))
        }
        for key, node in tuple_ids.items():
            attrs = ['shape=box', 'label="%s"' % _dot_escape(key)]
            if key in self._base_probability:
                attrs.append('xlabel="p=%g"' % self._base_probability[key])
            if root is not None and key == root:
                attrs.append("style=bold")
            lines.append("  %s [%s];" % (node, ", ".join(attrs)))
        for execution, node in exec_ids.items():
            lines.append(
                '  %s [shape=oval, label="%s", xlabel="p=%g"];'
                % (node, _dot_escape(execution.rule_label), execution.probability)
            )
        for execution, node in exec_ids.items():
            for body_key in execution.body:
                lines.append("  %s -> %s;" % (tuple_ids[body_key], node))
            lines.append("  %s -> %s;" % (node, tuple_ids[execution.head]))
        lines.append("}")
        return "\n".join(lines)

    def to_text(self, root: str, hop_limit: Optional[int] = None,
                indent: str = "  ") -> str:
        """Human-readable derivation tree rooted at ``root``.

        Cycles are marked ``(cycle)`` and not expanded; repeated subtrees are
        expanded at each occurrence (as in the paper's Figure 8).
        """
        lines: List[str] = []

        def visit(key: str, depth: int, ancestors: FrozenSet[str]) -> None:
            pad = indent * depth
            if key in self._base_probability:
                lines.append("%s%s  [base p=%g]"
                             % (pad, key, self._base_probability[key]))
                # A base tuple may ALSO be re-derivable (the paper's
                # know("Ben","Steve") situation); show those derivations
                # too, unless they cycle.
                if key not in ancestors:
                    for execution in sorted(self._derivations.get(key, ()),
                                            key=lambda e: e.exec_id):
                        lines.append(
                            "%salso via %s  [p=%g]"
                            % (indent * (depth + 1), execution.rule_label,
                               execution.probability))
                        for body_key in execution.body:
                            visit(body_key, depth + 2, ancestors | {key})
                return
            executions = self._derivations.get(key, ())
            if key in ancestors:
                lines.append("%s%s  (cycle)" % (pad, key))
                return
            if hop_limit is not None and depth // 2 >= hop_limit:
                lines.append("%s%s  (hop limit)" % (pad, key))
                return
            if not executions:
                lines.append("%s%s  [underivable]" % (pad, key))
                return
            lines.append("%s%s" % (pad, key))
            for execution in sorted(executions, key=lambda e: e.exec_id):
                lines.append("%svia %s  [p=%g]"
                             % (indent * (depth + 1), execution.rule_label,
                                execution.probability))
                for body_key in execution.body:
                    visit(body_key, depth + 2, ancestors | {key})

        visit(root, 0, frozenset())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "ProvenanceGraph(<%d tuples, %d executions>)" % (
            len(self._tuple_keys), len(self._execution_set),
        )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def register_program(graph: ProvenanceGraph, program: Program) -> None:
    """Register ``program``'s rules (labels + probabilities) and base
    facts in the graph; of repeated base facts the first one counts.

    Each fact's literal is made here, once, so the probability maps
    built later over the graph only look literals up."""
    for rule in program.rules:
        graph.add_rule(rule.label or "?", rule.probability)
    for fact in program.facts:
        key = str(fact.atom)
        if not graph.is_base(key):
            graph.add_base_tuple(key, fact.probability, fact.label)
            graph.tuple_literal_of(key)


def add_firings(graph: ProvenanceGraph, engine: "Engine",
                start: int = 0) -> int:
    """Add ``engine``'s firings from index ``start`` on to ``graph``.

    Each firing becomes one rule-execution vertex, its tuples keyed by
    the engine's per-gid keys.  Returns the firing count — the ``start``
    of the next call — so a live system adds only an insertion's delta.
    """
    keys = engine.keys
    for rule, head, body in engine.firings.rows(start):
        graph.add_execution(RuleExecution(
            rule.label or "?", keys[head], tuple(keys[gid] for gid in body),
            rule.probability))
    return len(engine.firings)
