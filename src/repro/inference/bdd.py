"""Reduced Ordered Binary Decision Diagrams for DNF probability.

ProbLog computes the success probability of the query's monotone DNF by
compiling it into a BDD (Section 2.2, citing Bryant [4]): once the formula
is a BDD, the probability is a single bottom-up weighted pass.  This module
is a small, self-contained ROBDD package:

- hash-consed nodes with complement-free semantics (monotone inputs don't
  need complement edges),
- an iterative ``apply`` with operation memoisation,
- :func:`from_polynomial` compiling a provenance polynomial under a given
  variable order, or by default in first-occurrence order,
- :meth:`BDD.probability`: weighted model count in one bottom-up pass,
- :func:`model_count` and :func:`satisfying_assignments` for testing.

Node growth is metered against the ambient resource budget's
``max_compiled_bytes`` (:mod:`repro.resilience.budgets`), so a budgeted
compile fails with a typed
:class:`~repro.core.errors.BudgetExceededError` instead of running away;
an unbudgeted compile that runs out of memory raises the same error.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import BudgetExceededError, InferenceConfigurationError
from ..provenance.polynomial import Literal, Polynomial, ProbabilityMap
from ..resilience.budgets import active_meter

# Terminal node ids.
ZERO = 0
ONE = 1

#: Budgeted bytes per node created: the node triple, its unique-table
#: entry, and its share of the apply memo.  tracemalloc measures about
#: 365 bytes per node compiling the 1,199-monomial mutual-trust key of
#: the Section 6.2 workload on CPython 3.11.
NODE_BYTES = 384


class BDD:
    """A shared ROBDD forest over an ordered sequence of literals.

    Node ids are integers; 0 and 1 are the terminals.  Internal nodes are
    triples ``(level, low, high)`` stored uniquely (hash-consing), where
    ``level`` indexes into :attr:`order`.
    """

    def __init__(self, order: Sequence[Literal]) -> None:
        if len(set(order)) != len(order):
            raise InferenceConfigurationError(
                "BDD variable order contains duplicates")
        self.order: Tuple[Literal, ...] = tuple(order)
        self._level: Dict[Literal, int] = {
            literal: index for index, literal in enumerate(self.order)
        }
        # node id -> (level, low, high); terminals excluded
        self._nodes: List[Tuple[int, int, int]] = []
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_memo: Dict[str, Dict[Tuple[int, int], int]] = {}
        self._meter = active_meter()

    # -- node management ------------------------------------------------------

    def _make(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            if self._meter is not None:
                self._meter.check_compiled_bytes(
                    (len(self._nodes) + 1) * NODE_BYTES)
            node = len(self._nodes) + 2  # ids 0/1 are terminals
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def node(self, node_id: int) -> Tuple[int, int, int]:
        if node_id in (ZERO, ONE):
            raise ValueError("Terminals have no structure")
        return self._nodes[node_id - 2]

    def is_terminal(self, node_id: int) -> bool:
        return node_id in (ZERO, ONE)

    def variable(self, literal: Literal) -> int:
        """BDD for a single literal."""
        return self._make(self._level[literal], ZERO, ONE)

    def size(self, root: int) -> int:
        """Number of internal nodes reachable from ``root``."""
        return len(self.reachable(root))

    def reachable(self, root: int) -> List[int]:
        """Internal nodes reachable from ``root``, children first.

        A node is created only after both its children exist, so
        ascending node id is a bottom-up topological order.
        """
        seen = set()
        stack = [root]
        while stack:
            node_id = stack.pop()
            if node_id <= ONE or node_id in seen:
                continue
            seen.add(node_id)
            _, low, high = self._nodes[node_id - 2]
            stack.append(low)
            stack.append(high)
        return sorted(seen)

    # -- apply ------------------------------------------------------------------

    def apply(self, op: str, left: int, right: int) -> int:
        """Combine two BDDs with ``op`` in {'and', 'or'} (Bryant's Apply).

        Iterative, over an explicit stack of operand pairs: a pair is
        expanded when first met and built once both cofactor pairs are
        memoised, so a deep result costs no Python recursion.  Pairs are
        ordered (smaller id first), and the terminals 0 and 1 are the
        smallest ids, so a pair holding a terminal has it first and is
        settled on the spot: the operation's absorbing terminal wins, the
        other one yields the partner.
        """
        if op == "and":
            absorbing = ZERO
        elif op == "or":
            absorbing = ONE
        else:
            raise ValueError("Unsupported BDD operation %r" % op)
        memo = self._apply_memo.setdefault(op, {})
        nodes = self._nodes
        make = self._make

        def settle(first: int, second: int) -> Optional[int]:
            """The result for an ordered pair, or None if not yet known."""
            if first == second:
                return first
            if first <= ONE:
                return absorbing if first == absorbing else second
            return memo.get((first, second))

        root = (left, right) if left <= right else (right, left)
        result = settle(*root)
        if result is not None:
            return result
        stack = [root]
        while stack:
            pair = stack[-1]
            if pair in memo:
                stack.pop()
                continue
            first, second = pair
            first_level, first_low, first_high = nodes[first - 2]
            second_level, second_low, second_high = nodes[second - 2]
            if first_level < second_level:
                level = first_level
                second_low = second_high = second
            else:
                level = second_level
                if second_level < first_level:
                    first_low = first_high = first
            if first_low > second_low:
                first_low, second_low = second_low, first_low
            if first_high > second_high:
                first_high, second_high = second_high, first_high
            low = settle(first_low, second_low)
            if low is None:
                stack.append((first_low, second_low))
            high = settle(first_high, second_high)
            if high is None:
                stack.append((first_high, second_high))
            if low is not None and high is not None:
                stack.pop()
                memo[pair] = make(level, low, high)
        return memo[root]

    def disjoin(self, nodes: Sequence[int]) -> int:
        """OR of ``nodes`` as a balanced pairwise tree.

        A left fold drags one ever-growing accumulator through every
        apply; pairing keeps both operands small until the last levels.
        The ROBDD is canonical, so the root is the same either way.
        """
        layer = list(nodes)
        if not layer:
            return ZERO
        while len(layer) > 1:
            paired = [self.apply("or", layer[i], layer[i + 1])
                      for i in range(0, len(layer) - 1, 2)]
            if len(layer) % 2:
                paired.append(layer[-1])
            if ONE in paired:
                return ONE
            layer = paired
        return layer[0]

    # -- queries -------------------------------------------------------------------

    def probability(self, root: int, probabilities: ProbabilityMap) -> float:
        """Weighted model count: P[formula] in one bottom-up pass."""
        value: Dict[int, float] = {ZERO: 0.0, ONE: 1.0}
        nodes = self._nodes
        literals = self.order
        for node_id in self.reachable(root):
            level, low, high = nodes[node_id - 2]
            p = probabilities[literals[level]]
            value[node_id] = (1.0 - p) * value[low] + p * value[high]
        return value[root]

    def evaluate(self, root: int, assignment: Mapping[Literal, bool]) -> bool:
        node_id = root
        while not self.is_terminal(node_id):
            level, low, high = self.node(node_id)
            node_id = high if assignment[self.order[level]] else low
        return node_id == ONE

    def model_count(self, root: int) -> int:
        """Number of satisfying assignments over the full variable order."""
        memo: Dict[Tuple[int, int], int] = {}

        def walk(node_id: int, level: int) -> int:
            if node_id == ZERO:
                return 0
            if node_id == ONE:
                return 2 ** (len(self.order) - level)
            key = (node_id, level)
            cached = memo.get(key)
            if cached is not None:
                return cached
            node_level, low, high = self.node(node_id)
            if node_level > level:
                value = 2 * walk(node_id, level + 1)
            else:
                value = walk(low, level + 1) + walk(high, level + 1)
            memo[key] = value
            return value

        return walk(root, 0)

    def satisfying_assignments(
            self, root: int) -> Iterator[Dict[Literal, bool]]:
        """Yield complete satisfying assignments (testing helper)."""

        def walk(node_id: int, level: int,
                 partial: Dict[Literal, bool]) -> Iterator[Dict[Literal, bool]]:
            if node_id == ZERO:
                return
            if level == len(self.order):
                if node_id == ONE:
                    yield dict(partial)
                return
            literal = self.order[level]
            node_level = (None if self.is_terminal(node_id)
                          else self.node(node_id)[0])
            if node_level is None or node_level > level:
                for value in (False, True):
                    partial[literal] = value
                    yield from walk(node_id, level + 1, partial)
                del partial[literal]
            else:
                _, low, high = self.node(node_id)
                partial[literal] = False
                yield from walk(low, level + 1, partial)
                partial[literal] = True
                yield from walk(high, level + 1, partial)
                del partial[literal]

        yield from walk(root, 0, {})

    def __repr__(self) -> str:
        return "BDD(<%d vars, %d nodes>)" % (len(self.order), len(self._nodes))


def first_occurrence_order(polynomial: Polynomial) -> Tuple[Literal, ...]:
    """Literals as a compile first meets them.

    Monomials in ``str`` order, each monomial's literals in ``str``
    order, duplicates dropped.  The literals of one derivation stay
    adjacent, which keeps trust-path DNFs small: a most-frequent-first
    order compiled a 24-monomial one into 71,389 BDD nodes, this order
    into 1,137.
    """
    return tuple(dict.fromkeys(
        literal for monomial in sorted(polynomial.monomials, key=str)
        for literal in sorted(monomial.literals, key=str)))


def from_polynomial(polynomial: Polynomial,
                    order: Optional[Sequence[Literal]] = None
                    ) -> Tuple[BDD, int]:
    """Compile a provenance polynomial into (forest, root node id).

    The order defaults to :func:`first_occurrence_order`.  Each
    monomial's chain is built straight from the deepest level up, so no
    apply memo or dead intermediate node is spent on it; the chains are
    then disjoined in ``str`` order.  Running out of memory raises a
    typed :class:`~repro.core.errors.BudgetExceededError`, as the
    circuit compile does.
    """
    if order is None:
        order = first_occurrence_order(polynomial)
    bdd: Optional[BDD] = BDD(order)
    try:
        level = bdd._level
        chains = []
        for monomial in sorted(polynomial.monomials, key=str):
            node = ONE
            for depth in sorted((level[lit] for lit in monomial.literals),
                                reverse=True):
                node = bdd._make(depth, ZERO, node)
            chains.append(node)
        root = bdd.disjoin(chains)
    except MemoryError:
        bdd = None
    if bdd is None:
        # Raised outside the handler, so the failed compile's forest is
        # released first.
        raise BudgetExceededError("BDD compile ran out of memory",
                                  resource="compiled_bytes")
    return bdd, root


def bdd_probability(polynomial: Polynomial,
                    probabilities: ProbabilityMap,
                    order: Optional[Sequence[Literal]] = None) -> float:
    """Compile to a BDD and weighted-model-count: ProbLog's exact pipeline."""
    bdd, root = from_polynomial(polynomial, order)
    return bdd.probability(root, probabilities)
