"""Exact P[λ] and its gradient from one decision-DNNF circuit.

The paper computes P[λ] exactly the ProbLog way, by compiling the DNF
(Section 2.2).  This module compiles a provenance polynomial into a
decision-DNNF in the sense of Darwiche & Marquis (*A Knowledge
Compilation Map*), with three kinds of node:

- **AND**: the literals common to every monomial, conjoined with the
  circuit of what is left of each monomial.  P = Π p(x) · P(child).
- **independent OR**: literal-disjoint components of the DNF.
  P = 1 − Π (1 − Pᵢ).
- **decision** on one literal x: ``x=0`` keeps the monomials without x;
  ``x=1`` drops x from the monomials with it and keeps the x-free ones
  none of them subsumes.  P = (1 − p(x)) · P(low) + p(x) · P(high).

A formula that factors into ANDs and ORs over disjoint literals (each
literal once) compiles with no decision at all, in time linear in it.

Literals are numbered in the BDD's first-occurrence order (see
:func:`repro.inference.bdd.first_occurrence_order`) and each monomial is
an int mask, so subsumption is ``h & m == h``.  Sub-DNFs are memoised on
their frozenset of masks.  The decision literal is the one in the most
monomials, ties broken by first occurrence.  Measured on the hop-5
full-network key ``trustPath(1994,1591)`` (195 monomials, 286 literals):
this rule compiles it into 13,493 nodes, where first-occurrence
decisions build 302k, and shortest- or first-monomial pivots run out of
memory.

One forward pass gives P[λ]; one backward pass gives every ∂P/∂p(x),
which is the influence of Definition 4.1.

The compile walks an explicit stack, so deep DNFs (a 1,500-edge path)
never hit the recursion limit.  Node growth is metered against the
ambient budget's ``max_compiled_bytes``; that and running out of memory
both raise a typed :class:`~repro.core.errors.BudgetExceededError`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.errors import BudgetExceededError
from ..provenance.polynomial import Literal, Polynomial, ProbabilityMap
from ..resilience.budgets import active_meter
from .bdd import first_occurrence_order

# Terminal node ids.
ZERO = 0
ONE = 1

# Node kinds: (AND, bits, child), (OR, children), (DECISION, bit, low, high).
AND = 0
OR = 1
DECISION = 2

#: Budgeted bytes per node: the node tuple, its memo entry (the frozenset
#: of masks it was compiled from), its share of the plans, the stack and
#: the per-mask bit lists.  tracemalloc measures a peak of 2,046 bytes
#: per node on the hop-5 full-network key (13,491 nodes) and 2,263 on
#: ``mutualTrustPath(50,68)`` (18,558 nodes) on CPython 3.11.
NODE_BYTES = 2304

Masks = FrozenSet[int]


def _bits(mask: int) -> List[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _plan(masks: Masks, bits_of: Dict[int, List[int]]
          ) -> Tuple[int, object, Tuple[Masks, ...]]:
    """``(kind, payload, children)`` for an absorbed, non-terminal DNF.

    ``bits_of`` caches :func:`_bits` for the whole compile: a sub-DNF
    keeps most of its parent's masks.
    """
    common = -1
    support = 0
    for mask in masks:
        common &= mask
        support |= mask
    if common:
        return AND, tuple(_bits(common)), (
            frozenset(mask ^ common for mask in masks),)

    # Union-find over literal bits: every monomial joins its bits.
    width = support.bit_length()
    parent = list(range(width))
    counts = [0] * width
    for mask in masks:
        bits = bits_of.get(mask)
        if bits is None:
            bits = bits_of[mask] = _bits(mask)
        root = -1
        for bit in bits:
            counts[bit] += 1
            while parent[bit] != bit:
                parent[bit] = bit = parent[parent[bit]]
            if root < 0:
                root = bit
            elif bit != root:
                parent[bit] = root
    groups: Dict[int, List[int]] = {}
    for mask in masks:
        top = bits_of[mask][0]
        while parent[top] != top:
            top = parent[top]
        groups.setdefault(top, []).append(mask)
    if len(groups) > 1:
        return OR, None, tuple(frozenset(group)
                               for group in groups.values())

    # Decide the literal in the most monomials; ties go to the lowest
    # bit, i.e. the first occurrence (``max`` keeps the first maximum).
    pivot = max(range(width), key=counts.__getitem__)
    flag = 1 << pivot
    low = frozenset(mask for mask in masks if not mask & flag)
    reduced = [mask ^ flag for mask in masks if mask & flag]
    if 0 in reduced:
        return DECISION, pivot, (low, frozenset((0,)))
    # Only a reduced monomial can subsume an x-free one; index the
    # reduced ones by lowest bit, which the subsumed mask must contain.
    by_low: Dict[int, List[int]] = {}
    for mask in reduced:
        by_low.setdefault((mask & -mask).bit_length() - 1, []).append(mask)
    kept = [mask for mask in low
            if not any(sub & mask == sub
                       for bit in bits_of[mask]
                       for sub in by_low.get(bit, ()))]
    return DECISION, pivot, (low, frozenset(reduced + kept))


class Circuit:
    """A compiled polynomial: nodes children-first, the root last.

    ``literals[i]`` is the literal of bit ``i``.  Node ids 0 and 1 are
    the terminals; node ``n ≥ 2`` is ``nodes[n - 2]``.  Every node is
    reachable from :attr:`root`.
    """

    __slots__ = ("literals", "nodes", "root")

    def __init__(self, literals: Sequence[Literal],
                 nodes: List[tuple], root: int) -> None:
        self.literals: Tuple[Literal, ...] = tuple(literals)
        self.nodes = nodes
        self.root = root

    @classmethod
    def compile(cls, polynomial: Polynomial) -> "Circuit":
        """Compile ``polynomial``; see the module docstring."""
        literals = first_occurrence_order(polynomial)
        bit = {literal: index for index, literal in enumerate(literals)}
        masks = frozenset(
            sum(1 << bit[literal] for literal in monomial.literals)
            for monomial in polynomial.monomials)
        nodes: Optional[List[tuple]] = []
        try:
            root = _compile(masks, nodes)
        except MemoryError:
            nodes = None
        if nodes is None:
            # Raised outside the handler, so the failed compile's frames
            # and everything they hold are released first.
            raise BudgetExceededError(
                "Circuit compile ran out of memory",
                resource="compiled_bytes")
        return cls(literals, nodes, root)

    def __len__(self) -> int:
        return len(self.nodes)

    def probability(self, probabilities: ProbabilityMap) -> float:
        """P[λ] in one forward pass."""
        return self._forward(probabilities)[self.root]

    def gradient(self, probabilities: ProbabilityMap
                 ) -> Tuple[float, Dict[Literal, float]]:
        """``(P[λ], {literal: ∂P/∂p(literal)})`` in two passes.

        The backward pass propagates adjoints ``a(n) = ∂P/∂v(n)`` from
        the root down.  The circuit computes P as a polynomial in the
        literal probabilities, so the chain rule gives every exact
        partial.  Every literal of λ is in the result; absent ones have
        derivative 0.
        """
        value = self._forward(probabilities)
        literals = self.literals
        p = [probabilities[literal] for literal in literals]
        partial = [0.0] * len(literals)
        adjoint = [0.0] * len(value)
        adjoint[self.root] = 1.0
        for node_id in range(len(value) - 1, 1, -1):
            a = adjoint[node_id]
            node = self.nodes[node_id - 2]
            kind = node[0]
            if kind == DECISION:
                _, bit, low, high = node
                partial[bit] += a * (value[high] - value[low])
                adjoint[low] += (1.0 - p[bit]) * a
                adjoint[high] += p[bit] * a
            elif kind == AND:
                _, bits, child = node
                factors = [p[bit] for bit in bits]
                others = _products_of_others(factors)
                for bit, rest in zip(bits, others):
                    partial[bit] += a * rest * value[child]
                adjoint[child] += a * others[0] * factors[0]
            else:
                children = node[1]
                others = _products_of_others(
                    [1.0 - value[child] for child in children])
                for child, rest in zip(children, others):
                    adjoint[child] += a * rest
        return value[self.root], dict(zip(literals, partial))

    def _forward(self, probabilities: ProbabilityMap) -> List[float]:
        """Every node's value, indexed by node id, terminals included."""
        p = [probabilities[literal] for literal in self.literals]
        value = [0.0, 1.0]
        for node in self.nodes:
            kind = node[0]
            if kind == DECISION:
                _, bit, low, high = node
                value.append((1.0 - p[bit]) * value[low]
                             + p[bit] * value[high])
            elif kind == AND:
                product = value[node[2]]
                for bit in node[1]:
                    product *= p[bit]
                value.append(product)
            else:
                miss = 1.0
                for child in node[1]:
                    miss *= 1.0 - value[child]
                value.append(1.0 - miss)
        return value


def _products_of_others(factors: Sequence[float]) -> List[float]:
    """``[Π_{j≠i} factors[j] for i]`` without dividing (factors may be 0)."""
    count = len(factors)
    result = [1.0] * count
    running = 1.0
    for index in range(count):
        result[index] = running
        running *= factors[index]
    running = 1.0
    for index in range(count - 1, -1, -1):
        result[index] *= running
        running *= factors[index]
    return result


def _compile(root: Masks, nodes: List[tuple]) -> int:
    """Compile ``root`` into ``nodes``; returns the root's node id.

    A DNF is planned when first met and built once all its children
    are; children are strictly smaller (fewer literals), so the stack
    always empties.  The only terminal DNFs a plan yields are the empty
    one and the empty monomial alone: the input is absorbed.
    """
    meter = active_meter()
    memo: Dict[Masks, int] = {frozenset(): ZERO, frozenset((0,)): ONE}
    plans: Dict[Masks, tuple] = {}
    bits_of: Dict[int, List[int]] = {}
    stack = [root]
    while stack:
        masks = stack[-1]
        if masks in memo:
            stack.pop()
            continue
        plan = plans.get(masks)
        if plan is None:
            plan = plans[masks] = _plan(masks, bits_of)
            pending = [child for child in plan[2] if child not in memo]
            if pending:
                stack.extend(pending)
                continue
        stack.pop()
        del plans[masks]
        kind, payload, children = plan
        ids = [memo[child] for child in children]
        node = (OR, tuple(ids)) if kind == OR else (kind, payload, *ids)
        if meter is not None:
            meter.check_compiled_bytes((len(nodes) + 1) * NODE_BYTES)
        nodes.append(node)
        memo[masks] = len(nodes) + 1
    return memo[root]


def exact_probability(polynomial: Polynomial,
                      probabilities: ProbabilityMap) -> float:
    """P[λ]: compile the circuit and run its forward pass."""
    return Circuit.compile(polynomial).probability(probabilities)


def exact_gradient(polynomial: Polynomial, probabilities: ProbabilityMap
                   ) -> Tuple[float, Dict[Literal, float]]:
    """``(P[λ], {literal: Inf_literal(λ)})`` from one compile.

    See :meth:`Circuit.gradient`; literals absent from the result have
    influence 0.
    """
    return Circuit.compile(polynomial).gradient(probabilities)
