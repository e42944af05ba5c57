"""Bounded-memory streaming extraction over grounded subgraphs.

Query-directed grounding keeps the provenance graph small, but a single
high-fanout tuple can still blow past a monomial budget during λ⁰
extraction.  This module turns that cliff into a stream: extraction runs
under the existing :class:`~repro.resilience.budgets.ResourceBudget`
meters, and when a budget trips, the :class:`BudgetExceededError`'s
root-level ``partial`` polynomial (see
:meth:`repro.provenance.extraction._Extractor.expand_root`) becomes a
well-formed under-approximation the caller can use immediately — every
monomial of the partial is a complete derivation, so its probability is a
sound lower bound.

:func:`iter_deepening` additionally streams the ProbLog-style anytime
sequence: complete extractions at hop limits 1, 2, … each a lower bound
converging to the full λ⁰ restricted to the target hop limit.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.errors import BudgetExceededError
from ..datalog.ast import Program
from ..datalog.terms import Atom
from ..provenance.extraction import extract_polynomial
from ..provenance.graph import ProvenanceGraph
from ..provenance.polynomial import Polynomial
from ..resilience.budgets import ResourceBudget, activate_budget
from ..datalog.arena import FactStore
from .relevance import GroundedGoal, ground_goal


class StreamOutcome:
    """One streamed extraction step: a polynomial plus completeness."""

    __slots__ = ("key", "polynomial", "complete", "resource", "hop_limit")

    def __init__(self, key: str, polynomial: Polynomial, complete: bool,
                 resource: Optional[str], hop_limit: Optional[int]) -> None:
        self.key = key
        self.polynomial = polynomial
        #: True when extraction finished; False when a budget tripped and
        #: ``polynomial`` is the partial under-approximation.
        self.complete = complete
        #: The budget resource that tripped (``None`` when complete).
        self.resource = resource
        self.hop_limit = hop_limit

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "complete": self.complete,
            "resource": self.resource,
            "hop_limit": self.hop_limit,
            "monomials": len(self.polynomial),
        }

    def __repr__(self) -> str:
        return "StreamOutcome(%r, complete=%s, monomials=%d)" % (
            self.key, self.complete, len(self.polynomial))


def stream_extract(graph: ProvenanceGraph, key: str,
                   hop_limit: Optional[int] = None,
                   max_monomials: Optional[int] = None,
                   budget: Optional[ResourceBudget] = None) -> StreamOutcome:
    """Extract λ⁰ for ``key``, surviving budget exhaustion with a partial.

    With no ``budget`` the ambient one (``activate_budget``) applies, so
    the executor's resilience plumbing keeps working unchanged; passing a
    budget shadows the ambient one for this extraction only.
    """
    scope = activate_budget(budget) if budget is not None else nullcontext()
    with scope:
        try:
            polynomial = extract_polynomial(
                graph, key, hop_limit=hop_limit, max_monomials=max_monomials)
            return StreamOutcome(key, polynomial, True, None, hop_limit)
        except BudgetExceededError as exc:
            partial = exc.partial
            if partial is None:
                partial = Polynomial.zero()
            return StreamOutcome(key, partial, False, exc.resource, hop_limit)


def iter_deepening(graph: ProvenanceGraph, key: str, hop_limit: int,
                   max_monomials: Optional[int] = None,
                   budget: Optional[ResourceBudget] = None
                   ) -> Iterator[StreamOutcome]:
    """Yield complete-at-depth extractions for hop limits 1..``hop_limit``.

    Each yielded outcome with ``complete=True`` is the exact λ⁰ restricted
    to its depth — a monotonically improving lower bound on the
    ``hop_limit``-deep polynomial.  The stream stops after the first
    budget trip (deeper passes could only trip again, sooner).
    """
    if hop_limit is None or hop_limit <= 0:
        raise ValueError("iter_deepening requires a positive hop_limit")
    for depth in range(1, hop_limit + 1):
        outcome = stream_extract(graph, key, hop_limit=depth,
                                 max_monomials=max_monomials, budget=budget)
        yield outcome
        if not outcome.complete:
            return


def ground_and_stream(program: Program, pattern: Atom,
                      hop_limit: Optional[int] = None,
                      max_monomials: Optional[int] = None,
                      budget: Optional[ResourceBudget] = None,
                      base_store: Optional[FactStore] = None,
                      max_rounds: Optional[int] = None,
                      max_tuples: Optional[int] = None
                      ) -> Tuple[GroundedGoal, List[StreamOutcome]]:
    """Ground one goal and stream-extract every answer's polynomial."""
    goal = ground_goal(program, pattern, base_store=base_store,
                       max_rounds=max_rounds, max_tuples=max_tuples)
    outcomes = [
        stream_extract(goal.graph, key, hop_limit=hop_limit,
                       max_monomials=max_monomials, budget=budget)
        for key in goal.answers
    ]
    return goal, outcomes
