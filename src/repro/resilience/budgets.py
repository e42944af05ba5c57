"""Resource budgets: typed caps on how much a single query may consume.

Exact inference over a provenance polynomial is worst-case exponential
(Sec. 2.2 of the paper), so one pathological tuple can take the whole
process down — an unbounded DNF blows memory long before it blows time.
A :class:`ResourceBudget` puts configurable caps on the four quantities
that actually explode:

- ``max_monomials`` — intermediate polynomial size during extraction
  (the cap :func:`repro.provenance.extraction.extract_polynomial` already
  honoured via its parameter, now also enforceable ambiently);
- ``max_monomial_width`` — literals per monomial (wide monomials make the
  compiled membership matrix dense and the samplers slow);
- ``max_node_visits`` — DFS expansion steps during extraction (bounds
  time even when absorption keeps the polynomial small);
- ``max_compiled_bytes`` — memory of the
  :class:`~repro.inference.kernel.CompiledPolynomial` membership
  matrix (variables × monomials × dtype), checked *before* allocation.

Enforcement is ambient: the executor activates a budget around each query
(:func:`activate_budget` sets a contextvar), and the extraction engine and
polynomial compiler consult :func:`active_meter` without any signature
changes.  A blown cap raises
:class:`~repro.core.errors.BudgetExceededError` carrying the resource
name, the cap, the amount used, and — where one exists — the partial
result, so callers can degrade instead of discarding work.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator, Optional

from .. import telemetry
from ..core.errors import BudgetExceededError


class ResourceBudget:
    """Immutable caps; ``None`` means unbounded for that resource."""

    __slots__ = ("max_monomials", "max_monomial_width", "max_node_visits",
                 "max_compiled_bytes")

    def __init__(self,
                 max_monomials: Optional[int] = None,
                 max_monomial_width: Optional[int] = None,
                 max_node_visits: Optional[int] = None,
                 max_compiled_bytes: Optional[int] = None) -> None:
        for name, value in (("max_monomials", max_monomials),
                            ("max_monomial_width", max_monomial_width),
                            ("max_node_visits", max_node_visits),
                            ("max_compiled_bytes", max_compiled_bytes)):
            if value is not None and value <= 0:
                raise ValueError("%s must be positive or None" % name)
        self.max_monomials = max_monomials
        self.max_monomial_width = max_monomial_width
        self.max_node_visits = max_node_visits
        self.max_compiled_bytes = max_compiled_bytes

    @property
    def unbounded(self) -> bool:
        return (self.max_monomials is None
                and self.max_monomial_width is None
                and self.max_node_visits is None
                and self.max_compiled_bytes is None)

    def meter(self) -> "BudgetMeter":
        """A fresh meter (mutable counters) over these caps."""
        return BudgetMeter(self)

    def to_dict(self) -> dict:
        return {
            "max_monomials": self.max_monomials,
            "max_monomial_width": self.max_monomial_width,
            "max_node_visits": self.max_node_visits,
            "max_compiled_bytes": self.max_compiled_bytes,
        }

    def __repr__(self) -> str:
        caps = ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__ if getattr(self, name) is not None)
        return "ResourceBudget(%s)" % (caps or "unbounded")


class BudgetMeter:
    """One activation of a budget: counters plus the trip logic.

    A meter is scoped to a single query execution (the executor activates
    one per spec), so the counters are plain ints — no locking on the
    extraction hot path.
    """

    __slots__ = ("budget", "node_visits", "hits")

    def __init__(self, budget: ResourceBudget) -> None:
        self.budget = budget
        self.node_visits = 0
        self.hits = 0

    # -- enforcement ------------------------------------------------------------

    def count_visit(self) -> None:
        """Charge one extraction node visit; trips past the visit cap."""
        self.node_visits += 1
        cap = self.budget.max_node_visits
        if cap is not None and self.node_visits > cap:
            self._trip("node_visits", cap, self.node_visits,
                       "Extraction exceeded the node-visit budget")

    def check_polynomial(self, polynomial,
                         partial: Optional[object] = None) -> None:
        """Trip when an intermediate polynomial exceeds the size caps.

        ``partial`` (defaulting to the polynomial itself) rides on the
        raised error as the last consistent intermediate result.
        """
        cap = self.budget.max_monomials
        if cap is not None and len(polynomial) > cap:
            self._trip("monomials", cap, len(polynomial),
                       "Extraction exceeded the monomial budget",
                       partial=partial if partial is not None else polynomial)
        width_cap = self.budget.max_monomial_width
        if width_cap is not None and len(polynomial):
            widest = max(len(monomial) for monomial in polynomial)
            if widest > width_cap:
                self._trip(
                    "monomial_width", width_cap, widest,
                    "Extraction produced a monomial wider than the budget",
                    partial=partial if partial is not None else polynomial)

    def check_compiled_bytes(self, nbytes: int) -> None:
        """Trip when a compiled membership matrix would exceed the cap."""
        cap = self.budget.max_compiled_bytes
        if cap is not None and nbytes > cap:
            self._trip("compiled_bytes", cap, nbytes,
                       "Compiled polynomial would exceed the memory budget")

    def _trip(self, resource: str, limit: float, used: float,
              message: str, partial: Optional[object] = None) -> None:
        self.hits += 1
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_resilience_budget_hits_total",
                help="Resource budget violations, by resource",
                labelnames=("resource",)).inc(resource=resource)
            span = telemetry.current_span()
            span.set_attribute("budget_exceeded", resource)
        raise BudgetExceededError(
            "%s (%s: used %s, limit %s)" % (message, resource, used, limit),
            resource=resource, limit=limit, used=used, partial=partial)

    def __repr__(self) -> str:
        return "BudgetMeter(%r, visits=%d)" % (self.budget, self.node_visits)


#: The ambient meter for the current execution context, if any.
_ACTIVE: "contextvars.ContextVar[Optional[BudgetMeter]]" = \
    contextvars.ContextVar("p3_budget_meter", default=None)


def active_meter() -> Optional[BudgetMeter]:
    """The budget meter governing the current context (None = unbudgeted)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def activate_budget(budget: Optional[ResourceBudget]
                    ) -> Iterator[Optional[BudgetMeter]]:
    """Scope a fresh meter over ``budget`` to the enclosed block.

    ``None`` (or an unbounded budget) deactivates metering for the block,
    so callers can pass their configuration straight through.  Nested
    activations shadow outer ones — each query gets its own counters.
    """
    if budget is None or budget.unbounded:
        token = _ACTIVE.set(None)
    else:
        token = _ACTIVE.set(budget.meter())
    try:
        yield _ACTIVE.get()
    finally:
        _ACTIVE.reset(token)
