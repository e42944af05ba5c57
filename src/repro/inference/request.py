"""The unified inference-backend request object.

Every caller of a backend (executor, fallback ladder, audit oracle,
CLI) hands it one typed value, accepted by all six registered
backends:

================  =============================================================
field             meaning
================  =============================================================
``samples``       Monte-Carlo sample budget (ignored by exact backends)
``seed``          RNG seed; None = non-reproducible entropy
``deadline``      *absolute* ``time.monotonic()`` instant to stop by
``budget``        a :class:`~repro.resilience.budgets.ResourceBudget` to meter
================  =============================================================

Requests are immutable; derive variants with :meth:`InferenceRequest.replace`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["InferenceRequest", "DEFAULT_SAMPLES"]

#: Default Monte-Carlo sample budget when a request does not specify one.
DEFAULT_SAMPLES = 10000


class InferenceRequest:
    """Typed, immutable parameters for one backend invocation."""

    __slots__ = ("samples", "seed", "deadline", "budget")

    def __init__(self, samples: int = DEFAULT_SAMPLES,
                 seed: Optional[int] = None,
                 deadline: Optional[float] = None,
                 budget: Optional[Any] = None) -> None:
        if samples <= 0:
            raise ValueError("samples must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "deadline", deadline)
        object.__setattr__(self, "budget", budget)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "InferenceRequest is immutable; use replace(%s=...)" % name)

    def __reduce__(self) -> tuple:
        # Slot-state unpickling would call the forbidding __setattr__;
        # rebuild through the constructor instead so requests survive the
        # pickle framing of the process-isolation worker protocol.
        return (InferenceRequest,
                tuple(getattr(self, name) for name in self.__slots__))

    def replace(self, **changes: Any) -> "InferenceRequest":
        """A copy with the given fields replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        unknown = set(changes) - set(fields)
        if unknown:
            raise TypeError(
                "Unknown InferenceRequest fields: %s"
                % ", ".join(sorted(unknown)))
        fields.update(changes)
        return InferenceRequest(**fields)

    @classmethod
    def coerce(cls, value: object) -> "InferenceRequest":
        """Accept a request, None (defaults), or a parameter dict."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError("Cannot coerce %r to an InferenceRequest" % (value,))

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (budget rendered via its own to_dict)."""
        document: Dict[str, Any] = {
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.deadline is not None:
            document["deadline"] = self.deadline
        if self.budget is not None:
            document["budget"] = (self.budget.to_dict()
                                  if hasattr(self.budget, "to_dict")
                                  else repr(self.budget))
        return document

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InferenceRequest):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(
            getattr(self, name) for name in
            ("samples", "seed", "deadline")))

    def __repr__(self) -> str:
        parts = ["samples=%d" % self.samples]
        if self.seed is not None:
            parts.append("seed=%d" % self.seed)
        if self.deadline is not None:
            parts.append("deadline=%.3f" % self.deadline)
        if self.budget is not None:
            parts.append("budget=%r" % self.budget)
        return "InferenceRequest(%s)" % ", ".join(parts)
