"""The ``P3Config(resilience=...)`` knob group.

One :class:`ResilienceConfig` object collects every resilience tunable —
the budget caps, the ladder, and the retry and breaker policies — so the
executor reads a single field instead of a dozen loose keywords.
``None`` (the config default) keeps the pipeline's historical behaviour:
no budgets, no ladder, no breakers.  Hung queries are bounded by the
per-query deadline (``P3Config.query_timeout``), not by this object.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..telemetry.metrics import MetricsRegistry
from .breaker import BreakerBoard, BreakerPolicy
from .budgets import ResourceBudget
from .ladder import FallbackLadder, FallbackRung
from .retry import RetryPolicy

#: The ladder used when ``ResilienceConfig(ladder=None)``: the exact
#: circuit, then the BDD (a different compiler, so a blow-up in one need
#: not repeat in the other), each with its own breaker; then the
#: vectorized sampler is the rung that always answers something.
DEFAULT_LADDER: Tuple[str, ...] = ("exact", "bdd", "parallel")


class ResilienceConfig:
    """Tunables for the resilience layer.

    Parameters
    ----------
    budget:
        Per-query :class:`~repro.resilience.budgets.ResourceBudget`
        (None = unbudgeted).
    ladder:
        Fallback chain, top rung first; entries may be backend names,
        dicts, or :class:`~repro.resilience.ladder.FallbackRung` objects.
        ``None`` uses :data:`DEFAULT_LADDER`.  ``fallback=False``
        disables the ladder entirely (budgets still apply).
    retry:
        Default :class:`~repro.resilience.retry.RetryPolicy` for rungs
        without their own.
    breaker:
        :class:`~repro.resilience.breaker.BreakerPolicy` shared by all
        per-backend breakers; ``breakers=False`` disables circuit
        breaking.
    """

    __slots__ = ("budget", "ladder", "retry", "breaker", "fallback",
                 "breakers")

    def __init__(self,
                 budget: Optional[ResourceBudget] = None,
                 ladder: Optional[Sequence[object]] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerPolicy] = None,
                 fallback: bool = True,
                 breakers: bool = True) -> None:
        self.budget = budget
        self.ladder = tuple(
            FallbackRung.coerce(rung)
            for rung in (ladder if ladder is not None else DEFAULT_LADDER))
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else BreakerPolicy()
        self.fallback = fallback
        self.breakers = breakers

    def build_board(self, metrics: Optional[MetricsRegistry] = None
                    ) -> Optional[BreakerBoard]:
        """A fresh breaker board per this config (None when disabled),
        counting trips in ``metrics``."""
        if not self.breakers:
            return None
        return BreakerBoard(self.breaker, metrics=metrics)

    def build_ladder(self, board: Optional[BreakerBoard] = None,
                     **overrides: object) -> Optional[FallbackLadder]:
        """A ladder wired to ``board`` (None when fallback is disabled)."""
        if not self.fallback:
            return None
        return FallbackLadder(self.ladder, retry=self.retry,
                              breakers=board, **overrides)

    def to_dict(self) -> dict:
        return {
            "budget": self.budget.to_dict() if self.budget else None,
            "ladder": [rung.to_dict() for rung in self.ladder],
            "retry": self.retry.to_dict(),
            "breaker": self.breaker.to_dict(),
            "fallback": self.fallback,
            "breakers": self.breakers,
        }

    def __repr__(self) -> str:
        return "ResilienceConfig(ladder=%s, fallback=%r)" % (
            " -> ".join(rung.method for rung in self.ladder), self.fallback)
