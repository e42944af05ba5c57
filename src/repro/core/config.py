"""Tunables for the P3 system facade.

One :class:`P3Config` object collects every knob that recurs across the
query types, so applications configure once instead of threading keyword
arguments through each call.  All fields have the defaults used by the
paper's evaluation where it states them (hop limits 4/6 are per-experiment
and passed explicitly by the benchmark harness).
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class P3Config:
    """Configuration for :class:`repro.core.system.P3`.

    Parameters
    ----------
    probability_method:
        Default backend for success probabilities
        ("exact", "bdd", "mc", "parallel", "karp-luby"; "parallel" is
        a second name for "mc").
    influence_method:
        Default backend for influence queries ("exact", "mc", "parallel").
    derivation_method:
        Default algorithm for Derivation Queries ("naive", "naive-mc",
        "union-bound", "match-group").
    samples:
        Monte-Carlo sample budget for estimation backends.
    seed:
        Seed for every stochastic component (None = nondeterministic).
    hop_limit:
        Default hop limit for polynomial extraction (None = unbounded).
    max_monomials:
        Abort extraction when an intermediate polynomial exceeds this
        size (None = unbounded).
    max_rounds / max_tuples:
        Engine safety limits.
    grounding:
        Evaluation strategy: ``"full"`` (default) materializes the whole
        least model up front; ``"query"`` evaluates lazily through the
        query-directed grounding planner (:mod:`repro.ground`), grounding
        only the provenance each queried goal needs; ``"auto"`` picks
        ``"query"`` for large programs (see
        :data:`repro.ground.planner.AUTO_FACT_THRESHOLD`) and ``"full"``
        otherwise.  Programs with negation always evaluate fully.
    polynomial_cache_size / result_cache_size:
        LRU bounds for the executor's shared polynomial and result caches
        (None = unbounded).
    query_timeout:
        Default per-query deadline in seconds for executor batches (None =
        no deadline).  A query exceeding it yields a ``TimeoutError``
        outcome instead of stalling the batch; per-spec ``timeout``
        parameters override it.
    isolation:
        Where inference backends execute: ``"thread"`` (default, the
        historical in-process path), ``"process"`` (route every backend
        call through the spawn-based worker pool of
        :mod:`repro.resilience.isolation` — wedged computations are
        SIGKILLed instead of abandoned, crashes are contained, memory is
        capped), or ``"auto"`` (process isolation where the platform
        supports it — POSIX — threads elsewhere).
    isolation_workers:
        Resident subprocess workers for the isolation pool (None = 2).
        Also bounds concurrent isolated inference: concurrent batches
        block when all workers are busy.
    worker_memory_bytes:
        Per-worker ``RLIMIT_AS`` address-space cap, applied after
        interpreter boot (None = uncapped).  A worker that blows it fails
        that query with a typed ``WorkerMemoryError`` instead of taking
        the process down.
    telemetry:
        Optional :class:`repro.telemetry.TelemetryConfig`.  When set, the
        :class:`repro.core.system.P3` constructor installs it as the
        process-wide telemetry runtime (tracing spans plus metrics) before
        evaluating anything.  ``None`` (the default) leaves the runtime
        untouched — telemetry stays off unless configured elsewhere.
    resilience:
        Optional :class:`repro.resilience.ResilienceConfig`.  When set,
        the batch executor enforces its resource budget around every
        query and answers probabilities through its backend fallback
        ladder (with retries and per-backend circuit breakers).  ``None``
        (the default) keeps the historical single-backend behaviour.

    The config is immutable; :meth:`replace` derives a modified copy.
    """

    probability_method: str = "exact"
    influence_method: str = "exact"
    derivation_method: str = "naive"
    samples: int = 10000
    seed: Optional[int] = None
    hop_limit: Optional[int] = None
    max_monomials: Optional[int] = None
    max_rounds: Optional[int] = None
    max_tuples: Optional[int] = None
    grounding: str = "full"
    polynomial_cache_size: Optional[int] = 2048
    result_cache_size: Optional[int] = 8192
    query_timeout: Optional[float] = None
    isolation: str = "thread"
    isolation_workers: Optional[int] = None
    worker_memory_bytes: Optional[int] = None
    telemetry: Optional[object] = None
    resilience: Optional[object] = None

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.grounding not in ("full", "query", "auto"):
            raise ValueError(
                "grounding must be 'full', 'query', or 'auto', got %r"
                % (self.grounding,))
        if self.isolation not in ("thread", "process", "auto"):
            raise ValueError(
                "isolation must be 'thread', 'process', or 'auto', got %r"
                % (self.isolation,))
        for name in ("hop_limit", "query_timeout",
                     "isolation_workers", "worker_memory_bytes",
                     "polynomial_cache_size", "result_cache_size"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError("%s must be positive or None" % name)

    def replace(self, **overrides: object) -> "P3Config":
        """A copy with some fields replaced (``TypeError`` on unknown
        fields, ``ValueError`` on invalid values)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]
