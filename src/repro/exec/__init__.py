"""Batched query execution over an evaluated P3 system.

The paper's four query types each re-extract provenance polynomials and
re-run inference per call; a production deployment answers *many* queries
over one evaluated program, so the work must be shared.  This subsystem
provides:

- :class:`~repro.exec.cache.LRUCache` — a bounded, thread-safe LRU with
  hit/miss/eviction counters, layered over both polynomial extraction and
  probability results;
- :class:`~repro.exec.specs.QuerySpec` — a declarative description of one
  query (kind + tuple key + parameters) with a canonical cache identity;
- :class:`~repro.exec.executor.QueryExecutor` — the batch front door:
  deduplicates specs, answers them in order, and shares the caches
  between them; its ``stats()`` (per-stage wall-clock timings and
  counters, as a plain dict) is a view of its metrics registry.

Typical use::

    from repro import P3
    from repro.exec import QueryExecutor, QuerySpec

    p3 = P3.from_file("trust.pl")
    p3.evaluate()
    executor = QueryExecutor(p3)
    batch = executor.run([
        QuerySpec.probability('trustPath(1,9)'),
        QuerySpec.influence('trustPath(1,9)', kind_filter="tuple"),
        QuerySpec.explain('trustPath(1,9)'),
    ])
    for outcome in batch:
        print(outcome.spec.key, outcome.value)
    print(executor.stats())
"""

from ..core.errors import QueryTimeoutError
from .cache import LRUCache
from .executor import BatchResult, QueryExecutor, QueryOutcome
from .specs import QuerySpec

__all__ = [
    "BatchResult",
    "LRUCache",
    "QueryExecutor",
    "QueryOutcome",
    "QuerySpec",
    "QueryTimeoutError",
]
