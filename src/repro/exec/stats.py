"""Per-stage observability for the batch executor.

One :class:`ExecutorStats` object accumulates, across every query a
:class:`~repro.exec.executor.QueryExecutor` answers:

- wall-clock totals and call counts per pipeline stage (``parse``,
  ``evaluate``, ``extract``, ``infer``, ``query``);
- query counters by kind, plus error and deduplication counts;
- cache hit/miss/eviction counters (snapshotted from the executor's two
  LRU caches at :meth:`as_dict` time).

All mutation goes through a lock so concurrent batches and deadline
runner threads can record freely.

When :mod:`repro.telemetry` is enabled, this object is a *consumer* of
the same event stream the tracer sees: :meth:`time_stage` opens a span
named after the stage, and every ``record_*`` call additionally feeds
the process-wide metrics registry (``p3_stage_seconds``,
``p3_queries_total``, ``p3_query_errors_total``, ``p3_batches_total``,
``p3_deduplicated_total``), so ``--stats`` output and exported metrics
can never drift apart.  With telemetry disabled (the default) each
recording costs one extra attribute check.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .. import telemetry

#: Pipeline stages with dedicated timing slots.  ``parse`` and
#: ``evaluate`` are recorded by whoever builds the system (the CLI does);
#: ``extract``/``infer`` are recorded inside the executor; ``query`` is
#: the end-to-end time of one spec; ``update`` is incremental fact
#: propagation (:meth:`repro.core.system.P3.add_facts`).
STAGES = ("parse", "evaluate", "update", "extract", "infer", "query")


class ExecutorStats:
    """Thread-safe counters and wall-clock timings for query execution."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stage_seconds: Dict[str, float] = {}
        self._stage_calls: Dict[str, int] = {}
        self._query_counts: Dict[str, int] = {}
        self._errors = 0
        self._batches = 0
        self._deduplicated = 0

    # -- recording ---------------------------------------------------------------

    def record_stage(self, stage: str, seconds: float) -> None:
        """Add one timed call to a pipeline stage."""
        with self._lock:
            self._stage_seconds[stage] = (
                self._stage_seconds.get(stage, 0.0) + seconds)
            self._stage_calls[stage] = self._stage_calls.get(stage, 0) + 1
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.histogram(
                "p3_stage_seconds",
                help="Wall-clock seconds per pipeline stage call",
                labelnames=("stage",)).observe(seconds, stage=stage)

    @contextmanager
    def time_stage(self, stage: str) -> Iterator[None]:
        """Context manager timing one call of ``stage``.

        With telemetry enabled the timed region is also a span named
        after the stage, nested under whatever span is current.
        """
        start = time.perf_counter()
        with telemetry.runtime().tracer.span(stage):
            try:
                yield
            finally:
                self.record_stage(stage, time.perf_counter() - start)

    def record_query(self, kind: str) -> None:
        with self._lock:
            self._query_counts[kind] = self._query_counts.get(kind, 0) + 1
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_queries_total", help="Queries answered, by kind",
                labelnames=("kind",)).inc(kind=kind)

    def record_error(self) -> None:
        with self._lock:
            self._errors += 1
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_query_errors_total",
                help="Queries that ended in an error outcome").inc()

    def record_batch(self, deduplicated: int = 0) -> None:
        with self._lock:
            self._batches += 1
            self._deduplicated += deduplicated
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_batches_total", help="Executor batches run").inc()
            if deduplicated:
                rt.metrics.counter(
                    "p3_deduplicated_total",
                    help="Duplicate specs collapsed before execution"
                ).inc(deduplicated)

    def reset(self) -> None:
        """Zero every counter and timing (cache counters are separate)."""
        with self._lock:
            self._stage_seconds.clear()
            self._stage_calls.clear()
            self._query_counts.clear()
            self._errors = 0
            self._batches = 0
            self._deduplicated = 0

    # -- reading ------------------------------------------------------------------

    def stage_seconds(self, stage: str) -> float:
        with self._lock:
            return self._stage_seconds.get(stage, 0.0)

    def stage_calls(self, stage: str) -> int:
        with self._lock:
            return self._stage_calls.get(stage, 0)

    @property
    def total_queries(self) -> int:
        with self._lock:
            return sum(self._query_counts.values())

    @property
    def errors(self) -> int:
        with self._lock:
            return self._errors

    def as_dict(self, polynomial_cache: Optional[object] = None,
                probability_cache: Optional[object] = None) -> dict:
        """Snapshot every counter as a JSON-friendly dict.

        The two cache arguments (anything with a ``stats()`` method, i.e.
        :class:`~repro.exec.cache.LRUCache`) are snapshotted under the
        ``caches`` key when provided.
        """
        with self._lock:
            stages = {
                stage: {
                    "seconds": self._stage_seconds.get(stage, 0.0),
                    "calls": self._stage_calls.get(stage, 0),
                }
                for stage in sorted(
                    set(STAGES) | set(self._stage_seconds))
            }
            document = {
                "stages": stages,
                "queries": dict(self._query_counts),
                "total_queries": sum(self._query_counts.values()),
                "errors": self._errors,
                "batches": self._batches,
                "deduplicated": self._deduplicated,
            }
        caches = {}
        if polynomial_cache is not None:
            caches["polynomial"] = polynomial_cache.stats()
        if probability_cache is not None:
            caches["probability"] = probability_cache.stats()
        if caches:
            document["caches"] = caches
            # Epoch-staleness evictions across both caches: nonzero means
            # a live update forced cached work to be recomputed.
            document["invalidations"] = sum(
                snapshot.get("invalidations", 0)
                for snapshot in caches.values())
        return document

    def __repr__(self) -> str:
        return "ExecutorStats(%d queries, %d errors)" % (
            self.total_queries, self.errors)
