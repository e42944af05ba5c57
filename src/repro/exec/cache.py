"""A bounded, thread-safe LRU cache with hit/miss counters.

The executor layers two of these over the inference pipeline: one for
extracted provenance polynomials (keyed on ``(tuple key, hop_limit)``) and
one for probability results (keyed on
``(tuple key, hop_limit, method, samples, seed)``).  Worker threads share
both, so every operation holds an internal lock; the critical sections are
dict/move-to-end operations, never user computation.

Entries can additionally be tagged with the **epoch** they were computed
under (see :attr:`repro.core.system.P3.epoch`).  A lookup that passes the
current epoch treats entries from an older epoch as misses and evicts them
on the spot, so a live update of the underlying system can never serve a
stale polynomial or probability; the ``invalidations`` counter reports how
many entries were dropped this way.  The counters are series of a
registry (the executor's), labelled ``cache=name``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, Optional, Tuple

from ..telemetry.metrics import MetricsRegistry

_MISSING = object()


class LRUCache:
    """Least-recently-used mapping bounded to ``maxsize`` entries.

    ``maxsize=None`` means unbounded (the counters still work).  Lookups
    promote entries to most-recently-used; insertion past capacity evicts
    the least-recently-used entry.  The counters live in ``metrics``
    (a private registry when None).
    """

    def __init__(self, maxsize: Optional[int] = 1024,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "cache") -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive or None")
        self.maxsize = maxsize
        # key -> (value, epoch); epoch is None for untagged entries.
        self._data: "OrderedDict[Hashable, Tuple[Any, Optional[int]]]" = (
            OrderedDict())
        self._lock = threading.Lock()
        metrics = metrics if metrics is not None else MetricsRegistry()
        requests = metrics.counter(
            "p3_cache_requests_total",
            help="Executor cache lookups, by cache and outcome",
            labelnames=("cache", "outcome"))
        self._hits, self._misses = (
            requests.labels(cache=name, outcome=outcome)
            for outcome in ("hit", "miss"))
        self._evictions, self._invalidations = (
            metrics.counter("p3_cache_%s_total" % drop,
                            help="Executor cache entries %s, by cache" % why,
                            labelnames=("cache",)).labels(cache=name)
            for drop, why in (("evictions", "evicted for capacity"),
                              ("invalidations", "dropped as epoch-stale")))

    # -- core mapping operations ------------------------------------------------

    def get(self, key: Hashable, default: Any = None,
            epoch: Optional[int] = None) -> Any:
        """Return the cached value (promoting it) or ``default``.

        When ``epoch`` is given, an entry stored under a *different* epoch
        is stale: it is evicted, counted as an invalidation plus a miss,
        and ``default`` is returned.
        """
        with self._lock:
            entry = self._data.get(key, _MISSING)
            if entry is _MISSING:
                self._misses.inc()
                return default
            value, stored_epoch = entry
            if (epoch is not None and stored_epoch is not None
                    and stored_epoch != epoch):
                del self._data[key]
                self._invalidations.inc()
                self._misses.inc()
                return default
            self._data.move_to_end(key)
            self._hits.inc()
            return value

    def put(self, key: Hashable, value: Any,
            epoch: Optional[int] = None) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full.

        ``epoch`` tags the entry with the system epoch it was computed
        under; untagged entries (``None``) never go stale.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = (value, epoch)
            if self.maxsize is not None and len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions.inc()

    def get_or_compute(self, key: Hashable,
                       factory: Callable[[], Any],
                       epoch: Optional[int] = None) -> Any:
        """Cached value for ``key``, computing and storing it on a miss.

        ``factory`` runs outside the lock, so a concurrent miss on the same
        key may compute twice; the result is identical either way and the
        second put is a cheap refresh.  (Queries are deduplicated upstream
        by the executor, so double computes are rare in practice.)
        """
        value = self.get(key, _MISSING, epoch=epoch)
        if value is not _MISSING:
            return value
        value = factory()
        self.put(key, value, epoch=epoch)
        return value

    def evict_stale(self, epoch: int) -> int:
        """Drop every entry tagged with an epoch other than ``epoch``.

        Returns the number of entries dropped (all counted as
        invalidations).  Lazy per-lookup invalidation in :meth:`get` makes
        this optional; it exists for callers that want memory back
        immediately after a mutation.
        """
        with self._lock:
            stale = [key for key, (_, stored) in self._data.items()
                     if stored is not None and stored != epoch]
            for key in stale:
                del self._data[key]
            self._invalidations.inc(len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def reset_counters(self) -> None:
        with self._lock:
            for series in (self._hits, self._misses, self._evictions,
                           self._invalidations):
                series.reset()

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Membership test does not promote and does not count as a hit.
        with self._lock:
            return key in self._data

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data.keys()))

    @property
    def hits(self) -> int:
        return int(self._hits.value())

    @property
    def misses(self) -> int:
        return int(self._misses.value())

    @property
    def evictions(self) -> int:
        return int(self._evictions.value())

    @property
    def invalidations(self) -> int:
        """How many entries were dropped as epoch-stale."""
        return int(self._invalidations.value())

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, 0.0 before the first lookup."""
        hits, misses, _ = self.counters()
        total = hits + misses
        return hits / total if total else 0.0

    def counters(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) as one consistent snapshot."""
        with self._lock:
            return self.hits, self.misses, self.evictions

    def stats(self) -> dict:
        """Counter snapshot as a JSON-friendly dict."""
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
            invalidations = self.invalidations
        total = hits + misses
        return {
            "size": len(self),
            "maxsize": self.maxsize,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "invalidations": invalidations,
            "hit_rate": hits / total if total else 0.0,
        }

    def __repr__(self) -> str:
        return "LRUCache(%d/%s entries, %d hits, %d misses)" % (
            len(self), self.maxsize, self.hits, self.misses)
