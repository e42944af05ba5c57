"""Concurrency and aggregation tests for the executor's registry-backed
``stats()``.

The executor records stages and queries from worker threads while the
owning thread may reset its registry or snapshot ``stats()`` at any
moment; these tests race those paths deliberately.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import P3
from repro.data import ACQUAINTANCE
from repro.exec import QueryExecutor, QuerySpec
from repro.exec.cache import LRUCache
from repro.exec.executor import STAGES, stats_document
from repro.telemetry.metrics import MetricsRegistry

KEY = 'know("Ben","Elena")'
MISSING = 'know("Nobody","Elena")'


@pytest.fixture()
def executor():
    system = P3.from_source(ACQUAINTANCE)
    system.evaluate()
    with QueryExecutor(system) as executor:
        executor.probability(KEY)   # warm: later batches are cache hits
        executor.metrics.reset()
        yield executor


def _cache(metrics, name, hits=0, misses=0, invalidations=0):
    """A cache in ``metrics`` whose counters read the given counts."""
    cache = LRUCache(None, metrics, name)
    cache.put("present", 1)
    for _ in range(hits):
        cache.get("present")
    for _ in range(misses):
        cache.get("absent")
    for index in range(invalidations):
        cache.put(index, 1, epoch=0)
    cache.evict_stale(1)
    return cache


class TestConcurrentRecording:
    def test_recording_from_many_threads_is_lossless(self, executor):
        threads, per_thread = 8, 200

        def work():
            for _ in range(per_thread):
                # One answered spec, one failed spec, one batch.
                executor.run([KEY, MISSING])

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in range(threads):
                pool.submit(work)
        total = threads * per_thread
        stats = executor.stats()
        assert stats["stages"]["query"]["calls"] == 2 * total
        assert stats["stages"]["query"]["seconds"] > 0
        assert stats["total_queries"] == 2 * total
        assert stats["errors"] == total
        assert stats["batches"] == total

    def test_reset_racing_recorders_stays_consistent(self, executor):
        stop = threading.Event()
        failures = []

        def record():
            while not stop.is_set():
                executor.run([KEY, KEY, MISSING])

        def snapshot():
            while not stop.is_set():
                document = executor.stats()
                # A snapshot taken mid-race must still be internally
                # consistent: totals derive from the same read.
                if document["total_queries"] != sum(
                        document["queries"].values()):
                    failures.append(document)
                if document["errors"] < 0:
                    failures.append(document)

        workers = [threading.Thread(target=record) for _ in range(4)]
        workers.append(threading.Thread(target=snapshot))
        for worker in workers:
            worker.start()
        for _ in range(200):
            executor.metrics.reset()
        stop.set()
        for worker in workers:
            worker.join()
        assert failures == []
        executor.metrics.reset()
        stats = executor.stats()
        assert stats["total_queries"] == 0
        assert stats["errors"] == 0
        assert stats["stages"]["query"]["calls"] == 0
        assert stats["batches"] == 0

    def test_errors_property_reads_a_stable_value(self, executor):
        stop = threading.Event()
        seen = []

        def bump():
            while not stop.is_set():
                executor.run([MISSING])

        worker = threading.Thread(target=bump)
        worker.start()
        try:
            previous = 0
            for _ in range(500):
                current = executor.stats()["errors"]
                seen.append(current >= previous)
                previous = current
        finally:
            stop.set()
            worker.join()
        assert all(seen)
        assert executor.stats()["errors"] == executor.metrics.get(
            "p3_query_errors_total").value()


class TestAsDictAggregation:
    def test_every_stage_present_even_when_unrecorded(self, executor):
        document = executor.stats()
        assert set(document["stages"]) == set(STAGES)
        for entry in document["stages"].values():
            assert entry == {"seconds": 0.0, "calls": 0}

    def test_cache_snapshots_keyed_by_cache(self):
        metrics = MetricsRegistry()
        document = stats_document(metrics, {
            "polynomial": _cache(metrics, "polynomial", hits=3, misses=1,
                                 invalidations=2),
            "probability": _cache(metrics, "probability", hits=5,
                                  misses=2, invalidations=4)})
        assert document["caches"]["polynomial"]["hits"] == 3
        assert document["caches"]["probability"]["misses"] == 2
        assert document["invalidations"] == 6

    def test_one_sided_cache_snapshot(self):
        metrics = MetricsRegistry()
        document = stats_document(metrics, {
            "probability": _cache(metrics, "probability", hits=1)})
        assert list(document["caches"]) == ["probability"]
        assert document["invalidations"] == 0

    def test_no_caches_no_cache_keys(self):
        document = stats_document(MetricsRegistry())
        assert "caches" not in document
        assert "invalidations" not in document

    def test_counters_roll_up(self, executor):
        executor.run([KEY, KEY, KEY])
        executor.run([KEY])
        executor.execute(QuerySpec.explain(KEY))
        document = executor.stats()
        assert document["batches"] == 2
        assert document["deduplicated"] == 2
        # explain answers its own probability through probability().
        assert document["queries"] == {"probability": 3, "explain": 1}
        assert document["total_queries"] == 4
