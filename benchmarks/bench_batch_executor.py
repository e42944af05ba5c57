"""Inline executor batch vs naive facade loop (Section 6 data).

Fifty probability queries over the Section-6.2 Bitcoin-OTC sample,
answered three ways:

naive        sequential ``P3.probability_of`` per key, cold caches
batch cold   ``QueryExecutor.run`` (specs answered inline, in order),
             cold caches
batch warm   ``QueryExecutor.run`` again — every answer from the shared
             result cache

The cold batch does the same work as the naive loop, so it must not be
slower; the warm batch must be at least 2x faster (in practice it is
orders of magnitude faster: the naive loop itself warmed the caches the
batch reads).  The executor's ``stats()`` must show the cache hits and
per-stage timings that explain the difference.
"""

import time

from repro.exec import QuerySpec

from reporting import record_json, record_table
from workloads import query_workload

BATCH_SIZE = 50
METHOD = "parallel"


def _batch_keys(p3, count=BATCH_SIZE):
    keys = sorted(str(atom) for atom in p3.derived_atoms("trustPath"))
    if len(keys) < count:
        keys += sorted(str(atom) for atom in p3.derived_atoms("mutualTrustPath"))
    return keys[:count]


def test_batch_executor_throughput():
    p3, _, _ = query_workload()
    keys = _batch_keys(p3)
    assert len(keys) == BATCH_SIZE
    specs = [QuerySpec.probability(key, method=METHOD) for key in keys]

    # A fresh shared executor: cold caches and zeroed counters.
    executor = p3.configure_executor()

    start = time.perf_counter()
    naive = [p3.probability_of(key, method=METHOD) for key in keys]
    naive_seconds = time.perf_counter() - start

    # Cold inline batch: same work, fresh caches.
    executor.clear_caches()
    start = time.perf_counter()
    cold = executor.run(specs)
    cold_seconds = time.perf_counter() - start
    assert cold.ok

    # Warm: every answer comes from the shared result cache.
    start = time.perf_counter()
    warm = executor.run(specs)
    warm_seconds = time.perf_counter() - start
    assert warm.ok
    assert warm.values() == cold.values()
    assert len(naive) == len(warm.values())

    stats = executor.stats()
    assert stats["caches"]["probability"]["hits"] > 0
    assert stats["stages"]["extract"]["seconds"] > 0
    assert stats["stages"]["infer"]["seconds"] > 0

    warm_speedup = naive_seconds / max(warm_seconds, 1e-9)
    cold_speedup = naive_seconds / max(cold_seconds, 1e-9)
    assert warm_speedup >= 2.0, (
        "warm batch should be >=2x the naive sequential loop "
        "(got %.1fx)" % warm_speedup)
    assert cold_speedup >= 1.0, (
        "cold inline batch must never be slower than the naive loop "
        "(got %.2fx)" % cold_speedup)

    record_table(
        "batch_executor",
        "Inline executor batch vs naive facade loop: %d probability "
        "queries, %s backend" % (BATCH_SIZE, METHOD),
        ["mode", "seconds", "speedup vs naive"],
        [
            ["naive sequential", naive_seconds, 1.0],
            ["batch cold (inline)", cold_seconds, cold_speedup],
            ["batch warm (cache hits)", warm_seconds, warm_speedup],
        ],
    )
    record_json("BENCH_executor", {
        "batch_size": BATCH_SIZE,
        "method": METHOD,
        "naive_seconds": naive_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_speedup": cold_speedup,
        "warm_speedup": warm_speedup,
        "cache_hits": stats["caches"]["probability"]["hits"],
    })
