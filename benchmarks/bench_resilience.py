"""Resilience bench — ladder overhead on clean runs, chaos survival.

Two questions the resilience layer must answer before it is allowed in
the default path:

1. What does the fallback ladder cost when *nothing* fails?  The happy
   path adds a breaker check, a deadline computation, and a record
   object per query; it should be noise next to inference itself.
2. Does a faulted batch survive?  One full chaos run (the same harness
   as ``p3 chaos`` and the CI smoke job) with transient faults, budget
   blowups, delays, and a wedged query — asserting 100% well-formed
   outcomes and reference-accurate answers.
"""

import time

from repro import P3, P3Config
from repro.exec.executor import QueryExecutor
from repro.exec.specs import QuerySpec
from repro.resilience import ResilienceConfig
from repro.resilience.chaos import (
    CHAOS_FAULT_CLASSES,
    ExecutorTransport,
    build_chaos_program,
    run_chaos,
)

from reporting import record_table


def _build(resilience):
    program = build_chaos_program(people=10, seed=7)
    p3 = P3.from_source(program, config=P3Config(
        probability_method="exact", hop_limit=4, seed=7,
        resilience=resilience))
    p3.evaluate()
    keys = sorted(k for k in p3.graph.tuple_keys()
                  if k.startswith("know(") and not p3.graph.is_base(k))
    return p3, [QuerySpec.probability(key) for key in keys[:25]]


def _run_batch(p3, specs):
    with QueryExecutor(p3) as executor:
        batch = executor.run(specs)
        # Fresh caches each round so we time real work, not lookups.
        executor.clear_caches()
    assert batch.ok
    return batch


def test_ladder_overhead_clean(benchmark):
    """Fault-free batches through the ladder vs. the direct backend."""
    plain, specs = _build(None)
    start = time.perf_counter()
    for _ in range(3):
        _run_batch(plain, specs)
    baseline = (time.perf_counter() - start) / 3

    guarded, specs = _build(ResilienceConfig())
    benchmark.pedantic(
        _run_batch, args=(guarded, specs), rounds=3, iterations=1)

    record_table(
        "resilience_overhead",
        "Resilience: clean-run ladder overhead (%d probability specs)"
        % len(specs),
        ["configuration", "seconds/batch"],
        [["direct backend", baseline],
         ["fallback ladder", benchmark.stats.stats.mean]],
    )


def test_chaos_survival(benchmark):
    """One seeded chaos run: every spec survives, answers stay accurate."""
    report = benchmark.pedantic(
        run_chaos,
        args=(ExecutorTransport(specs=30, people=11, samples=10000),),
        kwargs={"seed": 0},
        rounds=1, iterations=1)

    assert report.ok, report.to_dict()
    assert report.well_formed == report.details["specs"]
    assert not report.malformed
    resilience = report.details["resilience"]
    record_table(
        "resilience_chaos",
        "Resilience: chaos survival (seed 0, %d specs, %.2fs)"
        % (report.details["specs"], report.seconds),
        ["fault class", "injections"],
        [[name, report.faults_observed.get(name, 0)]
         for name in CHAOS_FAULT_CLASSES]
        + [["— retries", resilience["retries"]],
           ["— fallbacks", resilience["fallbacks"]],
           ["— breaker trips", resilience["breaker_trips"]]],
    )
