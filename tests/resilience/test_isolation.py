"""Process-isolated inference workers: hard cancellation, crash
containment, memory caps, and the executor/ladder wiring around them.

Worker processes are spawn-based (an interpreter boot each), so the
tests share one module-scoped pool wherever possible and keep fault
rounds small.
"""

import json
import time

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.core.config import P3Config
from repro.core.errors import (
    WorkerCrashError,
    WorkerMemoryError,
    WorkerTimeoutError,
)
from repro.core.system import P3
from repro.data import ACQUAINTANCE
from repro.exec.executor import QueryExecutor
from repro.inference.exact import exact_probability
from repro.resilience.isolation import (
    ProcessWorkerPool,
    process_isolation_supported,
)

POLY = make_polynomial(("a", "b"), ("b", "c"), ("d",))
PROBS = random_probabilities(POLY)
TRUTH = exact_probability(POLY, PROBS)

#: A small chain whose seeded Karp–Luby estimates of p(1,4) land above 1.
CHAIN = """
a 0.9: e(1,2). b 0.9: e(2,3). c 0.9: e(1,3). d 0.9: e(3,4). f 0.9: e(2,4).
r1 1.0: p(X,Y) :- e(X,Y).
r2 1.0: p(X,Z) :- e(X,Y), p(Y,Z).
"""


def _untimed(batch):
    """A batch's outcome documents as JSON, every ``seconds`` dropped."""
    def strip(node):
        if isinstance(node, dict):
            return {key: strip(value) for key, value in node.items()
                    if key != "seconds"}
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node
    return json.dumps([strip(outcome.to_dict()) for outcome in batch],
                      sort_keys=True)


needs_processes = pytest.mark.skipif(
    not process_isolation_supported(),
    reason="process isolation requires POSIX kill/resource semantics")


# -- cheap, no-subprocess surface -------------------------------------------


class TestConfigSurface:
    def test_isolation_values_validated(self):
        assert P3Config(isolation="process").isolation == "process"
        assert P3Config().isolation == "thread"
        with pytest.raises(ValueError):
            P3Config(isolation="fibers")
        with pytest.raises(ValueError):
            P3Config(isolation_workers=0)
        with pytest.raises(ValueError):
            P3Config(worker_memory_bytes=-1)

    def test_replace_carries_isolation_fields(self):
        config = P3Config().replace(isolation="auto", isolation_workers=3,
                                    worker_memory_bytes=1 << 28)
        assert config.isolation == "auto"
        assert config.isolation_workers == 3
        assert config.worker_memory_bytes == 1 << 28

    def test_fault_classes_mirror_worker_faults(self):
        from repro.resilience.chaos import ProcessTransport
        from repro.resilience.isolation import WORKER_FAULTS
        assert ProcessTransport.fault_classes == WORKER_FAULTS

    def test_pool_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(workers=0)
        with pytest.raises(ValueError):
            ProcessWorkerPool(memory_limit_bytes=0)


# -- the worker pool itself -------------------------------------------------


@needs_processes
class TestProcessWorkerPool:
    @pytest.fixture(scope="class")
    def pool(self):
        with ProcessWorkerPool(workers=2,
                               memory_limit_bytes=512 * 1024 * 1024) as pool:
            yield pool

    def test_exact_reading_matches_inprocess_truth(self, pool):
        reading = pool.submit("exact", POLY, PROBS)
        assert reading.value == pytest.approx(TRUTH, abs=1e-12)
        assert reading.exact

    def test_warm_worker_is_reused(self, pool):
        pool.submit("exact", POLY, PROBS)
        spawned = pool.stats()["spawned"]
        started = time.perf_counter()
        pool.submit("exact", POLY, PROBS)
        assert time.perf_counter() - started < 1.0  # no interpreter boot
        assert pool.stats()["spawned"] == spawned

    def test_sigkill_becomes_typed_crash_error(self, pool):
        with pytest.raises(WorkerCrashError) as excinfo:
            pool.submit("exact", POLY, PROBS, fault="kill9")
        assert excinfo.value.exitcode == -9
        assert excinfo.value.to_dict()["exitcode"] == -9
        # Containment: the pool answers the very next request.
        reading = pool.submit("exact", POLY, PROBS)
        assert reading.value == pytest.approx(TRUTH, abs=1e-12)
        assert pool.stats()["crashed"] >= 1

    def test_wedged_worker_is_hard_cancelled(self, pool):
        started = time.perf_counter()
        with pytest.raises(WorkerTimeoutError):
            pool.submit("exact", POLY, PROBS, timeout=0.8,
                        fault="wedge-native")
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0  # SIGKILL, not a join on the busy loop
        assert pool.stats()["killed"] >= 1
        reading = pool.submit("exact", POLY, PROBS)
        assert reading.value == pytest.approx(TRUTH, abs=1e-12)

    def test_memory_cap_becomes_typed_memory_error(self, pool):
        with pytest.raises(WorkerMemoryError) as excinfo:
            pool.submit("exact", POLY, PROBS, fault="oom")
        assert isinstance(excinfo.value, MemoryError)
        assert pool.stats()["memory_trips"] >= 1
        reading = pool.submit("exact", POLY, PROBS)
        assert reading.value == pytest.approx(TRUTH, abs=1e-12)

    def test_expired_deadline_fails_before_dispatch(self, pool):
        from repro.inference.request import InferenceRequest
        request = InferenceRequest(deadline=time.monotonic() - 1.0)
        with pytest.raises(WorkerTimeoutError):
            pool.submit("exact", POLY, PROBS, request=request)

    def test_unknown_fault_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.submit("exact", POLY, PROBS, fault="meteor")

    def test_pool_never_exceeds_worker_cap(self, pool):
        stats = pool.stats()
        assert stats["live"] <= stats["workers"] == 2


@needs_processes
def test_closed_pool_rejects_submissions():
    pool = ProcessWorkerPool(workers=1)
    pool.close()
    with pytest.raises(RuntimeError):
        pool.submit("exact", POLY, PROBS)
    assert pool.live_workers() == 0


# -- executor integration ---------------------------------------------------


@needs_processes
class TestExecutorIsolation:
    @pytest.fixture(scope="class")
    def system(self):
        p3 = P3.from_source(ACQUAINTANCE, config=P3Config(
            isolation="process", isolation_workers=1))
        p3.evaluate()
        return p3

    def test_process_isolation_matches_thread_answer(self, system):
        reference = P3.from_source(ACQUAINTANCE)
        reference.evaluate()
        expected = reference.probability_of('know("Ben","Elena")')
        with QueryExecutor(system) as executor:
            assert executor.isolation == "process"
            value = executor.probability('know("Ben","Elena")',
                                         method="exact")
            assert value == pytest.approx(expected, abs=1e-12)
            # The pool was actually used and is visible in stats().
            pool_stats = executor.stats()["pool"]["isolation_workers"]
            assert pool_stats["requests"] >= 1
            assert pool_stats["live"] <= pool_stats["workers"]

    def test_auto_isolation_resolves_on_posix(self, system):
        config = P3Config(isolation="auto")
        p3 = P3.from_source(ACQUAINTANCE, config=config)
        p3.evaluate()
        with QueryExecutor(p3) as executor:
            assert executor.isolation == "process"

    def test_sampled_answers_match_thread_isolation(self):
        """Seeded specs answer the same under both isolations, with and
        without the fallback ladder: the kernel's shard pool inside an
        isolation worker gives the thread path's answers bit for bit, and
        a Karp–Luby estimate above 1 is clamped on every route."""
        from repro.exec import QuerySpec
        from repro.inference.kernel import SHARD_SIZE
        from repro.resilience import ResilienceConfig

        cases = [
            (ACQUAINTANCE,
             [QuerySpec.probability('know("Ben","Elena")', method=method,
                                    samples=2 * SHARD_SIZE + 100, seed=5)
              for method in ("exact", "mc", "parallel", "karp-luby")]),
            (CHAIN,
             [QuerySpec.probability("p(1,4)", method="karp-luby",
                                    samples=50, seed=seed)
              for seed in range(20)]),
        ]
        for source, specs in cases:
            for resilience in (None, ResilienceConfig()):
                batches = {}
                for isolation in ("thread", "process"):
                    p3 = P3.from_source(source, config=P3Config(
                        isolation=isolation, isolation_workers=1,
                        resilience=resilience))
                    p3.evaluate()
                    with QueryExecutor(p3) as executor:
                        assert executor.isolation == isolation
                        batches[isolation] = executor.run(specs)
                threaded, isolated = batches["thread"], batches["process"]
                assert threaded.ok and isolated.ok
                assert isolated.values() == threaded.values()
                assert max(threaded.values()) <= 1.0
                assert _untimed(isolated) == _untimed(threaded)

    def test_outcome_documents_stay_well_formed(self, system):
        with QueryExecutor(system) as executor:
            batch = executor.run(['know("Ben","Elena")',
                                  'know("Ben","Steve")'])
        for outcome in batch:
            assert outcome.ok, outcome.to_dict()
            assert (outcome.value is None) != (outcome.error is None)
