"""Per-query deadlines, closed executors, and seed resolution.

Failure-injection tests for the executor's live-service guarantees: a
slow query must cost one ``error`` outcome — never a hung batch — and a
closed executor must keep answering, not lose work.
"""

import contextlib
import time

import pytest

from repro import P3, P3Config
from repro.core.errors import QueryTimeoutError
from repro.data import ACQUAINTANCE
from repro.exec import QueryExecutor, QuerySpec
from repro.inference.registry import get_backend, override_backend

KEY = 'know("Ben","Elena")'
KEY_PROBABILITY = 0.163840
OTHER = 'know("Ben","Steve")'


@pytest.fixture()
def system():
    p3 = P3.from_source(ACQUAINTANCE)
    p3.evaluate()
    return p3


@pytest.fixture()
def slow_exact():
    """``slow_exact(delay, only=None)`` makes the ``exact`` backend sleep
    ``delay`` seconds after answering (only when the answer is ``only``,
    if given) until the test ends."""
    with contextlib.ExitStack() as stack:
        def install(delay, only=None):
            real = get_backend("exact")

            def slow(polynomial, probabilities, request):
                reading = real.run(polynomial, probabilities, request)
                if only is None or abs(reading.value - only) < 1e-9:
                    time.sleep(delay)
                return reading

            stack.enter_context(override_backend("exact", slow))

        yield install


class TestDeadlines:
    def test_spec_timeout_yields_error_outcome(self, system, slow_exact):
        slow_exact(5.0)
        with QueryExecutor(system) as executor:
            started = time.perf_counter()
            batch = executor.run([
                QuerySpec.probability(KEY, timeout=0.2),
                QuerySpec.probability(OTHER, timeout=0.2),
            ])
            elapsed = time.perf_counter() - started
        assert elapsed < 3.0
        assert len(batch) == 2
        for outcome in batch:
            assert not outcome.ok
            assert "QueryTimeoutError" in outcome.error

    def test_one_slow_query_does_not_sink_the_batch(self, system,
                                                    slow_exact):
        slow_exact(5.0, only=KEY_PROBABILITY)
        with QueryExecutor(system) as executor:
            batch = executor.run([
                QuerySpec.probability(KEY, timeout=0.2),
                QuerySpec.probability(OTHER, timeout=2.0),
            ])
        slow, fast = batch[0], batch[1]
        assert not slow.ok
        assert "QueryTimeoutError" in slow.error
        assert fast.ok
        assert fast.value == pytest.approx(1.0)

    def test_config_timeout_applies_sequentially(self, slow_exact):
        slow_exact(5.0)
        p3 = P3.from_source(ACQUAINTANCE, P3Config(query_timeout=0.2))
        p3.evaluate()
        with QueryExecutor(p3) as executor:
            batch = executor.run([QuerySpec.probability(KEY)])
        assert not batch[0].ok
        assert "QueryTimeoutError" in batch[0].error

    def test_spec_timeout_overrides_config(self, slow_exact):
        slow_exact(0.2)
        p3 = P3.from_source(ACQUAINTANCE, P3Config(query_timeout=0.01))
        p3.evaluate()
        with QueryExecutor(p3) as executor:
            batch = executor.run(
                [QuerySpec.probability(KEY, timeout=5.0)])
        assert batch.ok
        assert batch[0].value == pytest.approx(KEY_PROBABILITY)

    def test_timeout_error_carries_key_and_deadline(self, system,
                                                    slow_exact):
        slow_exact(5.0)
        with QueryExecutor(system) as executor:
            with pytest.raises(QueryTimeoutError) as info:
                executor.execute(QuerySpec.probability(KEY, timeout=0.1))
        assert info.value.key == KEY
        assert info.value.timeout == pytest.approx(0.1)
        assert isinstance(info.value, TimeoutError)

    def test_no_timeout_by_default(self, system):
        with QueryExecutor(system) as executor:
            batch = executor.run([QuerySpec.probability(KEY)])
        assert batch.ok

    def test_timeout_excluded_from_cache_identity(self):
        fast = QuerySpec.probability(KEY, timeout=0.5)
        slow = QuerySpec.probability(KEY, timeout=30.0)
        absent = QuerySpec.probability(KEY)
        assert fast.cache_identity() == slow.cache_identity()
        assert fast.cache_identity() == absent.cache_identity()

    def test_config_query_timeout_validation(self):
        assert P3Config(query_timeout=1.5).query_timeout == 1.5
        assert P3Config().query_timeout is None
        with pytest.raises(ValueError):
            P3Config(query_timeout=0.0)
        with pytest.raises(ValueError):
            P3Config(query_timeout=-1.0)


class TestPoolFallback:
    def test_closed_executor_still_answers(self, system):
        executor = QueryExecutor(system)
        executor.probability(KEY)
        executor.close()
        # close() releases the runner threads; the caches and the inline
        # route must keep working.
        batch = executor.run([
            QuerySpec.probability(KEY),
            QuerySpec.probability(OTHER),
        ])
        assert batch.ok


class TestSeedResolution:
    def test_explicit_none_seed_equals_absent_seed(self, system):
        none_spec = QuerySpec.probability(KEY, method="mc", samples=400,
                                          seed=None)
        absent_spec = QuerySpec.probability(KEY, method="mc", samples=400)
        assert none_spec == absent_spec
        assert none_spec.cache_identity() == absent_spec.cache_identity()

    def test_explicit_none_seed_reproducible_via_config(self):
        values = []
        for _ in range(2):
            p3 = P3.from_source(ACQUAINTANCE, P3Config(seed=123))
            p3.evaluate()
            with QueryExecutor(p3) as executor:
                values.append(executor.probability(
                    KEY, method="mc", samples=400, seed=None))
        assert values[0] == values[1]

    def test_batch_and_direct_calls_share_seed_resolution(self):
        p3 = P3.from_source(ACQUAINTANCE, P3Config(seed=123))
        p3.evaluate()
        with QueryExecutor(p3) as executor:
            direct = executor.probability(KEY, method="mc", samples=400)
            executor.clear_caches()
            batch = executor.run([QuerySpec.probability(
                KEY, method="mc", samples=400, seed=None)])
        assert batch[0].value == direct


class TestSpecContradictions:
    def test_modify_rejects_only_rules_and_only_tuples(self):
        with pytest.raises(ValueError):
            QuerySpec.modify(KEY, target=0.5,
                             only_rules=True, only_tuples=True)

    def test_hand_built_params_rejected_too(self):
        with pytest.raises(ValueError):
            QuerySpec("modify", KEY, {"target": 0.5,
                                      "only_rules": True,
                                      "only_tuples": True})

    def test_single_restriction_still_allowed(self, system):
        with QueryExecutor(system) as executor:
            batch = executor.run([
                QuerySpec.modify(KEY, target=0.5, only_rules=True),
                QuerySpec.modify(KEY, target=0.5, only_tuples=True),
            ])
        assert batch.ok

    def test_executor_recheck_blocks_smuggled_params(self, system):
        spec = QuerySpec.modify(KEY, target=0.5)
        spec.params["only_rules"] = True
        spec.params["only_tuples"] = True
        with QueryExecutor(system) as executor:
            batch = executor.run([spec])
        assert not batch[0].ok
        assert "mutually exclusive" in str(batch[0].error)


class TestDeadlineRunnerPool:
    """Deadlined queries run on a small reusable runner pool — not one
    fresh daemon thread per query — and abandonments are observable."""

    def test_timeout_counts_an_abandoned_runner(self, system, slow_exact):
        slow_exact(5.0)
        with QueryExecutor(system) as executor:
            batch = executor.run([QuerySpec.probability(KEY, timeout=0.1)])
            stats = executor.stats()
        assert not batch[0].ok
        runners = stats["pool"]["deadline_runners"]
        assert runners["abandoned"] >= 1
        assert runners["abandoned_live"] >= 1  # still wedged in sleep()

    def test_sustained_deadlined_queries_reuse_threads(self, system):
        import threading

        # Other tests may have left a wedged runner behind; measure
        # growth, not the absolute count.
        before = sum(1 for t in threading.enumerate()
                     if t.name.startswith("p3-deadline"))
        with QueryExecutor(system) as executor:
            for _ in range(8):
                batch = executor.run([
                    QuerySpec.probability(KEY, timeout=30.0),
                    QuerySpec.probability(OTHER, timeout=30.0),
                ])
                assert batch.ok
                executor.clear_caches()  # force real work each round
            runners = executor.stats()["pool"]["deadline_runners"]
        # 16 deadlined queries must not mean 16 threads: a few runners
        # are spawned, the rest are reuses.
        assert runners["spawned"] <= 4
        assert runners["reused"] >= 8
        assert runners["abandoned_live"] == 0
        alive = sum(1 for t in threading.enumerate()
                    if t.name.startswith("p3-deadline"))
        assert alive <= before + runners["spawned"]

    def test_stats_omit_runners_when_never_deadlined(self, system):
        with QueryExecutor(system) as executor:
            executor.run([QuerySpec.probability(KEY)])
            stats = executor.stats()
        assert "deadline_runners" not in stats.get("pool", {})

    def test_concurrent_calls_keep_counts_consistent(self):
        """More callers than cores, some wedging past their timeout: each
        call is counted once as a spawn or a reuse, each timeout once as
        an abandonment, and after the release nothing stays abandoned."""
        import sys
        import threading

        from repro.resilience.runners import DeadlineRunnerPool

        pool = DeadlineRunnerPool(max_idle=2)
        release = threading.Event()
        timeouts, wrong = [], []

        def caller():
            for call in range(40):
                try:
                    if call % 10 == 0:
                        pool.call(lambda: release.wait(10.0), 0.01,
                                  TimeoutError)
                    elif pool.call(lambda: call, 10.0, TimeoutError) != call:
                        wrong.append(call)
                except TimeoutError:
                    timeouts.append(call)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in callers)
        finally:
            sys.setswitchinterval(interval)
            release.set()
        deadline = time.monotonic() + 10.0
        while (pool.stats()["abandoned_live"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        stats = pool.stats()
        pool.shutdown()
        assert wrong == []
        assert len(timeouts) == 8 * 4
        assert stats["spawned"] + stats["reused"] == 8 * 40
        assert stats["abandoned"] == len(timeouts)
        assert stats["abandoned_live"] == 0
        assert stats["idle"] <= 2
