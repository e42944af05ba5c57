"""Integration tests for the batch QueryExecutor."""

import pytest

from repro import P3, P3Config
from repro.core.errors import InferenceConfigurationError, UnknownTupleError
from repro.data import ACQUAINTANCE
from repro.exec import BatchResult, QueryExecutor, QuerySpec
from repro.queries import Explanation, InfluenceReport, ModificationPlan
from repro.queries.derivation import SufficientProvenance

KEY = 'know("Ben","Elena")'
KEY_PROBABILITY = 0.163840


@pytest.fixture()
def system():
    p3 = P3.from_source(ACQUAINTANCE)
    p3.evaluate()
    return p3


@pytest.fixture()
def executor(system):
    with QueryExecutor(system) as executor:
        yield executor


class TestProbability:
    def test_matches_facade(self, system, executor):
        assert executor.probability(KEY) == pytest.approx(KEY_PROBABILITY)
        assert system.probability_of(KEY) == pytest.approx(KEY_PROBABILITY)

    def test_result_cache_hit_on_repeat(self, executor):
        executor.probability(KEY)
        hits_before = executor.result_cache.hits
        executor.probability(KEY)
        assert executor.result_cache.hits == hits_before + 1

    def test_deterministic_methods_collapse_sampling_fields(self, executor):
        executor.probability(KEY, method="exact", samples=100, seed=1)
        hits_before = executor.result_cache.hits
        executor.probability(KEY, method="exact", samples=9999, seed=42)
        assert executor.result_cache.hits == hits_before + 1

    def test_stochastic_methods_do_not_collapse(self, executor):
        executor.probability(KEY, method="mc", samples=500, seed=1)
        misses_before = executor.result_cache.misses
        executor.probability(KEY, method="mc", samples=500, seed=2)
        assert executor.result_cache.misses == misses_before + 1

    def test_unknown_tuple_raises(self, executor):
        with pytest.raises(UnknownTupleError):
            executor.probability('know("Nobody","Here")')

    def test_seeded_batches_reproducible(self, system):
        values = []
        for _ in range(2):
            with QueryExecutor(system) as executor:
                values.append(executor.probability(
                    KEY, method="mc", samples=2000, seed=7))
        assert values[0] == values[1]


class TestPolynomialCache:
    def test_shared_across_query_kinds(self, executor):
        executor.probability(KEY)
        hits_before = executor.polynomial_cache.hits
        executor.execute(QuerySpec.explain(KEY))
        assert executor.polynomial_cache.hits > hits_before

    def test_hop_limits_are_distinct_entries(self, executor):
        executor.polynomial(KEY, hop_limit=1)
        executor.polynomial(KEY, hop_limit=2)
        assert len(executor.polynomial_cache) == 2

    def test_clear_caches(self, executor):
        executor.probability(KEY)
        executor.clear_caches()
        assert len(executor.polynomial_cache) == 0
        assert len(executor.result_cache) == 0


class TestRun:
    def test_input_order_preserved(self, executor):
        keys = [KEY, 'know("Steve","Elena")', 'know("Ben","Steve")']
        batch = executor.run([QuerySpec.probability(key) for key in keys])
        assert isinstance(batch, BatchResult)
        assert [outcome.spec.key for outcome in batch] == keys
        assert batch.ok
        assert batch.values()[0] == pytest.approx(KEY_PROBABILITY)

    def test_duplicates_deduplicated(self, executor):
        batch = executor.run([KEY, KEY, KEY])
        assert len(batch) == 3
        assert len(set(batch.values())) == 1
        assert executor.stats()["deduplicated"] == 2

    def test_accepts_strings_and_dicts(self, executor):
        batch = executor.run([
            KEY,
            {"kind": "probability", "key": 'know("Steve","Elena")'},
            QuerySpec.explain(KEY),
        ])
        assert batch.ok
        assert isinstance(batch[2].value, Explanation)

    def test_errors_captured_per_outcome(self, executor):
        batch = executor.run([KEY, 'know("Nobody","Here")'])
        assert not batch.ok
        assert batch[0].ok
        assert not batch[1].ok
        assert "UnknownTupleError" in batch[1].error
        assert isinstance(batch[1].exception, UnknownTupleError)
        assert batch.errors()[0][0].key == 'know("Nobody","Here")'
        assert executor.stats()["errors"] == 1

    @pytest.mark.parametrize("method", ["mc", "parallel"])
    def test_zero_sample_influence_is_a_typed_error(self, executor, method):
        batch = executor.run([QuerySpec(
            "influence", KEY, {"method": method, "samples": 0})])
        assert not batch.ok
        assert isinstance(batch[0].exception, InferenceConfigurationError)
        assert batch[0].error.startswith("InferenceConfigurationError")

    def test_batch_equals_direct_calls(self, system):
        keys = sorted(str(atom) for atom in system.derived_atoms("know"))
        specs = [QuerySpec.probability(key) for key in keys]
        with QueryExecutor(system) as batch_executor:
            batch_values = batch_executor.run(specs).values()
        with QueryExecutor(system) as direct_executor:
            direct_values = [direct_executor.probability(key)
                             for key in keys]
        assert batch_values == direct_values

    @pytest.mark.parametrize("kind", ["probability", "explain"])
    def test_cached_flag_on_second_run(self, executor, kind):
        spec = getattr(QuerySpec, kind)(KEY)
        assert not executor.run([spec])[0].cached
        batch = executor.run([spec])
        assert batch[0].cached
        assert batch[0].to_dict()["cached"] is True

    def test_mixed_kinds(self, executor):
        batch = executor.run([
            QuerySpec.probability(KEY),
            QuerySpec.explain(KEY),
            QuerySpec.derive(KEY, 0.05),
            QuerySpec.influence(KEY),
            QuerySpec.modify(KEY, 0.5),
        ])
        assert batch.ok
        values = batch.values()
        assert values[0] == pytest.approx(KEY_PROBABILITY)
        assert isinstance(values[1], Explanation)
        assert isinstance(values[2], SufficientProvenance)
        assert isinstance(values[3], InfluenceReport)
        assert isinstance(values[4], ModificationPlan)


class TestExecute:
    def test_explain_matches_facade(self, system, executor):
        explanation = executor.execute(QuerySpec.explain(KEY))
        assert explanation.probability == pytest.approx(KEY_PROBABILITY)
        assert explanation.to_dict() == system.explain(KEY).to_dict()

    def test_execute_raises(self, executor):
        with pytest.raises(UnknownTupleError):
            executor.execute('know("Nobody","Here")')

    def test_influence_filters(self, system, executor):
        report = executor.execute(QuerySpec.influence(
            KEY, kind_filter="tuple", relation="like"))
        assert report.scores
        for score in report.scores:
            assert score.literal.is_tuple
            assert score.literal.key.startswith("like(")


class TestStats:
    def test_stage_timings_and_counters(self, executor):
        executor.run([KEY, 'know("Steve","Elena")', QuerySpec.explain(KEY)])
        stats = executor.stats()
        assert stats["stages"]["extract"]["calls"] >= 2
        assert stats["stages"]["extract"]["seconds"] > 0
        assert stats["stages"]["infer"]["seconds"] > 0
        assert stats["queries"]["probability"] >= 2
        assert stats["queries"]["explain"] == 1
        assert stats["batches"] == 1
        assert stats["caches"]["polynomial"]["size"] >= 2

    def test_nonzero_cache_hits_reported(self, executor):
        executor.run([KEY, KEY])
        executor.run([KEY])
        stats = executor.stats()
        assert stats["caches"]["probability"]["hits"] > 0

    def test_stats_reset(self, executor):
        executor.probability(KEY)
        executor.metrics.reset()
        assert executor.stats()["total_queries"] == 0


class TestFacadeIntegration:
    def test_shared_executor_reused(self, system):
        assert system.executor() is system.executor()

    def test_overrides_are_throwaway(self, system):
        first = system.executor()
        second = system.executor(polynomial_cache_size=2)
        assert second is not first
        assert second.polynomial_cache.maxsize == 2
        # The shared executor (and its warm caches) must survive.
        assert system.executor() is first

    def test_override_does_not_evict_warm_caches(self, system):
        shared = system.executor()
        shared.probability(KEY)
        shared.probability(KEY)
        hits_before = shared.result_cache.stats()["hits"]
        assert hits_before > 0
        system.executor(result_cache_size=1)
        assert system.executor() is shared
        shared.probability(KEY)
        assert shared.result_cache.stats()["hits"] == hits_before + 1

    def test_configure_executor_replaces_shared(self, system):
        first = system.executor()
        rebuilt = system.configure_executor(result_cache_size=2)
        assert rebuilt is not first
        assert rebuilt.result_cache.maxsize == 2
        assert system.executor() is rebuilt

    def test_config_defaults_respected(self):
        p3 = P3.from_source(
            ACQUAINTANCE,
            config=P3Config(polynomial_cache_size=7, result_cache_size=11))
        p3.evaluate()
        executor = p3.executor()
        assert executor.polynomial_cache.maxsize == 7
        assert executor.result_cache.maxsize == 11

    def test_answer_queries_routes_through_executor(self):
        p3 = P3.from_source(ACQUAINTANCE + '\nquery(know("Ben","Elena")).')
        p3.evaluate()
        answers = p3.answer_queries()
        assert answers[KEY] == pytest.approx(KEY_PROBABILITY)
        assert p3.executor().stats()["queries"]["probability"] == 1
