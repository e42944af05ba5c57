"""Executor-level resilience: ladder wiring, deadline/fallback
interaction, timed rungs, and wedged-backend deadlines.

These tests exercise the executor as a whole — real deadline-runner
threads — with fault injection through the backend registry, mirroring
how the chaos harness breaks things.
"""

import threading
import time

import pytest

from repro import P3, P3Config, telemetry
from repro.core.errors import QueryTimeoutError
from repro.data import ACQUAINTANCE
from repro.exec import QueryExecutor, QuerySpec
from repro.inference.exact import exact_probability
from repro.inference.registry import BackendReading, override_backend
from repro.resilience import FallbackRung, ResilienceConfig, ResourceBudget
from repro.resilience.config import DEFAULT_LADDER
from repro.telemetry import TelemetryConfig

KEY = 'know("Ben","Elena")'
KEY_PROBABILITY = 0.163840
OTHER = 'know("Ben","Steve")'


def _system(resilience, **config_overrides):
    p3 = P3.from_source(ACQUAINTANCE, config=P3Config(
        resilience=resilience, **config_overrides))
    p3.evaluate()
    return p3


class TestLadderWiring:
    def test_outcome_carries_resilience_record(self):
        p3 = _system(ResilienceConfig())
        with QueryExecutor(p3) as executor:
            batch = executor.run([KEY])
        outcome = batch[0]
        assert outcome.ok
        assert outcome.value == pytest.approx(KEY_PROBABILITY)
        record = outcome.resilience
        assert record is not None
        assert record.answered_by == "exact"
        assert not record.used_fallback
        assert "resilience" in outcome.to_dict()

    def test_fallback_on_broken_primary(self):
        def broken(polynomial, probabilities, request):
            raise OSError("injected: exact worker lost")

        p3 = _system(ResilienceConfig())
        with override_backend("exact", broken):
            with QueryExecutor(p3) as executor:
                batch = executor.run([KEY])
        outcome = batch[0]
        assert outcome.ok
        assert outcome.value == pytest.approx(KEY_PROBABILITY)
        assert outcome.resilience.used_fallback
        assert outcome.resilience.answered_by == "bdd"

    def test_record_survives_the_result_cache(self):
        """A cached fallback answer comes back marked cached, with the
        record of the rung that answered it the first time."""
        def broken(polynomial, probabilities, request):
            raise OSError("injected: exact backends lost")

        p3 = _system(ResilienceConfig(), seed=7)
        with override_backend("exact", broken), \
                override_backend("bdd", broken):
            with QueryExecutor(p3) as executor:
                first = executor.run([KEY])[0]
                second = executor.run([KEY])[0]
        assert first.ok and not first.cached
        assert first.resilience.answered_by == "parallel"
        assert second.cached
        assert second.value == first.value
        assert second.resilience.to_dict() == first.resilience.to_dict()
        assert second.to_dict()["resilience"]["stderr"] is not None

    def test_ladder_default_matches_config(self):
        p3 = _system(ResilienceConfig())
        with QueryExecutor(p3) as executor:
            assert [r.method for r in executor.fallback_ladder.rungs] \
                == list(DEFAULT_LADDER)
            assert executor.breaker_board is not None

    def test_no_resilience_means_no_ladder(self):
        p3 = _system(None)
        with QueryExecutor(p3) as executor:
            assert executor.fallback_ladder is None
            assert executor.breaker_board is None
            assert executor.run([KEY])[0].resilience is None


class TestDeadlineFallbackInteraction:
    def test_rung_over_deadline_skipped_not_started(self):
        """A rung whose timeout exceeds the remaining query deadline must
        be skipped outright — starting it would guarantee wasted work."""
        calls = []

        def spying_exact(polynomial, probabilities, request):
            calls.append(1)
            return BackendReading("exact", exact_probability(
                polynomial, probabilities))

        resilience = ResilienceConfig(
            ladder=(FallbackRung("exact", timeout=30.0), "bdd"))
        p3 = _system(resilience, query_timeout=2.0)
        with override_backend("exact", spying_exact):
            with QueryExecutor(p3) as executor:
                batch = executor.run([KEY])
        outcome = batch[0]
        assert outcome.ok
        assert calls == []  # the 30s rung never ran against a 2s deadline
        record = outcome.resilience
        assert {"backend": "exact", "reason": "insufficient-deadline"} \
            in record.skipped
        assert record.answered_by == "bdd"
        assert outcome.value == pytest.approx(KEY_PROBABILITY)

    def test_fitting_rung_still_runs_under_deadline(self):
        resilience = ResilienceConfig(
            ladder=(FallbackRung("exact", timeout=0.5), "bdd"))
        p3 = _system(resilience, query_timeout=10.0)
        with QueryExecutor(p3) as executor:
            batch = executor.run([KEY])
        assert batch[0].resilience.answered_by == "exact"


class TestTimedRungs:
    """A rung with its own ``timeout`` runs on the executor's
    deadline-runner pool, inside the query's context."""

    def test_timed_rung_is_metered_by_the_query_budget(self):
        resilience = ResilienceConfig(
            budget=ResourceBudget(max_compiled_bytes=8),
            ladder=(FallbackRung("mc", timeout=5.0), "bdd"))
        p3 = _system(resilience)
        with QueryExecutor(p3) as executor:
            outcome = executor.run([QuerySpec.probability(
                KEY, method="mc", samples=500, seed=1)])[0]
        assert not outcome.ok
        errors = [attempt["error"]
                  for attempt in outcome.resilience.attempts]
        assert [attempt["backend"]
                for attempt in outcome.resilience.attempts] == ["mc", "bdd"]
        assert all("BudgetExceededError" in error for error in errors)

    def test_timed_rung_span_joins_the_query_trace(self):
        p3 = _system(ResilienceConfig(
            ladder=(FallbackRung("exact", timeout=5.0),)))
        rt = telemetry.configure(TelemetryConfig())
        try:
            with QueryExecutor(p3) as executor:
                assert executor.run([KEY])[0].ok
            spans = list(rt.ring.spans())
        finally:
            telemetry.disable()
        (backend,) = [span for span in spans
                      if span.name == "infer.backend"]
        (batch,) = [span for span in spans if span.name == "batch"]
        assert backend.parent_id is not None
        assert backend.trace_id == batch.trace_id

    def test_wedged_timed_rung_is_counted(self):
        release = threading.Event()

        def wedged(polynomial, probabilities, request):
            release.wait()
            return BackendReading("mc", 0.0, stderr=0.0, exact=False)

        p3 = _system(ResilienceConfig(
            ladder=(FallbackRung("mc", timeout=0.2), "bdd")))
        try:
            with override_backend("mc", wedged):
                with QueryExecutor(p3) as executor:
                    outcome = executor.run([QuerySpec.probability(
                        KEY, method="mc")])[0]
                    assert outcome.resilience.answered_by == "bdd"
                    assert "RungTimeoutError" in \
                        outcome.resilience.attempts[0]["error"]
                    assert executor.deadline_runner_stats()[
                        "abandoned_live"] == 1
                    assert executor.stats()["pool"]["deadline_runners"][
                        "abandoned"] == 1
                    release.set()
                    deadline = time.monotonic() + 5.0
                    while (executor.deadline_runner_stats()["abandoned_live"]
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    assert executor.deadline_runner_stats()[
                        "abandoned_live"] == 0
        finally:
            release.set()


class TestHangDeadline:
    def _blocking_backend(self, release):
        def wedged(polynomial, probabilities, request):
            release.wait()
            return BackendReading("mc", 0.0, stderr=0.0, exact=False)
        return wedged

    def test_wedged_spec_times_out_typed(self):
        """A backend wedged past the spec's deadline costs that spec a
        QueryTimeoutError outcome; the clean spec in the same batch is
        answered, the batch returns promptly, and the abandoned runner
        recovers once the backend lets go."""
        release = threading.Event()
        p3 = _system(None)
        hung_spec = {"kind": "probability", "key": KEY,
                     "params": {"method": "mc", "timeout": 0.2}}
        try:
            with override_backend(
                    "mc", self._blocking_backend(release)):
                with QueryExecutor(p3) as executor:
                    started = time.monotonic()
                    batch = executor.run([hung_spec, OTHER])
                    elapsed = time.monotonic() - started
                    assert executor.deadline_runner_stats()[
                        "abandoned_live"] == 1
                    release.set()
                    deadline = time.monotonic() + 5.0
                    while (executor.deadline_runner_stats()["abandoned_live"]
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    assert executor.deadline_runner_stats()[
                        "abandoned_live"] == 0
        finally:
            release.set()

        outcomes = {outcome.spec.key: outcome for outcome in batch}
        assert outcomes[OTHER].ok
        assert outcomes[OTHER].value == pytest.approx(1.0)
        hung = outcomes[KEY]
        assert not hung.ok
        assert isinstance(hung.exception, QueryTimeoutError)
        assert elapsed < 5.0

    def test_wedged_ladder_rung_times_out_typed(self):
        """With the fallback ladder on, its rung watchdog and the
        executor share the deadline; whichever notices first, the spec
        ends as a QueryTimeoutError."""
        release = threading.Event()
        p3 = _system(ResilienceConfig())
        hung_spec = {"kind": "probability", "key": KEY,
                     "params": {"method": "mc", "timeout": 0.2}}
        try:
            with override_backend(
                    "mc", self._blocking_backend(release)):
                with QueryExecutor(p3) as executor:
                    batch = executor.run([hung_spec, OTHER])
        finally:
            release.set()
        hung, clean = batch[0], batch[1]
        assert clean.ok
        assert isinstance(hung.exception, QueryTimeoutError)
