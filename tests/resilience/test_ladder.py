"""Fallback ladders: rung ordering, retries, skips, and the record."""

import random

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.core.errors import (
    BudgetExceededError,
    TransientInferenceError,
)
from repro.inference.exact import exact_probability
from repro.inference.registry import BackendReading, override_backend
from repro.inference.request import InferenceRequest
from repro.resilience import (
    BreakerBoard,
    BreakerPolicy,
    FallbackLadder,
    FallbackRung,
    LadderExhaustedError,
    RetryPolicy,
    RungTimeoutError,
)

POLY = make_polynomial(("a", "b"), ("b", "c"), ("d",))
PROBS = random_probabilities(POLY, seed=3)
TRUTH = exact_probability(POLY, PROBS)


def _ladder(rungs=("exact", "bdd", "parallel"), **kwargs):
    kwargs.setdefault("sleep", lambda seconds: None)
    kwargs.setdefault("rng", random.Random(0))
    return FallbackLadder(rungs, **kwargs)


class _Flaky:
    """Backend double failing ``failures`` times before delegating."""

    def __init__(self, failures, error=None):
        self.failures = failures
        self.calls = 0
        self.error = error or TransientInferenceError("injected flake")

    def __call__(self, polynomial, probabilities, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return BackendReading("exact", exact_probability(
            polynomial, probabilities))


class TestRungCoercion:
    def test_from_string_and_dict(self):
        assert FallbackRung.coerce("bdd").method == "bdd"
        rung = FallbackRung.coerce(
            {"method": "mc", "timeout": 1.5, "samples": 500,
             "retry": {"max_attempts": 2}})
        assert (rung.method, rung.timeout, rung.samples) == ("mc", 1.5, 500)
        assert rung.retry.max_attempts == 2

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            FallbackRung.coerce({"method": "mc", "bogus": 1})

    def test_requested_hoisted_to_top(self):
        ladder = _ladder(("exact", "bdd", "parallel"))
        assert [r.method for r in ladder.rungs_for("bdd")] \
            == ["bdd", "exact", "parallel"]
        assert [r.method for r in ladder.rungs_for("mc")] \
            == ["mc", "exact", "bdd", "parallel"]
        assert [r.method for r in ladder.rungs_for(None)] \
            == ["exact", "bdd", "parallel"]


class TestHappyPath:
    def test_first_rung_answers(self):
        reading, record = _ladder().run(POLY, PROBS)
        assert reading.value == pytest.approx(TRUTH)
        assert record.answered_by == "exact"
        assert not record.used_fallback
        assert not record.downgraded
        assert record.retries == 0

    def test_transient_failure_retried_same_rung(self):
        flaky = _Flaky(failures=2)
        with override_backend("exact", flaky):
            reading, record = _ladder(
                retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0)
            ).run(POLY, PROBS)
        assert flaky.calls == 3
        assert record.answered_by == "exact"
        assert record.retries == 2
        assert reading.value == pytest.approx(TRUTH)


class TestFallThrough:
    def test_permanent_error_falls_through_immediately(self):
        always_blown = _Flaky(failures=99,
                              error=BudgetExceededError("blown"))
        with override_backend("exact", always_blown):
            reading, record = _ladder(
                retry=RetryPolicy(max_attempts=5, backoff_seconds=0.0)
            ).run(POLY, PROBS)
        assert always_blown.calls == 1  # not retried
        assert record.answered_by == "bdd"
        assert record.used_fallback
        assert reading.value == pytest.approx(TRUTH)

    def test_downgrade_flag_when_sampling_answers(self):
        blown = BudgetExceededError("blown")
        with override_backend("exact", _Flaky(99, blown)), \
                override_backend("bdd", _Flaky(99, blown)):
            reading, record = _ladder().run(
                POLY, PROBS,
                request=InferenceRequest(samples=20000, seed=11))
        assert record.answered_by == "parallel"
        assert record.downgraded  # exact requested, sampling answered
        assert record.stderr is not None
        assert reading.value == pytest.approx(TRUTH, abs=0.02)

    def test_unknown_backend_rung_skipped(self):
        reading, record = _ladder(("no-such-backend", "exact")).run(
            POLY, PROBS)
        assert record.skipped == [
            {"backend": "no-such-backend", "reason": "unknown-backend"}]
        assert record.answered_by == "exact"

    def test_exhaustion_raises_with_record(self):
        blown = BudgetExceededError("blown")
        with override_backend("exact", _Flaky(99, blown)), \
                override_backend("bdd", _Flaky(99, blown)):
            with pytest.raises(LadderExhaustedError) as excinfo:
                _ladder(("exact", "bdd")).run(POLY, PROBS)
        record = excinfo.value.record
        assert record.answered_by is None
        assert [a["backend"] for a in record.attempts] == ["exact", "bdd"]
        assert "blown" in str(excinfo.value)


class TestDeadlines:
    def test_rung_exceeding_remaining_deadline_is_skipped_not_started(self):
        clock = lambda: 100.0  # noqa: E731 — frozen clock
        spy = _Flaky(failures=0)
        with override_backend("exact", spy):
            reading, record = _ladder(
                (FallbackRung("exact", timeout=5.0), "bdd"),
                clock=clock,
            ).run(POLY, PROBS, deadline=100.0 + 1.0)
        assert spy.calls == 0  # never started
        assert record.skipped == [
            {"backend": "exact", "reason": "insufficient-deadline"}]
        assert record.answered_by == "bdd"

    def test_expired_deadline_skips_every_rung(self):
        clock = lambda: 100.0  # noqa: E731
        with pytest.raises(LadderExhaustedError) as excinfo:
            _ladder(("exact", "bdd"), clock=clock).run(
                POLY, PROBS, deadline=99.0)
        reasons = {entry["reason"]
                   for entry in excinfo.value.record.skipped}
        assert reasons == {"deadline-exhausted"}

    def test_rung_without_timeout_runs_inline_under_deadline(self):
        # The query deadline is the caller's to enforce: a rung with no
        # timeout of its own starts no watchdog thread.
        import threading

        threads = []

        def spy(polynomial, probabilities, request):
            threads.append(threading.current_thread())
            return BackendReading("exact", exact_probability(
                polynomial, probabilities))

        clock = lambda: 100.0  # noqa: E731
        with override_backend("exact", spy):
            reading, record = _ladder(("exact",), clock=clock).run(
                POLY, PROBS, deadline=100.0 + 10.0)
        assert threads == [threading.current_thread()]
        assert record.answered_by == "exact"
        assert reading.value == pytest.approx(TRUTH)

    def test_call_gets_the_rung_timeout(self):
        # Every rung runs through ``call``, which is handed the rung's own
        # timeout (None when it has none) and enforces it.
        calls = []

        def call(method, polynomial, probabilities, request, timeout):
            calls.append((method, timeout))
            if timeout is not None:
                raise RungTimeoutError(method, timeout)
            return BackendReading(method, exact_probability(
                polynomial, probabilities))

        reading, record = _ladder(
            (FallbackRung("exact", timeout=0.05), "bdd"), call=call,
        ).run(POLY, PROBS)
        assert calls == [("exact", 0.05), ("bdd", None)]
        assert record.answered_by == "bdd"
        assert "RungTimeoutError" in record.attempts[0]["error"]
        assert reading.value == pytest.approx(TRUTH)

    def test_rung_timeout_falls_through(self):
        # Without ``call`` the ladder runs a timed rung on its own
        # deadline-runner pool.
        import time as _time

        def stuck(polynomial, probabilities, request):
            _time.sleep(0.5)
            return BackendReading("exact", 0.0)

        with override_backend("exact", stuck):
            reading, record = _ladder(
                (FallbackRung("exact", timeout=0.05), "bdd")
            ).run(POLY, PROBS)
        assert record.answered_by == "bdd"
        assert "RungTimeoutError" in record.attempts[0]["error"]
        assert reading.value == pytest.approx(TRUTH)


class TestBreakers:
    def test_open_breaker_skips_rung(self):
        clock_now = [0.0]
        board = BreakerBoard(BreakerPolicy(
            failure_threshold=0.5, window_size=4, min_calls=2,
            cooldown_seconds=60.0), clock=lambda: clock_now[0])
        breaker = board.breaker("exact")
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"

        spy = _Flaky(failures=0)
        with override_backend("exact", spy):
            reading, record = _ladder(breakers=board,
                                      clock=lambda: clock_now[0]).run(
                POLY, PROBS)
        assert spy.calls == 0
        assert record.skipped == [
            {"backend": "exact", "reason": "breaker-open"}]
        assert record.answered_by == "bdd"

    def test_failures_through_ladder_trip_breaker(self):
        board = BreakerBoard(BreakerPolicy(
            failure_threshold=0.5, window_size=4, min_calls=2,
            cooldown_seconds=60.0))
        ladder = _ladder(breakers=board, retry=RetryPolicy(
            max_attempts=1))
        with override_backend(
                "exact", _Flaky(99, BudgetExceededError("blown"))):
            ladder.run(POLY, PROBS)
            ladder.run(POLY, PROBS)
            _, record = ladder.run(POLY, PROBS)
        assert board.breaker("exact").trips == 1
        assert record.skipped == [
            {"backend": "exact", "reason": "breaker-open"}]
