"""Backend fallback ladders: declarative chains of inference backends.

A ladder is an ordered list of :class:`FallbackRung` entries — e.g.
``exact → bdd → parallel`` — of :mod:`repro.inference.registry` backends,
each run through the ladder's ``call`` (the executor's one backend-call
path, or :func:`call_backend`).  :meth:`FallbackLadder.run` walks the
rungs until one produces a :class:`~repro.inference.registry.BackendReading`:

- a rung whose backend does not support the polynomial, whose circuit
  breaker is open, or whose per-rung timeout already exceeds the
  remaining query deadline is **skipped without being started** (the
  record says why);
- a started rung is retried per its :class:`~repro.resilience.retry.RetryPolicy`
  — but only for transient failures; permanent errors and timeouts fall
  through to the next rung immediately;
- every attempt and skip lands in a :class:`ResilienceRecord`, which
  rides on the final answer so callers (and the serialized
  ``QueryResult``) can see which rung answered, how many attempts it
  took, and whether accuracy was downgraded (exact requested, sampling
  answered).

When every rung is exhausted the ladder raises
:class:`LadderExhaustedError` carrying the record, so even total failure
is diagnosable.
"""

from __future__ import annotations

import functools
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..core.errors import InferenceError
from .breaker import BreakerBoard, CircuitOpenError
from .retry import RetryPolicy
from .runners import DeadlineRunnerPool

if False:  # pragma: no cover — type-checking only
    from ..inference.registry import BackendReading
    from ..inference.request import InferenceRequest


def _get_backend(name: str):
    # Imported lazily: provenance extraction consults the ambient budget
    # meter (repro.resilience.budgets), and a module-level registry import
    # here would close the cycle extraction → resilience → ladder →
    # inference → bounded → extraction.
    from ..inference.registry import get_backend
    return get_backend(name)


#: Failure classes a ladder absorbs and converts into fall-through.
#: Anything else (programming errors, unknown tuples) propagates raw.
ABSORBED_CLASSES = (InferenceError, OSError, TimeoutError, ValueError,
                    ZeroDivisionError, MemoryError, NotImplementedError)


class RungTimeoutError(InferenceError, TimeoutError):
    """A single ladder rung exceeded its per-rung timeout.

    A ``TimeoutError``, so :func:`repro.core.errors.is_transient` answers
    False: the time already spent is evidence the backend is too slow for
    this input, and the remaining deadline is better spent on the next
    rung than on a retry.
    """

    def __init__(self, backend: str, timeout: float) -> None:
        super().__init__(
            "Backend %r exceeded its rung timeout of %.3fs"
            % (backend, timeout))
        self.backend = backend
        self.timeout = timeout


def call_backend(runners: DeadlineRunnerPool, method: str, polynomial,
                 probabilities, request: "InferenceRequest",
                 timeout: Optional[float] = None) -> "BackendReading":
    """Run one backend on this process's threads.

    An untimed call runs inline.  A timed one runs on ``runners`` and
    raises :class:`RungTimeoutError` past ``timeout``; the abandoned
    runner is counted in the pool's stats.  Abandoning is safe because
    backends are pure functions of their inputs.
    """
    backend = _get_backend(method)
    if timeout is None:
        return backend.run(polynomial, probabilities, request)
    return runners.call(
        lambda: backend.run(polynomial, probabilities, request), timeout,
        lambda: RungTimeoutError(method, timeout))


class LadderExhaustedError(InferenceError):
    """Every rung of a fallback ladder failed or was skipped.

    Carries the :class:`ResilienceRecord` (``.record``) so callers can
    report exactly what was tried and why each rung did not answer.
    """

    def __init__(self, record: "ResilienceRecord") -> None:
        parts = []
        for entry in record.attempts:
            if entry.get("error"):
                parts.append("%s: %s" % (entry["backend"], entry["error"]))
        for entry in record.skipped:
            parts.append("%s skipped (%s)" % (entry["backend"],
                                              entry["reason"]))
        detail = "; ".join(parts) or "no rungs were eligible"
        super().__init__("All fallback rungs failed: %s" % detail)
        self.record = record


class FallbackRung:
    """One step of a ladder: a backend plus per-rung overrides."""

    __slots__ = ("method", "timeout", "samples", "retry")

    def __init__(self, method: str,
                 timeout: Optional[float] = None,
                 samples: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        if not method:
            raise ValueError("A fallback rung needs a backend name")
        if timeout is not None and timeout <= 0:
            raise ValueError("rung timeout must be positive or None")
        if samples is not None and samples <= 0:
            raise ValueError("rung samples must be positive or None")
        self.method = method
        self.timeout = timeout
        self.samples = samples
        self.retry = retry

    @classmethod
    def coerce(cls, value: object) -> "FallbackRung":
        """Accept a rung, a backend name, or a ``{"method": ...}`` dict."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, dict):
            unknown = set(value) - {"method", "timeout", "samples", "retry"}
            if unknown:
                raise ValueError(
                    "Unknown fallback rung fields: %s"
                    % ", ".join(sorted(unknown)))
            retry = value.get("retry")
            if isinstance(retry, dict):
                retry = RetryPolicy(**retry)
            return cls(value["method"], timeout=value.get("timeout"),
                       samples=value.get("samples"), retry=retry)
        raise TypeError("Cannot coerce %r to a FallbackRung" % (value,))

    def to_dict(self) -> dict:
        document: Dict[str, object] = {"method": self.method}
        if self.timeout is not None:
            document["timeout"] = self.timeout
        if self.samples is not None:
            document["samples"] = self.samples
        if self.retry is not None:
            document["retry"] = self.retry.to_dict()
        return document

    def __repr__(self) -> str:
        return "FallbackRung(%r)" % self.method


class ResilienceRecord:
    """What the resilience layer did while answering one query.

    Attached to :class:`~repro.exec.executor.QueryOutcome` (and therefore
    serialized with the batch) whenever a fallback ladder ran.
    """

    __slots__ = ("requested", "answered_by", "attempts", "skipped",
                 "retries", "downgraded", "stderr", "exact")

    def __init__(self, requested: Optional[str] = None) -> None:
        self.requested = requested
        self.answered_by: Optional[str] = None
        self.attempts: List[Dict[str, Any]] = []
        self.skipped: List[Dict[str, Any]] = []
        self.retries = 0
        self.downgraded = False
        self.stderr: Optional[float] = None
        self.exact: Optional[bool] = None

    @property
    def used_fallback(self) -> bool:
        return (self.answered_by is not None
                and self.requested is not None
                and self.answered_by != self.requested)

    def record_skip(self, backend: str, reason: str) -> None:
        self.skipped.append({"backend": backend, "reason": reason})

    def record_attempt(self, backend: str, attempt: int, seconds: float,
                       error: Optional[BaseException] = None) -> None:
        entry: Dict[str, Any] = {
            "backend": backend, "attempt": attempt,
            "seconds": round(seconds, 6),
        }
        if error is not None:
            entry["error"] = "%s: %s" % (type(error).__name__, error)
        self.attempts.append(entry)

    def mark_answer(self, backend: str, reading: BackendReading,
                    requested_exact: bool) -> None:
        self.answered_by = backend
        self.stderr = reading.stderr
        self.exact = reading.exact
        self.downgraded = requested_exact and not reading.exact

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "answered_by": self.answered_by,
            "used_fallback": self.used_fallback,
            "downgraded": self.downgraded,
            "exact": self.exact,
            "stderr": self.stderr,
            "retries": self.retries,
            "attempts": list(self.attempts),
            "skipped": list(self.skipped),
        }

    def __repr__(self) -> str:
        return "ResilienceRecord(requested=%r, answered_by=%r, %d attempts)" \
            % (self.requested, self.answered_by, len(self.attempts))


class FallbackLadder:
    """Walk a chain of backends until one answers.

    Parameters
    ----------
    rungs:
        The chain, top rung first.  Each entry may be a
        :class:`FallbackRung`, a backend name, or a dict.
    retry:
        Default retry policy for rungs without their own.
    breakers:
        A shared :class:`~repro.resilience.breaker.BreakerBoard`; omit to
        run without circuit breaking.
    rng / sleep / clock:
        Injectable randomness (backoff jitter), sleeper, and monotonic
        clock — deterministic tests override all three.
    call:
        How a rung's backend runs,
        ``call(method, polynomial, probabilities, request, timeout)
        -> BackendReading`` with ``timeout`` the rung's own (or None).
        The executor passes its one backend-call path, which honours its
        isolation setting.  The default runs the backend inline and a
        timed rung on a ladder-owned :class:`DeadlineRunnerPool`.
    """

    def __init__(self, rungs: Sequence[object],
                 retry: Optional[RetryPolicy] = None,
                 breakers: Optional[BreakerBoard] = None,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 call: Optional[Callable[..., "BackendReading"]] = None
                 ) -> None:
        self.rungs: Tuple[FallbackRung, ...] = tuple(
            FallbackRung.coerce(rung) for rung in rungs)
        if not self.rungs:
            raise ValueError("A fallback ladder needs at least one rung")
        self.retry = retry if retry is not None else RetryPolicy()
        self.breakers = breakers
        if call is None:
            call = functools.partial(call_backend, DeadlineRunnerPool())
        self.call = call
        self._rng = rng
        self._sleep = sleep
        self._clock = clock

    def rungs_for(self, requested: Optional[str]) -> Tuple[FallbackRung, ...]:
        """The chain with ``requested`` promoted to the top rung.

        A requested method already on the ladder is hoisted (keeping its
        configured overrides); an unknown one is prepended with defaults,
        so an explicit ``method=`` always gets first shot.
        """
        if requested is None:
            return self.rungs
        for index, rung in enumerate(self.rungs):
            if rung.method == requested:
                return (rung,) + self.rungs[:index] + self.rungs[index + 1:]
        return (FallbackRung(requested),) + self.rungs

    def run(self, polynomial, probabilities,
            request: "Optional[InferenceRequest]" = None,
            requested: Optional[str] = None,
            deadline: Optional[float] = None
            ) -> Tuple[BackendReading, ResilienceRecord]:
        """Answer P[λ] through the ladder.

        ``request`` carries the sampling parameters
        (:class:`~repro.inference.request.InferenceRequest`) handed to
        each rung's backend (``None`` means the defaults); per-rung
        ``samples`` overrides are applied on top.

        ``deadline`` is an *absolute* monotonic-clock instant (matching
        the injectable ``clock``); rungs that cannot fit in the remaining
        time are skipped, and the ladder never sleeps past it.  A running
        rung is bounded only by its own ``timeout``; waiting out the
        deadline itself is the caller's job (the executor's deadline
        runner does it).  It stays
        a ladder-level argument — not a request field — because it is
        interpreted against the injectable clock, while
        ``request.deadline`` is interpreted by the sampling kernel
        against the real monotonic clock.

        Returns ``(reading, record)``; raises
        :class:`LadderExhaustedError` when no rung answers.
        """
        from ..inference.registry import _DEFAULT_REQUEST  # lazy: see _get_backend
        if request is None:
            request = _DEFAULT_REQUEST
        rungs = self.rungs_for(requested)
        record = ResilienceRecord(requested or rungs[0].method)
        requested_exact = self._is_exact(record.requested)
        rt = telemetry.runtime()
        with rt.tracer.span("resilience.ladder",
                            requested=record.requested,
                            rungs=len(rungs)) as span:
            for rung in rungs:
                reading = self._run_rung(
                    rung, polynomial, probabilities, request, deadline,
                    record)
                if reading is not None:
                    record.mark_answer(rung.method, reading, requested_exact)
                    self._note_answer(span, record)
                    return reading, record
            span.set_attribute("exhausted", True)
        raise LadderExhaustedError(record)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _is_exact(method: Optional[str]) -> bool:
        if method is None:
            return False
        try:
            return _get_backend(method).deterministic
        except ValueError:
            return False

    def _remaining(self, deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        return deadline - self._clock()

    def _run_rung(self, rung: FallbackRung, polynomial, probabilities,
                  request: "InferenceRequest",
                  deadline: Optional[float],
                  record: ResilienceRecord) -> Optional[BackendReading]:
        """One rung: eligibility checks, then the attempt/retry loop.

        Returns the reading on success, None to fall through to the next
        rung.  Non-absorbed exceptions propagate.
        """
        remaining = self._remaining(deadline)
        if remaining is not None and remaining <= 0:
            record.record_skip(rung.method, "deadline-exhausted")
            return None
        # The critical deadline/fallback interaction: a rung whose own
        # timeout cannot fit in the remaining budget is skipped, not
        # started — starting it would guarantee a wasted partial run.
        if (rung.timeout is not None and remaining is not None
                and rung.timeout > remaining):
            record.record_skip(rung.method, "insufficient-deadline")
            return None
        try:
            backend = _get_backend(rung.method)
        except ValueError:
            record.record_skip(rung.method, "unknown-backend")
            return None
        if not backend.supports(polynomial):
            record.record_skip(rung.method, "unsupported")
            return None

        breaker = (self.breakers.breaker(rung.method)
                   if self.breakers is not None else None)
        retry = rung.retry if rung.retry is not None else self.retry
        rung_request = (request.replace(samples=rung.samples)
                        if rung.samples is not None else request)

        attempt = 0
        while True:
            attempt += 1
            if breaker is not None:
                try:
                    breaker.before_call()
                except CircuitOpenError as refusal:
                    record.record_skip(rung.method, "breaker-open")
                    self._count("p3_resilience_breaker_skips_total",
                                "Rungs skipped because the breaker was open",
                                rung.method)
                    if attempt > 1:
                        # The breaker tripped mid-retry-loop; surface the
                        # refusal in the attempt log too.
                        record.record_attempt(
                            rung.method, attempt, 0.0, error=refusal)
                    return None
            started = self._clock()
            try:
                reading = self.call(rung.method, polynomial, probabilities,
                                    rung_request, rung.timeout)
            except ABSORBED_CLASSES as exc:
                elapsed = self._clock() - started
                record.record_attempt(rung.method, attempt, elapsed,
                                      error=exc)
                if breaker is not None:
                    breaker.record_failure()
                if not retry.should_retry(exc, attempt):
                    return None
                delay = retry.delay(attempt, self._rng)
                remaining = self._remaining(deadline)
                if remaining is not None:
                    if remaining <= 0:
                        record.record_skip(rung.method, "deadline-exhausted")
                        return None
                    delay = min(delay, remaining)
                record.retries += 1
                self._count("p3_resilience_retries_total",
                            "Backend retries, by backend", rung.method)
                if delay > 0:
                    self._sleep(delay)
                continue
            elapsed = self._clock() - started
            record.record_attempt(rung.method, attempt, elapsed)
            if breaker is not None:
                breaker.record_success()
            return reading

    def _note_answer(self, span, record: ResilienceRecord) -> None:
        span.set_attribute("answered_by", record.answered_by)
        span.set_attribute("attempts", len(record.attempts))
        if record.used_fallback:
            span.set_attribute("fallback", True)
            self._count("p3_resilience_fallbacks_total",
                        "Queries answered by a fallback rung, by backend",
                        record.answered_by)
        if record.downgraded:
            span.set_attribute("downgraded", True)

    @staticmethod
    def _count(name: str, help_text: str, backend: str) -> None:
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                name, help=help_text,
                labelnames=("backend",)).inc(backend=backend)

    def to_dict(self) -> dict:
        return {
            "rungs": [rung.to_dict() for rung in self.rungs],
            "retry": self.retry.to_dict(),
        }

    def __repr__(self) -> str:
        return "FallbackLadder(%s)" % " -> ".join(
            rung.method for rung in self.rungs)
