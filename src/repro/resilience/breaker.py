"""Per-backend circuit breakers: stop hammering a backend that keeps failing.

In a batch of hundreds of specs, a backend that fails deterministically
(or is wedged) would otherwise consume ``max_attempts × backoff`` of every
single query's deadline before the ladder falls through.  A breaker
remembers recent outcomes per backend and short-circuits:

- **closed** — normal operation; calls flow through, outcomes recorded in
  a sliding window.  When the window holds at least ``min_calls`` samples
  and the failure rate reaches ``failure_threshold``, the breaker trips
  **open**.
- **open** — calls are refused instantly with :class:`CircuitOpenError`
  (the ladder records a skip and moves to the next rung).  After
  ``cooldown_seconds`` the next caller is admitted as a probe
  (**half-open**).
- **half-open** — exactly one probe call is allowed through.  Success
  closes the breaker and clears the window; failure re-opens it for
  another cooldown.

Breakers are shared across a batch (one :class:`BreakerBoard` per
executor), so they are thread-safe; the clock is injectable for tests.
Trips are counted in the board's registry (the executor's).
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Callable, Deque, Dict, Optional

from ..core.errors import TransientInferenceError
from ..telemetry.metrics import MetricsRegistry

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitOpenError(TransientInferenceError):
    """Refused without calling the backend: its breaker is open.

    Transient by nature — the breaker will admit a probe after cooldown —
    but ladders do not *retry* an open breaker; they skip the rung and
    record why.
    """

    def __init__(self, backend: str, retry_after: float) -> None:
        super().__init__(
            "Circuit for backend %r is open (probe in %.2fs)"
            % (backend, max(0.0, retry_after)))
        self.backend = backend
        self.retry_after = retry_after


class BreakerPolicy:
    """Thresholds governing when a breaker trips and recovers."""

    __slots__ = ("failure_threshold", "window_size", "min_calls",
                 "cooldown_seconds")

    def __init__(self,
                 failure_threshold: float = 0.5,
                 window_size: int = 10,
                 min_calls: int = 4,
                 cooldown_seconds: float = 5.0) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must lie in (0, 1]")
        if window_size < 1:
            raise ValueError("window_size must be positive")
        if min_calls < 1:
            raise ValueError("min_calls must be positive")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.window_size = window_size
        self.min_calls = min_calls
        self.cooldown_seconds = cooldown_seconds

    def to_dict(self) -> dict:
        return {
            "failure_threshold": self.failure_threshold,
            "window_size": self.window_size,
            "min_calls": self.min_calls,
            "cooldown_seconds": self.cooldown_seconds,
        }

    def __repr__(self) -> str:
        return ("BreakerPolicy(threshold=%g, window=%d, cooldown=%gs)"
                % (self.failure_threshold, self.window_size,
                   self.cooldown_seconds))


class CircuitBreaker:
    """Failure-rate breaker for one backend.

    Use :meth:`before_call` / :meth:`record_success` /
    :meth:`record_failure` around each backend invocation.  All methods
    are thread-safe.  Trips are counted in ``metrics`` (a private
    registry when None).
    """

    def __init__(self, backend: str,
                 policy: Optional[BreakerPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.backend = backend
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._window: Deque[bool] = collections.deque(
            maxlen=self.policy.window_size)
        self._opened_at = 0.0
        self._probe_inflight = False
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._trips = metrics.counter(
            "p3_resilience_breaker_trips_total",
            help="Circuit breaker trips, by backend",
            labelnames=("backend",)).labels(backend=backend)

    @property
    def trips(self) -> int:
        """How often this breaker has opened."""
        return int(self._trips.value())

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # Caller holds the lock.  An open breaker past cooldown presents
        # as half-open: the next admitted caller becomes the probe.
        if self._state == OPEN:
            elapsed = self._clock() - self._opened_at
            if elapsed >= self.policy.cooldown_seconds:
                return HALF_OPEN
        return self._state

    def before_call(self) -> None:
        """Admit or refuse a call; raises :class:`CircuitOpenError` if open."""
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return
            if state == HALF_OPEN and not self._probe_inflight:
                self._state = HALF_OPEN
                self._probe_inflight = True
                return
            remaining = (self.policy.cooldown_seconds
                         - (self._clock() - self._opened_at))
            raise CircuitOpenError(self.backend, remaining)

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                # Probe succeeded: full reset.
                self._state = CLOSED
                self._window.clear()
                self._probe_inflight = False
                return
            self._window.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = False
                self._open()
                return
            self._window.append(False)
            if len(self._window) >= self.policy.min_calls:
                failures = sum(1 for ok in self._window if not ok)
                if failures / len(self._window) >= self.policy.failure_threshold:
                    self._open()

    def _open(self) -> None:
        # Caller holds the lock.
        self._state = OPEN
        self._opened_at = self._clock()
        self._window.clear()
        self._trips.inc()

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "backend": self.backend,
                "state": self._effective_state(),
                "trips": self.trips,
                "window": list(self._window),
            }

    def __repr__(self) -> str:
        return "CircuitBreaker(%r, %s, trips=%d)" % (
            self.backend, self.state, self.trips)


class BreakerBoard:
    """Lazily-created breakers keyed by backend name, sharing one policy
    and one registry."""

    def __init__(self, policy: Optional[BreakerPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, backend: str) -> CircuitBreaker:
        with self._lock:
            found = self._breakers.get(backend)
            if found is None:
                found = CircuitBreaker(backend, self.policy, self._clock,
                                       self._metrics)
                self._breakers[backend] = found
            return found

    def reset(self) -> None:
        """Forget every breaker, trip counts included."""
        with self._lock:
            breakers, self._breakers = self._breakers, {}
        for breaker in breakers.values():
            breaker._trips.reset()

    def to_dict(self) -> dict:
        with self._lock:
            breakers = list(self._breakers.values())
        return {name.backend: name.to_dict() for name in breakers}

    def __repr__(self) -> str:
        return "BreakerBoard(%d backends)" % len(self._breakers)
