"""Admission control for the provenance service.

The service admits a bounded amount of concurrent work and sheds the
rest *before* it reaches an executor, with HTTP status codes clients can
act on:

* **429 Too Many Requests** — the bounded wait queue is full, or one
  tenant holds too many in-flight slots.  Retry after the hinted delay.
* **503 Service Unavailable** — every rung of a tenant's fallback
  ladder has an open circuit breaker, so a query could only fail.
  Retry after the breaker cooldown.

Admission happens on the event loop (async), while the admitted work
runs on executor threads — so the semaphore here is an
:class:`asyncio.Semaphore` and must only be touched from the loop.

Pressure and totals are series of the controller's own registry, which
:meth:`AdmissionController.snapshot` reads and ``/metrics`` merges in.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, AsyncIterator, Dict, Optional

from ..core.errors import P3Error
from ..telemetry.metrics import MetricsRegistry

__all__ = ["AdmissionController", "AdmissionError"]


class AdmissionError(P3Error):
    """A request was shed at the door; maps to 429 or 503."""

    def __init__(self, status: int, message: str,
                 retry_after: float) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        return {"status": self.status,
                "retry_after_seconds": round(self.retry_after, 3)}


class AdmissionController:
    """Bounded concurrency + bounded queue + breaker-aware fast rejects.

    ``max_concurrent`` requests execute at once; up to ``max_queue``
    more wait for a slot; anything beyond is rejected with 429.  A
    per-tenant ``max_tenant_inflight`` stops one tenant from occupying
    every slot.
    """

    def __init__(self, max_concurrent: int = 8, max_queue: int = 16,
                 max_tenant_inflight: Optional[int] = None,
                 retry_after_seconds: float = 1.0) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if max_tenant_inflight is not None and max_tenant_inflight < 1:
            raise ValueError("max_tenant_inflight must be positive or None")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.max_tenant_inflight = max_tenant_inflight
        self.retry_after_seconds = retry_after_seconds
        self._slots = asyncio.Semaphore(max_concurrent)
        self._draining = False
        #: The one store of the controller's pressure and totals.
        self.metrics = metrics = MetricsRegistry()
        self._queued = metrics.gauge(
            "p3_http_queue_depth",
            "Requests waiting for an admission slot.").labels()
        self._inflight = metrics.gauge(
            "p3_http_inflight",
            "Admitted requests currently executing.").labels()
        self._admitted = metrics.counter(
            "p3_http_admitted_total",
            "Requests given an admission slot.").labels()
        self._shed = metrics.counter(
            "p3_http_shed_total",
            "Requests rejected by admission control.", ("status",))

    # -- lifecycle ---------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return int(self._inflight.value())

    @property
    def queued(self) -> int:
        return int(self._queued.value())

    def begin_drain(self) -> None:
        """Close the door: every new request is shed with 503.

        In-flight (and already-queued) requests keep their slots and run
        to completion; the service's drain loop watches ``inflight``
        reach zero.  Idempotent.
        """
        self._draining = True

    # -- checks ------------------------------------------------------

    def check_breakers(self, tenant: Any) -> None:
        """Fast-fail with 503 when no ladder rung could possibly answer.

        A single open breaker is fine — that is what the fallback ladder
        is for.  Only when *every* rung is open is the tenant incapable
        of answering, and admitting the request would just burn a slot.
        """
        board = tenant.executor.breaker_board
        ladder = tenant.executor.fallback_ladder
        if board is None or ladder is None:
            return
        from ..resilience.breaker import OPEN
        states = [board.breaker(rung.method).state for rung in ladder.rungs]
        if states and all(state == OPEN for state in states):
            self._shed.inc(status="503")
            raise AdmissionError(
                503,
                "All inference backends for tenant %r have open circuit "
                "breakers" % tenant.name,
                retry_after=board.policy.cooldown_seconds)

    @contextlib.asynccontextmanager
    async def admit(self, tenant: Optional[Any] = None) -> AsyncIterator[None]:
        """Hold one admission slot for the duration of the request."""
        if self._draining:
            self._shed.inc(status="503")
            raise AdmissionError(
                503, "Service is draining for shutdown",
                retry_after=self.retry_after_seconds)
        if tenant is not None:
            if (self.max_tenant_inflight is not None
                    and tenant.inflight >= self.max_tenant_inflight):
                self._shed.inc(status="429")
                raise AdmissionError(
                    429,
                    "Tenant %r already has %d requests in flight"
                    % (tenant.name, tenant.inflight),
                    retry_after=self.retry_after_seconds)
            self.check_breakers(tenant)
        if self._slots.locked() and self.queued >= self.max_queue:
            self._shed.inc(status="429")
            raise AdmissionError(
                429,
                "Service at capacity (%d executing, %d queued)"
                % (self.inflight, self.queued),
                retry_after=self.retry_after_seconds)
        self._queued.inc()
        try:
            await self._slots.acquire()
        finally:
            self._queued.inc(-1)
        self._inflight.inc()
        self._admitted.inc()
        if tenant is not None:
            tenant.inflight += 1
        try:
            yield
        finally:
            self._inflight.inc(-1)
            if tenant is not None:
                tenant.inflight -= 1
            self._slots.release()

    def snapshot(self) -> Dict[str, Any]:
        """Current pressure, for ``/healthz`` and tests."""
        return {
            "max_concurrent": self.max_concurrent,
            "max_queue": self.max_queue,
            "inflight": self.inflight,
            "queued": self.queued,
            "admitted_total": int(self._admitted.value()),
            "rejected_total": int(sum(self._shed.values().values())),
            "draining": self._draining,
        }
