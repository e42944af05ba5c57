"""HTTP/JSON envelopes for the provenance service.

Every response body the service emits is one of the versioned envelopes
below — including errors, which reuse the CLI's structured error
envelope (:func:`repro.io.serialize.error_to_json`) so a scripted client
of ``p3 serve`` parses the same shapes as a scripted caller of the CLI.
Query responses embed :meth:`repro.exec.executor.BatchResult.to_dict`
*unchanged*: the per-outcome documents are exactly the library's
``QueryResult`` envelopes, with the tenant name and post-batch epoch
added around them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..io.serialize import (
    FORMAT_VERSION,
    error_to_json,
    evaluation_result_to_json,
)

__all__ = [
    "batch_envelope",
    "error_envelope",
    "health_envelope",
    "tenant_envelope",
    "tenants_envelope",
    "update_envelope",
]


def batch_envelope(tenant: str, epoch: int, batch: Any) -> dict:
    """One answered batch: the existing ``BatchResult`` document plus
    the tenant identity and the epoch the answers are valid for."""
    return {
        "version": FORMAT_VERSION,
        "kind": "batch_result",
        "tenant": tenant,
        "epoch": epoch,
        "result": batch.to_dict(),
    }


def update_envelope(tenant: str, epoch: int, delta: Optional[Any]) -> dict:
    """One applied live update (``P3.add_facts`` through HTTP).

    ``delta`` is the incremental :class:`EvaluationResult` (None when the
    system had not been evaluated yet and the facts simply joined the
    program).
    """
    document: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "update",
        "tenant": tenant,
        "epoch": epoch,
    }
    if delta is not None:
        document["delta"] = evaluation_result_to_json(delta)
    return document


def error_envelope(error: BaseException) -> dict:
    """The CLI's structured error envelope, shared verbatim."""
    return error_to_json(error)


def tenant_envelope(tenant: Any) -> dict:
    """One tenant's identity, epoch, and executor statistics."""
    return {
        "version": FORMAT_VERSION,
        "kind": "tenant_stats",
        "tenant": tenant.name,
        "epoch": tenant.system.epoch,
        "queries": tenant.queries,
        "updates": tenant.updates,
        "stats": tenant.executor.stats(),
        "breakers": (tenant.executor.breaker_board.to_dict()
                     if tenant.executor.breaker_board is not None else None),
    }


def tenants_envelope(registry: Any) -> dict:
    """The tenant listing (names and epochs only — stats are per-tenant)."""
    tenants = [{
        "name": tenant.name,
        "epoch": tenant.system.epoch,
        "queries": tenant.queries,
        "updates": tenant.updates,
    } for tenant in registry.tenants()]
    return {
        "version": FORMAT_VERSION,
        "kind": "tenant_list",
        "tenants": tenants,
    }


def health_envelope(registry: Any, uptime_seconds: float,
                    admission: Any,
                    abandoned_threshold: Optional[int] = None) -> dict:
    """The ``/healthz`` document: readiness plus admission pressure.

    ``status`` is ``"ok"``, ``"degraded"`` (wedged deadline-runner
    threads across all tenants reached ``abandoned_threshold`` — the
    process is leaking unkillable threads and should be rotated), or
    ``"draining"`` (shutdown in progress; new work is shed with 503).
    Isolation worker-pool counters are aggregated across tenants when
    any tenant has spawned one.
    """
    abandoned_live = 0
    workers: Dict[str, int] = {}
    tenants = registry.tenants()
    for tenant in tenants:
        abandoned_live += (
            tenant.executor.deadline_runner_stats()["abandoned_live"])
        pool = tenant.executor.process_pool
        if pool is not None:
            for field, value in pool.stats().items():
                workers[field] = workers.get(field, 0) + value
    degraded = (abandoned_threshold is not None
                and abandoned_live >= abandoned_threshold)
    if getattr(admission, "draining", False):
        status = "draining"
    elif degraded:
        status = "degraded"
    else:
        status = "ok"
    document = {
        "version": FORMAT_VERSION,
        "kind": "health",
        "status": status,
        "uptime_seconds": round(uptime_seconds, 3),
        "tenants": len(tenants),
        "admission": admission.snapshot(),
        "deadline_threads": {
            "abandoned_live": abandoned_live,
            "degraded_threshold": abandoned_threshold,
        },
    }
    if workers:
        document["isolation_workers"] = workers
    return document
