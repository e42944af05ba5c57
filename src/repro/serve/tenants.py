"""Resident multi-tenant program registry for the provenance service.

One :class:`Tenant` is one evaluated :class:`~repro.core.system.P3`
(program, provenance graph, probability map) plus its long-lived
:class:`~repro.exec.QueryExecutor` — shared caches, breaker board, and
fallback ladder included — kept resident across requests, the way the
resident-engine ProbLog architecture keeps compiled programs warm
between queries.  The :class:`TenantRegistry` maps names to tenants and
loads programs from files or POSTed source.

Concurrency model
-----------------
Queries on one tenant run concurrently (the executor is thread-safe and
its epoch-tagged caches make post-update reads correct), but a live
update grows the provenance graph *in place* — a reader iterating the
graph mid-growth could observe a torn structure.  Each tenant therefore
holds a read/write lock: query batches take the shared side, updates the
exclusive side.  Writers wait for in-flight readers (no preference —
acceptable at service scale; a starving update surfaces as latency on
``POST /tenants/{name}/facts``, never as corruption).
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.config import P3Config
from ..core.errors import P3Error
from ..core.system import P3

__all__ = [
    "Tenant",
    "TenantRegistry",
    "TenantExistsError",
    "TenantLimitError",
    "UnknownTenantError",
]

#: Tenant names are path segments in URLs; keep them boring.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: Per-tenant config fields a POSTed tenant definition may override.
_CONFIG_OVERRIDE_FIELDS = (
    "probability_method", "samples", "seed", "hop_limit", "query_timeout",
    "grounding", "isolation", "isolation_workers", "worker_memory_bytes",
)


class UnknownTenantError(P3Error, KeyError):
    """No tenant registered under this name (HTTP 404)."""

    def __init__(self, name: str) -> None:
        super().__init__("Unknown tenant %r" % name)
        self.name = name


class TenantExistsError(P3Error, ValueError):
    """A tenant with this name is already resident (HTTP 409)."""

    def __init__(self, name: str) -> None:
        super().__init__("Tenant %r already exists" % name)
        self.name = name


class TenantLimitError(P3Error, ValueError):
    """The registry is full (HTTP 409)."""

    def __init__(self, limit: int) -> None:
        super().__init__("Tenant limit reached (%d resident)" % limit)
        self.limit = limit


class _ReadWriteLock:
    """Shared/exclusive lock: many readers or one writer."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class Tenant:
    """One resident evaluated program plus its warm executor."""

    def __init__(self, name: str, system: P3) -> None:
        self.name = name
        self.system = system
        self._executor = system.executor()
        self.created_monotonic = time.monotonic()
        self._rw = _ReadWriteLock()
        self._counter_lock = threading.Lock()
        self.queries = 0
        self.updates = 0
        #: In-flight requests currently holding an admission slot for
        #: this tenant (maintained by the admission controller).
        self.inflight = 0

    @property
    def executor(self) -> Any:
        """The tenant's shared executor, fixed when the tenant was built.

        Admission's breaker check and the stats envelopes read it without
        the tenant lock, so it must not go through :meth:`P3.executor`:
        while a warm-started tenant re-evaluates during its first update,
        that raises :class:`~repro.core.errors.NotEvaluatedError`.  The
        executor object itself outlives every update.
        """
        return self._executor

    def run_batch(self, specs: List[object]) -> Any:
        """Answer one batch under the shared (reader) side of the lock."""
        with self._rw.read():
            batch = self._executor.run(specs)
        with self._counter_lock:
            self.queries += len(specs)
        return batch

    def add_facts(self, facts: object) -> Tuple[Optional[Any], int]:
        """Apply a live update exclusively; returns (delta, new epoch).

        Goes through :meth:`P3.add_facts`, so the epoch bump invalidates
        every executor cache entry computed before the mutation.
        """
        with self._rw.write():
            delta = self.system.add_facts(facts)
            epoch = self.system.epoch
        with self._counter_lock:
            self.updates += 1
        return delta, epoch

    def close(self) -> None:
        self._executor.close()
        store = self.system.store
        if store is not None:
            self.system.detach_store()
            store.close()

    def __repr__(self) -> str:
        return "Tenant(%r, epoch=%d, %d queries)" % (
            self.name, self.system.epoch, self.queries)


def default_tenant_config() -> P3Config:
    """The service-side default: resilience on, so every tenant gets the
    fallback ladder and per-backend breakers, and a 30 s per-query
    deadline, so a wedged query ends as a typed timeout instead of
    stalling its batch."""
    from ..resilience import ResilienceConfig
    return P3Config(query_timeout=30.0, resilience=ResilienceConfig())


class TenantRegistry:
    """Named resident tenants, loaded from files or POSTed source."""

    def __init__(self, base_config: Optional[P3Config] = None,
                 max_tenants: int = 32) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be positive")
        self._base_config = base_config
        self._max_tenants = max_tenants
        self._lock = threading.Lock()
        self._tenants: Dict[str, Tenant] = {}

    def _config(self, overrides: Optional[Dict[str, Any]]) -> P3Config:
        config = (self._base_config if self._base_config is not None
                  else default_tenant_config())
        if overrides:
            unknown = set(overrides) - set(_CONFIG_OVERRIDE_FIELDS)
            if unknown:
                raise ValueError(
                    "Unknown tenant config fields: %s"
                    % ", ".join(sorted(str(key) for key in unknown)))
            config = config.replace(**overrides)
        return config

    def create(self, name: str,
               source: Optional[str] = None,
               path: Optional[str] = None,
               store: Optional[str] = None,
               persist: bool = False,
               config_overrides: Optional[Dict[str, Any]] = None) -> Tenant:
        """Load, evaluate (or warm-start), and register one tenant.

        Exactly one of ``source`` (program text), ``path`` (program
        file), and ``store`` (provenance store file) must be given.  The
        first two evaluate the program before the tenant becomes
        visible; ``store`` warm-starts from persisted provenance, so the
        tenant answers without re-running the fixpoint.
        ``persist=True`` keeps a store-backed tenant attached, so every
        live update appends a new epoch to the store.
        """
        if not _NAME_PATTERN.match(name or ""):
            raise ValueError(
                "Invalid tenant name %r (want 1-64 chars of "
                "[A-Za-z0-9_.-])" % name)
        sources = [("source", source), ("path", path), ("store", store)]
        given = [field for field, value in sources if value is not None]
        if len(given) != 1:
            raise ValueError(
                "Exactly one of 'source', 'path', and 'store' must be "
                "provided (got: %s)"
                % (", ".join(given) or "none"))
        if persist and store is None:
            raise ValueError("'persist' requires a 'store' source")
        with self._lock:
            # Reserve the name first: evaluation can be slow and two
            # concurrent creates must not both run it.
            if name in self._tenants:
                raise TenantExistsError(name)
            if len(self._tenants) >= self._max_tenants:
                raise TenantLimitError(self._max_tenants)
            self._tenants[name] = None  # type: ignore[assignment]
        try:
            config = self._config(config_overrides)
            if source is not None:
                system = P3.from_source(source, config=config)
                system.evaluate()
            elif path is not None:
                system = P3.from_file(path, config=config)
                system.evaluate()
            else:
                system = P3.from_store(store, config=config,
                                       attach=persist)
            tenant = Tenant(name, system)  # builds the warm executor
        except BaseException:
            with self._lock:
                self._tenants.pop(name, None)
            raise
        with self._lock:
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:  # absent, or still mid-create
            raise UnknownTenantError(name)
        return tenant

    def remove(self, name: str) -> None:
        with self._lock:
            tenant = self._tenants.pop(name, None)
        if tenant is None:
            raise UnknownTenantError(name)
        tenant.close()

    def names(self) -> List[str]:
        with self._lock:
            return sorted(name for name, tenant in self._tenants.items()
                          if tenant is not None)

    def tenants(self) -> List[Tenant]:
        """The resident tenants by name (one still loading is left out)."""
        with self._lock:
            return [tenant for _, tenant in sorted(self._tenants.items())
                    if tenant is not None]

    def close(self) -> None:
        with self._lock:
            tenants = [t for t in self._tenants.values() if t is not None]
            self._tenants.clear()
        for tenant in tenants:
            tenant.close()

    def sync_stores(self) -> None:
        """Detach and close every store-attached tenant's store, only.

        The force-shutdown path: a drain timed out, so executors may
        still be wedged mid-query and cannot be joined.  Queries never
        write to the store (only updates do, and those finish inside
        their admission slot), so syncing just the durable side is safe;
        the caller is expected to hard-exit immediately afterwards.
        """
        with self._lock:
            tenants = [t for t in self._tenants.values() if t is not None]
        for tenant in tenants:
            store = tenant.system.store
            if store is not None:
                tenant.system.detach_store()
                store.close()

    def __len__(self) -> int:
        return len(self.names())

    def __repr__(self) -> str:
        return "TenantRegistry(%d tenants)" % len(self)
