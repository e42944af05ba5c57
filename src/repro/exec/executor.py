"""The batch query executor: shared caches over one evaluated system.

:class:`QueryExecutor` answers batches of :class:`~repro.exec.specs.QuerySpec`
over one evaluated :class:`~repro.core.system.P3` instance.  It is the
only implementation of each query kind: every ``P3`` query method builds
one spec and calls :meth:`QueryExecutor.execute`.  Two mechanisms share
work between queries:

1. **Shared bounded caches.**  A polynomial LRU keyed on
   ``(tuple key, hop_limit)`` sits over extraction, and a result LRU keyed
   on the spec's canonical identity — for plain probabilities that is
   ``(tuple key, hop_limit, method, samples, seed)`` — sits over
   inference.  Repeated queries, and different query kinds over the same
   tuple, reuse each other's work.

2. **Deduplication.**  Identical specs in one batch are answered once.

Distinct specs run in input order on the calling thread.  Work leaves
that thread in exactly two ways:

- a spec with a deadline (its ``timeout`` parameter, or
  ``config.query_timeout``) runs on a reusable deadline-runner thread
  (:class:`~repro.resilience.runners.DeadlineRunnerPool`), so the caller
  can stop waiting when the deadline passes; a fallback rung with its
  own ``timeout`` runs there too;
- under ``isolation="process"`` backend calls run on the subprocess
  workers of :class:`~repro.resilience.isolation.ProcessWorkerPool`,
  which are killed instead of abandoned when they wedge.

Every backend call — plain probabilities, each fallback rung, and the
partial answer for a blown budget — goes through one method,
:meth:`QueryExecutor._call`, and a reading becomes an answer by one rule
(:attr:`~repro.inference.registry.BackendReading.answer`).

Stochastic backends derive a per-spec seed from the configured seed and
the spec identity, so batch results are reproducible and independent
across queries.

Two safety mechanisms keep long-lived executors correct and responsive:

- **Epoch-based invalidation.**  Every cache entry is tagged with the
  system epoch (:attr:`repro.core.system.P3.epoch`) it was computed
  under.  A live update (``P3.add_facts``) bumps the epoch, so stale
  polynomials and probabilities are treated as misses and evicted on next
  access — the executor can never serve results from before a mutation.
  :meth:`QueryExecutor.stats` reports the eviction count as
  ``invalidations``.

- **Per-query deadlines.**  A spec's deadline bounds one query's
  wall-clock; exceeding it produces a
  :class:`~repro.core.errors.QueryTimeoutError` outcome while the rest of
  the batch completes.  This is also what stops a wedged backend from
  stalling a batch.

The executor is safe to share between threads (the service runs
concurrent batches on one tenant's executor).  Results come back as a
:class:`BatchResult` of :class:`QueryOutcome` entries in input order;
:meth:`QueryExecutor.stats` — per-stage timings, query counters, cache
hit rates — is a view of :attr:`QueryExecutor.metrics`, the one store of
the executor's counts, shared with its caches, pools and breakers.
"""

from __future__ import annotations

import contextlib
import threading
import time
import zlib
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from .. import telemetry
from ..core.errors import (
    BudgetExceededError,
    QueryTimeoutError,
    UnknownTupleError,
)
from ..inference.registry import BackendReading, is_deterministic
from ..inference.request import InferenceRequest
from ..provenance.extraction import extract_polynomial
from ..provenance.polynomial import Polynomial
from ..resilience.budgets import activate_budget, active_meter
from ..resilience.ladder import call_backend
from ..resilience.runners import DeadlineRunnerPool
from ..telemetry.metrics import MetricsRegistry
from .cache import LRUCache
from .specs import KINDS, QuerySpec

#: Pipeline stages with dedicated timing slots in ``stats()["stages"]``.
#: ``parse`` and ``evaluate`` are recorded by whoever builds the system
#: (the CLI does); ``extract``/``infer`` are recorded inside the executor;
#: ``query`` is the end-to-end time of one spec; ``update`` is incremental
#: fact propagation (:meth:`repro.core.system.P3.add_facts`).
STAGES = ("parse", "evaluate", "update", "extract", "infer", "query")


class QueryOutcome:
    """Result of one spec: the answer, or an error, plus timing.

    ``resilience`` (a :class:`~repro.resilience.ladder.ResilienceRecord`,
    or None) is present when a fallback ladder answered — or failed to
    answer — this spec; it names the rung that answered, the attempts
    made, and any accuracy downgrade.

    ``partial`` marks a sound degraded answer: a resource budget blew
    mid-extraction, and ``value`` is the probability of the partial
    polynomial the budget error carried — an under-approximation of the
    true answer, not the exact one.  Serialized as ``"partial": true`` so
    service clients can distinguish it from a full answer.
    """

    __slots__ = ("spec", "value", "error", "exception", "seconds", "cached",
                 "resilience", "partial")

    def __init__(self, spec: QuerySpec, value: Any = None,
                 error: Optional[str] = None,
                 exception: Optional[BaseException] = None,
                 seconds: float = 0.0,
                 cached: bool = False,
                 resilience: Optional[Any] = None,
                 partial: bool = False) -> None:
        self.spec = spec
        self.value = value
        self.error = error
        self.exception = exception
        self.seconds = seconds
        self.cached = cached
        self.resilience = resilience
        self.partial = partial

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        document: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "seconds": self.seconds,
            "cached": self.cached,
        }
        if self.error is not None:
            document["error"] = self.error
        else:
            value = self.value
            document["value"] = (value.to_dict()
                                 if hasattr(value, "to_dict") else value)
        if self.partial:
            document["partial"] = True
        if self.resilience is not None:
            document["resilience"] = self.resilience.to_dict()
        return document

    def __repr__(self) -> str:
        if self.error is not None:
            return "QueryOutcome(%r, error=%r)" % (self.spec, self.error)
        return "QueryOutcome(%r, %r)" % (self.spec, self.value)


class BatchResult:
    """Outcomes of one batch, in input order."""

    def __init__(self, outcomes: Sequence[QueryOutcome],
                 seconds: float) -> None:
        self.outcomes = tuple(outcomes)
        self.seconds = seconds

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[QueryOutcome]:
        return iter(self.outcomes)

    def __getitem__(self, index: int) -> QueryOutcome:
        return self.outcomes[index]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def values(self) -> List[Any]:
        """The answers in input order (None where a query errored)."""
        return [outcome.value for outcome in self.outcomes]

    def errors(self) -> List[Tuple[QuerySpec, str]]:
        return [(outcome.spec, outcome.error)
                for outcome in self.outcomes if outcome.error is not None]

    def to_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def __repr__(self) -> str:
        failed = sum(1 for outcome in self.outcomes if not outcome.ok)
        return "BatchResult(%d outcomes, %d failed, %.3fs)" % (
            len(self.outcomes), failed, self.seconds)


class QueryExecutor:
    """Answer batches of provenance queries over one evaluated system.

    Parameters
    ----------
    system:
        A :class:`~repro.core.system.P3` instance; evaluated on demand if
        it is not already.
    polynomial_cache_size / result_cache_size:
        LRU bounds (default from the system config); ``None`` = unbounded.
    """

    def __init__(self, system: "Any",  # P3; untyped to avoid import cycle
                 polynomial_cache_size: Optional[int] = None,
                 result_cache_size: Optional[int] = None) -> None:
        config = system.config
        if polynomial_cache_size is None:
            polynomial_cache_size = getattr(
                config, "polynomial_cache_size", 2048)
        if result_cache_size is None:
            result_cache_size = getattr(config, "result_cache_size", 8192)
        self.system = system
        #: The one store of this executor's counts (see :meth:`stats`).
        self.metrics = metrics = MetricsRegistry()
        self._stage_seconds = metrics.histogram(
            "p3_stage_seconds",
            help="Wall-clock seconds per pipeline stage call",
            labelnames=("stage",))
        self._stages = {stage: self._stage_seconds.labels(stage=stage)
                        for stage in STAGES}
        queries = metrics.counter(
            "p3_queries_total", help="Queries answered, by kind",
            labelnames=("kind",))
        self._queries = {kind: queries.labels(kind=kind) for kind in KINDS}
        self._errors = metrics.counter(
            "p3_query_errors_total",
            help="Queries that ended in an error outcome").labels()
        self._batches = metrics.counter(
            "p3_batches_total", help="Executor batches run").labels()
        self._deduplicated = metrics.counter(
            "p3_deduplicated_total",
            help="Duplicate specs collapsed before execution").labels()
        self._polynomials = LRUCache(
            polynomial_cache_size, metrics, "polynomial")
        self._results = LRUCache(result_cache_size, metrics, "probability")
        self._deadline_runners = DeadlineRunnerPool(metrics=metrics)
        # Process isolation: where backend calls execute.  "auto" means
        # subprocess workers wherever the platform supports hard kill
        # (POSIX), threads elsewhere.  The worker pool itself is spawned
        # lazily — a worker costs an interpreter boot — and only when a
        # process-isolated call actually happens.
        isolation = getattr(config, "isolation", None) or "thread"
        if isolation == "auto":
            from ..resilience.isolation import process_isolation_supported
            isolation = ("process" if process_isolation_supported()
                         else "thread")
        self.isolation = isolation
        self._process_pool: Optional[Any] = None
        self._process_pool_lock = threading.Lock()
        # Resilience wiring: one breaker board and one ladder shared by
        # every query this executor answers, so failure history crosses
        # specs within (and across) batches.
        self._resilience = getattr(config, "resilience", None)
        if self._resilience is not None:
            self._breakers = self._resilience.build_board(metrics)
            self._ladder = self._resilience.build_ladder(
                self._breakers, call=self._call)
        else:
            self._breakers = None
            self._ladder = None
        # Per-thread scratch for the in-flight query's absolute deadline
        # and resilience record (each calling thread and deadline runner
        # sees its own).
        self._tl = threading.local()
        if not system.evaluated:
            with self.time_stage("evaluate"):
                system.evaluate()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pools down (the caches stay usable)."""
        self._deadline_runners.shutdown()
        with self._process_pool_lock:
            pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.close()

    # -- process isolation --------------------------------------------------------

    def _acquire_process_pool(self) -> "Any":
        with self._process_pool_lock:
            if self._process_pool is None:
                from ..resilience.isolation import ProcessWorkerPool
                config = self.system.config
                self._process_pool = ProcessWorkerPool(
                    workers=getattr(config, "isolation_workers", None) or 2,
                    memory_limit_bytes=getattr(
                        config, "worker_memory_bytes", None),
                    metrics=self.metrics)
            return self._process_pool

    @property
    def process_pool(self) -> "Optional[Any]":
        """The isolation worker pool, if one has been spawned."""
        return self._process_pool

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- configuration resolution --------------------------------------------------

    def _resolve_hop(self, hop_limit: Optional[int]) -> Optional[int]:
        if hop_limit is not None:
            return hop_limit
        return self.system.config.hop_limit

    def _resolve_method(self, kind: str, method: Optional[str]) -> str:
        config = self.system.config
        if method is not None:
            return method
        if kind == "influence":
            return config.influence_method
        if kind == "derive":
            return config.derivation_method
        return config.probability_method

    def _resolve_seed(self, seed: Optional[int]) -> Optional[int]:
        """Config fallback for seeds.

        An explicit ``seed=None`` and an absent seed mean the same thing
        ("use the configured seed"), so every execution path must resolve
        through here — resolving differently per path made explicit-None
        specs silently non-reproducible.
        """
        if seed is None:
            return self.system.config.seed
        return seed

    def _resolve_samples(self, samples: Optional[int]) -> int:
        if samples is None:
            return self.system.config.samples
        return samples

    def _resolve_timeout(self, spec: QuerySpec) -> Optional[float]:
        timeout = spec.params.get("timeout")
        if timeout is None:
            return getattr(self.system.config, "query_timeout", None)
        return timeout

    def _current_epoch(self) -> int:
        return getattr(self.system, "epoch", 0)

    # -- stage timing --------------------------------------------------------------

    def record_stage(self, stage: str, seconds: float) -> None:
        """Add one timed call of ``stage`` to ``p3_stage_seconds``."""
        series = self._stages.get(stage)
        (series or self._stage_seconds.labels(stage=stage)).observe(seconds)

    @contextlib.contextmanager
    def time_stage(self, stage: str, span: bool = True) -> Iterator[None]:
        """Time one call of ``stage``, as a span named after it unless
        ``span`` is False."""
        start = time.perf_counter()
        with (telemetry.runtime().tracer.span(stage) if span
              else contextlib.nullcontext()):
            try:
                yield
            finally:
                self.record_stage(stage, time.perf_counter() - start)

    # -- cached building blocks -----------------------------------------------------

    def _provenance_graph(self, key: str,
                          hop_limit: Optional[int] = None):
        """The system graph, grounded for ``key`` when a planner is active.

        Under ``config.grounding='query'|'auto'`` the system grounds the
        goal on demand before extraction — only as deep as ``hop_limit``
        reaches, when one is given; systems without the hook — and
        fully-evaluated ones — return their graph unchanged.
        """
        ensure = getattr(self.system, "provenance_for", None)
        if ensure is not None:
            return ensure(key, hop_limit)
        return self.system.graph

    def polynomial(self, key: str,
                   hop_limit: Optional[int] = None) -> Polynomial:
        """Extract (through the shared LRU) the provenance polynomial."""
        limit = self._resolve_hop(hop_limit)
        epoch = self._current_epoch()
        cache_key = (key, limit)
        cached = self._polynomials.get(cache_key, epoch=epoch)
        if cached is not None:
            return cached
        graph = self._provenance_graph(key, limit)
        if key not in graph:
            raise UnknownTupleError(key)
        with self.time_stage("extract"):
            polynomial = extract_polynomial(
                graph, key, hop_limit=limit,
                max_monomials=self.system.config.max_monomials)
        self._polynomials.put(cache_key, polynomial, epoch=epoch)
        return polynomial

    def prime_polynomial(self, key: str, hop_limit: Optional[int],
                         polynomial: Polynomial) -> None:
        """Seed the polynomial LRU with an externally computed polynomial.

        Used by warm-start restores (:mod:`repro.store`): polynomials
        persisted alongside a snapshot are loaded straight into the
        cache, tagged with the *current* system epoch, so the first
        queries after a restore skip extraction entirely.  The hop limit
        resolves through the config exactly like :meth:`polynomial`, so
        a primed entry and the equivalent live extraction share one key.
        """
        limit = self._resolve_hop(hop_limit)
        self._polynomials.put(
            (key, limit), polynomial, epoch=self._current_epoch())

    def probability(self, key: str,
                    method: Optional[str] = None,
                    hop_limit: Optional[int] = None,
                    samples: Optional[int] = None,
                    seed: Optional[int] = None) -> float:
        """Cached success probability P[key].

        The cache key is ``(key, hop_limit, method, samples, seed)`` with
        the sampling fields collapsed for deterministic methods, so an
        exact query repeated with different budgets still hits.
        """
        return self._probability(key, method, hop_limit, samples, seed)[0]

    def _probability(self, key: str, method: Optional[str],
                     hop_limit: Optional[int], samples: Optional[int],
                     seed: Optional[int]) -> Tuple[float, bool]:
        """(P[key], was it a result-cache hit)."""
        self._queries["probability"].inc()
        method = self._resolve_method("probability", method)
        limit = self._resolve_hop(hop_limit)
        samples = self._resolve_samples(samples)
        seed = self._resolve_seed(seed)
        # Deterministic backends (per the inference registry) ignore the
        # sample budget and seed, so their cache identity collapses those
        # fields: an exact query repeated with different budgets still hits.
        if is_deterministic(method):
            cache_key = (key, limit, method, None, None)
        else:
            cache_key = (key, limit, method, samples, seed)

        def compute() -> float:
            with self._budget_scope():
                polynomial = self.polynomial(key, hop_limit=limit)
                with self.time_stage("infer"):
                    return self._infer(method, polynomial,
                                       self._request(key, samples, seed))

        return self._cached(cache_key, compute)

    def _request(self, key: str, samples: Optional[int],
                 seed: Optional[int]) -> InferenceRequest:
        """The inference request for ``key``.

        The thread-local deadline rides on the request, so the sampling
        kernel can truncate draws and a process worker is killed no later
        than the query would have timed out.
        """
        return InferenceRequest(
            samples=self._resolve_samples(samples),
            seed=_mix_seed(self._resolve_seed(seed), key),
            deadline=getattr(self._tl, "deadline", None))

    def _infer(self, method: str, polynomial: Polynomial,
               request: InferenceRequest) -> float:
        """P[λ] through the fallback ladder (its record goes to the
        thread-local scratch) or, without one, as one backend call."""
        if self._ladder is None:
            reading = self._call(
                method, polynomial, self.system.probabilities, request)
        else:
            reading, self._tl.record = self._ladder.run(
                polynomial, self.system.probabilities, request=request,
                requested=method, deadline=request.deadline)
        return reading.answer

    def _call(self, method: str, polynomial: Polynomial, probabilities: Any,
              request: InferenceRequest,
              timeout: Optional[float] = None) -> BackendReading:
        """Run one backend call: the one route every P[λ] takes.

        The ladder runs each rung through here too, with the rung's own
        ``timeout``.  Under process isolation the call runs on a
        subprocess worker, which is SIGKILLed past the tighter of
        ``timeout`` and ``request.deadline`` (the query deadline).  Under
        thread isolation it runs inline, or on the deadline-runner pool
        when ``timeout`` is given.
        """
        if self.isolation == "process":
            return self._acquire_process_pool().submit(
                method, polynomial, probabilities, request, timeout=timeout)
        return call_backend(self._deadline_runners, method, polynomial,
                            probabilities, request, timeout)

    def _cached(self, cache_key: Any,
                compute: Callable[[], Any]) -> Tuple[Any, bool]:
        """(answer, was it a hit) through the result cache.

        Every entry is ``(answer, resilience record)``.  A hit puts its
        record back in the thread-local scratch, so a cached fallback
        answer still names the rung that answered and its standard error.
        """
        epoch = self._current_epoch()
        entry = self._results.get(cache_key, epoch=epoch)
        if entry is not None:
            value, self._tl.record = entry
            return value, True
        self._tl.record = None
        value = compute()
        self._results.put(cache_key, (value, self._tl.record), epoch=epoch)
        return value, False

    def _budget_scope(self):
        """Activate the configured resource budget, unless one already is.

        The no-double-activation guard matters because ``probability()``
        is reached both directly and through ``_execute_cached`` (which
        activates for every query kind); re-activating would hand the
        inner scope a fresh meter and zero the visit counters mid-query.
        """
        rc = self._resilience
        if rc is None or rc.budget is None or active_meter() is not None:
            return contextlib.nullcontext()
        return activate_budget(rc.budget)

    # -- batch execution -------------------------------------------------------------

    def run(self, specs: Sequence[object]) -> BatchResult:
        """Answer a batch of specs (QuerySpec / dict / bare key strings).

        Distinct specs are answered in input order on the calling thread;
        duplicates are answered once.  Errors are captured per-outcome
        (``outcome.error``), never raised out of the batch.
        """
        started = time.perf_counter()
        coerced = [QuerySpec.coerce(spec) for spec in specs]
        distinct: "Dict[Any, QuerySpec]" = {}
        for spec in coerced:
            distinct.setdefault(spec.cache_identity(), spec)
        self._batches.inc()
        if len(coerced) > len(distinct):
            self._deduplicated.inc(len(coerced) - len(distinct))

        unique = list(distinct.values())
        with telemetry.runtime().tracer.span(
                "batch", size=len(coerced), distinct=len(unique)):
            computed = [self._run_one(spec) for spec in unique]
        by_identity = {
            spec.cache_identity(): outcome
            for spec, outcome in zip(unique, computed)
        }
        outcomes = [by_identity[spec.cache_identity()] for spec in coerced]
        return BatchResult(outcomes, time.perf_counter() - started)

    def execute(self, spec: object) -> Any:
        """Answer a single spec, raising on error.

        Non-probability results are cached under the spec's canonical
        identity; probability specs cache inside :meth:`probability` on
        the normalised ``(key, hop, method, samples, seed)`` key.  The
        spec's deadline (or ``config.query_timeout``) applies: exceeding
        it raises :class:`~repro.core.errors.QueryTimeoutError`.
        """
        coerced = QuerySpec.coerce(spec)
        with telemetry.runtime().tracer.span(
                "query", kind=coerced.kind, key=coerced.key) as span:
            value, cached = self._answer(coerced)
            span.set_attribute("cached", cached)
        return value

    def _answer(self, spec: QuerySpec) -> Tuple[Any, bool]:
        """(answer, was it a result-cache hit), under the spec's deadline;
        called inside the spec's one ``query`` span."""
        timeout = self._resolve_timeout(spec)
        if timeout is not None:
            return self._execute_with_deadline(spec, timeout)
        return self._execute_cached(spec)

    def _execute_cached(self, spec: QuerySpec) -> Tuple[Any, bool]:
        """(answer, was it a result-cache hit); the answer's resilience
        record is left in the thread-local scratch."""
        params = spec.params
        if spec.kind == "probability":
            with self.time_stage("query", span=False):
                return self._probability(
                    spec.key, params.get("method"), params.get("hop_limit"),
                    params.get("samples"), params.get("seed"))
        self._queries[spec.kind].inc()

        def compute() -> Any:
            with self.time_stage("query", span=False), self._budget_scope():
                return self._execute(spec)

        return self._cached(spec.cache_identity(), compute)

    def _run_one(self, spec: QuerySpec) -> QueryOutcome:
        started = time.perf_counter()
        self._tl.record = None
        with telemetry.runtime().tracer.span(
                "query", kind=spec.kind, key=spec.key) as span:
            try:
                value, cached = self._answer(spec)
            except Exception as exc:  # noqa: BLE001 — reported per-outcome
                record = getattr(exc, "record", None) \
                    or getattr(self._tl, "record", None)
                # A blown budget that carries sound partial progress is
                # degraded, not failed: answer with the probability of
                # the partial polynomial and an explicit marker.
                partial_value = self._partial_probability(spec, exc)
                if partial_value is not None:
                    span.set_attribute("partial", True)
                    return QueryOutcome(
                        spec, value=partial_value, partial=True,
                        seconds=time.perf_counter() - started,
                        resilience=record)
                self._errors.inc()
                span.set_attribute(
                    "error", "%s: %s" % (type(exc).__name__, exc))
                # A LadderExhaustedError carries the record of everything
                # that was tried; otherwise use whatever the ladder
                # stashed before the failure.
                return QueryOutcome(spec, error="%s: %s" % (
                    type(exc).__name__, exc), exception=exc,
                    seconds=time.perf_counter() - started,
                    resilience=record)
            span.set_attribute("cached", cached)
        return QueryOutcome(spec, value=value, cached=cached,
                            seconds=time.perf_counter() - started,
                            resilience=getattr(self._tl, "record", None))

    def _partial_probability(self, spec: QuerySpec,
                             exc: BaseException) -> Optional[float]:
        """The sound degraded answer for a blown budget, if one exists.

        Extraction attaches the last consistent intermediate polynomial
        to :class:`BudgetExceededError` — a monotone under-approximation
        of the true provenance, so its probability is a lower bound on
        the true answer.  Only probability specs degrade this way (other
        query kinds need the full polynomial's structure); any failure
        while scoring the partial falls back to the plain error outcome.
        """
        if spec.kind != "probability":
            return None
        if not isinstance(exc, BudgetExceededError):
            return None
        partial = getattr(exc, "partial", None)
        if not isinstance(partial, Polynomial):
            return None
        try:
            params = spec.params
            method = self._resolve_method(
                "probability", params.get("method"))
            request = self._request(
                spec.key, params.get("samples"), params.get("seed"))
            # No budget scope on purpose: the partial polynomial is the
            # bounded artifact the budget produced; metering its scoring
            # with the already-blown budget would fail tautologically.
            return self._call(method, partial, self.system.probabilities,
                              request).answer
        except Exception:  # noqa: BLE001 — degrade to the error outcome
            return None

    def _execute_with_deadline(self, spec: QuerySpec,
                               timeout: float) -> Tuple[Any, bool]:
        """Run one spec, raising :class:`QueryTimeoutError` past ``timeout``.

        The work runs on the deadline-runner pool while the calling thread
        waits at most ``timeout``.  On timeout the runner is abandoned —
        Python cannot interrupt it — but it can only finish by writing
        into the shared caches, which stays correct; abandoned runners are
        counted in ``stats()['pool']['deadline_runners']`` and rejoin the
        pool if their task eventually completes.
        """
        deadline = time.monotonic() + timeout
        carried: List[Any] = [None]

        def work() -> Tuple[Any, bool]:
            # Runner threads are reused, so reset the thread-local scratch
            # every task: publish the absolute deadline (the fallback
            # ladder skips rungs that no longer fit, the kernel truncates
            # draws) and carry the resilience record back to the caller.
            self._tl.deadline = deadline
            self._tl.record = None
            try:
                return self._execute_cached(spec)
            finally:
                carried[0] = self._tl.record
                self._tl.deadline = None

        try:
            return self._deadline_runners.call(
                work, timeout, lambda: QueryTimeoutError(spec.key, timeout))
        finally:
            self._tl.record = carried[0]

    # -- per-kind execution ------------------------------------------------------------

    def _execute(self, spec: QuerySpec) -> Any:
        if spec.kind == "conditional":
            return self._conditional(spec)
        if spec.kind == "explain":
            return self._explain(spec)
        if spec.kind == "derive":
            return self._derive(spec)
        if spec.kind == "influence":
            return self._influence(spec)
        if spec.kind == "modify":
            return self._modify(spec)
        raise ValueError("Unknown query kind %r" % spec.kind)

    def _conditional(self, spec: QuerySpec) -> float:
        """P[key | evidence]: the program's ``evidence(...)`` directives
        plus the spec's own observations (tuple key → observed truth)."""
        from ..queries.conditional import conditional_probability
        hop_limit = spec.params.get("hop_limit")
        observations = {str(atom): observed for atom, observed
                        in self.system.program.evidence}
        observations.update(spec.params.get("evidence", {}))
        target = self.polynomial(spec.key, hop_limit=hop_limit)
        positive = [self.polynomial(key, hop_limit=hop_limit)
                    for key in sorted(observations) if observations[key]]
        negative = [self.polynomial(key, hop_limit=hop_limit)
                    for key in sorted(observations) if not observations[key]]
        return conditional_probability(
            target, self.system.probabilities, positive, negative)

    def _explain(self, spec: QuerySpec) -> Any:
        from ..queries.explanation import Explanation
        params = spec.params
        limit = self._resolve_hop(params.get("hop_limit"))
        method = self._resolve_method("probability", params.get("method"))
        # The subgraph shows every execution within the limit, so the
        # goal is grounded unbounded before extraction reads it.
        graph = self._provenance_graph(spec.key)
        polynomial = self.polynomial(spec.key, hop_limit=limit)
        value = self.probability(
            spec.key, method=method, hop_limit=limit,
            samples=params.get("samples"), seed=params.get("seed"))
        subgraph = graph.reachable_subgraph(spec.key, hop_limit=limit)
        return Explanation(spec.key, polynomial, subgraph, value,
                           method, limit)

    def _derive(self, spec: QuerySpec) -> Any:
        from ..queries.derivation import derivation_query
        params = spec.params
        polynomial = self.polynomial(
            spec.key, hop_limit=params.get("hop_limit"))
        return derivation_query(
            polynomial, self.system.probabilities, params["epsilon"],
            method=self._resolve_method("derive", params.get("method")),
            samples=self._resolve_samples(params.get("samples")),
            seed=_mix_seed(self._resolve_seed(params.get("seed")), spec.key))

    def _influence(self, spec: QuerySpec) -> Any:
        params = spec.params
        kind_filter = params.get("kind_filter")
        relation = params.get("relation")
        if kind_filter is None and relation is None:
            from ..queries.influence import influence_query
            polynomial = self.polynomial(
                spec.key, hop_limit=params.get("hop_limit"))
            return influence_query(
                polynomial, self.system.probabilities,
                method=self._resolve_method("influence",
                                            params.get("method")),
                samples=self._resolve_samples(params.get("samples")),
                seed=_mix_seed(self._resolve_seed(params.get("seed")),
                               spec.key))
        # A filtered report is a view of the unfiltered one, which has its
        # own result-cache entry: every filtering of a report shares it.
        unfiltered = QuerySpec("influence", spec.key, {
            name: value for name, value in params.items()
            if name not in ("kind_filter", "relation")})
        report = self._cached(unfiltered.cache_identity(),
                              lambda: self._influence(unfiltered))[0]
        if kind_filter is not None:
            report = report.filter(lambda lit: lit.kind == kind_filter)
        if relation is not None:
            prefix = relation + "("
            report = report.filter(
                lambda lit: lit.is_tuple and lit.key.startswith(prefix))
        return report

    def _modify(self, spec: QuerySpec) -> Any:
        from ..queries.modification import modification_query
        params = spec.params
        polynomial = self.polynomial(
            spec.key, hop_limit=params.get("hop_limit"))
        if params.get("only_tuples") and params.get("only_rules"):
            # QuerySpec validates this too; re-check here so hand-built
            # specs cannot smuggle the contradiction through.
            raise ValueError(
                "only_tuples and only_rules are mutually exclusive: "
                "together they leave nothing modifiable")
        predicate = None
        if params.get("only_tuples"):
            predicate = lambda lit: lit.is_tuple  # noqa: E731
        if params.get("only_rules"):
            predicate = lambda lit: lit.is_rule  # noqa: E731
        return modification_query(
            polynomial, self.system.probabilities, params["target"],
            strategy=params.get("strategy", "greedy"),
            modifiable=predicate,
            seed=_mix_seed(self._resolve_seed(params.get("seed")), spec.key),
            max_steps=params.get("max_steps"))

    # -- observability -----------------------------------------------------------------

    @property
    def breaker_board(self) -> Optional[Any]:
        """The shared circuit-breaker board (None without resilience)."""
        return self._breakers

    @property
    def fallback_ladder(self) -> Optional[Any]:
        """The configured fallback ladder (None without resilience)."""
        return self._ladder

    @property
    def polynomial_cache(self) -> LRUCache:
        return self._polynomials

    @property
    def result_cache(self) -> LRUCache:
        return self._results

    def stats(self) -> dict:
        """Counters, per-stage timings, and cache hit rates as a dict:
        a view of :attr:`metrics`."""
        document = stats_document(self.metrics, {
            "polynomial": self._polynomials,
            "probability": self._results})
        runners = self._deadline_runners.stats()
        if runners["spawned"]:
            document.setdefault("pool", {})["deadline_runners"] = runners
        process_pool = self._process_pool
        if process_pool is not None:
            document.setdefault("pool", {})["isolation_workers"] = (
                process_pool.stats())
        return document

    def deadline_runner_stats(self) -> Dict[str, int]:
        """Deadline-runner counters (always present, unlike ``stats()``).

        The service health endpoint reads ``abandoned_live`` from here to
        flip readiness to degraded when wedged threads accumulate.
        """
        return self._deadline_runners.stats()

    def clear_caches(self) -> None:
        self._polynomials.clear()
        self._results.clear()

    def __repr__(self) -> str:
        return "QueryExecutor(%r, %r)" % (self._polynomials, self._results)


def stats_document(metrics: MetricsRegistry,
                   caches: Optional[Dict[str, LRUCache]] = None) -> dict:
    """The ``stats()`` document read off an executor registry.

    ``stages`` lists every stage of :data:`STAGES` plus any other stage
    recorded (the CLI's ``load``); ``caches`` snapshots each named cache,
    and ``invalidations`` totals their epoch-stale drops.
    """
    timings = metrics.histogram(
        "p3_stage_seconds", labelnames=("stage",)).totals()
    stages = {}
    for stage in sorted(set(STAGES) | {key[0] for key in timings}):
        calls, seconds = timings.get((stage,), (0, 0.0))
        stages[stage] = {"seconds": seconds, "calls": calls}
    queries = {kind: int(value) for (kind,), value in sorted(
        metrics.counter("p3_queries_total", labelnames=("kind",))
        .values().items())}
    document: Dict[str, Any] = {
        "stages": stages,
        "queries": queries,
        "total_queries": sum(queries.values()),
    }
    for field, name in (("errors", "p3_query_errors_total"),
                        ("batches", "p3_batches_total"),
                        ("deduplicated", "p3_deduplicated_total")):
        document[field] = int(metrics.counter(name).value())
    if caches:
        document["caches"] = {name: cache.stats()
                              for name, cache in caches.items()}
        # Epoch-staleness evictions across the caches: nonzero means a
        # live update forced cached work to be recomputed.
        document["invalidations"] = sum(
            snapshot["invalidations"]
            for snapshot in document["caches"].values())
    return document


def _mix_seed(seed: Optional[int], key: str) -> Optional[int]:
    """Derive a per-query seed: deterministic, but distinct across keys.

    Without mixing, every query in a seeded batch would consume the same
    sample sequence, correlating their Monte-Carlo errors; with it, batch
    results are reproducible yet independent across queries.
    """
    if seed is None:
        return None
    return (seed ^ zlib.crc32(key.encode("utf-8"))) & 0x7FFFFFFF
