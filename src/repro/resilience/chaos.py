"""The chaos harness: inject faults into a live system, assert survival.

``p3 chaos`` (and :func:`run_chaos`) builds a seeded random trust-network
program, computes reference probabilities on a clean system, then drives
the same keys through a faulted system over one of three transports:

- :class:`ExecutorTransport` — one batch through a
  :class:`~repro.exec.executor.QueryExecutor`, with the backend faults of
  :class:`FaultPlan` injected through the registry's
  :func:`~repro.inference.registry.override_backend` hook (the mechanism
  :mod:`repro.audit.faults` uses for its known-bug injections);
- :class:`ServiceTransport` — concurrent HTTP requests against
  ``repro.serve`` booted in-process, under the same backend faults;
- :class:`ProcessTransport` — the
  :data:`~repro.resilience.isolation.WORKER_FAULTS` delivered to live
  subprocess isolation workers, each followed by a clean query.

Every transport turns each exchange into "well-formed, or this problem",
and one rule decides the :class:`ChaosReport` verdict: no unhandled
exception, at least one exchange, every exchange well-formed (a value or
a typed error, and every checked answer within tolerance of its clean
reference), every fault class of the transport observed, and the
transport's own invariant.  The report is serialized by
:func:`repro.io.serialize.chaos_report_to_json`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import random
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import telemetry
from ..core.config import P3Config
from ..core.errors import (
    BudgetExceededError,
    TransientInferenceError,
    WorkerCrashError,
    WorkerMemoryError,
    WorkerTimeoutError,
)
from ..core.system import P3
from ..exec.executor import QueryExecutor
from ..exec.specs import QuerySpec
from ..inference.registry import BackendReading, get_backend, override_backend
from ..provenance.extraction import extract_polynomial
from ..telemetry.metrics import MetricsRegistry
from .breaker import BreakerPolicy
from .budgets import ResourceBudget
from .config import ResilienceConfig
from .isolation import (
    DEFAULT_WORKERS,
    WORKER_FAULTS,
    process_isolation_supported,
)
from .retry import RetryPolicy

#: Backend fault classes the executor and service transports inject;
#: every run must observe each ≥ once for the report to come back ok.
CHAOS_FAULT_CLASSES: Tuple[str, ...] = (
    "transient-exception", "budget-blowup", "delay", "query-hang")

#: Deadline on the wedged ``mc`` spec: how long a batch waits for it
#: before answering it with a typed timeout.
HANG_TIMEOUT_SECONDS = 0.5

#: Agreement threshold in standard errors for sampling answers, and the
#: absolute floor for exact ones (covers float noise across backends).
ACCURACY_SIGMA = 5.0
ACCURACY_ATOL = 1e-9

#: Firing rates of the backend faults, and the injected delay.
TRANSIENT_RATE = 0.85
BUDGET_RATE = 0.5
DELAY_RATE = 0.6
DELAY_SECONDS = 0.002

#: Service admission limits, small on purpose so overload (429) is part
#: of the exercised surface, and the concurrent HTTP driver threads.
SERVICE_MAX_CONCURRENT = 3
SERVICE_MAX_QUEUE = 2
SERVICE_DRIVER_THREADS = 8

#: Per-worker address-space cap and the deadline on the wedged worker.
WORKER_MEMORY_BYTES = 512 * 1024 * 1024
WEDGE_TIMEOUT_SECONDS = 1.5

#: Malformed exchanges kept in a report (the count is always exact).
MALFORMED_CAP = 20


def build_chaos_program(people: int = 8, edge_rate: float = 0.5,
                        seed: int = 0) -> str:
    """A seeded random trust network with the recursive ``know`` rules.

    The same shape as the paper's case-study programs: probabilistic base
    facts plus a transitive-closure rule pair, so the extracted
    polynomials are nontrivial DNFs with shared sub-derivations.
    """
    rng = random.Random(seed)
    names = ["p%d" % index for index in range(people)]
    lines = []
    for i, source in enumerate(names):
        for target in names[i + 1:]:
            if rng.random() < edge_rate:
                lines.append('%.2f::trusts("%s","%s").'
                             % (rng.uniform(0.3, 0.95), source, target))
    lines.append("know(X,Y) :- trusts(X,Y).")
    lines.append("know(X,Y) :- trusts(X,Z), know(Z,Y).")
    return "\n".join(lines) + "\n"


class FaultPlan:
    """Seeded probabilistic fault injection shared across worker threads.

    Each injected backend override rolls this plan's RNG (behind a lock)
    and either misbehaves or delegates to the genuine implementation:
    **transient exceptions** on ``exact`` (so retries and the breaker get
    exercised), typed **budget blowups** on ``bdd``, **delays** on
    ``parallel``, and a **query hang**: ``mc`` blocks until teardown, so
    the per-query deadline (:data:`HANG_TIMEOUT_SECONDS`) must turn it
    into a typed ``QueryTimeoutError`` outcome.  ``observed`` counts
    firings per fault class.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.observed: Dict[str, int] = {}
        #: Released by :func:`run_chaos` at teardown so the deliberately
        #: wedged deadline runner can finish.
        self.hang_release = threading.Event()

    def _fires(self, rate: float) -> bool:
        with self._lock:
            return self._rng.random() < rate

    def saw(self, fault: str) -> None:
        """Count one firing of ``fault`` (and export it as a metric)."""
        with self._lock:
            self.observed[fault] = self.observed.get(fault, 0) + 1
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_chaos_faults_total",
                help="Chaos faults injected, by class",
                labelnames=("fault",)).inc(fault=fault)

    # -- the faulty backend implementations ------------------------------------

    def _faulty_exact(self, polynomial, probabilities,
                      request) -> BackendReading:
        if self._fires(TRANSIENT_RATE):
            self.saw("transient-exception")
            raise TransientInferenceError(
                "injected chaos fault: exact backend flaked")
        return self._genuine["exact"](polynomial, probabilities, request)

    def _faulty_bdd(self, polynomial, probabilities,
                    request) -> BackendReading:
        if self._fires(BUDGET_RATE):
            self.saw("budget-blowup")
            raise BudgetExceededError(
                "injected chaos fault: bdd blew its budget",
                resource="chaos", limit=0, used=1)
        return self._genuine["bdd"](polynomial, probabilities, request)

    def _slow_parallel(self, polynomial, probabilities,
                       request) -> BackendReading:
        if self._fires(DELAY_RATE):
            self.saw("delay")
            time.sleep(DELAY_SECONDS)
        return self._genuine["parallel"](polynomial, probabilities, request)

    def _hanging_mc(self, polynomial, probabilities,
                    request) -> BackendReading:
        self.saw("query-hang")
        self.hang_release.wait()
        return self._genuine["mc"](polynomial, probabilities, request)

    @contextlib.contextmanager
    def install(self) -> Iterator[None]:
        """Swap the faulty implementations into the backend registry."""
        self._genuine = {
            name: get_backend(name)._fn
            for name in ("exact", "bdd", "parallel", "mc")
        }
        with override_backend("exact", self._faulty_exact), \
                override_backend("bdd", self._faulty_bdd), \
                override_backend("parallel", self._slow_parallel), \
                override_backend("mc", self._hanging_mc):
            yield


class ChaosReport:
    """Everything one chaos run measured, plus the pass/fail verdict.

    The common fields count exchanges; ``details`` holds the transport's
    own keys, as its ``details()`` declares them.  ``registries`` (not
    serialized) holds the metrics registries of the faulted objects, for
    ``p3 chaos --metrics-out``.
    """

    def __init__(self, transport: "ChaosTransport", seed: int) -> None:
        self._transport = transport
        self.transport = transport.name
        self.seed = seed
        self.seconds = 0.0
        self.exchanges = 0
        self.well_formed = 0
        self.answered = 0
        self.errored = 0
        self.faults_observed: Dict[str, int] = {
            name: 0 for name in transport.fault_classes}
        self.accuracy: Dict[str, Any] = {
            "checked": 0, "max_abs_error": 0.0, "sigma": ACCURACY_SIGMA}
        self.malformed: List[dict] = []
        self.unhandled: Optional[str] = None
        self.details: Dict[str, Any] = transport.details()
        self.registries: List[MetricsRegistry] = []

    def record(self, exchange: str, problem: Optional[str],
               answered: bool) -> None:
        """Count one exchange: well-formed exactly when ``problem`` is None;
        ``answered`` says it carried a value rather than an error."""
        self.exchanges += 1
        if answered:
            self.answered += 1
        else:
            self.errored += 1
        if problem is None:
            self.well_formed += 1
        elif len(self.malformed) < MALFORMED_CAP:
            self.malformed.append({"exchange": exchange, "problem": problem})

    @property
    def ok(self) -> bool:
        return (self.unhandled is None
                and self.exchanges > 0
                and self.well_formed == self.exchanges
                and all(count > 0 for count in self.faults_observed.values())
                and self._transport.invariant(self))

    def summary(self) -> str:
        """One-line digest for the CLI's non-JSON output."""
        details = {key: value for key, value in self.details.items()
                   if key != "outcomes"}
        return ("chaos %s [%s]: %d/%d well-formed exchanges (%d answered, "
                "%d errored), faults %s, accuracy %s, %s, %.2fs"
                % ("OK" if self.ok else "FAILED", self.transport,
                   self.well_formed, self.exchanges, self.answered,
                   self.errored, _brief(self.faults_observed),
                   _brief(self.accuracy), _brief(details), self.seconds))

    def to_dict(self) -> dict:
        document = {
            "version": 1,
            "kind": "chaos_report",
            "transport": self.transport,
            "ok": self.ok,
            "seed": self.seed,
            "seconds": round(self.seconds, 6),
            "exchanges": self.exchanges,
            "well_formed": self.well_formed,
            "answered": self.answered,
            "errored": self.errored,
            "faults_observed": dict(self.faults_observed),
            "accuracy": dict(self.accuracy),
            "malformed": list(self.malformed),
            "unhandled": self.unhandled,
        }
        document.update(self.details)
        return document

    def __repr__(self) -> str:
        return "ChaosReport(%s, ok=%r, %d/%d well-formed)" % (
            self.transport, self.ok, self.well_formed, self.exchanges)


def _brief(value: Any) -> str:
    if isinstance(value, dict):
        return "[%s]" % ", ".join(
            "%s=%s" % (key, _brief(item)) for key, item in value.items())
    return "%.3g" % value if isinstance(value, float) else str(value)


def _describe(exc: BaseException) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def run_chaos(transport: "ChaosTransport", seed: int = 0) -> ChaosReport:
    """One full chaos run over ``transport``.

    Deterministic program and fault *rates* per ``seed`` (exact fault
    sequencing varies with thread timing, but every assertion the report
    makes is timing-independent).
    """
    report = ChaosReport(transport, seed)
    plan = FaultPlan(seed)
    teardown = contextlib.ExitStack()
    started = time.perf_counter()
    try:
        program = build_chaos_program(people=transport.people, seed=seed)
        keys, references = _clean_references(program, seed, transport.people,
                                             transport.key_limit)
        if len(keys) < transport.min_keys:
            report.unhandled = "chaos program yielded %d keys" % len(keys)
            return report
        if transport.backend_faults:
            teardown.enter_context(plan.install())
        transport.drive(report, plan, teardown, program, keys, references)
    except Exception as exc:  # noqa: BLE001 — the one thing the harness
        # exists to rule out
        report.unhandled = _describe(exc)
    finally:
        plan.hang_release.set()
        teardown.close()
        report.faults_observed = {name: plan.observed.get(name, 0)
                                  for name in transport.fault_classes}
        report.seconds = time.perf_counter() - started
    return report


def _clean_references(program: str, seed: int, people: int,
                      limit: int) -> Tuple[List[str], Dict[str, float]]:
    """Up to ``limit`` keys and their exact values from a clean system.

    The reference system is unfaulted: exact inference, no resilience
    machinery in the way.  Candidate keys that are not derivable (or
    too big) are skipped.
    """
    clean = P3.from_source(program, config=P3Config(
        probability_method="exact", hop_limit=4, seed=seed))
    clean.evaluate()
    keys: List[str] = []
    references: Dict[str, float] = {}
    with QueryExecutor(clean) as reference_executor:
        for key in _candidate_keys(clean, people):
            try:
                references[key] = reference_executor.probability(
                    key, method="exact")
            except Exception:  # noqa: BLE001 — not derivable / too big
                continue
            keys.append(key)
            if len(keys) >= limit:
                break
    return keys, references


def _candidate_keys(system: P3, people: int) -> Iterator[str]:
    names = ["p%d" % index for index in range(people)]
    for pair in itertools.permutations(names, 2):
        key = 'know("%s","%s")' % pair
        if key in system.graph:
            yield key


def _resilient_config(seed: int, samples: int) -> P3Config:
    """The faulted system's config in the executor and service transports:
    a resource budget, the exact → bdd → parallel ladder, fast retries
    and a breaker that trips within one run."""
    resilience = ResilienceConfig(
        budget=ResourceBudget(max_monomials=200000, max_node_visits=2000000),
        ladder=("exact", "bdd", "parallel"),
        retry=RetryPolicy(max_attempts=3, backoff_seconds=0.001,
                          max_backoff_seconds=0.01),
        breaker=BreakerPolicy(failure_threshold=0.5, window_size=8,
                              min_calls=4, cooldown_seconds=30.0),
    )
    return P3Config(probability_method="exact", hop_limit=4, seed=seed,
                    samples=samples, resilience=resilience)


def _hang_spec(key: str) -> dict:
    """The spec the blocking ``mc`` override wedges, with its deadline."""
    return {"kind": "probability", "key": key,
            "params": {"method": "mc", "timeout": HANG_TIMEOUT_SECONDS}}


def _answer_problem(report: ChaosReport, outcome: dict,
                    references: Dict[str, float]) -> Optional[str]:
    """An answered probability in one outcome document against its clean
    reference (the wedged ``mc`` spec has no reference to meet).

    Exact answers must match to float noise; sampling answers within
    ``ACCURACY_SIGMA`` reported standard errors (plus a floor for the
    clamp at the [0, 1] boundary).
    """
    value = outcome.get("value")
    spec = outcome["spec"]
    reference = references.get(spec["key"])
    if (not isinstance(value, float) or reference is None
            or spec.get("params", {}).get("method") == "mc"):
        return None
    record = outcome.get("resilience") or {}
    stderr = record.get("stderr")
    tolerance = max(ACCURACY_SIGMA * stderr, 1e-4) if stderr else ACCURACY_ATOL
    error = abs(min(1.0, max(0.0, value)) - reference)
    report.accuracy["checked"] += 1
    report.accuracy["max_abs_error"] = max(report.accuracy["max_abs_error"],
                                           error)
    if error <= tolerance:
        return None
    return ("answered %.12f, reference %.12f (tolerance %.2e), answered by %s"
            % (value, reference, tolerance, record.get("answered_by")))


def _outcome_problem(report: ChaosReport, outcome,
                     references: Dict[str, float]) -> Optional[str]:
    """One outcome, exactly one of value/error, it serializes, and an
    answer agrees with its clean reference."""
    if (outcome.value is None) == (outcome.error is None):
        return "not exactly one of value and error"
    try:
        document = outcome.to_dict()
        json.dumps(document)
    except (TypeError, ValueError) as exc:
        return "does not serialize: %s" % _describe(exc)
    return _answer_problem(report, document, references)


class ChaosTransport:
    """How one chaos run reaches the faulted system.

    :func:`run_chaos` owns the skeleton (program, clean references, fault
    plan, timer, unhandled exceptions, teardown).  A transport contributes
    ``people`` and ``key_limit`` (the program size and the most clean keys
    it uses), ``details()`` (its own report keys with their before-the-run
    values), and ``drive(report, plan, teardown, program, keys,
    references)``, which records every exchange with
    :meth:`ChaosReport.record` and puts what it opens on ``teardown``.
    """

    name = ""
    #: Fault classes this transport must observe for an ok report.
    fault_classes: Tuple[str, ...] = CHAOS_FAULT_CLASSES
    #: Whether :func:`run_chaos` installs the backend :class:`FaultPlan`.
    backend_faults = True
    #: Fewest clean reference keys the transport can run with.
    min_keys = 1

    def invariant(self, report: ChaosReport) -> bool:
        """The transport's own condition for an ok report."""
        return True


@dataclasses.dataclass
class ExecutorTransport(ChaosTransport):
    """Every clean key plus the query-hang spec in one executor batch."""

    name = "executor"
    specs: int = 50
    people: int = 13
    samples: int = 20000
    include_outcomes: bool = False

    @property
    def key_limit(self) -> int:
        return self.specs - 1

    def details(self) -> Dict[str, Any]:
        return {"specs": self.specs,
                "resilience": {"retries": 0, "fallbacks": 0,
                               "breaker_trips": 0},
                "outcomes": []}

    def drive(self, report, plan, teardown, program, keys, references):
        # One spec routed to the blocking mc override: the query-hang
        # fault.  A distinct spec (different method ⇒ different cache
        # identity), so it does not collapse into its clean twin.
        specs: List[object] = list(keys) + [_hang_spec(keys[0])]
        report.details["specs"] = len(specs)
        system = P3.from_source(
            program, config=_resilient_config(report.seed, self.samples))
        system.evaluate()
        executor = teardown.enter_context(QueryExecutor(system))
        report.registries.append(executor.metrics)
        batch = executor.run(specs)
        resilience = report.details["resilience"]
        for outcome in batch:
            report.record("%s %s" % (outcome.spec.kind, outcome.spec.key),
                          _outcome_problem(report, outcome, references),
                          outcome.ok)
            record = outcome.resilience
            if record is not None:
                resilience["retries"] += record.retries
                if record.used_fallback:
                    resilience["fallbacks"] += 1
            if self.include_outcomes:
                report.details["outcomes"].append(outcome.to_dict())
        board = executor.breaker_board
        if board is not None:
            resilience["breaker_trips"] = sum(
                snapshot["trips"] for snapshot in board.to_dict().values())

    def invariant(self, report):
        return report.exchanges == report.details["specs"]


#: Envelope kinds a service response may carry; anything else is malformed.
_SERVICE_KINDS = frozenset({
    "batch_result", "update", "error", "health", "tenant_stats",
    "tenant_list", "tenant_removed"})

#: Statuses the service is allowed to answer with under chaos.  500 is
#: tolerated only when the body is still a structured error envelope.
_SERVICE_STATUSES = frozenset({200, 201, 400, 404, 409, 429, 500, 503})


@dataclasses.dataclass
class ServiceTransport(ChaosTransport):
    """Chaos through the front door: boot ``repro.serve`` in-process and
    slam the HTTP API from concurrent driver threads.

    Beyond the executor contract (typed outcomes, fault coverage), every
    HTTP exchange — including shed ones — must be a well-formed envelope
    with the right status code, and live updates interleaved with
    queries keep the epoch moving.  A request the driver fails to
    complete (a dropped connection, say) is a malformed exchange.
    """

    name = "service"
    min_keys = 3
    key_limit = 12
    requests: int = 60
    people: int = 10
    samples: int = 20000

    def details(self) -> Dict[str, Any]:
        return {"requests": self.requests, "by_status": {}, "shed": 0,
                "server_errors": 0, "final_epoch": 0}

    def drive(self, report, plan, teardown, program, keys, references):
        import http.client
        from concurrent.futures import ThreadPoolExecutor

        from ..serve import (
            AdmissionController, ProvenanceService, TenantRegistry,
            start_in_background)

        registry = TenantRegistry(
            base_config=_resilient_config(report.seed, self.samples))
        teardown.callback(registry.close)
        tenant = registry.create("chaos", source=program)
        workload = _build_service_workload(random.Random(report.seed), keys,
                                           self.requests)
        report.details["requests"] = len(workload)
        service = ProvenanceService(
            registry,
            AdmissionController(max_concurrent=SERVICE_MAX_CONCURRENT,
                                max_queue=SERVICE_MAX_QUEUE,
                                retry_after_seconds=0.05))
        handle = start_in_background(service)
        teardown.callback(handle.stop)
        report.registries = service.metrics_registries()

        def exchange(method: str, path: str, body: Optional[dict]):
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=60)
            try:
                payload = json.dumps(body) if body is not None else None
                connection.request(method, path, body=payload)
                response = connection.getresponse()
                data = response.read()
                headers = {name.lower(): value
                           for name, value in response.getheaders()}
                return response.status, headers, data
            finally:
                connection.close()

        # Concurrent drivers; the socket timeout bounds every exchange.
        with ThreadPoolExecutor(SERVICE_DRIVER_THREADS,
                                thread_name_prefix="p3-chaos-driver") as pool:
            futures = [pool.submit(exchange, *job) for job in workload]
        details = report.details
        for (method, path, _), future in zip(workload, futures):
            label = "%s %s" % (method, path)
            try:
                status, headers, data = future.result()
                problem = _service_exchange_problem(
                    report, references, path, status, headers, data)
            except Exception as exc:  # noqa: BLE001 — a lost exchange
                report.record(label, _describe(exc), answered=False)
                continue
            by_status = details["by_status"]
            by_status[str(status)] = by_status.get(str(status), 0) + 1
            details["shed"] += status in (429, 503)
            details["server_errors"] += status == 500
            report.record("%s [%d]" % (label, status), problem,
                          answered=status < 400)
        details["final_epoch"] = tenant.system.epoch

    def invariant(self, report):
        return report.exchanges == report.details["requests"]


def _service_exchange_problem(report: ChaosReport,
                              references: Dict[str, float], path: str,
                              status: int, headers: Dict[str, str],
                              body: bytes) -> Optional[str]:
    """None when the exchange is well-formed, else a short diagnosis."""
    if status not in _SERVICE_STATUSES:
        return "unexpected status %d" % status
    if path == "/metrics" and status == 200:
        content_type = headers.get("content-type", "")
        if not content_type.startswith("text/plain"):
            return "metrics served with Content-Type %r" % content_type
        return None
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return "unparseable body (status %d)" % status
    if not isinstance(document, dict):
        return "non-object body (status %d)" % status
    if document.get("kind") not in _SERVICE_KINDS:
        return "unknown envelope kind %r" % document.get("kind")
    if status >= 400 and document.get("kind") != "error":
        return "status %d without error envelope" % status
    if status in (429, 503) and "retry-after" not in headers:
        return "status %d without Retry-After" % status
    if document["kind"] == "batch_result":
        for outcome in document["result"]["outcomes"]:
            problem = _answer_problem(report, outcome, references)
            if problem is not None:
                return problem
    return None


def _build_service_workload(rng: random.Random, keys: List[str],
                            request_count: int) -> List[Tuple[str, str, Optional[dict]]]:
    """A seeded request mix: mostly queries, plus updates, scrapes, and
    deliberately bad requests.  The query-hang batch is always included."""
    hang_batch = {"specs": [
        keys[1 % len(keys)], _hang_spec(keys[0]), keys[2 % len(keys)]]}
    workload: List[Tuple[str, str, Optional[dict]]] = [
        ("POST", "/tenants/chaos/query", hang_batch)]
    update_serial = [0]

    def one_request() -> Tuple[str, str, Optional[dict]]:
        roll = rng.random()
        if roll < 0.55:
            specs = rng.sample(keys, k=min(len(keys), rng.randint(2, 4)))
            return ("POST", "/tenants/chaos/query", {"specs": specs})
        if roll < 0.70:
            update_serial[0] += 1
            fact = 'chaos_t%d %.2f: trusts("p0","extra%d").' % (
                update_serial[0], rng.uniform(0.3, 0.9), update_serial[0])
            return ("POST", "/tenants/chaos/facts", {"facts": fact})
        if roll < 0.78:
            return ("GET", "/healthz", None)
        if roll < 0.86:
            return ("GET", "/metrics", None)
        if roll < 0.90:
            return ("GET", "/tenants/chaos/stats", None)
        # The bad-request tail: 404s, 400s, and an unroutable path.
        bad = rng.randint(0, 3)
        if bad == 0:
            return ("POST", "/tenants/no-such-tenant/query",
                    {"specs": ["x"]})
        if bad == 1:
            return ("POST", "/tenants/chaos/query", {"specs": "not-a-list"})
        if bad == 2:
            return ("POST", "/tenants/chaos/facts", {"facts": 42})
        return ("GET", "/no/such/route", None)

    while len(workload) < request_count:
        workload.append(one_request())
    return workload


#: The typed error each worker fault must surface as, and its deadline.
_WORKER_FAULT_ERRORS = {"kill9": (WorkerCrashError, None),
                        "oom": (WorkerMemoryError, None),
                        "wedge-native": (WorkerTimeoutError,
                                         WEDGE_TIMEOUT_SECONDS)}


@dataclasses.dataclass
class ProcessTransport(ChaosTransport):
    """Chaos against a pool of :data:`~repro.resilience.isolation.DEFAULT_WORKERS`
    subprocess isolation workers.

    Each round delivers every worker fault to a live worker and then
    immediately re-queries through the same executor.  A killed or
    wedged worker must surface as exactly its typed error
    (:class:`WorkerCrashError`, :class:`WorkerMemoryError`,
    :class:`WorkerTimeoutError`), the pool respawns a replacement, and
    the very next query answers correctly — the service process never
    dies and never leaks workers.
    """

    name = "process"
    fault_classes = WORKER_FAULTS
    backend_faults = False
    min_keys = 2
    rounds: int = 3
    people: int = 10
    samples: int = 8000

    @property
    def key_limit(self) -> int:
        # One distinct key per probe: a repeated key would answer from
        # the executor's result cache instead of proving a live worker
        # exchange after the fault.
        return 3 * self.rounds + 1

    def details(self) -> Dict[str, Any]:
        # Only kill9 and wedge-native cost a worker its life: an
        # OOM-tripped worker answers with a typed error over an intact
        # pipe and survives.
        return {"rounds": self.rounds, "respawn_bound": 2 * self.rounds,
                "pool": {}}

    def drive(self, report, plan, teardown, program, keys, references):
        if not process_isolation_supported():
            raise RuntimeError("process isolation unsupported on this platform")
        config = P3Config(probability_method="exact", hop_limit=4,
                          seed=report.seed, samples=self.samples,
                          isolation="process",
                          isolation_workers=DEFAULT_WORKERS,
                          worker_memory_bytes=WORKER_MEMORY_BYTES)
        system = P3.from_source(program, config=config)
        system.evaluate()
        executor = teardown.enter_context(QueryExecutor(system))
        report.registries.append(executor.metrics)
        # First exchange spawns the pool and proves the happy path.
        _process_probe(report, executor, keys[0], references)
        pool = executor.process_pool
        polynomial = extract_polynomial(system.graph, keys[0], hop_limit=4)
        probe_index = 0
        for _round in range(self.rounds):
            for fault in WORKER_FAULTS:
                expected, timeout = _WORKER_FAULT_ERRORS[fault]
                answered = False
                try:
                    pool.submit("exact", polynomial, system.probabilities,
                                timeout=timeout, fault=fault)
                    answered, problem = True, ("returned a value instead of "
                                               "raising %s" % expected.__name__)
                except expected:
                    plan.saw(fault)
                    problem = None
                except Exception as exc:  # noqa: BLE001 — a wrong error
                    problem = "raised %s" % _describe(exc)
                report.record(fault, problem, answered)
                # Containment: the executor answers correctly right
                # after every fault, on a respawned worker if needed.
                probe_index += 1
                _process_probe(report, executor,
                               keys[probe_index % len(keys)], references)
        report.details["pool"] = pool.stats()

    def invariant(self, report):
        pool = report.details["pool"]
        return (pool.get("respawned", 0) <= report.details["respawn_bound"]
                and pool.get("live", 0) <= pool.get("workers", 0))


def _process_probe(report: ChaosReport, executor: QueryExecutor,
                   key: str, references: Dict[str, float]) -> None:
    """One clean query through the process-isolated executor: it must
    answer, and answer its clean reference exactly."""
    (outcome,) = executor.run([QuerySpec.probability(key, method="exact")])
    if outcome.ok:
        problem = _outcome_problem(report, outcome, references)
    else:
        problem = "raised %s" % outcome.error
    report.record("probe:%s" % key, problem, answered=outcome.ok)
