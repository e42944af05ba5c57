"""The chaos harness: inject faults into a live batch, assert survival.

``p3 chaos`` (and :func:`run_chaos`) builds a seeded random trust-network
program, computes reference probabilities on a clean system, then re-runs
the same batch with faults injected through the registry's
:func:`~repro.inference.registry.override_backend` hook — the same
mechanism the differential audit harness uses for its known-bug
injections (:mod:`repro.audit.faults`):

- **transient exceptions** on the ``exact`` backend (high rate, so the
  retry policy and the circuit breaker both get exercised);
- **budget blowups** on the ``bdd`` backend (typed
  :class:`~repro.core.errors.BudgetExceededError`, the fall-through
  class);
- **delays** on the ``parallel`` backend (slow but correct);
- a **query hang**: one spec routed to an ``mc`` override that blocks on
  an event until teardown.  The spec carries a ``timeout`` of
  :data:`HANG_TIMEOUT_SECONDS`, so the per-query deadline must turn the
  wedge into a typed :class:`~repro.core.errors.QueryTimeoutError`
  outcome instead of a stalled batch.

The harness asserts the resilience contract rather than correctness of
any single backend: every spec must still yield a *well-formed* outcome
(a value or a typed error — never an unhandled exception), every
injected fault class must be observed at least once, and every answered
probability must agree with its clean-system reference within the
reported standard-error tolerance.  The result is a :class:`ChaosReport`
(serialized by :func:`repro.io.serialize.chaos_report_to_json`).
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import telemetry
from ..core.config import P3Config
from ..core.errors import BudgetExceededError, TransientInferenceError
from ..core.system import P3
from ..exec.executor import QueryExecutor
from ..inference.registry import BackendReading, get_backend, override_backend
from .breaker import BreakerPolicy
from .budgets import ResourceBudget
from .config import ResilienceConfig
from .retry import RetryPolicy

#: Fault classes the harness injects; every run must observe each ≥ once
#: for the report to come back ok.
CHAOS_FAULT_CLASSES: Tuple[str, ...] = (
    "transient-exception", "budget-blowup", "delay", "query-hang")

#: Deadline on the wedged ``mc`` spec: how long a batch waits for it
#: before answering it with a typed timeout.
HANG_TIMEOUT_SECONDS = 0.5

#: Process-level fault classes (``p3 chaos --process``): delivered to
#: subprocess isolation workers, which the thread-level classes above
#: cannot kill.  Mirrors :data:`repro.resilience.isolation.WORKER_FAULTS`.
PROCESS_FAULT_CLASSES: Tuple[str, ...] = ("kill9", "oom", "wedge-native")

#: Agreement threshold in standard errors for sampling answers, and the
#: absolute floor for exact ones (covers float noise across backends).
ACCURACY_SIGMA = 5.0
ACCURACY_ATOL = 1e-9


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

    Each injected backend override rolls this plan's RNG (behind a lock —
    worker threads share it) and either misbehaves or delegates to the
    genuine implementation.  ``observed`` counts firings per fault class.
    """

    def __init__(self, seed: int,
                 transient_rate: float = 0.85,
                 budget_rate: float = 0.5,
                 delay_rate: float = 0.6,
                 delay_seconds: float = 0.002) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.transient_rate = transient_rate
        self.budget_rate = budget_rate
        self.delay_rate = delay_rate
        self.delay_seconds = delay_seconds
        self.observed: Dict[str, int] = {name: 0 for name
                                         in CHAOS_FAULT_CLASSES}
        #: Released by :func:`run_chaos` at teardown so the deliberately
        #: wedged deadline runner can finish.
        self.hang_release = threading.Event()

    def _fires(self, rate: float) -> bool:
        with self._lock:
            return self._rng.random() < rate

    def _saw(self, fault: str) -> None:
        with self._lock:
            self.observed[fault] += 1
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_chaos_faults_total",
                help="Chaos faults injected, by class",
                labelnames=("fault",)).inc(fault=fault)

    def all_observed(self) -> bool:
        with self._lock:
            return all(count > 0 for count in self.observed.values())

    # -- the faulty backend implementations ------------------------------------

    def _faulty_exact(self, polynomial, probabilities,
                      request) -> BackendReading:
        if self._fires(self.transient_rate):
            self._saw("transient-exception")
            raise TransientInferenceError(
                "injected chaos fault: exact backend flaked")
        return self._genuine["exact"](polynomial, probabilities, request)

    def _faulty_bdd(self, polynomial, probabilities,
                    request) -> BackendReading:
        if self._fires(self.budget_rate):
            self._saw("budget-blowup")
            raise BudgetExceededError(
                "injected chaos fault: bdd blew its budget",
                resource="chaos", limit=0, used=1)
        return self._genuine["bdd"](polynomial, probabilities, request)

    def _slow_parallel(self, polynomial, probabilities,
                       request) -> BackendReading:
        if self._fires(self.delay_rate):
            self._saw("delay")
            time.sleep(self.delay_seconds)
        return self._genuine["parallel"](polynomial, probabilities, request)

    def _hanging_mc(self, polynomial, probabilities,
                    request) -> BackendReading:
        self._saw("query-hang")
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
    """Everything one chaos run measured, plus the pass/fail verdict."""

    def __init__(self, seed: int, specs: int) -> None:
        self.seed = seed
        self.specs = specs
        self.well_formed = 0
        self.answered = 0
        self.errored = 0
        self.outcomes: List[dict] = []
        self.faults_observed: Dict[str, int] = {}
        self.retries = 0
        self.fallbacks = 0
        self.breaker_trips = 0
        self.accuracy_checked = 0
        self.max_abs_error = 0.0
        self.accuracy_failures: List[dict] = []
        self.unhandled: Optional[str] = None
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return (self.unhandled is None
                and self.well_formed == self.specs
                and all(self.faults_observed.get(name, 0) > 0
                        for name in CHAOS_FAULT_CLASSES)
                and not self.accuracy_failures)

    def summary(self) -> str:
        """One-line digest for the CLI's non-JSON output."""
        fault_bits = ", ".join(
            "%s=%d" % (name, self.faults_observed.get(name, 0))
            for name in CHAOS_FAULT_CLASSES)
        return ("chaos %s: %d/%d well-formed (%d answered, %d errors), "
                "%d retries, %d fallbacks, %d breaker trips, "
                "max |err| %.2e over %d checks, faults [%s], %.2fs"
                % ("OK" if self.ok else "FAILED",
                   self.well_formed, self.specs, self.answered,
                   self.errored, self.retries, self.fallbacks,
                   self.breaker_trips, self.max_abs_error,
                   self.accuracy_checked, fault_bits, self.seconds))

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "chaos_report",
            "ok": self.ok,
            "seed": self.seed,
            "specs": self.specs,
            "seconds": round(self.seconds, 6),
            "well_formed": self.well_formed,
            "answered": self.answered,
            "errored": self.errored,
            "unhandled": self.unhandled,
            "faults_observed": dict(self.faults_observed),
            "resilience": {
                "retries": self.retries,
                "fallbacks": self.fallbacks,
                "breaker_trips": self.breaker_trips,
            },
            "accuracy": {
                "checked": self.accuracy_checked,
                "max_abs_error": self.max_abs_error,
                "sigma": ACCURACY_SIGMA,
                "failures": list(self.accuracy_failures),
            },
            "outcomes": list(self.outcomes),
        }

    def __repr__(self) -> str:
        return "ChaosReport(ok=%r, %d/%d well-formed, %d fallbacks)" % (
            self.ok, self.well_formed, self.specs, self.fallbacks)


def _is_well_formed(outcome: Any) -> bool:
    """One outcome, exactly one of value/error, and it serializes."""
    if (outcome.value is None) == (outcome.error is None):
        return False
    try:
        import json
        json.dumps(outcome.to_dict())
    except (TypeError, ValueError):
        return False
    return True


def run_chaos(seed: int = 0,
              spec_count: int = 50,
              people: int = 13,
              samples: int = 20000,
              plan: Optional[FaultPlan] = None,
              include_outcomes: bool = False) -> ChaosReport:
    """One full chaos run; see the module docstring for what it asserts.

    Deterministic program and fault *rates* per ``seed`` (exact fault
    sequencing varies with the deadline runner's timing, but every
    assertion the report makes is timing-independent).
    """
    program = build_chaos_program(people=people, seed=seed)
    started = time.perf_counter()
    keys, references = _clean_references(program, seed, people,
                                         spec_count - 1)

    specs: List[object] = list(keys)
    hang_key = keys[0] if keys else None
    if hang_key is not None:
        # One spec routed to the blocking mc override: the query-hang
        # fault.  A distinct spec (different method ⇒ different cache
        # identity), so it does not collapse into its clean twin.
        specs.append(_hang_spec(hang_key))

    config = _resilient_config(seed, samples)
    report = ChaosReport(seed, len(specs))
    chaos_plan = plan if plan is not None else FaultPlan(seed)
    try:
        system = P3.from_source(program, config=config)
        system.evaluate()
        with chaos_plan.install():
            with QueryExecutor(system) as executor:
                try:
                    batch = executor.run(specs)
                except Exception as exc:  # noqa: BLE001 — the one thing
                    # the harness exists to rule out
                    report.unhandled = "%s: %s" % (type(exc).__name__, exc)
                    return report
                _fill_report(report, batch, references, executor,
                             include_outcomes)
    finally:
        chaos_plan.hang_release.set()
    report.faults_observed = dict(chaos_plan.observed)
    report.seconds = time.perf_counter() - started
    return report


def _clean_references(program: str, seed: int, people: int,
                      limit: int) -> Tuple[List[str], Dict[str, float]]:
    """Up to ``limit`` keys and their exact values from a clean system.

    The reference system is unfaulted: exact inference, no resilience
    machinery in the way.  Candidate keys that are not derivable (or
    too big) are skipped; at least one answering key is always taken.
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


def _resilient_config(seed: int, samples: int) -> P3Config:
    """The faulted system's config in the library and service chaos runs:
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


def _candidate_keys(system: P3, people: int) -> Iterator[str]:
    names = ["p%d" % index for index in range(people)]
    for source in names:
        for target in names:
            if source != target:
                key = 'know("%s","%s")' % (source, target)
                if key in system.graph:
                    yield key


def _fill_report(report: ChaosReport, batch, references: Dict[str, float],
                 executor: QueryExecutor, include_outcomes: bool) -> None:
    for outcome in batch:
        if _is_well_formed(outcome):
            report.well_formed += 1
        if outcome.ok:
            report.answered += 1
        else:
            report.errored += 1
        record = outcome.resilience
        if record is not None:
            report.retries += record.retries
            if record.used_fallback:
                report.fallbacks += 1
        if include_outcomes:
            report.outcomes.append(outcome.to_dict())
        _check_accuracy(report, outcome, references)
    board = executor.breaker_board
    if board is not None:
        report.breaker_trips = sum(
            snapshot["trips"] for snapshot in board.to_dict().values())


def _check_accuracy(report: ChaosReport, outcome,
                    references: Dict[str, float]) -> None:
    """Fallback answers must agree with the clean reference.

    Exact answers must match to float noise; sampling answers within
    ``ACCURACY_SIGMA`` reported standard errors (plus a floor for the
    clamp at the [0, 1] boundary).
    """
    if not outcome.ok or not isinstance(outcome.value, float):
        return
    reference = references.get(outcome.spec.key)
    if reference is None or outcome.spec.params.get("method") == "mc":
        return
    record = outcome.resilience
    stderr = record.stderr if record is not None else None
    if stderr:
        tolerance = max(ACCURACY_SIGMA * stderr, 1e-4)
    else:
        tolerance = ACCURACY_ATOL
    error = abs(min(1.0, max(0.0, outcome.value)) - reference)
    report.accuracy_checked += 1
    report.max_abs_error = max(report.max_abs_error, error)
    if error > tolerance:
        report.accuracy_failures.append({
            "key": outcome.spec.key,
            "value": outcome.value,
            "reference": reference,
            "tolerance": tolerance,
            "answered_by": record.answered_by if record else None,
        })


# ---------------------------------------------------------------------------
# Process-mode chaos: kill, starve, and wedge subprocess isolation workers.
# ---------------------------------------------------------------------------


class ProcessChaosReport:
    """Verdict for one process-isolation chaos run.

    ``ok`` requires: no unhandled driver exception, every exchange
    well-formed (each injected fault surfaced as exactly its typed
    error, every clean query answered correctly), all three process
    fault classes observed, respawns bounded by the number of
    worker-killing faults, and the pool back at full strength with no
    excess processes at the end.
    """

    def __init__(self, seed: int, rounds: int) -> None:
        self.seed = seed
        self.rounds = rounds
        self.exchanges = 0
        self.well_formed = 0
        self.answered = 0
        self.faulted = 0
        self.faults_observed: Dict[str, int] = {
            name: 0 for name in PROCESS_FAULT_CLASSES}
        self.malformed: List[dict] = []
        self.pool: Dict[str, int] = {}
        self.respawn_bound = 0
        self.unhandled: Optional[str] = None
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return (self.unhandled is None
                and self.exchanges > 0
                and self.well_formed == self.exchanges
                and all(count > 0 for count in self.faults_observed.values())
                and self.pool.get("respawned", 0) <= self.respawn_bound
                and self.pool.get("live", 0) <= self.pool.get("workers", 0))

    def summary(self) -> str:
        fault_bits = ", ".join(
            "%s=%d" % (name, self.faults_observed.get(name, 0))
            for name in PROCESS_FAULT_CLASSES)
        return ("process chaos %s: %d/%d well-formed exchanges "
                "(%d answered, %d faulted), faults [%s], "
                "%d respawns (bound %d), %d/%d workers live, %.2fs"
                % ("OK" if self.ok else "FAILED", self.well_formed,
                   self.exchanges, self.answered, self.faulted, fault_bits,
                   self.pool.get("respawned", 0), self.respawn_bound,
                   self.pool.get("live", 0), self.pool.get("workers", 0),
                   self.seconds))

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "process_chaos_report",
            "ok": self.ok,
            "seed": self.seed,
            "rounds": self.rounds,
            "seconds": round(self.seconds, 6),
            "exchanges": self.exchanges,
            "well_formed": self.well_formed,
            "answered": self.answered,
            "faulted": self.faulted,
            "faults_observed": dict(self.faults_observed),
            "respawn_bound": self.respawn_bound,
            "pool": dict(self.pool),
            "malformed": list(self.malformed),
            "unhandled": self.unhandled,
        }

    def __repr__(self) -> str:
        return "ProcessChaosReport(ok=%r, %d/%d well-formed)" % (
            self.ok, self.well_formed, self.exchanges)


def run_process_chaos(seed: int = 0,
                      rounds: int = 3,
                      people: int = 10,
                      samples: int = 8000,
                      workers: int = 2,
                      memory_limit_bytes: int = 512 * 1024 * 1024,
                      wedge_timeout: float = 1.5) -> ProcessChaosReport:
    """Chaos against subprocess isolation workers; see ``p3 chaos --process``.

    Each round delivers every :data:`PROCESS_FAULT_CLASSES` fault to a
    live worker — SIGKILL mid-request, an allocation loop into the
    ``RLIMIT_AS`` cap, and a native busy-loop that ignores deadlines —
    and then immediately re-queries through the same executor.  The
    contract asserted is the tentpole's: a killed or wedged worker
    surfaces as exactly its typed error (:class:`WorkerCrashError`,
    :class:`WorkerMemoryError`, :class:`WorkerTimeoutError`), the pool
    respawns a replacement, and the very next query answers correctly —
    the service process never dies and never leaks workers.
    """
    from ..core.errors import (
        WorkerCrashError, WorkerMemoryError, WorkerTimeoutError)
    from ..resilience.isolation import process_isolation_supported

    report = ProcessChaosReport(seed, rounds)
    if not process_isolation_supported():
        report.unhandled = "process isolation unsupported on this platform"
        return report
    started = time.perf_counter()

    program = build_chaos_program(people=people, seed=seed)
    # One distinct key per probe: a repeated key would answer from the
    # executor's result cache instead of proving a live worker exchange
    # after the fault.
    keys, references = _clean_references(program, seed, people,
                                         3 * rounds + 1)
    if len(keys) < 2:
        report.unhandled = "chaos program yielded %d keys" % len(keys)
        return report

    expected = {"kill9": WorkerCrashError,
                "oom": WorkerMemoryError,
                "wedge-native": WorkerTimeoutError}
    # Only kill9 and wedge-native cost a worker its life: an OOM-tripped
    # worker answers with a typed error over an intact pipe and survives.
    report.respawn_bound = 2 * rounds

    config = P3Config(probability_method="exact", hop_limit=4, seed=seed,
                      samples=samples, isolation="process",
                      isolation_workers=workers,
                      worker_memory_bytes=memory_limit_bytes)
    system = P3.from_source(program, config=config)
    system.evaluate()
    try:
        with QueryExecutor(system) as executor:
            # First exchange spawns the pool and proves the happy path.
            _process_probe(report, executor, keys[0], references)
            pool = executor.process_pool
            from ..provenance.extraction import extract_polynomial
            polynomial = extract_polynomial(system.graph, keys[0],
                                            hop_limit=4)
            probe_index = 0
            for _round in range(rounds):
                for fault in PROCESS_FAULT_CLASSES:
                    timeout = (wedge_timeout if fault == "wedge-native"
                               else None)
                    report.exchanges += 1
                    try:
                        pool.submit("exact", polynomial,
                                    system.probabilities,
                                    timeout=timeout, fault=fault)
                    except expected[fault]:
                        report.well_formed += 1
                        report.faulted += 1
                        report.faults_observed[fault] += 1
                    except BaseException as exc:  # noqa: BLE001
                        _process_malformed(
                            report, fault, "raised %s: %s"
                            % (type(exc).__name__, exc))
                    else:
                        _process_malformed(
                            report, fault, "returned a value instead of "
                            "raising %s" % expected[fault].__name__)
                    # Containment: the executor answers correctly right
                    # after every fault, on a respawned worker if needed.
                    probe_index += 1
                    probe = keys[probe_index % len(keys)]
                    _process_probe(report, executor, probe, references)
            report.pool = pool.stats()
    except Exception as exc:  # noqa: BLE001 — the harness's raison d'être
        report.unhandled = "%s: %s" % (type(exc).__name__, exc)
    report.seconds = time.perf_counter() - started
    return report


def _process_probe(report: ProcessChaosReport, executor: QueryExecutor,
                   key: str, references: Dict[str, float]) -> None:
    """One clean query through the process-isolated executor."""
    report.exchanges += 1
    try:
        value = executor.probability(key, method="exact")
    except BaseException as exc:  # noqa: BLE001
        _process_malformed(report, "probe:%s" % key, "raised %s: %s"
                           % (type(exc).__name__, exc))
        return
    if abs(value - references[key]) <= ACCURACY_ATOL:
        report.well_formed += 1
        report.answered += 1
    else:
        _process_malformed(report, "probe:%s" % key,
                           "answered %.12f, reference %.12f"
                           % (value, references[key]))


def _process_malformed(report: ProcessChaosReport, exchange: str,
                       problem: str) -> None:
    if len(report.malformed) < 20:
        report.malformed.append({"exchange": exchange, "problem": problem})


# ---------------------------------------------------------------------------
# Service-mode chaos: drive the HTTP front-end end-to-end under faults.
# ---------------------------------------------------------------------------

#: Envelope kinds a service response may carry; anything else is malformed.
_SERVICE_KINDS = frozenset({
    "batch_result", "update", "error", "health", "tenant_stats",
    "tenant_list", "tenant_removed"})

#: Statuses the service is allowed to answer with under chaos.  500 is
#: tolerated only when the body is still a structured error envelope.
_SERVICE_STATUSES = frozenset({200, 201, 400, 404, 409, 429, 500, 503})


class ServiceChaosReport:
    """Verdict for one service-mode chaos run.

    ``ok`` requires: no unhandled driver exception, every HTTP exchange
    well-formed (allowed status, parseable JSON envelope of a known
    kind, ``Retry-After`` present on 429/503), and every injected fault
    class observed at least once.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.requests = 0
        self.well_formed = 0
        self.by_status: Dict[str, int] = {}
        self.shed = 0
        self.server_errors = 0
        self.faults_observed: Dict[str, int] = {}
        self.malformed: List[dict] = []
        self.unhandled: Optional[str] = None
        self.final_epoch = 0
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return (self.unhandled is None
                and self.requests > 0
                and self.well_formed == self.requests
                and all(self.faults_observed.get(name, 0) > 0
                        for name in CHAOS_FAULT_CLASSES))

    def summary(self) -> str:
        fault_bits = ", ".join(
            "%s=%d" % (name, self.faults_observed.get(name, 0))
            for name in CHAOS_FAULT_CLASSES)
        status_bits = ", ".join(
            "%s=%d" % (status, count)
            for status, count in sorted(self.by_status.items()))
        return ("service chaos %s: %d/%d well-formed HTTP exchanges "
                "[%s], %d shed (429/503), %d server errors, epoch %d, "
                "faults [%s], %.2fs"
                % ("OK" if self.ok else "FAILED", self.well_formed,
                   self.requests, status_bits, self.shed,
                   self.server_errors, self.final_epoch, fault_bits,
                   self.seconds))

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "service_chaos_report",
            "ok": self.ok,
            "seed": self.seed,
            "seconds": round(self.seconds, 6),
            "requests": self.requests,
            "well_formed": self.well_formed,
            "by_status": dict(self.by_status),
            "shed": self.shed,
            "server_errors": self.server_errors,
            "final_epoch": self.final_epoch,
            "faults_observed": dict(self.faults_observed),
            "malformed": list(self.malformed),
            "unhandled": self.unhandled,
        }

    def __repr__(self) -> str:
        return "ServiceChaosReport(ok=%r, %d/%d well-formed)" % (
            self.ok, self.well_formed, self.requests)


def _service_exchange_problem(path: str, status: int,
                              headers: Dict[str, str],
                              body: bytes) -> Optional[str]:
    """None when the exchange is well-formed, else a short diagnosis."""
    import json as _json
    if status not in _SERVICE_STATUSES:
        return "unexpected status %d" % status
    if path == "/metrics" and status == 200:
        content_type = headers.get("content-type", "")
        if not content_type.startswith("text/plain"):
            return "metrics served with Content-Type %r" % content_type
        return None
    try:
        document = _json.loads(body.decode("utf-8"))
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


def run_service_chaos(seed: int = 0,
                      request_count: int = 60,
                      people: int = 10,
                      samples: int = 20000,
                      max_concurrent: int = 3,
                      max_queue: int = 2,
                      driver_threads: int = 8,
                      plan: Optional[FaultPlan] = None) -> ServiceChaosReport:
    """Chaos through the front door: boot ``repro.serve`` in-process,
    install the same :class:`FaultPlan` as :func:`run_chaos`, and slam
    the HTTP API from concurrent driver threads.

    Beyond the library-level contract (typed outcomes, fault coverage),
    this asserts the *service* contract: every HTTP exchange — including
    shed ones — is a well-formed envelope with the right status code,
    and live updates interleaved with queries keep the epoch moving.
    Small admission limits are chosen on purpose so overload (429) is
    part of the exercised surface, not an error.
    """
    import http.client
    import queue as queue_module

    from ..serve import (
        AdmissionController, ProvenanceService, TenantRegistry,
        start_in_background)

    program = build_chaos_program(people=people, seed=seed)
    config = _resilient_config(seed, samples)
    report = ServiceChaosReport(seed)
    started = time.perf_counter()
    registry = TenantRegistry(base_config=config)
    tenant = registry.create("chaos", source=program)
    keys = list(_candidate_keys(tenant.system, people))[:12]
    if len(keys) < 3:
        report.unhandled = "chaos program yielded %d keys" % len(keys)
        return report

    rng = random.Random(seed)
    workload = _build_service_workload(rng, keys, request_count)
    jobs: "queue_module.Queue" = queue_module.Queue()
    for job in workload:
        jobs.put(job)

    results_lock = threading.Lock()
    chaos_plan = plan if plan is not None else FaultPlan(seed)
    service = ProvenanceService(
        registry,
        AdmissionController(max_concurrent=max_concurrent,
                            max_queue=max_queue,
                            retry_after_seconds=0.05))

    def drive(port: int) -> None:
        import json as _json
        while True:
            try:
                method, path, body = jobs.get_nowait()
            except queue_module.Empty:
                return
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=60)
            try:
                payload = (_json.dumps(body) if body is not None else None)
                connection.request(method, path, body=payload)
                response = connection.getresponse()
                data = response.read()
                headers = {name.lower(): value
                           for name, value in response.getheaders()}
                status = response.status
            finally:
                connection.close()
            problem = _service_exchange_problem(path, status, headers, data)
            with results_lock:
                report.requests += 1
                report.by_status[str(status)] = (
                    report.by_status.get(str(status), 0) + 1)
                if status in (429, 503):
                    report.shed += 1
                if status == 500:
                    report.server_errors += 1
                if problem is None:
                    report.well_formed += 1
                elif len(report.malformed) < 20:
                    report.malformed.append({
                        "method": method, "path": path,
                        "status": status, "problem": problem})

    try:
        with chaos_plan.install():
            handle = start_in_background(service)
            try:
                threads = [
                    threading.Thread(target=drive, args=(handle.port,),
                                     name="p3-chaos-driver-%d" % index,
                                     daemon=True)
                    for index in range(driver_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                stuck = [t.name for t in threads if t.is_alive()]
                if stuck:
                    report.unhandled = "driver threads stuck: %s" % stuck
            finally:
                chaos_plan.hang_release.set()
                handle.stop()
    except Exception as exc:  # noqa: BLE001 — the harness's raison d'être
        report.unhandled = "%s: %s" % (type(exc).__name__, exc)
    finally:
        chaos_plan.hang_release.set()
        registry.close()
    report.faults_observed = dict(chaos_plan.observed)
    report.final_epoch = tenant.system.epoch
    report.seconds = time.perf_counter() - started
    return report
