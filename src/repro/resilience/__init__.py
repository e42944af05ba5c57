"""``repro.resilience``: budgets, retries, fallback ladders, breakers, chaos.

The query pipeline mixes exact inference (worst-case exponential in the
provenance polynomial) with stochastic estimators behind a batch
executor.  A production deployment must survive pathological inputs, slow
or crashing backends, and wedged queries without dropping answers.
This package provides the mechanisms that make that survivable, plus
the harness that proves it:

- :class:`~repro.resilience.budgets.ResourceBudget` — configurable caps on
  monomial count, monomial width, extraction node visits, and
  compiled-polynomial memory, enforced *inside* provenance extraction and
  :class:`~repro.inference.kernel.CompiledPolynomial` through an
  ambient (contextvar-scoped) budget meter.  A blown budget raises a typed
  :class:`~repro.core.errors.BudgetExceededError` carrying partial
  progress.
- :class:`~repro.resilience.retry.RetryPolicy` — bounded retries with
  exponential backoff and jitter, applied only to
  :class:`~repro.core.errors.TransientInferenceError` classes.
- :class:`~repro.resilience.breaker.CircuitBreaker` — per-backend
  closed/open/half-open breakers with failure-rate thresholds and
  cooldown, so a repeatedly failing backend is skipped for subsequent
  specs in a batch instead of burning every query's deadline.
- :class:`~repro.resilience.ladder.FallbackLadder` — a declarative chain
  of inference backends (e.g. exact → bdd → parallel) driven through
  :mod:`repro.inference.registry`; every answer carries a
  :class:`~repro.resilience.ladder.ResilienceRecord` naming the rung that
  answered, the attempts made, and the accuracy downgrade.  Each rung
  runs through the ladder's ``call``; the executor passes its one
  backend-call path, so rungs follow the executor's isolation setting.
- :class:`~repro.resilience.runners.DeadlineRunnerPool` — reusable
  daemon threads that bound a wait: deadlined queries and rungs with
  their own ``timeout`` run there, in a copy of the caller's context,
  and a runner wedged past its timeout is abandoned and counted.
- :class:`~repro.resilience.isolation.ProcessWorkerPool` — spawn-based
  subprocess inference workers (``P3Config(isolation="process")``) with
  hard cancellation (SIGKILL + respawn), per-worker ``RLIMIT_AS`` memory
  caps, and crash containment: worker deaths become typed
  :class:`~repro.core.errors.WorkerCrashError` /
  :class:`~repro.core.errors.WorkerMemoryError` /
  :class:`~repro.core.errors.WorkerTimeoutError` outcomes, never a dead
  service.
- :func:`~repro.resilience.chaos.run_chaos` — the chaos harness
  (``p3 chaos``): one driver over a transport (executor, service or
  process) that injects backend or worker faults and asserts every
  exchange stays well-formed and every fault class is observed.

Configuration enters through :class:`ResilienceConfig` — the
``P3Config(resilience=...)`` knob group — and every resilience event
(retry, trip, fallback, budget hit) emits telemetry
counters and span attributes through :mod:`repro.telemetry`.
"""

from __future__ import annotations

from .budgets import BudgetMeter, ResourceBudget, activate_budget, active_meter
from .breaker import (
    BreakerBoard,
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
)
from .config import ResilienceConfig
from .isolation import ProcessWorkerPool, process_isolation_supported
from .ladder import (
    FallbackLadder,
    FallbackRung,
    LadderExhaustedError,
    ResilienceRecord,
    RungTimeoutError,
)
from .retry import RetryPolicy

__all__ = [
    "BreakerBoard",
    "BreakerPolicy",
    "BudgetMeter",
    "CircuitBreaker",
    "CircuitOpenError",
    "FallbackLadder",
    "FallbackRung",
    "LadderExhaustedError",
    "ProcessWorkerPool",
    "ResilienceConfig",
    "ResilienceRecord",
    "ResourceBudget",
    "RetryPolicy",
    "RungTimeoutError",
    "activate_budget",
    "active_meter",
    "process_isolation_supported",
]
