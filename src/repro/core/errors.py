"""Exception hierarchy for the P3 system facade.

Lower layers raise their own specific exceptions (``ParseError``,
``EvaluationError``, ``ExtractionError``, ...); the facade wraps user-level
mistakes in :class:`P3Error` subclasses so applications can catch one base
type.

Inference failure taxonomy
--------------------------

The resilience layer (:mod:`repro.resilience`) needs to decide, per
exception, whether retrying the same backend can help, whether falling
through to the next rung of a backend ladder can help, or whether the
query itself is malformed.  That decision is encoded as a class hierarchy
rather than per-site string matching:

- :class:`TransientInferenceError` — the failure is environmental (a
  flaky worker, an injected fault, a resource that may come back).
  Retrying the *same* backend with backoff is sensible.
- :class:`PermanentInferenceError` — the backend deterministically cannot
  answer this input (unsupported structure, invalid parameters).
  Retrying is useless; falling through to a different backend may help.
- :class:`BudgetExceededError` — a configured resource budget (monomial
  count, monomial width, extraction node visits, compiled-polynomial
  memory) was hit.  Permanent for the backend that hit it, but carries
  ``partial`` progress so callers can degrade instead of discarding work.

Historical exception types (``ExactLimitError``,
``ExtractionError``, argument-validation ``ValueError`` raises in the
samplers) are kept as subclasses of the taxonomy *and* of their original
builtin bases, so existing ``except RuntimeError`` / ``except ValueError``
call sites keep working.
"""

from __future__ import annotations

from typing import Optional


class P3Error(Exception):
    """Base class for errors raised by the P3 facade."""


class NotEvaluatedError(P3Error):
    """A query was issued before :meth:`P3.evaluate` ran."""


class UnknownTupleError(P3Error, KeyError):
    """The queried tuple is not derivable (absent from the provenance graph)."""

    def __init__(self, tuple_key: str) -> None:
        super().__init__(
            "Tuple %r was not derived by the program; "
            "check the relation name and argument constants" % tuple_key)
        self.tuple_key = tuple_key


class UnknownLiteralError(P3Error, KeyError):
    """A literal was referenced that does not occur in the provenance."""

    def __init__(self, key: str) -> None:
        super().__init__("Literal %r does not appear in the provenance" % key)
        self.key = key


class QueryTimeoutError(P3Error, TimeoutError):
    """A query exceeded its per-query deadline.

    Raised inside the batch executor when a spec's ``timeout`` (or the
    config's ``query_timeout``) elapses; in a batch it is captured as that
    outcome's error instead of propagating.
    """

    def __init__(self, key: str, timeout: float) -> None:
        super().__init__(
            "Query %r exceeded its deadline of %.3fs" % (key, timeout))
        self.key = key
        self.timeout = timeout


# -- inference failure taxonomy -------------------------------------------------

class InferenceError(P3Error):
    """Base class for failures inside a probability backend."""


class TransientInferenceError(InferenceError):
    """A backend failure that a retry (same backend, same input) may fix.

    Raised for environmental conditions — flaky workers, injected chaos
    faults, temporarily unavailable resources.  The resilience layer's
    retry policies retry exactly this class (and ``OSError``); everything
    else falls through to the next ladder rung immediately.
    """


class PermanentInferenceError(InferenceError):
    """A backend failure no retry can fix (for this backend and input).

    A different backend may still succeed, so fallback ladders treat this
    as "skip to the next rung".
    """


class InferenceConfigurationError(PermanentInferenceError, ValueError):
    """Invalid parameters for an inference call (``samples <= 0``, ...).

    Subclasses ``ValueError`` so historical ``except ValueError`` call
    sites (and tests) keep catching argument mistakes.
    """


class BudgetExceededError(PermanentInferenceError, RuntimeError):
    """A configured resource budget was exhausted mid-computation.

    Parameters
    ----------
    message:
        Human-readable description of what blew up.
    resource:
        Which budget was hit: ``"monomials"``, ``"monomial_width"``,
        ``"node_visits"``, ``"compiled_bytes"``, ``"assignments"``, ...
    limit / used:
        The configured cap and the amount consumed when it tripped.
    partial:
        Whatever partial progress the computation can hand back (for
        extraction, the last consistent intermediate polynomial) so
        callers can degrade gracefully instead of discarding work.

    Subclasses ``RuntimeError`` because the historical budget errors
    (``ExtractionError``, ``ExactLimitError``) did, and callers catch
    them as such.
    """

    def __init__(self, message: str,
                 resource: Optional[str] = None,
                 limit: Optional[float] = None,
                 used: Optional[float] = None,
                 partial: Optional[object] = None) -> None:
        super().__init__(message)
        self.resource = resource
        self.limit = limit
        self.used = used
        self.partial = partial

    def to_dict(self) -> dict:
        document = {"message": str(self), "resource": self.resource}
        if self.limit is not None:
            document["limit"] = self.limit
        if self.used is not None:
            document["used"] = self.used
        document["has_partial"] = self.partial is not None
        return document


class DepthLimitError(P3Error, RecursionError):
    """A recursive walk (parsing or provenance extraction) went too deep.

    Pathologically deep programs and derivation chains used to surface as
    a bare ``RecursionError`` — an interpreter-level crash that a service
    worker cannot distinguish from a bug.  This typed, budget-style error
    carries *where* the walk blew up (``phase``) and the depth bound that
    was in force, so the query fails with a structured envelope and the
    process keeps serving.

    Subclasses ``RecursionError`` so historical ``except RecursionError``
    call sites keep catching it.
    """

    def __init__(self, phase: str, limit: int,
                 detail: Optional[str] = None) -> None:
        message = ("%s exceeded the recursion depth limit (%d)"
                   % (phase, limit))
        if detail:
            message = "%s: %s" % (message, detail)
        super().__init__(message)
        self.phase = phase
        self.limit = limit

    def to_dict(self) -> dict:
        return {"message": str(self), "phase": self.phase,
                "resource": "recursion_depth", "limit": self.limit}


# -- process-isolation worker failures ------------------------------------------

class WorkerCrashError(TransientInferenceError):
    """A process-isolation worker died mid-request (segfault, OOM kill,
    external SIGKILL).

    Transient by design: the crash took the *worker* down, not the
    service — the pool respawns a replacement, and retrying the same
    backend on a fresh worker is sensible (an externally killed worker
    says nothing about the input).  Carries how the worker died so
    outcomes and chaos reports can distinguish signal deaths from plain
    exits.
    """

    def __init__(self, backend: str, exitcode: Optional[int] = None,
                 detail: str = "") -> None:
        how = "exit code %r" % (exitcode,)
        if exitcode is not None and exitcode < 0:
            how = "signal %d" % (-exitcode,)
        message = ("Inference worker running backend %r died (%s)"
                   % (backend, how))
        if detail:
            message = "%s: %s" % (message, detail)
        super().__init__(message)
        self.backend = backend
        self.exitcode = exitcode

    def to_dict(self) -> dict:
        document = {"message": str(self), "backend": self.backend,
                    "exitcode": self.exitcode}
        if self.exitcode is not None and self.exitcode < 0:
            document["signal"] = -self.exitcode
        return document


class WorkerMemoryError(PermanentInferenceError, MemoryError):
    """A process-isolation worker hit its ``RLIMIT_AS`` memory cap.

    Permanent for the backend that hit it — the same input would blow the
    same cap again — so fallback ladders skip to the next rung instead of
    retrying.  Subclasses ``MemoryError`` so the ladder's absorbed-class
    list and historical handlers keep catching it.
    """

    def __init__(self, backend: str, limit_bytes: Optional[int] = None,
                 detail: str = "") -> None:
        message = "Inference worker running backend %r exhausted " \
                  "its memory cap" % backend
        if limit_bytes is not None:
            message = "%s (%d bytes)" % (message, limit_bytes)
        if detail:
            message = "%s: %s" % (message, detail)
        super().__init__(message)
        self.backend = backend
        self.limit_bytes = limit_bytes

    def to_dict(self) -> dict:
        return {"message": str(self), "backend": self.backend,
                "resource": "worker_memory", "limit": self.limit_bytes}


class WorkerTimeoutError(InferenceError, TimeoutError):
    """A process-isolation worker exceeded its deadline and was killed.

    Unlike a thread-pool timeout — which merely *abandons* the wedged
    thread — the worker process was SIGKILLed, so the CPU and memory it
    held are actually reclaimed.  A ``TimeoutError``, so retry policies
    skip it and ladders fall through to the next rung.
    """

    def __init__(self, backend: str, timeout: float) -> None:
        super().__init__(
            "Inference worker running backend %r exceeded its deadline "
            "of %.3fs and was killed" % (backend, timeout))
        self.backend = backend
        self.timeout = timeout

    def to_dict(self) -> dict:
        return {"message": str(self), "backend": self.backend,
                "timeout": self.timeout}


#: Exception classes worth retrying on the same backend.
TRANSIENT_CLASSES = (TransientInferenceError, OSError)


def is_transient(error: BaseException) -> bool:
    """Can retrying the same backend plausibly fix ``error``?

    Budget hits and other permanent errors answer False even though
    ``BudgetExceededError`` passes an ``isinstance`` check against
    ``OSError``-unrelated bases; timeouts answer False too — the time is
    better spent on a cheaper rung.
    """
    if isinstance(error, (PermanentInferenceError, TimeoutError)):
        return False
    return isinstance(error, TRANSIENT_CLASSES)
