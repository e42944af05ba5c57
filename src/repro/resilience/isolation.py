"""Process-isolated inference workers: the execution rung threads cannot be.

Everything else in the resilience layer works around one Python fact:
a thread cannot be killed.  The deadline runners
(:mod:`repro.resilience.runners`) *abandon* wedged threads — the wedged
computation keeps burning CPU and holding memory until it finishes or
the process dies, and one segfault inside the NumPy kernel takes every
tenant down with it.  This module supplies the missing primitive: a
small pool of **spawn-based subprocess workers** speaking a pickle-framed
request/response protocol over pipes, giving three guarantees threads
cannot:

- **Hard cancellation.**  A worker past its deadline is SIGKILLed and
  replaced; the CPU and RSS it held are reclaimed by the kernel, not
  leaked into an abandoned-thread count.
- **Memory caps.**  Each worker applies ``resource.setrlimit(RLIMIT_AS)``
  at startup, so a polynomial that would have OOMed the service instead
  produces a typed :class:`~repro.core.errors.WorkerMemoryError`.
- **Crash containment.**  A worker that segfaults, gets OOM-killed, or
  is SIGKILLed from outside yields a typed
  :class:`~repro.core.errors.WorkerCrashError` outcome and a respawned
  worker — never a dead service.

The executor's one backend-call path routes every call here — plain
probabilities, each fallback rung, and budget partials — when
``P3Config(isolation="process")`` (or ``"auto"``) is set.  Workers are
spawned lazily (a spawn costs an interpreter boot plus the NumPy import)
and reused across requests, so steady-state overhead is one pickle
round-trip per inference call.

Fault injection for the chaos harness rides the same wire protocol: a
payload may carry a ``fault`` directive (``"kill9"``, ``"oom"``,
``"wedge-native"``) that the worker executes *instead of* the backend,
exercising the real crash/OOM/kill recovery paths end to end.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import (
    TransientInferenceError,
    WorkerCrashError,
    WorkerMemoryError,
    WorkerTimeoutError,
)
from ..telemetry.metrics import MetricsRegistry

__all__ = [
    "ProcessWorkerPool",
    "WORKER_FAULTS",
    "process_isolation_supported",
]

#: Fault directives a worker understands (chaos harness only; production
#: payloads never set one).
WORKER_FAULTS: Tuple[str, ...] = ("kill9", "oom", "wedge-native")

#: Default number of resident workers.  Two is deliberate: one absorbs a
#: wedge/kill while the other keeps answering, and each spawn costs an
#: interpreter boot plus the NumPy import (~1s), so large pools are paid
#: for up front.
DEFAULT_WORKERS = 2

#: How long a checkout waits for a busy pool before giving up.
_CHECKOUT_TIMEOUT = 60.0

#: The pool's event counters: (``stats()`` field, metric name, help).
_EVENTS = (
    ("spawned", "p3_isolation_spawns_total",
     "Isolated inference workers started"),
    ("respawned", "p3_isolation_respawns_total",
     "Isolated inference workers respawned after a death"),
    ("killed", "p3_isolation_kills_total",
     "Isolated workers SIGKILLed past a deadline"),
    ("crashed", "p3_isolation_crashes_total",
     "Isolated workers that died mid-request"),
    ("memory_trips", "p3_isolation_memory_trips_total",
     "Worker requests that hit the RLIMIT_AS cap"),
    ("requests", "p3_isolation_requests_total",
     "Requests sent to isolated inference workers"),
)


def process_isolation_supported() -> bool:
    """Can this platform run the process-isolation rung?

    Spawn-based ``multiprocessing`` exists everywhere, but hard
    cancellation (SIGKILL) and memory caps (``resource``) are POSIX; the
    ``"auto"`` isolation mode falls back to threads elsewhere.
    """
    return os.name == "posix"


# ---------------------------------------------------------------------------
# Worker side (runs in the spawned child process)
# ---------------------------------------------------------------------------

def _apply_memory_cap(limit_bytes: Optional[int]) -> None:
    if not limit_bytes:
        return
    try:
        import resource
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit_bytes = min(limit_bytes, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, hard))
    except (ImportError, ValueError, OSError):
        pass  # unsupported platform: cap is advisory there


def _run_fault(fault: str, memory_capped: bool) -> None:
    """Execute a chaos fault directive inside the worker."""
    if fault == "kill9":
        # Self-inflicted SIGKILL: from the parent's side this is
        # indistinguishable from an external `kill -9` or the kernel's
        # OOM killer — the pipe just goes dead.
        os.kill(os.getpid(), 9)
    if fault == "wedge-native":
        # A busy loop no signal handler or deadline check will ever
        # interrupt — the stand-in for a wedged native kernel.  Only
        # SIGKILL ends it.
        while True:
            sum(range(1024))
    if fault == "oom":
        if not memory_capped:
            # Without an RLIMIT_AS cap a real allocation loop would eat
            # the host; synthesize the MemoryError the cap would raise.
            raise MemoryError("injected oom (no RLIMIT_AS cap configured)")
        hog: List[bytearray] = []
        while True:
            hog.append(bytearray(16 * 1024 * 1024))
    raise ValueError("Unknown worker fault %r" % fault)


def _serve_one(payload: Dict[str, Any], memory_capped: bool) -> Tuple[str, Any]:
    """(status, reply-payload) for one request; never raises."""
    try:
        fault = payload.get("fault")
        if fault is not None:
            _run_fault(fault, memory_capped)
        from ..inference.registry import get_backend
        from ..inference.request import InferenceRequest
        backend = get_backend(payload["method"])
        request = InferenceRequest(**payload["request"])
        reading = backend.run(
            payload["polynomial"], payload["probabilities"], request)
        return ("ok", reading)
    except MemoryError as exc:
        return ("memory", str(exc))
    except BaseException as exc:  # noqa: BLE001 — shipped back typed
        try:
            pickle.dumps(exc)
            return ("error", exc)
        except Exception:  # unpicklable exception: ship the description
            return ("error", "%s: %s" % (type(exc).__name__, exc))


def _worker_rss_bytes() -> int:
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS.
        scale = 1 if os.uname().sysname == "Darwin" else 1024
        return int(usage.ru_maxrss) * scale
    except (ImportError, AttributeError, OSError):
        return 0


def _worker_main(conn: Any, memory_limit_bytes: Optional[int]) -> None:
    """Entry point of a spawned worker: serve requests until EOF/None.

    The memory cap is applied *after* interpreter boot, so
    ``memory_limit_bytes`` bounds the per-request growth on top of the
    baseline image.  A capped worker therefore imports the sampling
    kernel (NumPy alone needs ~100MB of address space) before the cap
    lands; an uncapped one imports it on its first sampled call.
    """
    import signal
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns Ctrl-C
    except (ValueError, OSError):
        pass
    from ..inference import registry as _registry  # noqa: F401
    if memory_limit_bytes:
        from ..inference import kernel as _kernel  # noqa: F401
    _apply_memory_cap(memory_limit_bytes)
    memory_capped = bool(memory_limit_bytes)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        request_id, payload = message
        status, reply = _serve_one(payload, memory_capped)
        try:
            conn.send({"id": request_id, "status": status, "payload": reply,
                       "rss": _worker_rss_bytes()})
        except (OSError, ValueError, pickle.PicklingError):
            return  # parent is gone or reply unshippable; die quietly


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _Worker:
    """One live subprocess plus its parent-side pipe end."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessWorkerPool:
    """A fixed-size pool of spawn-based inference workers.

    Parameters
    ----------
    workers:
        Resident worker count.  Callers block (bounded) when all are
        busy, so this also caps concurrent isolated inference.
    memory_limit_bytes:
        Per-worker ``RLIMIT_AS`` cap applied after interpreter boot
        (None = uncapped).  A worker that hits it answers the in-flight
        request with a typed :class:`WorkerMemoryError`.
    spawn_timeout:
        How long to wait for a fresh worker's process to start.
    metrics:
        The registry holding the pool's counts (the owning executor's;
        a private one when None); :meth:`stats` reads them.

    Thread-safe: executor worker threads submit concurrently; each
    request occupies one worker for its duration.  Workers are spawned
    lazily and respawned after any death (timeout kill, crash, chaos
    fault), so the pool converges back to ``workers`` live processes.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 memory_limit_bytes: Optional[int] = None,
                 spawn_timeout: float = 120.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if memory_limit_bytes is not None and memory_limit_bytes <= 0:
            raise ValueError("memory_limit_bytes must be positive or None")
        import multiprocessing
        self.workers = workers
        self.memory_limit_bytes = memory_limit_bytes
        self.spawn_timeout = spawn_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._cond = threading.Condition()
        self._idle: List[_Worker] = []
        self._live = 0
        self._closed = False
        self._ids = itertools.count(1)
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._events = {field: metrics.counter(name, help=text).labels()
                        for field, name, text in _EVENTS}
        self._max_rss = metrics.gauge(
            "p3_isolation_worker_rss_bytes",
            "Peak RSS reported by isolated inference workers",
            aggregate="max").labels()

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.memory_limit_bytes),
            name="p3-isolated-worker", daemon=True)
        process.start()
        child_conn.close()
        events = self._events
        with self._cond:
            events["spawned"].inc()
            # Every death (a kill or a crash) earns one respawn.
            deaths = events["killed"].value() + events["crashed"].value()
            if events["respawned"].value() < deaths:
                events["respawned"].inc()
        return _Worker(process, parent_conn)

    def _destroy(self, worker: _Worker, how: str) -> None:
        """Tear one worker down and record why (``killed``/``crashed``)."""
        try:
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=5.0)
        except (OSError, ValueError, AttributeError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        with self._cond:
            self._events["killed" if how == "killed" else "crashed"].inc()

    def _checkout(self, timeout: Optional[float]) -> _Worker:
        wait_budget = min(_CHECKOUT_TIMEOUT, timeout or _CHECKOUT_TIMEOUT)
        deadline = time.monotonic() + wait_budget
        spawn_needed = False
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("ProcessWorkerPool is closed")
                while self._idle:
                    worker = self._idle.pop()
                    if worker.alive():
                        return worker
                    # Died while idle (external kill): replace lazily.
                    self._live -= 1
                    self._reap_idle_death(worker)
                if self._live < self.workers:
                    self._live += 1
                    spawn_needed = True
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerTimeoutError("(pool)", wait_budget)
                self._cond.wait(timeout=remaining)
        try:
            return self._spawn()
        except BaseException:
            with self._cond:
                self._live -= 1
                self._cond.notify()
            raise

    def _reap_idle_death(self, worker: _Worker) -> None:
        # Called under the lock: only bookkeeping, no joins.
        self._events["crashed"].inc()
        try:
            worker.conn.close()
        except OSError:
            pass

    def _checkin(self, worker: _Worker, healthy: bool) -> None:
        with self._cond:
            if healthy and not self._closed and worker.alive():
                self._idle.append(worker)
            else:
                self._live -= 1
            self._cond.notify()
        # An unhealthy worker was destroyed at the failure site, so its
        # exit code is collected before the error is raised.
        if healthy and self._closed:
            self._shutdown_worker(worker)

    # -- the request/response exchange -------------------------------------

    def submit(self, method: str, polynomial: Any, probabilities: Any,
               request: Any = None, timeout: Optional[float] = None,
               fault: Optional[str] = None) -> Any:
        """Run ``method`` on an isolated worker; returns a BackendReading.

        ``timeout`` (and/or ``request.deadline``) bounds the exchange:
        past it the worker is SIGKILLed and :class:`WorkerTimeoutError`
        raised.  A worker death raises :class:`WorkerCrashError`; a blown
        memory cap raises :class:`WorkerMemoryError`.  All three are
        absorbed by the fallback ladder.
        """
        from ..inference.request import InferenceRequest
        request = InferenceRequest.coerce(request)
        effective = timeout
        if request.deadline is not None:
            remaining = request.deadline - time.monotonic()
            effective = (remaining if effective is None
                         else min(effective, remaining))
        if effective is not None and effective <= 0:
            raise WorkerTimeoutError(method, max(effective, 0.0))
        if fault is not None and fault not in WORKER_FAULTS:
            raise ValueError("Unknown worker fault %r" % fault)
        payload = {
            "method": method,
            "polynomial": polynomial,
            "probabilities": dict(probabilities),
            "request": self._wire_request(request),
            "fault": fault,
        }
        worker = self._checkout(effective)
        healthy = False
        try:
            reply = self._exchange(worker, payload, effective, method)
            healthy = True
        finally:
            self._checkin(worker, healthy)
        return self._interpret(reply, method)

    def _wire_request(self, request: Any) -> Dict[str, Any]:
        fields = {name: getattr(request, name)
                  for name in request.__slots__}
        budget = fields.get("budget")
        if budget is not None:
            try:
                pickle.dumps(budget)
            except Exception:
                fields["budget"] = None  # meter ambience stays parent-side
        return fields

    def _exchange(self, worker: _Worker, payload: Dict[str, Any],
                  timeout: Optional[float], method: str) -> Dict[str, Any]:
        request_id = next(self._ids)
        self._events["requests"].inc()
        try:
            worker.conn.send((request_id, payload))
        except (OSError, ValueError, BrokenPipeError) as exc:
            exitcode = self._collect_exit(worker)
            self._destroy(worker, "crashed")
            raise WorkerCrashError(method, exitcode,
                                   detail="send failed: %s" % exc)
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._destroy(worker, "killed")
                    raise WorkerTimeoutError(method, timeout)
            try:
                ready = worker.conn.poll(remaining)
            except (OSError, EOFError):
                exitcode = self._collect_exit(worker)
                self._destroy(worker, "crashed")
                raise WorkerCrashError(method, exitcode)
            if not ready:
                self._destroy(worker, "killed")
                raise WorkerTimeoutError(method, timeout or 0.0)
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                exitcode = self._collect_exit(worker)
                self._destroy(worker, "crashed")
                raise WorkerCrashError(method, exitcode)
            except Exception as exc:  # unpicklable/corrupt frame
                self._destroy(worker, "crashed")
                raise WorkerCrashError(method, None,
                                       detail="bad frame: %s" % exc)
            if isinstance(reply, dict) and reply.get("id") == request_id:
                self._note_rss(reply.get("rss") or 0)
                return reply
            # A frame for a request this pool no longer remembers (can
            # only happen after a protocol bug): drop the worker rather
            # than trust its stream.
            self._destroy(worker, "crashed")
            raise WorkerCrashError(method, None, detail="protocol desync")

    def _collect_exit(self, worker: _Worker) -> Optional[int]:
        try:
            worker.process.join(timeout=2.0)
            return worker.process.exitcode
        except (OSError, ValueError, AssertionError):
            return None

    def _interpret(self, reply: Dict[str, Any], method: str) -> Any:
        status = reply.get("status")
        payload = reply.get("payload")
        if status == "ok":
            return payload
        if status == "memory":
            self._events["memory_trips"].inc()
            raise WorkerMemoryError(method, self.memory_limit_bytes,
                                    detail=str(payload))
        if isinstance(payload, BaseException):
            raise payload
        raise TransientInferenceError(
            "Isolated worker failed: %s" % (payload,))

    def _note_rss(self, rss: int) -> None:
        with self._cond:
            if rss > self._max_rss.value():
                self._max_rss.set(rss)

    # -- shutdown and introspection -----------------------------------------

    def _shutdown_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.send(None)
        except (OSError, ValueError):
            pass
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def close(self) -> None:
        """Stop all idle workers; busy ones die when their request ends."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._live -= len(idle)
            self._cond.notify_all()
        for worker in idle:
            self._shutdown_worker(worker)

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def live_workers(self) -> int:
        with self._cond:
            return self._live

    def stats(self) -> Dict[str, int]:
        with self._cond:
            document = {"workers": self.workers, "live": self._live,
                        "idle": len(self._idle)}
            for field, series in self._events.items():
                document[field] = int(series.value())
            document["max_rss_bytes"] = int(self._max_rss.value())
            return document

    def __repr__(self) -> str:
        return "ProcessWorkerPool(%d workers, %d live)" % (
            self.workers, self.live_workers())
