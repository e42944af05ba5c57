"""The deadline-runner pool: bounded waits on reusable daemon threads.

A Python thread cannot be interrupted, so a deadline on in-process work
is enforced by running the work on another thread and letting the caller
stop waiting.  :class:`DeadlineRunnerPool` is the one place that does
this: the executor runs deadlined specs on it, and a fallback rung with
its own ``timeout`` runs its backend call on it, so every thread a
timeout leaves behind is counted in one ``stats()``.

The pool caps *retention* rather than concurrency: a finished runner
rejoins the idle stack (up to ``max_idle``) and serves the next call,
while a runner still wedged past its caller's timeout is not reused
until its task completes — so a burst of timeouts still gets fresh
threads, but a steady state of fast calls recycles the same few.
Its counts are series of a registry (the owning executor's).
"""

from __future__ import annotations

import contextvars
import queue
import threading
from typing import Any, Callable, Dict, List, Optional

from ..telemetry.metrics import MetricsRegistry

__all__ = ["DeadlineRunnerPool"]


class _Task:
    """One call: the work, its outcome, and its abandonment flag."""

    __slots__ = ("fn", "done", "result", "error", "abandoned")

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.abandoned = False


class DeadlineRunnerPool:
    """A small pool of reusable deadline-runner threads.

    :meth:`call` is the whole interface for work; :meth:`stats` counts
    spawns, reuses and abandonments (total and currently live) for
    ``QueryExecutor.stats()['pool']`` and the service's ``/healthz``.
    """

    def __init__(self, max_idle: int = 4,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.max_idle = max_idle
        self._lock = threading.Lock()
        self._idle: "List[queue.SimpleQueue[Optional[_Task]]]" = []
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._events = {
            event: metrics.counter("p3_deadline_threads_%s_total" % event,
                                   help=text).labels()
            for event, text in (
                ("spawned", "Deadline runner threads started"),
                ("reused", "Deadline calls served by an idle runner"),
                ("abandoned",
                 "Deadline runners abandoned past their timeout"))}
        self._abandoned_live = metrics.gauge(
            "p3_deadline_threads_abandoned_live",
            "Deadline runner threads currently wedged past their "
            "caller's timeout").labels()

    def call(self, fn: Callable[[], Any], timeout: float,
             expired: Callable[[], BaseException]) -> Any:
        """``fn()`` on a runner, waiting at most ``timeout`` seconds.

        ``fn`` runs in a copy of the caller's context, so the current
        span, the ambient budget meter and every other contextvar reach
        the runner; its result or exception crosses back unchanged.
        Past ``timeout`` the runner is abandoned — Python cannot
        interrupt it — and ``expired()`` is raised.
        """
        context = contextvars.copy_context()
        task = _Task(lambda: context.run(fn))
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
            self._events["reused" if inbox is not None
                         else "spawned"].inc()
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(target=self._serve, args=(inbox,),
                             name="p3-deadline", daemon=True).start()
        inbox.put(task)
        if not task.done.wait(timeout):
            self._abandon(task)
            raise expired()
        if task.error is not None:
            raise task.error
        return task.result

    def _serve(self, inbox: "queue.SimpleQueue[Optional[_Task]]") -> None:
        """One runner: execute tasks until stopped or not needed idle."""
        while True:
            task = inbox.get()
            if task is None:
                return
            try:
                task.result = task.fn()
            except BaseException as exc:  # noqa: BLE001 — re-raised by call
                task.error = exc
            with self._lock:
                task.done.set()
                # A wedged task that eventually completed: the runner is
                # healthy again and may rejoin the idle stack.
                if task.abandoned:
                    self._abandoned_live.inc(-1)
                keep = len(self._idle) < self.max_idle
                if keep:
                    self._idle.append(inbox)
            if not keep:
                return

    def _abandon(self, task: _Task) -> None:
        """The caller timed out waiting: write the runner off (for now).

        A task that finished just as the caller gave up is not counted —
        its runner already recycled itself and nothing leaked.
        """
        with self._lock:
            if task.done.is_set():
                return
            task.abandoned = True
            self._events["abandoned"].inc()
            self._abandoned_live.inc()

    def shutdown(self) -> None:
        """Stop the idle runners (wedged ones exit when they finish)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            counts = dict(self._events, abandoned_live=self._abandoned_live)
            return dict({event: int(series.value())
                         for event, series in counts.items()},
                        idle=len(self._idle))
