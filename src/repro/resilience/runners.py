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
"""

from __future__ import annotations

import contextvars
import queue
import threading
from typing import Any, Callable, Dict, List, Optional

from .. import telemetry

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

    def __init__(self, max_idle: int = 4) -> None:
        self.max_idle = max_idle
        self._lock = threading.Lock()
        self._idle: "List[queue.SimpleQueue[Optional[_Task]]]" = []
        self._counts = {"spawned": 0, "reused": 0, "abandoned": 0,
                        "abandoned_live": 0}

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
            self._counts["reused" if inbox is not None else "spawned"] += 1
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
                    self._counts["abandoned_live"] -= 1
                keep = len(self._idle) < self.max_idle
                if keep:
                    self._idle.append(inbox)
                live = self._counts["abandoned_live"]
            if task.abandoned:
                self._note_live(live)
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
            self._counts["abandoned"] += 1
            self._counts["abandoned_live"] += 1
            live = self._counts["abandoned_live"]
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_deadline_threads_abandoned_total",
                help="Deadline runners abandoned past their timeout").inc()
        self._note_live(live)

    @staticmethod
    def _note_live(live: int) -> None:
        rt = telemetry.runtime()
        if rt.enabled:
            rt.metrics.gauge(
                "p3_deadline_threads_abandoned_live",
                "Deadline runner threads currently wedged past their "
                "caller's timeout").labels().set(float(live))

    def shutdown(self) -> None:
        """Stop the idle runners (wedged ones exit when they finish)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts, idle=len(self._idle))
