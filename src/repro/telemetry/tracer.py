"""Per-query span trees with ``contextvars`` propagation.

A :class:`Span` is one timed region of the pipeline — a stage like
``parse`` or ``infer``, one backend call, one executor query — with a
trace id shared by every span of the same logical operation, a span id,
and its parent's span id.  Parentage is tracked through a
:class:`contextvars.ContextVar`, so nesting is established by lexical
``with`` scoping in one thread, and survives the hop onto a deadline
runner thread because the submitting thread copies its context into the
runner (see :meth:`repro.exec.executor.QueryExecutor._execute_with_deadline`).

Two clocks are recorded per span: a monotonic ``perf_counter_ns`` pair
(``start_ns`` + ``duration_ns``) that makes parent/child containment
checks exact, and a wall-clock anchor kept on the tracer so exported
spans also carry absolute ``start_unix`` timestamps.

The disabled path is a single shared :data:`NULL_SPAN` context manager:
``Tracer.span`` on a disabled tracer allocates nothing and the guard is
one attribute check, so instrumentation can stay inline in hot code.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

#: The innermost live span of the current logical context (None at top
#: level).  Worker threads inherit it by running inside a copy of the
#: submitting thread's context.
CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = (
    contextvars.ContextVar("p3_current_span", default=None))


def current_span() -> "Optional[Span]":
    """The innermost live span of this context, or None."""
    return CURRENT_SPAN.get()


class Span:
    """One timed, attributed region of the pipeline.

    Ids are minted as integers and formatted to their exported string
    form (``t%08x`` / ``s%08x``) lazily on first access: a span that is
    recorded, ringed, and dropped without ever being exported — the
    common fate on a hot path — never pays for string formatting.  The
    ``trace_id`` / ``span_id`` / ``parent_id`` properties accept either
    representation, so constructing spans with string ids (as tests and
    external tooling do) keeps working unchanged.
    """

    __slots__ = ("_trace_raw", "_span_raw", "_parent_raw", "name",
                 "start_ns", "duration_ns", "attributes", "status",
                 "thread", "_token", "_tracer")

    def __init__(self, trace_id, span_id, parent_id, name: str,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self._trace_raw = trace_id
        self._span_raw = span_id
        self._parent_raw = parent_id
        self.name = name
        self.start_ns = 0
        self.duration_ns = 0
        # Takes ownership: the tracer hands us a fresh kwargs dict.
        self.attributes: Dict[str, Any] = \
            attributes if attributes is not None else {}
        self.status = "ok"
        self.thread = ""
        self._token: Optional[contextvars.Token] = None
        self._tracer: Optional["Tracer"] = None

    # -- identifiers (lazily formatted) ------------------------------------------

    @property
    def trace_id(self) -> str:
        raw = self._trace_raw
        if type(raw) is int:
            raw = self._trace_raw = "t%08x" % raw
        return raw

    @property
    def span_id(self) -> str:
        raw = self._span_raw
        if type(raw) is int:
            raw = self._span_raw = "s%08x" % raw
        return raw

    @property
    def parent_id(self) -> Optional[str]:
        raw = self._parent_raw
        if type(raw) is int:
            raw = self._parent_raw = "s%08x" % raw
        return raw

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Span":
        self.thread = threading.current_thread().name
        self._token = CURRENT_SPAN.set(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.duration_ns = time.perf_counter_ns() - self.start_ns
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault(
                "error", "%s: %s" % (getattr(exc_type, "__name__", exc_type),
                                     exc))
        if self._token is not None:
            CURRENT_SPAN.reset(self._token)
            self._token = None
        tracer = self._tracer
        if tracer is not None:
            tracer._finish(self)

    # -- recording --------------------------------------------------------------

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    @property
    def recording(self) -> bool:
        return True

    # -- reading ----------------------------------------------------------------

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9

    def start_unix(self, anchor_ns: int) -> float:
        """Absolute start time in unix seconds, given the tracer anchor."""
        return (anchor_ns + self.start_ns) / 1e9

    def to_dict(self, anchor_ns: int = 0) -> dict:
        """JSON-friendly snapshot (one JSONL line / trace-envelope entry)."""
        document: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "start_unix": self.start_unix(anchor_ns),
            "duration": self.duration_seconds,
            "status": self.status,
        }
        if self.attributes:
            document["attributes"] = dict(self.attributes)
        return document

    def __repr__(self) -> str:
        return "Span(%s, %.6fs, trace=%s)" % (
            self.name, self.duration_seconds, self.trace_id)


class _NullSpan:
    """The span handed out when tracing is disabled: ignores everything."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    status = "ok"
    attributes: Dict[str, Any] = {}
    recording = False

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


#: Shared no-op span/context-manager for the disabled path.
NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans, assigns trace/span ids, and feeds finished spans
    to the configured sinks.

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns the shared :data:`NULL_SPAN`
        without allocating anything.
    sinks:
        Objects with an ``on_span(span)`` method (see
        :mod:`repro.telemetry.sinks`), called once per *finished* span —
        children before their parents, since children exit first.
    """

    def __init__(self, enabled: bool = True,
                 sinks: Sequence[Any] = ()) -> None:
        self.enabled = enabled
        self._sinks: List[Any] = list(sinks)
        self._ids = itertools.count(1)
        # Maps the monotonic span clock onto the wall clock for exports.
        self.anchor_ns = time.time_ns() - time.perf_counter_ns()

    def add_sink(self, sink: Any) -> None:
        self._sinks.append(sink)

    @property
    def sinks(self) -> List[Any]:
        return list(self._sinks)

    def span(self, name: str, **attributes: Any):
        """A context manager yielding a new child of the current span.

        With no live current span a fresh trace id is minted, making the
        new span a trace root.  Ids stay integers here (no string
        formatting on the hot path); the span properties format them on
        first read.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = CURRENT_SPAN.get()
        span_id = next(self._ids)
        if parent is None:
            trace_id = next(self._ids)
            parent_id = None
        else:
            trace_id = parent._trace_raw
            parent_id = parent._span_raw
        span = Span(trace_id, span_id, parent_id, name, attributes)
        span._tracer = self
        return span

    def _finish(self, span: Span) -> None:
        for sink in self._sinks:
            sink.on_span(span)

    def __repr__(self) -> str:
        return "Tracer(enabled=%r, %d sinks)" % (
            self.enabled, len(self._sinks))


#: Shared disabled tracer (the default runtime's tracer).
NULL_TRACER = Tracer(enabled=False)
