"""``repro.telemetry``: structured tracing, metrics, and profiling.

One process-wide :class:`TelemetryRuntime` (off by default) bundles a
:class:`~repro.telemetry.tracer.Tracer`, a
:class:`~repro.telemetry.metrics.MetricsRegistry`, and the configured
sinks.  Instrumentation sites across the pipeline follow one pattern::

    from .. import telemetry

    rt = telemetry.runtime()
    if rt.enabled:
        with rt.tracer.span("infer", backend=name) as span:
            ... timed work, span.set_attribute(...), rt.metrics...

so the disabled cost is a module-global read plus one attribute check —
no spans, no metric lookups, no allocation.  Enable it with::

    telemetry.configure(TelemetryConfig(enabled=True,
                                        trace_path="trace.jsonl"))
    ... traced work ...
    telemetry.finish()     # flush sinks, write metrics/chrome exports
    telemetry.disable()    # back to the no-op runtime

or per system via ``P3Config(telemetry=TelemetryConfig(...))``, or from
the command line via ``p3 trace`` / ``--trace-out`` / ``--metrics-out``.

Span stage names mirror :data:`repro.exec.executor.STAGES` (``parse``,
``evaluate``, ``update``, ``extract``, ``infer``, ``query``) with finer
module-level spans (``extract.polynomial``, ``infer.backend``,
``query.influence``, …) nested beneath them; docs/OBSERVABILITY.md
documents the full span and metric inventory.

The runtime's registry holds the process-scoped families only; counts an
object owns (an executor's, say) live in its own registry, recorded with
telemetry on or off, and an export merges them in (``registries``).
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_SECONDS,
    MetricsRegistry,
    merge,
)
from .sinks import (
    JSONLSink,
    RingBufferSink,
    SlowQueryLog,
    chrome_trace_events,
    render_span_tree,
    write_chrome_trace,
)
from .tracer import NULL_SPAN, NULL_TRACER, Span, Tracer, current_span
from .validate import validate_span_dicts


class TelemetryConfig:
    """Declarative telemetry settings (the ``P3Config.telemetry`` knob).

    Parameters
    ----------
    enabled:
        Master switch; everything below is inert when False.
    ring_capacity:
        Bound of the in-memory span ring buffer (``p3 trace`` and the
        audit replay attachment read recent spans from it).
    trace_path:
        When set, stream every finished span to this JSONL file.
    chrome_path:
        When set, :func:`finish` writes the ring buffer as a Chrome
        ``trace_event`` JSON file for flamegraph viewing.
    metrics_path:
        When set, :func:`finish` writes the metrics registry in the
        Prometheus text format.
    slow_query_seconds:
        When set, spans named ``query`` (one executor spec) or trace
        roots slower than this are retained in the slow-query log.
    """

    def __init__(self,
                 enabled: bool = True,
                 ring_capacity: int = 4096,
                 trace_path: Optional[str] = None,
                 chrome_path: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 slow_query_seconds: Optional[float] = None) -> None:
        if ring_capacity <= 0:
            raise ValueError("ring_capacity must be positive")
        if slow_query_seconds is not None and slow_query_seconds <= 0:
            raise ValueError("slow_query_seconds must be positive or None")
        self.enabled = enabled
        self.ring_capacity = ring_capacity
        self.trace_path = trace_path
        self.chrome_path = chrome_path
        self.metrics_path = metrics_path
        self.slow_query_seconds = slow_query_seconds

    def __repr__(self) -> str:
        return "TelemetryConfig(enabled=%r)" % self.enabled


class TelemetryRuntime:
    """The live bundle: tracer + metrics + sinks for one configuration."""

    def __init__(self, config: TelemetryConfig) -> None:
        self.config = config
        self.enabled = config.enabled
        self.metrics = MetricsRegistry()
        self.ring: Optional[RingBufferSink] = None
        self.jsonl: Optional[JSONLSink] = None
        self.slow_log: Optional[SlowQueryLog] = None
        if not config.enabled:
            self.tracer = NULL_TRACER
            return
        self.tracer = Tracer(enabled=True)
        self.ring = RingBufferSink(config.ring_capacity)
        self.tracer.add_sink(self.ring)
        if config.trace_path is not None:
            self.jsonl = JSONLSink(config.trace_path,
                                   anchor_ns=self.tracer.anchor_ns)
            self.tracer.add_sink(self.jsonl)
        if config.slow_query_seconds is not None:
            self.slow_log = SlowQueryLog(config.slow_query_seconds)
            self.tracer.add_sink(self.slow_log)

    def finish(self, registries: Sequence[MetricsRegistry] = ()) -> None:
        """Flush and close file sinks; write the deferred exports (the
        metrics file merges ``registries`` into this runtime's)."""
        if self.jsonl is not None:
            self.jsonl.close()
        if self.config.chrome_path is not None and self.ring is not None:
            write_chrome_trace(self.ring.spans(), self.config.chrome_path)
        if self.config.metrics_path is not None:
            with open(self.config.metrics_path, "w",
                      encoding="utf-8") as handle:
                handle.write(
                    merge([self.metrics, *registries]).to_prometheus())

    def __repr__(self) -> str:
        return "TelemetryRuntime(enabled=%r)" % self.enabled


#: The permanent no-op runtime (also what :func:`disable` restores).
_DISABLED = TelemetryRuntime(TelemetryConfig(enabled=False))

_runtime: TelemetryRuntime = _DISABLED
_runtime_lock = threading.Lock()


def runtime() -> TelemetryRuntime:
    """The process-wide telemetry runtime (the no-op one by default)."""
    return _runtime


def get_tracer() -> Tracer:
    return _runtime.tracer


def get_metrics() -> MetricsRegistry:
    return _runtime.metrics


def configure(config: Optional[TelemetryConfig] = None,
              **overrides: object) -> TelemetryRuntime:
    """Install a fresh runtime built from ``config`` (or keyword fields).

    Replaces the current runtime atomically; the previous runtime's file
    sinks are closed first.  Returns the new runtime.
    """
    global _runtime
    if config is None:
        config = TelemetryConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise TypeError("Pass either a TelemetryConfig or keyword fields")
    with _runtime_lock:
        previous = _runtime
        if previous is not _DISABLED:
            previous.finish()
        _runtime = TelemetryRuntime(config)
        return _runtime


def finish(registries: Sequence[MetricsRegistry] = ()) -> None:
    """Flush the active runtime's sinks and write deferred exports,
    merging ``registries`` into the metrics file."""
    _runtime.finish(registries)


def disable(registries: Sequence[MetricsRegistry] = ()) -> None:
    """Shut the active runtime down and restore the no-op runtime,
    merging ``registries`` into its metrics file."""
    global _runtime
    with _runtime_lock:
        previous = _runtime
        _runtime = _DISABLED
    if previous is not _DISABLED:
        previous.finish(registries)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JSONLSink",
    "LATENCY_BUCKETS_SECONDS",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "RingBufferSink",
    "SlowQueryLog",
    "Span",
    "TelemetryConfig",
    "TelemetryRuntime",
    "Tracer",
    "chrome_trace_events",
    "configure",
    "current_span",
    "disable",
    "finish",
    "get_metrics",
    "get_tracer",
    "merge",
    "render_span_tree",
    "runtime",
    "validate_span_dicts",
    "write_chrome_trace",
]
