"""Counters, gauges, and fixed-bucket histograms with two exporters.

A :class:`MetricsRegistry` holds named metrics, each of which may carry a
fixed set of label names; every distinct label-value combination is one
series.  Exports are deterministic (sorted by metric name, then label
values) in two formats:

- :meth:`MetricsRegistry.to_json` — a JSON-friendly list of metric
  documents (wrapped into the versioned ``metrics`` envelope by
  :func:`repro.io.serialize.metrics_to_json`);
- :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP``/``# TYPE`` headers, cumulative ``_bucket`` series
  with ``le`` labels, ``_sum``/``_count``).

Histograms use fixed buckets chosen at registration time
(:data:`LATENCY_BUCKETS_SECONDS` by default — spanning 100µs to 10s),
so observation is O(#buckets) with no allocation, cheap enough for the
inference hot path.

Objects that keep counts (an executor, a grounding planner, admission
control) each own a registry; :func:`merge` combines several for export.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram buckets for wall-clock latencies, in seconds.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: The Content-Type a scrape endpoint must declare when serving
#: :meth:`MetricsRegistry.to_prometheus` output (text format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _label_key(labelnames: Tuple[str, ...],
               labels: Dict[str, Any]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            "Metric expects labels %r, got %r"
            % (list(labelnames), sorted(labels)))
    return tuple(str(labels[name]) for name in labelnames)


class Metric:
    """Base class: name, help text, label names, and the series map."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labels: Any) -> "BoundSeries":
        """A handle bound to one label-value combination.

        Validates the label set and builds the series key once, so hot
        paths called with the same labels every time (the executor cache
        counters, the per-backend inference metrics) pay only the series
        update per event instead of set-comparison + key construction.
        """
        return BoundSeries(self, _label_key(self.labelnames, labels))

    def _labels_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    def series_count(self) -> int:
        with self._lock:
            return len(self._series)

    def reset(self) -> None:
        """Drop every series (bound handles keep working from zero)."""
        with self._lock:
            self._series.clear()


class BoundSeries:
    """One (metric, label-key) pair with validation-free update methods.

    Created by :meth:`Metric.labels`.  Exposes the union of the per-kind
    update APIs (``inc``/``set``/``observe``/``value``); calling one the
    underlying metric does not support raises ``AttributeError`` through
    the normal attribute protocol.
    """

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Metric, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def inc(self, value: float = 1.0) -> None:
        metric = self._metric
        if metric.kind == "counter" and value < 0:
            raise ValueError("Counters can only increase")
        if metric.kind not in ("counter", "gauge"):
            raise AttributeError("%s has no inc()" % metric.kind)
        with metric._lock:
            metric._series[self._key] = \
                metric._series.get(self._key, 0.0) + value

    def set(self, value: float) -> None:
        if self._metric.kind != "gauge":
            raise AttributeError("%s has no set()" % self._metric.kind)
        with self._metric._lock:
            self._metric._series[self._key] = float(value)

    def observe(self, value: float) -> None:
        metric = self._metric
        if metric.kind != "histogram":
            raise AttributeError("%s has no observe()" % metric.kind)
        index = bisect.bisect_left(metric.buckets, value)
        with metric._lock:
            series = metric._series.get(self._key)
            if series is None:
                series = _HistogramSeries(len(metric.buckets) + 1)
                metric._series[self._key] = series
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def value(self) -> float:
        with self._metric._lock:
            return self._metric._series.get(self._key, 0.0)

    def reset(self) -> None:
        """Drop this series; the next update starts it from zero."""
        with self._metric._lock:
            self._metric._series.pop(self._key, None)

    def __repr__(self) -> str:
        return "BoundSeries(%s%r)" % (self._metric.name, self._key)


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError("Counters can only increase")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def values(self) -> Dict[Tuple[str, ...], float]:
        """Every series' value, keyed by its label values."""
        with self._lock:
            return dict(self._series)

    def to_json(self) -> dict:
        with self._lock:
            series = [
                {"labels": self._labels_dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]
        return {"name": self.name, "type": self.kind, "help": self.help,
                "series": series}


class Gauge(Metric):
    """A value that can go up and down (set to the latest observation).

    ``aggregate`` says how :func:`merge` combines one series across
    registries: ``"sum"`` for amounts (threads, queue slots) and
    ``"max"`` for peaks, which must not be added up.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 aggregate: str = "sum") -> None:
        super().__init__(name, help, labelnames)
        self.aggregate = aggregate

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._series.get(key, 0.0)

    values = Counter.values
    to_json = Counter.to_json


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, bucket_count: int) -> None:
        self.counts = [0] * bucket_count  # one slot per finite bucket + +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket histogram of observations (e.g. latencies)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("Histogram needs at least one bucket bound")
        if any(b <= 0 or math.isinf(b) for b in bounds):
            raise ValueError("Bucket bounds must be finite and positive")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets) + 1)
                self._series[key] = series
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def snapshot(self, **labels: Any) -> Optional[dict]:
        """Cumulative bucket counts, sum, and count for one series."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return None
            return self._render(key, series)

    def totals(self) -> Dict[Tuple[str, ...], Tuple[int, float]]:
        """``(count, sum)`` of every series, keyed by its label values."""
        with self._lock:
            return {key: (series.count, series.sum)
                    for key, series in self._series.items()}

    def _render(self, key: Tuple[str, ...],
                series: _HistogramSeries) -> dict:
        cumulative = []
        running = 0
        for bound, count in zip(self.buckets, series.counts):
            running += count
            cumulative.append({"le": bound, "count": running})
        cumulative.append({"le": "+Inf", "count": series.count})
        return {
            "labels": self._labels_dict(key),
            "buckets": cumulative,
            "sum": series.sum,
            "count": series.count,
        }

    def to_json(self) -> dict:
        with self._lock:
            series = [self._render(key, value)
                      for key, value in sorted(self._series.items())]
        return {"name": self.name, "type": self.kind, "help": self.help,
                "buckets": list(self.buckets), "series": series}


class MetricsRegistry:
    """Named metrics with get-or-create registration.

    Registration is idempotent: asking for an existing name returns the
    existing metric (label names and kind must match), so instrumentation
    sites can call ``registry.counter(...)`` inline without a separate
    setup phase.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: Sequence[str],
                       **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        "Metric %r already registered as %s"
                        % (name, metric.kind))
                if metric.labelnames != tuple(labelnames):
                    raise ValueError(
                        "Metric %r already registered with labels %r"
                        % (name, list(metric.labelnames)))
                return metric
            metric = cls(name, help=help, labelnames=labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = (),
              aggregate: str = "sum") -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames,
                                   aggregate=aggregate)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS
                  ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every metric: drop all series, keep the registrations."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    # -- exporters ---------------------------------------------------------------

    def to_json(self) -> List[dict]:
        """Every metric as a JSON-friendly document, sorted by name."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return [metric.to_json() for metric in metrics]

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            document = metric.to_json()
            if document["help"]:
                lines.append("# HELP %s %s" % (metric.name, document["help"]))
            lines.append("# TYPE %s %s" % (metric.name, metric.kind))
            if metric.kind == "histogram":
                for series in document["series"]:
                    labels = series["labels"]
                    for bucket in series["buckets"]:
                        le = bucket["le"]
                        rendered = le if le == "+Inf" else _format(le)
                        lines.append("%s_bucket%s %d" % (
                            metric.name,
                            _labels_text(labels, extra=("le", rendered)),
                            bucket["count"]))
                    lines.append("%s_sum%s %s" % (
                        metric.name, _labels_text(labels),
                        _format(series["sum"])))
                    lines.append("%s_count%s %d" % (
                        metric.name, _labels_text(labels), series["count"]))
            else:
                for series in document["series"]:
                    lines.append("%s%s %s" % (
                        metric.name, _labels_text(series["labels"]),
                        _format(series["value"])))
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return "MetricsRegistry(%d metrics)" % len(self._metrics)


def merge(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """One registry holding the combined series of ``registries``.

    Same-named series with the same labels are combined: counters and
    histograms (bucket by bucket) are summed, and a gauge is summed or
    maximised per its ``aggregate``.  Metrics with no series are left out.
    """
    merged = MetricsRegistry()
    for registry in registries:
        for name in registry.names():
            metric = registry.get(name)
            with metric._lock:
                series = list(metric._series.items())
            if not series:
                continue
            options: Dict[str, Any] = {}
            if metric.kind == "histogram":
                options["buckets"] = metric.buckets
            elif metric.kind == "gauge":
                options["aggregate"] = metric.aggregate
            target = merged._get_or_create(
                type(metric), name, metric.help, metric.labelnames,
                **options)
            for key, value in series:
                held = target._series.get(key)
                if metric.kind == "histogram":
                    held = held or _HistogramSeries(len(metric.buckets) + 1)
                    held.counts = [a + b for a, b in
                                   zip(held.counts, value.counts)]
                    held.sum += value.sum
                    held.count += value.count
                    value = held
                elif held is not None:
                    peak = getattr(metric, "aggregate", None) == "max"
                    value = max(held, value) if peak else held + value
                target._series[key] = value
    return merged


def _format(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


def _labels_text(labels: Dict[str, str],
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(name, str(value)) for name, value in sorted(labels.items())]
    if extra is not None:
        pairs.append((extra[0], str(extra[1])))
    if not pairs:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (name, _escape(value)) for name, value in pairs)
