"""End-to-end acceptance tests: tracing the real query pipeline.

These drive the actual P3 system (the Figure 2 acquaintance example)
with telemetry enabled and check the produced span trees, exports, and
metrics against the invariants CI's smoke step enforces.
"""

from __future__ import annotations

import json

import pytest

from repro import P3, QuerySpec, telemetry
from repro.data import acquaintance_program
from repro.io.serialize import trace_to_json
from repro.telemetry import TelemetryConfig, merge, validate_span_dicts

KEY = 'know("Ben","Elena")'


@pytest.fixture()
def p3():
    system = P3(acquaintance_program())
    system.evaluate()
    return system


def ring_dicts(rt):
    return [span.to_dict(rt.tracer.anchor_ns) for span in rt.ring.spans()]


class TestTracedExplanation:
    def test_explanation_covers_extract_and_infer_stages(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        explanation = p3.explain(KEY)
        assert explanation.probability == pytest.approx(0.16384)
        names = {span.name for span in rt.ring.spans()}
        assert {"query", "extract", "extract.polynomial",
                "infer", "infer.backend"} <= names

    def test_spans_nest_correctly(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.explain(KEY)
        assert validate_span_dicts(ring_dicts(rt)) == []

    def test_stage_spans_nest_under_the_query_span(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.explain(KEY)
        spans = {span.span_id: span for span in rt.ring.spans()}
        by_name = {span.name: span for span in spans.values()}
        query = by_name["query"]
        assert query.parent_id is None
        assert spans[by_name["extract"].parent_id].name == "query"
        assert spans[by_name["extract.polynomial"].parent_id].name == "extract"
        assert spans[by_name["infer"].parent_id].name == "query"
        assert spans[by_name["infer.backend"].parent_id].name == "infer"
        assert query.trace_id == by_name["infer.backend"].trace_id

    def test_backend_span_records_reading(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.probability_of(KEY)
        [backend] = [span for span in rt.ring.spans()
                     if span.name == "infer.backend"]
        assert backend.attributes["backend"] == "exact"
        assert backend.attributes["value"] == pytest.approx(0.16384)
        assert backend.attributes["monomials"] == 2


class TestBatchFanout:
    def test_worker_spans_nest_under_the_batch_span(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        # The deadlined spec runs on a deadline-runner thread: its spans
        # must still join the batch's trace.
        batch = p3.executor().run(
            [KEY, QuerySpec.explain(KEY),
             QuerySpec.probability('know("Steve","Elena")', timeout=30.0)])
        assert len(batch) == 3
        dicts = ring_dicts(rt)
        assert validate_span_dicts(dicts) == []
        roots = [d for d in dicts if d["parent_id"] is None]
        batch_roots = [d for d in roots if d["name"] == "batch"]
        assert len(batch_roots) == 1
        batch_trace = batch_roots[0]["trace_id"]
        query_spans = [d for d in dicts if d["name"] == "query"]
        assert query_spans
        assert all(d["trace_id"] == batch_trace for d in dicts)


class TestExports:
    def test_jsonl_export_parses_and_validates(self, p3, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.configure(TelemetryConfig(trace_path=str(path)))
        p3.explain(KEY)
        telemetry.finish()
        spans = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert spans
        assert validate_span_dicts(spans) == []
        assert {"query", "infer.backend"} <= {s["name"] for s in spans}

    def test_chrome_export_written_on_finish(self, p3, tmp_path):
        path = tmp_path / "chrome.json"
        telemetry.configure(TelemetryConfig(chrome_path=str(path)))
        p3.explain(KEY)
        telemetry.finish()
        document = json.loads(path.read_text())
        names = {event["name"] for event in document["traceEvents"]
                 if event["ph"] == "X"}
        assert {"query", "extract", "infer"} <= names

    def test_trace_envelope_round_trip(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.explain(KEY)
        envelope = trace_to_json(rt.ring.spans(), rt.tracer.anchor_ns)
        assert envelope["version"] == 2
        assert envelope["kind"] == "trace"
        assert validate_span_dicts(envelope["spans"]) == []


def exported(rt, p3):
    """What ``--metrics-out`` writes for ``p3``: the process registry
    merged with the system's own registries."""
    return merge([rt.metrics, *p3.metrics_registries()])


class TestMetricsConsistency:
    def test_cache_counters_agree_with_executor_stats(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.probability_of(KEY)   # cold: misses
        p3.probability_of(KEY)   # warm: result-cache hit
        stats = p3.executor().stats()["caches"]
        requests = exported(rt, p3).get("p3_cache_requests_total")
        for cache in ("polynomial", "probability"):
            assert requests.value(
                cache=cache, outcome="hit") == stats[cache]["hits"]
            assert requests.value(
                cache=cache, outcome="miss") == stats[cache]["misses"]

    def test_query_counters_agree_with_executor_stats(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.probability_of(KEY)
        p3.explain(KEY)
        stats = p3.executor().stats()
        queries = exported(rt, p3).get("p3_queries_total")
        for kind, count in stats["queries"].items():
            assert queries.value(kind=kind) == count

    def test_backend_latency_histogram_counts_calls(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.probability_of(KEY)
        calls = rt.metrics.get("p3_infer_calls_total")
        assert calls.value(backend="exact") == 1
        snapshot = rt.metrics.get("p3_infer_seconds").snapshot(
            backend="exact")
        assert snapshot["count"] == 1
        assert snapshot["sum"] > 0.0

    def test_prometheus_export_carries_the_pipeline_metrics(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.probability_of(KEY)
        text = exported(rt, p3).to_prometheus()
        assert "# TYPE p3_infer_seconds histogram" in text
        assert 'p3_infer_calls_total{backend="exact"} 1' in text
        assert 'p3_cache_requests_total{cache="polynomial"' in text
        assert "# TYPE p3_stage_seconds histogram" in text


class TestOneQuerySpan:
    """``run`` and ``execute`` each trace one ``query`` span per spec,
    carrying ``kind`` and ``key``; the ``query`` stage counts one call."""

    def query_spans(self, rt):
        return [span for span in rt.ring.spans() if span.name == "query"]

    def test_batch_path(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.executor().run([KEY, QuerySpec.explain(KEY)])
        spans = self.query_spans(rt)
        assert sorted(span.attributes["kind"] for span in spans) == [
            "explain", "probability"]
        assert all(span.attributes["key"] == KEY for span in spans)
        ids = {span.span_id for span in spans}
        assert not any(span.parent_id in ids for span in spans)
        assert p3.executor().stats()["stages"]["query"]["calls"] == 2

    def test_facade_path(self, p3):
        rt = telemetry.configure(TelemetryConfig())
        p3.probability_of(KEY)
        (span,) = self.query_spans(rt)
        assert span.attributes["kind"] == "probability"
        assert span.attributes["key"] == KEY
        assert span.parent_id is None
        assert p3.executor().stats()["stages"]["query"]["calls"] == 1


class TestCountsWithTelemetryOff:
    def test_counts_recorded_before_configure_reach_the_export(self):
        """Two systems answer four probability queries, one of them
        before telemetry is configured: the export and the ``stats()``
        views agree on every count."""
        first = P3(acquaintance_program())
        first.evaluate()
        second = P3(acquaintance_program())
        second.evaluate()
        first.probability_of(KEY)
        rt = telemetry.configure(TelemetryConfig())
        first.probability_of(KEY)
        second.probability_of(KEY)
        second.probability_of(KEY)
        stats = [system.executor().stats() for system in (first, second)]
        merged = merge([rt.metrics, *first.metrics_registries(),
                        *second.metrics_registries()])
        queries = sum(document["queries"]["probability"]
                      for document in stats)
        misses = sum(document["caches"]["polynomial"]["misses"]
                     for document in stats)
        assert (queries, misses) == (4, 2)
        assert merged.get("p3_queries_total").value(
            kind="probability") == queries
        assert merged.get("p3_cache_requests_total").value(
            cache="polynomial", outcome="miss") == misses


class TestDisabledOverheadPath:
    def test_disabled_runtime_records_nothing(self, p3):
        p3.probability_of(KEY)
        rt = telemetry.runtime()
        assert not rt.enabled
        assert rt.ring is None
        assert rt.metrics.names() == []

    def test_results_identical_with_and_without_telemetry(self, p3):
        baseline = p3.probability_of(KEY)
        telemetry.configure(TelemetryConfig())
        fresh = P3(acquaintance_program())
        fresh.evaluate()
        assert fresh.probability_of(KEY) == pytest.approx(baseline)
