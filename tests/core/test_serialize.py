"""Unit tests for the JSON envelopes of graphs, polynomials, telemetry
and errors."""

import json

import pytest

from repro import P3
from repro.data import ACQUAINTANCE
from repro.inference import exact_probability
from repro.io.serialize import (
    COMPATIBLE_VERSIONS,
    FormatVersionError,
    SerializationError,
    error_to_json,
    graph_from_json,
    graph_to_json,
    metrics_from_json,
    metrics_to_json,
    polynomial_from_json,
    polynomial_to_json,
    trace_from_json,
    trace_to_json,
)
from repro.provenance import extract_polynomial


@pytest.fixture()
def evaluated():
    p3 = P3.from_source(ACQUAINTANCE)
    p3.evaluate()
    return p3


class TestPolynomialRoundTrip:
    def test_identity(self, evaluated):
        poly = evaluated.polynomial_of("know", "Ben", "Elena")
        again = polynomial_from_json(polynomial_to_json(poly))
        assert again == poly

    def test_stable_output(self, evaluated):
        poly = evaluated.polynomial_of("know", "Ben", "Elena")
        first = json.dumps(polynomial_to_json(poly), sort_keys=True)
        second = json.dumps(polynomial_to_json(poly), sort_keys=True)
        assert first == second

    def test_empty_polynomial(self):
        from repro.provenance.polynomial import Polynomial
        assert polynomial_from_json(
            polynomial_to_json(Polynomial.zero())).is_zero


class TestGraphRoundTrip:
    def test_structure_preserved(self, evaluated):
        document = graph_to_json(evaluated.graph)
        again = graph_from_json(document)
        assert again.tuple_keys() == evaluated.graph.tuple_keys()
        assert again.executions() == evaluated.graph.executions()
        assert again.probability_map() == evaluated.graph.probability_map()

    def test_queries_work_on_reloaded_graph(self, evaluated):
        again = graph_from_json(graph_to_json(evaluated.graph))
        poly = extract_polynomial(again, 'know("Ben","Elena")')
        value = exact_probability(poly, again.probability_map())
        assert value == pytest.approx(0.16384)

    def test_stable_output(self, evaluated):
        first = json.dumps(graph_to_json(evaluated.graph), sort_keys=True)
        again = graph_from_json(graph_to_json(evaluated.graph))
        assert json.dumps(graph_to_json(again), sort_keys=True) == first

    def test_version_checked(self, evaluated):
        document = graph_to_json(evaluated.graph)
        document["version"] = 99
        with pytest.raises(FormatVersionError):
            graph_from_json(document)

    def test_kind_checked(self, evaluated):
        document = graph_to_json(evaluated.graph)
        document["kind"] = "polynomial"
        with pytest.raises(SerializationError):
            graph_from_json(document)

    def test_version_one_documents_accepted(self, evaluated):
        document = graph_to_json(evaluated.graph)
        document["version"] = 1
        again = graph_from_json(document)
        assert again.executions() == evaluated.graph.executions()


class TestPropertyRoundTrips:
    from hypothesis import given, settings, strategies as st

    @staticmethod
    def _polynomials():
        from hypothesis import strategies as st
        from repro.provenance.polynomial import (
            Monomial, Polynomial, rule_literal, tuple_literal)
        pool = ([tuple_literal("t(%d)" % i) for i in range(5)]
                + [rule_literal("r%d" % i) for i in range(3)])

        @st.composite
        def build(draw):
            count = draw(st.integers(min_value=0, max_value=5))
            monomials = []
            for _ in range(count):
                width = draw(st.integers(min_value=1, max_value=4))
                monomials.append(Monomial(draw(st.permutations(pool))[:width]))
            return Polynomial(monomials)

        return build()

    @settings(max_examples=50, deadline=None)
    @given(_polynomials.__func__())
    def test_polynomial_round_trip(self, poly):
        assert polynomial_from_json(polynomial_to_json(poly)) == poly


class TestErrorEnvelope:
    def test_format_version_detail(self):
        document = error_to_json(FormatVersionError("graph", 99))
        assert document["kind"] == "error"
        detail = document["error"]
        assert detail["type"] == "FormatVersionError"
        assert detail["document_kind"] == "graph"
        assert detail["found_version"] == 99
        assert detail["expected_versions"] == sorted(COMPATIBLE_VERSIONS)


class TestTelemetryEnvelopes:
    def make_span(self, span_id="s1", parent_id=None, start_ns=0):
        from repro.telemetry import Span
        span = Span("t1", span_id, parent_id, "op")
        span.start_ns = start_ns
        span.duration_ns = 100
        span.thread = "MainThread"
        return span

    def test_trace_envelope_from_span_objects(self):
        document = trace_to_json(
            [self.make_span("s2", parent_id="s1", start_ns=10),
             self.make_span("s1")],
            anchor_ns=1_000)
        assert document["version"] == 2
        assert document["kind"] == "trace"
        # Sorted by (trace_id, start_ns, span_id) for stable diffs.
        assert [s["span_id"] for s in document["spans"]] == ["s1", "s2"]
        assert document["spans"][0]["start_unix"] == pytest.approx(
            1_000 / 1e9)

    def test_trace_envelope_accepts_span_dicts(self):
        source = self.make_span().to_dict()
        document = trace_to_json([source])
        assert document["spans"] == [source]
        assert document["spans"][0] is not source

    def test_trace_envelope_rejects_other_values(self):
        with pytest.raises(SerializationError):
            trace_to_json(["not a span"])

    def test_trace_round_trip(self):
        document = trace_to_json([self.make_span()])
        spans = trace_from_json(json.loads(json.dumps(document)))
        assert spans == document["spans"]

    def test_trace_from_json_checks_envelope(self):
        with pytest.raises(SerializationError):
            trace_from_json({"version": 99, "kind": "trace", "spans": []})
        with pytest.raises(SerializationError):
            trace_from_json({"version": 1, "kind": "metrics",
                             "metrics": []})
        with pytest.raises(SerializationError):
            trace_from_json({"version": 1, "kind": "trace",
                             "spans": "oops"})

    def test_metrics_round_trip(self):
        from repro.telemetry import MetricsRegistry
        registry = MetricsRegistry()
        registry.counter("hits", labelnames=("cache",)).inc(cache="poly")
        registry.histogram("latency", buckets=(0.1,)).observe(0.05)
        document = metrics_to_json(registry)
        assert document["version"] == 2
        assert document["kind"] == "metrics"
        metrics = metrics_from_json(json.loads(json.dumps(document)))
        assert [m["name"] for m in metrics] == ["hits", "latency"]
        assert metrics == document["metrics"]

    def test_metrics_to_json_requires_registry_protocol(self):
        with pytest.raises(SerializationError):
            metrics_to_json(object())

    def test_metrics_from_json_checks_envelope(self):
        with pytest.raises(SerializationError):
            metrics_from_json({"version": 1, "kind": "metrics",
                               "metrics": {}})
