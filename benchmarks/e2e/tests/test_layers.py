"""Layer attribution of span trees, the installed wrappers, and the
compare verdicts."""

from __future__ import annotations

import pytest

import layers
from compare import verdict


def _span(span_id, parent, name, start, end, attributes=None, unix=0.0):
    span = {"span_id": span_id, "parent_id": parent, "name": name,
            "start_ns": start, "duration_ns": end - start,
            "start_unix": unix + start / 1e9}
    if attributes:
        span["attributes"] = attributes
    return span


class TestBreakdown:
    def test_program_spans_fold_into_their_layer(self):
        ms = 1_000_000
        spans = [
            _span("b", None, "bench.exec.batch", 0, 100 * ms),
            _span("x", "b", "batch", 1 * ms, 99 * ms),
            _span("q1", "x", "query", 2 * ms, 60 * ms, {"kind": "influence"}),
            _span("q2", "x", "query", 2 * ms, 90 * ms, {"kind": "explain"}),
            _span("i", "q1", "bench.queries.influence", 5 * ms, 55 * ms),
            _span("k", "i", "infer.backend", 10 * ms, 20 * ms),
            _span("e", "q2", "bench.provenance.extract", 5 * ms, 45 * ms,
                  {"monomials": 7}),
        ]
        breakdown = layers.Breakdown()
        breakdown.add(spans)
        metrics = breakdown.metrics(e2e_seconds=0.1)
        assert metrics["queries.influence_s"] == pytest.approx(0.040)
        assert metrics["inference.infer_s"] == pytest.approx(0.010)
        assert metrics["inference.calls"] == 1
        assert metrics["provenance.extract_s"] == pytest.approx(0.040)
        assert metrics["provenance.monomials"] == 7
        # exec: wrapper self 2 ms, batch 10 ms, query selfs 8 + 48 ms
        assert metrics["exec.batch_s"] == pytest.approx(0.068)
        assert metrics["exec.batch_mean_ms"] == pytest.approx(68.0)
        assert metrics["exec.parallelism"] == pytest.approx(1.46)
        # The two specs overlap, so self times sum past the wall time
        # (158 ms in 100 ms); coverage counts the wall time once.
        assert sum(breakdown.seconds.values()) == pytest.approx(0.158)
        assert metrics["trace.coverage"] == pytest.approx(1.0)
        assert metrics["queries.influence_share"] == pytest.approx(0.4)

    def test_coverage_is_the_union_of_attributed_spans(self):
        ms = 1_000_000
        spans = [
            # Two executor threads at once, then a gap no span covers.
            _span("a", None, "query", 0, 60 * ms),
            _span("b", None, "query", 20 * ms, 80 * ms),
            _span("c", None, "unattributed.work", 80 * ms, 90 * ms),
        ]
        breakdown = layers.Breakdown()
        breakdown.add(spans)
        breakdown.add_seconds("cli.import", 0.01, 1)
        metrics = breakdown.metrics(e2e_seconds=0.1)
        assert metrics["exec.batch_s"] == pytest.approx(0.120)
        assert metrics["trace.coverage"] == pytest.approx(0.9)

    def test_nested_calls_count_once(self):
        spans = [_span("a", None, "bench.ground.goal", 0, 100,
                       {"rows": 5, "fallbacks": 0}),
                 _span("b", "a", "bench.ground.goal", 10, 90,
                       {"rows": 5, "fallbacks": 0})]
        breakdown = layers.Breakdown()
        breakdown.add(spans)
        metrics = breakdown.metrics(1e-6)
        assert breakdown.calls["ground.goal"] == 1
        assert metrics["ground.rows"] == 5

    def test_window_keeps_whole_trees_by_root_start(self):
        spans = [_span("r1", None, "bench.serve.handler", 0, 10, unix=100.0),
                 _span("c1", "r1", "bench.datalog.update", 2, 8, unix=100.0),
                 _span("r2", None, "bench.serve.handler", 0, 10, unix=200.0)]
        breakdown = layers.Breakdown()
        breakdown.add(spans, window=(150.0, 250.0))
        assert breakdown.calls["serve.handler"] == 1
        assert breakdown.calls["datalog.update"] == 0

    def test_every_declared_metric_is_filled(self):
        names = {entry["name"] for entry in layers.metric_declarations()}
        assert len(names) == len(layers.metric_declarations()) <= 128
        assert set(layers.complete({})) == names


class TestInstalledWrappers:
    def test_from_import_bindings_are_wrapped_and_nest(self):
        from repro import P3, P3Config, telemetry
        import repro.exec.executor as executor_module
        import repro.provenance.extraction as extraction_module
        layers.install()
        assert executor_module.extract_polynomial is \
            extraction_module.extract_polynomial
        assert hasattr(executor_module.extract_polynomial,
                       "__bench_original__")
        rt = telemetry.configure(telemetry.TelemetryConfig())
        try:
            system = P3.from_source(
                "r1 1.0: path(X,Y) :- edge(X,Y).\n"
                "t1 0.5: edge(1,2).\n", P3Config())
            system.evaluate()
            system.probability_of("path(1,2)")
            spans = {span.name: span for span in rt.ring.spans()}
        finally:
            telemetry.disable()
        assert {"bench.datalog.parse", "bench.datalog.evaluate",
                "bench.provenance.extract", "bench.inference.infer",
                "extract.polynomial", "infer.backend"} <= set(spans)
        assert spans["extract.polynomial"].parent_id == \
            spans["bench.provenance.extract"].span_id
        assert spans["infer.backend"].parent_id == \
            spans["bench.inference.infer"].span_id
        assert spans["bench.datalog.evaluate"].attributes["derived"] == 1


class TestVerdict:
    def test_within_bound_and_worse(self):
        before = [100.0, 101.0, 99.0, 100.5, 100.2]
        assert verdict(before, [101.0, 102.0, 100.0], "lower", 0.1) == \
            "within bound"
        assert verdict(before, [120.0, 121.0, 119.0], "lower", 0.1) == \
            "worse"

    def test_better_needs_more_than_the_own_spread(self):
        before = [100.0, 101.0, 99.0, 100.5, 100.2]
        assert verdict(before, [90.0, 91.0, 89.0], "lower", 0.1) == "better"
        assert verdict([0.9, 0.91, 0.92], [0.95, 0.96, 0.97], "higher",
                       0.1) == "better"

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
        assert verdict(noisy, [100.0, 101.0, 99.0], "lower", 0.1) == \
            "unresolved"
        assert verdict(noisy, [10.0, 11.0, 12.0], "lower", 0.1) == "better"
