"""Statistics helpers: percentiles, run quartiles, open-loop timing,
span self time."""

from __future__ import annotations

import statistics

import pytest

from measure import (
    covered_length,
    generator_lag,
    latency_summary,
    open_loop_latency,
    percentile,
    quartiles,
    relative_spread,
    self_times,
    tail_percentile,
)


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)

    @pytest.mark.parametrize("count, expected", [
        (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0),
        (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0),
    ])
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        p, _value = tail_percentile([float(i) for i in range(count)])
        assert p == expected
        assert count * (100 - p) / 100 >= 10 - 1e-6

    def test_too_few_samples_for_any_tail(self):
        assert tail_percentile([1.0] * 39) is None

    def test_summary_reports_sample_count(self):
        values = [float(i) for i in range(1, 201)]
        summary = latency_summary(values)
        assert summary["n"] == 200
        assert summary["p50"] == statistics.median(values)
        assert summary["tail_percentile"] == 95.0
        assert summary["tail"] == 190.0
        assert latency_summary([]) == {"n": 0}
        assert "tail" not in latency_summary([1.0, 2.0])


class TestAcrossRuns:
    def test_quartiles_match_statistics_quantiles(self):
        runs = [4.1, 3.9, 4.4, 4.0, 5.2, 4.2, 3.8, 4.3, 4.1, 4.6]
        assert quartiles(runs) == tuple(statistics.quantiles(runs, n=4))
        assert quartiles(runs)[1] == statistics.median(runs)

    def test_single_run_is_its_own_quartiles(self):
        assert quartiles([2.5]) == (2.5, 2.5, 2.5)

    def test_relative_spread(self):
        q1, median, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == \
            pytest.approx((q3 - q1) / median)
        assert relative_spread([3.0, 3.0, 3.0]) == 0.0


class TestOpenLoop:
    def test_latency_is_timed_from_the_schedule(self):
        # Due at 1.0, sent late at 1.3 behind a busy connection,
        # answered at 1.5: the client waited 0.5 s, not 0.2 s.
        assert open_loop_latency(1.0, 1.5) == pytest.approx(0.5)

    def test_stall_is_charged_to_every_delayed_request(self):
        scheduled = [0.0, 0.1, 0.2, 0.3]
        done = [1.0, 1.01, 1.02, 1.03]  # one 1 s stall delays all four
        latencies = [open_loop_latency(s, d) for s, d in zip(scheduled, done)]
        assert min(latencies) > 0.7

    def test_generator_lag_counts_only_free_connection_sends(self):
        records = [(0.0, 0.001, True), (0.1, 0.5, False), (0.2, 0.203, True)]
        assert generator_lag(records) == pytest.approx([0.001, 0.003])


def _span(span_id, parent, start, end, name="x"):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "start_ns": start, "duration_ns": end - start}


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered_length([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
        assert covered_length([(0, 10), (5, 15)], 8, 12) == 4
        assert covered_length([], 0, 10) == 0

    def test_sequential_children(self):
        spans = [_span("p", None, 0, 100), _span("a", "p", 10, 30),
                 _span("b", "p", 40, 70)]
        selfs = self_times(spans)
        assert selfs == {"p": 50, "a": 20, "b": 30}

    def test_children_overlapping_across_executor_threads(self):
        # A batch span whose four specs run concurrently on pool threads:
        # the parent is charged once for the covered interval, each child
        # keeps its full self time.
        spans = [_span("batch", None, 0, 100)]
        for index, (start, end) in enumerate(
                [(5, 60), (5, 70), (10, 90), (20, 50)]):
            spans.append(_span("q%d" % index, "batch", start, end))
        selfs = self_times(spans)
        assert selfs["batch"] == 100 - 85
        assert sum(selfs[key] for key in ("q0", "q1", "q2", "q3")) == \
            55 + 65 + 80 + 30
        assert all(value >= 0 for value in selfs.values())

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [_span("root", None, 0, 100), _span("mid", "root", 0, 80),
                 _span("leaf", "mid", 10, 70)]
        assert self_times(spans) == {"root": 20, "mid": 20, "leaf": 60}
