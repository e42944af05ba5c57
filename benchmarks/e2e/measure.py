"""Statistics helpers shared by the end-to-end benchmark and its tests.

Pure functions only: percentiles under the "ten samples beyond" rule,
medians and quartiles across repeated runs, open-loop latency measured
from the scheduled send time, and span self time (a span's duration
minus the part of it covered by its children, with children that run
concurrently on other threads counted once).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is reported only when this many samples lie beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100], got %r" % p)
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile in :data:`TAIL_PERCENTILES`
    with at least :data:`SAMPLES_BEYOND` samples beyond it, or None when
    the sample is too small for any of them."""
    count = len(values)
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= SAMPLES_BEYOND - 1e-9:
            return p, percentile(values, p)
    return None


def latency_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median plus the supported tail percentile, with the sample count."""
    summary: Dict[str, object] = {"n": len(values)}
    if not values:
        return summary
    summary["p50"] = statistics.median(values)
    tail = tail_percentile(values)
    if tail is not None:
        summary["tail_percentile"] = tail[0]
        summary["tail"] = tail[1]
    return summary


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


# -- open-loop load ----------------------------------------------------------


def open_loop_latency(scheduled: float, done: float) -> float:
    """Latency of one open-loop request, timed from when it was *due*.

    Timing from the scheduled instant, not the actual send, charges a
    stall to every request it delays (no coordinated omission).
    """
    return done - scheduled


def generator_lag(records: Iterable[Tuple[float, float, bool]]) -> List[float]:
    """Lateness of the load generator itself.

    ``records`` holds ``(scheduled, sent, had_free_connection)``; only
    sends that found a free connection count — a request that waited for
    a busy connection is late because of the server, not the generator.
    """
    return [sent - scheduled for scheduled, sent, free in records if free]


# -- span self time ----------------------------------------------------------


def covered_length(intervals: Iterable[Tuple[int, int]],
                   lower: int, upper: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lower, upper]``."""
    clipped = sorted((max(start, lower), min(end, upper))
                     for start, end in intervals)
    total = 0
    current_start: Optional[int] = None
    current_end = lower
    for start, end in clipped:
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, int]:
    """Span id → self time in nanoseconds.

    ``spans`` are exported span dicts (``span_id``, ``parent_id``,
    ``start_ns``, ``duration_ns``).  Children that overlap — executor
    pool threads answering one batch in parallel — are merged before
    subtraction, so a parent is never charged less than zero.
    """
    children: Dict[str, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            start = span["start_ns"]
            children.setdefault(parent, []).append(
                (start, start + span["duration_ns"]))
    result: Dict[str, int] = {}
    for span in spans:
        start = span["start_ns"]
        end = start + span["duration_ns"]
        covered = covered_length(children.get(span["span_id"], ()),
                                 start, end)
        result[span["span_id"]] = span["duration_ns"] - covered
    return result
