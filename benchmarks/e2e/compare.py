"""Compare two results files metric by metric, workload by workload.

For each end-to-end metric and workload: both sides' median and
quartiles, and a verdict against the metric's bound from BENCHMARK.json:

``better``        B beats A by more than A's own interquartile distance
                  (or every B run beats every A run);
``worse``         B's median is worse than A's by more than the bound;
``unresolved``    the run-to-run spread of either side is wider than the
                  bound, so "within bound" cannot be told from noise;
``within bound``  otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from measure import quartiles, relative_spread


def verdict(before: Sequence[float], after: Sequence[float], better: str,
            bound: float) -> str:
    q1, median_a, q3 = quartiles(before)
    _b1, median_b, _b3 = quartiles(after)
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    every_run_better = all(beats(b, a) for b in after for a in before)
    worse_by = sign * (median_b - median_a)
    scale = abs(median_a) if median_a else 1.0
    if max(relative_spread(before), relative_spread(after)) > bound:
        return "better" if every_run_better else "unresolved"
    if worse_by > bound * scale:
        return "worse"
    if every_run_better or -worse_by > q3 - q1:
        return "better"
    return "within bound"


def _values(document: dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric] for run in document["runs"]
            if run["workload"] == workload and metric in run["metrics"]]


def compare_documents(before: dict, after: dict,
                      declared: Sequence[dict]) -> List[Dict[str, object]]:
    workloads = []
    for run in before["runs"] + after["runs"]:
        if run["workload"] not in workloads:
            workloads.append(run["workload"])
    rows = []
    for workload in workloads:
        for entry in declared:
            a = _values(before, workload, entry["name"])
            b = _values(after, workload, entry["name"])
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": entry["name"],
                "unit": entry["unit"], "bound": entry["bound"],
                "before": quartiles(a), "after": quartiles(b),
                "runs": (len(a), len(b)),
                "verdict": verdict(a, b, entry["better"], entry["bound"]),
            })
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    header = ("%-16s %-16s %-34s %-34s %s"
              % ("workload", "metric", "A median [q1, q3]",
                 "B median [q1, q3]", "verdict"))
    lines = [header, "-" * len(header)]
    for row in rows:
        a, b = row["before"], row["after"]
        lines.append("%-16s %-16s %-34s %-34s %s (bound %g, n=%d/%d)" % (
            row["workload"], row["metric"],
            "%.4g [%.4g, %.4g] %s" % (a[1], a[0], a[2], row["unit"]),
            "%.4g [%.4g, %.4g] %s" % (b[1], b[0], b[2], row["unit"]),
            row["verdict"], row["bound"], row["runs"][0], row["runs"][1]))
    return "\n".join(lines)
