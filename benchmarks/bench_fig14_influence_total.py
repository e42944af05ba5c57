"""Figure 14 — total influence-query time on sufficient provenance.

For every error limit: time to compute the sufficient provenance (the
preprocessing step) plus the total time to compute influence for all its
literals.  The paper observes an order-of-magnitude total-time reduction
around the 2% error limit while the top influential literals stay intact
(Figure 12).
"""

import time

from repro.inference.kernel import kernel_probability
from repro.queries.derivation import derivation_query
from repro.queries.influence import influence_query

from reporting import record_table
from workloads import query_workload

SAMPLES = 10000
ERRORS = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.08, 0.10]


def test_fig14_total_influence_time(benchmark):
    p3, key, poly = query_workload()
    probabilities = p3.probabilities
    probability = kernel_probability(
        poly, probabilities, samples=SAMPLES, seed=1).value

    rows = []
    totals = {}
    for fraction in ERRORS:
        epsilon = fraction * probability
        start = time.perf_counter()
        sufficient = derivation_query(
            poly, probabilities, epsilon, method="naive-mc").sufficient
        lineage_time = time.perf_counter() - start

        start = time.perf_counter()
        influence_query(sufficient, probabilities, method="parallel",
                        samples=SAMPLES, seed=1)
        influence_time = time.perf_counter() - start

        total = lineage_time + influence_time
        totals[fraction] = total
        rows.append(["%.1f%%" % (100 * fraction), len(sufficient),
                     1000 * lineage_time, 1000 * influence_time,
                     1000 * total])

    record_table(
        "fig14_influence_total",
        "Figure 14: total influence-query time with sufficient-provenance "
        "preprocessing (query %s)" % key,
        ["approx. error (% of P)", "dnf size", "sufficient time (ms)",
         "influence time (ms)", "total (ms)"],
        rows,
    )

    # Shape: allowing approximation cuts the total time substantially; by
    # 10% error the cut exceeds 2x (the sufficient-provenance step itself
    # has a fixed sampling cost, which bounds the asymptote).
    assert totals[0.02] < totals[0.0]
    assert totals[0.10] < totals[0.0] / 2
    assert totals[0.10] <= totals[0.001]

    benchmark.pedantic(
        lambda: influence_query(
            derivation_query(poly, probabilities, 0.02 * probability,
                             method="naive-mc").sufficient,
            probabilities, method="parallel", samples=2000, seed=1),
        rounds=2, iterations=1)
