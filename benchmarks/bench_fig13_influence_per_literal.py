"""Figure 13 — per-literal influence time on sufficient provenance vs error.

As the error limit grows, the sufficient provenance shrinks roughly
exponentially and the per-literal influence computation time falls with it.
"""

import time

from repro.queries.derivation import derivation_query
from repro.queries.influence import influence_query

from reporting import record_table
from workloads import epsilon_grid, query_workload

SAMPLES = 20000
LITERALS_TIMED = 10


def test_fig13_influence_time_per_literal(benchmark):
    p3, key, poly = query_workload()
    probabilities = p3.probabilities
    from repro.inference.kernel import kernel_probability
    probability = kernel_probability(
        poly, probabilities, samples=SAMPLES, seed=1).value

    rows = []
    times = []
    for fraction in [0.0] + epsilon_grid():
        epsilon = fraction * probability
        sufficient = derivation_query(
            poly, probabilities, epsilon, method="naive-mc").sufficient
        literals = sorted(sufficient.literals())[:LITERALS_TIMED]
        if not literals:
            continue
        start = time.perf_counter()
        influence_query(sufficient, probabilities, literals=literals,
                        method="parallel", samples=SAMPLES, seed=1)
        elapsed = time.perf_counter() - start
        per_literal_ms = 1000 * elapsed / len(literals)
        times.append(per_literal_ms)
        rows.append(["%.1f%%" % (100 * fraction), len(sufficient),
                     per_literal_ms])

    record_table(
        "fig13_influence_per_literal",
        "Figure 13: influence time per literal on sufficient provenance "
        "(query %s)" % key,
        ["approx. error (% of P)", "dnf size", "influence time (ms/literal)"],
        rows,
    )

    # Shape: large error limits cut per-literal time substantially.
    # Compare head/tail averages (single-point ratios are noisy under a
    # loaded machine).
    head = sum(times[:3]) / 3
    tail = sum(times[-3:]) / 3
    assert tail < head * 0.7

    sufficient = derivation_query(
        poly, probabilities, 0.02 * probability,
        method="naive-mc").sufficient
    literals = sorted(sufficient.literals())[:3]
    benchmark.pedantic(
        influence_query, args=(sufficient, probabilities),
        kwargs={"literals": literals, "method": "parallel",
                "samples": SAMPLES, "seed": 1},
        rounds=2, iterations=1)
