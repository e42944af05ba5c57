"""Figure 11 — compression ratio of sufficient provenance vs error limit.

The paper queries mutual trust paths on 150-node/150-edge samples (hop
limit 6) and varies the approximation error from 0.1% to 10% of P[λ]: 0.1%
already halves the provenance, 10% removes ~99.8% of the monomials.

The error grid is relative to P[λ], exactly as the paper defines it ("X%
means X percent of P[λ]").  The probability P[λ] is estimated with the
vectorized Monte-Carlo backend, as in the paper's prototype.
"""

from repro.inference.kernel import kernel_probability
from repro.queries.derivation import derivation_query

from reporting import record_table
from workloads import epsilon_grid, query_workload


def test_fig11_compression_ratio(benchmark):
    p3, key, poly = query_workload()
    probability = kernel_probability(
        poly, p3.probabilities, samples=20000, seed=1).value

    rows = []
    ratios = []
    for fraction in epsilon_grid():
        epsilon = fraction * probability
        result = derivation_query(
            poly, p3.probabilities, epsilon, method="naive-mc")
        ratios.append(result.compression_ratio)
        rows.append([
            "%.1f%%" % (100 * fraction),
            len(result.original),
            len(result.sufficient),
            result.compression_ratio,
        ])

    record_table(
        "fig11_compression",
        "Figure 11: sufficient-provenance compression on %s "
        "(%d monomials, P=%.4f)" % (key, len(poly), probability),
        ["approx. error (% of P)", "dnf size", "sufficient size",
         "compression ratio"],
        rows,
    )

    # Shape: ratio decreases monotonically and ends far below the start.
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.2
    assert ratios[0] <= 1.0

    benchmark.pedantic(
        derivation_query, args=(poly, p3.probabilities,
                                0.02 * probability),
        kwargs={"method": "union-bound"}, rounds=3, iterations=1)
