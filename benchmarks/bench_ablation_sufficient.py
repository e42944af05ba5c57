"""Ablation — sufficient-provenance algorithms: naive vs match/group vs
union-bound vs incremental naive-MC.

DESIGN.md §6: size/time tradeoff.  On the small exact-friendly polynomial
all four run with exact error accounting; on the large one, the two
scalable variants (union-bound and naive-mc) are compared.
"""

import time

from repro import P3
from repro.data import paper_fragment
from repro.inference.kernel import kernel_probability
from repro.queries.derivation import derivation_query

from reporting import record_table
from workloads import query_workload

EPSILON_SMALL = 0.02


def _time_query(poly, probs, epsilon, method, **kwargs):
    start = time.perf_counter()
    result = derivation_query(poly, probs, epsilon, method=method, **kwargs)
    return result, time.perf_counter() - start


def test_ablation_sufficient_small(benchmark):
    p3 = P3(paper_fragment().to_program())
    p3.evaluate()
    poly = p3.polynomial_of("mutualTrustPath", 1, 6)
    probs = p3.probabilities

    rows = []
    for method in ("naive", "match-group", "union-bound", "naive-mc"):
        result, elapsed = _time_query(poly, probs, EPSILON_SMALL, method)
        rows.append([method, len(result.original), len(result.sufficient),
                     result.error, 1000 * elapsed])
        assert result.error <= EPSILON_SMALL + 0.02  # MC slack for naive-mc

    record_table(
        "ablation_sufficient_small",
        "Ablation: sufficient-provenance algorithms on mutualTrustPath(1,6)"
        " (eps = %.2f)" % EPSILON_SMALL,
        ["method", "monomials", "kept", "measured error", "time (ms)"],
        rows,
    )
    benchmark.pedantic(derivation_query, args=(poly, probs, EPSILON_SMALL),
                       kwargs={"method": "naive"}, rounds=5, iterations=1)


def test_ablation_sufficient_large(benchmark):
    p3, key, poly = query_workload()
    probs = p3.probabilities
    probability = kernel_probability(poly, probs, 20000, seed=1).value
    epsilon = 0.05 * probability

    def mc_evaluator(candidate, candidate_probs):
        return kernel_probability(
            candidate, candidate_probs, 20000, seed=1).value

    rows = []
    results = {}
    for method in ("union-bound", "naive-mc"):
        result, elapsed = _time_query(poly, probs, epsilon, method,
                                      evaluator=mc_evaluator)
        results[method] = result
        rows.append([method, len(result.original), len(result.sufficient),
                     1000 * elapsed])

    record_table(
        "ablation_sufficient_large",
        "Ablation: scalable sufficient-provenance variants on %s "
        "(eps = 5%% of P)" % key,
        ["method", "monomials", "kept", "time (ms)"],
        rows,
    )

    # The incremental MC variant compresses far better than the (sound but
    # conservative) union bound, at comparable cost.
    assert len(results["naive-mc"].sufficient) < \
        len(results["union-bound"].sufficient)

    benchmark.pedantic(derivation_query, args=(poly, probs, epsilon),
                       kwargs={"method": "naive-mc"}, rounds=2, iterations=1)
