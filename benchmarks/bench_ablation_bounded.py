"""Extension bench — anytime bounded approximation (iterative deepening).

ProbLog's lower/upper-bound anytime inference on our provenance graphs:
the interval brackets the true probability at every depth and collapses
onto the exact value once every derivation fits inside the hop limit.
"""

import pytest

from repro import P3
from repro.data import paper_fragment
from repro.inference.bounded import bounded_probability

from reporting import record_table
from workloads import query_workload


def test_bounded_anytime_fragment(benchmark):
    p3 = P3(paper_fragment().to_program())
    p3.evaluate()
    key = "mutualTrustPath(1,6)"
    exact = p3.probability_of(key)

    result = benchmark.pedantic(
        bounded_probability,
        args=(p3.graph, key, p3.probabilities),
        kwargs={"epsilon": 1e-6}, rounds=3, iterations=1)

    assert result.converged
    assert result.lower == pytest.approx(exact, abs=1e-9)
    record_table(
        "ablation_bounded",
        "Extension: anytime bounds on %s (exact P = %.6f)" % (key, exact),
        ["hop limit", "lower", "upper", "gap"],
        [[hop, low, up, up - low] for hop, low, up in result.history],
    )


def test_bounded_anytime_large(benchmark):
    # On the 1199-monomial workload, a loose epsilon stops well before the
    # full hop-6 extraction while still bracketing its probability.
    from repro.inference.kernel import kernel_probability

    p3, key, poly = query_workload()

    def mc_evaluator(candidate, probs):
        return kernel_probability(candidate, probs, 20000, seed=1).value

    reference = mc_evaluator(poly, p3.probabilities)
    result = bounded_probability(
        p3.graph, key, p3.probabilities, epsilon=0.05,
        initial_hop_limit=2, max_hop_limit=6, evaluator=mc_evaluator)

    # The interval must bracket the hop-6 reference (within MC noise).
    assert result.lower - 0.02 <= reference
    record_table(
        "ablation_bounded_large",
        "Extension: anytime bounds on %s (hop-6 MC reference %.4f)"
        % (key, reference),
        ["hop limit", "lower", "upper", "gap"],
        [[hop, low, up, up - low] for hop, low, up in result.history],
    )

    benchmark.pedantic(
        bounded_probability,
        args=(p3.graph, key, p3.probabilities),
        kwargs={"epsilon": 0.2, "initial_hop_limit": 2, "max_hop_limit": 4,
                "evaluator": mc_evaluator},
        rounds=2, iterations=1)
