"""Exact influence: circuit gradient vs per-literal BDD cofactors.

Influence is ∂P[λ]/∂p(x) (Definition 4.1).  The reference computes it
from the definition: two BDD evaluations per literal (each its own
compile), on the cofactors ``λ|x=1`` and ``λ|x=0``.  It calls
``bdd_probability``, not ``exact_probability``, so it shares no code
with the circuit under test.  The library compiles λ to a decision-DNNF
circuit once and reads every literal's influence off one forward and one
backward pass (``influence_query(method="exact")``).

Workload: a 25-monomial ``mutualTrustPath`` key of the Section-6.2
sample (150 nodes / 150 edges, hop limit 6), query-grounded — the
mid-size key shape of the end-to-end batch benchmark.  Reference and
circuit rounds alternate so a drift in host speed hits both alike; each
side reports its median.  Writes ``results/BENCH_influence.json`` for the
CI perf guardrail (speedup floor 10x).
"""

import statistics
import time

from repro import P3, P3Config
from repro.inference.bdd import bdd_probability
from repro.queries.influence import influence_query

from reporting import record_json, record_table
from workloads import QUERY_HOP_LIMIT, full_network

KEY = "mutualTrustPath(53,367)"
MONOMIALS = 25
ROUNDS = 5
TOLERANCE = 1e-12


def _cofactor_influences(polynomial, probabilities):
    """The reference: two BDD cofactor compiles per literal."""
    return {
        literal: (bdd_probability(polynomial.restrict(literal, True),
                                  probabilities)
                  - bdd_probability(polynomial.restrict(literal, False),
                                    probabilities))
        for literal in sorted(polynomial.literals())
    }


def _timed(function):
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def test_circuit_influence_speedup():
    sample = full_network().sample_nodes_edges(150, 150, seed=5)
    p3 = P3(sample.to_program(),
            P3Config(hop_limit=QUERY_HOP_LIMIT, grounding="query"))
    p3.evaluate()
    polynomial = p3.polynomial_of(KEY)
    probabilities = p3.probabilities
    assert len(polynomial) == MONOMIALS

    reference_times, circuit_times = [], []
    for _ in range(ROUNDS):
        seconds, reference = _timed(
            lambda: _cofactor_influences(polynomial, probabilities))
        reference_times.append(seconds)
        seconds, report = _timed(
            lambda: influence_query(polynomial, probabilities))
        circuit_times.append(seconds)

    deviation = max(abs(score.influence - reference[score.literal])
                    for score in report)
    reference_s = statistics.median(reference_times)
    circuit_s = statistics.median(circuit_times)
    speedup = reference_s / circuit_s
    record_json("BENCH_influence", {
        "key": KEY,
        "monomials": len(polynomial),
        "literals": len(polynomial.literals()),
        "rounds": ROUNDS,
        "reference_s": reference_s,
        "circuit_s": circuit_s,
        "speedup": speedup,
        "max_abs_deviation": deviation,
    })
    record_table(
        "circuit_influence",
        "Exact influence on %s (%d monomials, %d literals), median of %d"
        % (KEY, len(polynomial), len(polynomial.literals()), ROUNDS),
        ["method", "time (ms)", "max abs deviation"],
        [["BDD cofactors per literal", 1000 * reference_s, 0.0],
         ["circuit gradient (one compile, one pass)", 1000 * circuit_s,
          deviation]],
    )
    assert deviation <= TOLERANCE
    assert speedup >= 10.0, "circuit influence speedup %.1fx" % speedup
