"""Ablation — read-once factorization vs the BDD.

The paper's related work notes that Kanagal et al.'s fast sensitivity
analysis needs read-once lineage, which PLP provenance does not guarantee.
This ablation quantifies both halves of that remark on our workloads:

- how often mutual-trust provenance is actually read-once (rarely, once
  paths overlap), and
- the speedup read-once evaluation gives when it does apply.
"""

import time

from repro import P3
from repro.data import paper_fragment
from repro.inference.exact import exact_probability
from repro.provenance.polynomial import Polynomial, tuple_literal
from repro.provenance.readonce import decompose, is_read_once

from reporting import record_table
from workloads import query_workload


def test_ablation_readonce_applicability(benchmark):
    # How often is trust provenance read-once?
    p3 = P3(paper_fragment().to_program())
    p3.evaluate()
    fragment_stats = _classify(p3, list(map(str, p3.derived_atoms(
        "mutualTrustPath"))) + list(map(str, p3.derived_atoms("trustPath"))))

    big_p3, key, poly = query_workload()
    big_read_once = is_read_once(poly)

    record_table(
        "ablation_readonce_applicability",
        "Ablation: how often is extracted provenance read-once?",
        ["workload", "tuples", "read-once", "fraction"],
        [
            ["trust fragment (all derived)", fragment_stats[0],
             fragment_stats[1],
             fragment_stats[1] / max(1, fragment_stats[0])],
            ["150/150 sample, largest query", 1,
             int(big_read_once), float(big_read_once)],
        ],
    )
    # The paper's remark: read-once is NOT universal for PLP provenance.
    assert not big_read_once

    benchmark.pedantic(is_read_once, args=(poly,), rounds=2, iterations=1)


def _classify(p3, keys):
    total = 0
    read_once = 0
    for key in keys:
        polynomial = p3.polynomial_of(key)
        if polynomial.is_zero or polynomial.is_one:
            continue
        total += 1
        if is_read_once(polynomial):
            read_once += 1
    return total, read_once


def test_ablation_readonce_speedup(benchmark):
    # A wide product-of-sums polynomial: read-once evaluation is linear,
    # the exact BDD compiles it first.
    factors = 12
    poly = Polynomial.one()
    probabilities = {}
    for i in range(factors):
        left = tuple_literal("a%d" % i)
        right = tuple_literal("b%d" % i)
        poly = poly * Polynomial.from_monomials([[left], [right]])
        probabilities[left] = 0.3
        probabilities[right] = 0.4

    tree = decompose(poly)
    assert tree is not None

    start = time.perf_counter()
    fast = tree.probability(probabilities)
    read_once_time = time.perf_counter() - start

    start = time.perf_counter()
    slow = exact_probability(poly, probabilities)
    bdd_time = time.perf_counter() - start

    assert abs(fast - slow) < 1e-9
    record_table(
        "ablation_readonce_speedup",
        "Ablation: (a+b)^%d product-of-sums, %d monomials — read-once vs "
        "BDD" % (factors, len(poly)),
        ["method", "P", "time (ms)"],
        [
            ["read-once tree", fast, 1000 * read_once_time],
            ["BDD (exact)", slow, 1000 * bdd_time],
        ],
    )

    benchmark.pedantic(tree.probability, args=(probabilities,),
                       rounds=5, iterations=1)
