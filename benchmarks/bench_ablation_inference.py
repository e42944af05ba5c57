"""Ablation — probability backends: exact (the circuit) vs BDD vs samplers.

DESIGN.md §6: accuracy/time tradeoff across the interchangeable
inference backends, on two workloads — the small Acquaintance polynomial
(exact methods shine) and the large mutual-trust polynomial (sampling
methods required; exact methods timed only if feasible) — plus the two
exact compilers on a wide product of sums.
"""

import time

from repro import P3
from repro.data import acquaintance_program
from repro.inference import (
    Circuit,
    bdd_probability,
    exact_probability,
    from_polynomial,
    karp_luby_probability,
    kernel_probability,
    monte_carlo_probability,
)
from repro.provenance.polynomial import Polynomial, tuple_literal

from reporting import record_table
from workloads import query_workload

SAMPLES = 20000


def _time(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_ablation_inference_small(benchmark):
    p3 = P3(acquaintance_program())
    p3.evaluate()
    poly = p3.polynomial_of("know", "Ben", "Elena")
    probs = p3.probabilities

    exact, exact_time = _time(lambda: exact_probability(poly, probs))
    rows = [["exact (circuit)", exact, 0.0, 1000 * exact_time]]
    for name, fn in [
        ("bdd", lambda: bdd_probability(poly, probs)),
        ("mc", lambda: monte_carlo_probability(
            poly, probs, SAMPLES, seed=1).value),
        ("parallel", lambda: kernel_probability(
            poly, probs, SAMPLES, seed=1).value),
        ("karp-luby", lambda: karp_luby_probability(
            poly, probs, SAMPLES, seed=1).value),
    ]:
        value, elapsed = _time(fn)
        rows.append([name, value, abs(value - exact), 1000 * elapsed])
        assert abs(value - exact) < 0.02

    record_table(
        "ablation_inference_small",
        "Ablation: inference backends on know(Ben,Elena) "
        "(exact P = %.5f)" % exact,
        ["backend", "P", "abs error", "time (ms)"],
        rows,
    )
    benchmark.pedantic(exact_probability, args=(poly, probs),
                       rounds=5, iterations=1)


def test_ablation_inference_large(benchmark):
    p3, key, poly = query_workload()
    probs = p3.probabilities

    reference, ref_time = _time(lambda: kernel_probability(
        poly, probs, 200000, seed=9).value)

    rows = [["parallel (200k ref)", reference, 0.0, 1000 * ref_time]]
    for name, fn in [
        ("mc (5k)", lambda: monte_carlo_probability(
            poly, probs, 5000, seed=1).value),
        ("parallel (20k)", lambda: kernel_probability(
            poly, probs, SAMPLES, seed=1).value),
        ("karp-luby (5k)", lambda: karp_luby_probability(
            poly, probs, 5000, seed=1).value),
    ]:
        value, elapsed = _time(fn)
        rows.append([name, value, abs(value - reference), 1000 * elapsed])
        assert abs(value - reference) < 0.05

    record_table(
        "ablation_inference_large",
        "Ablation: inference backends on %s (%d monomials)"
        % (key, len(poly)),
        ["backend", "P", "abs error vs ref", "time (ms)"],
        rows,
    )
    benchmark.pedantic(
        kernel_probability, args=(poly, probs, SAMPLES),
        kwargs={"seed": 1}, rounds=3, iterations=1)


def test_ablation_inference_product_of_sums(benchmark):
    # (a0+b0)·...·(a11+b11): 4,096 monomials, each literal once.  The
    # circuit shares every cofactor, one decision per factor; the BDD
    # disjoins 4,096 chains.
    factors = 12
    poly = Polynomial.one()
    probs = {}
    for i in range(factors):
        left, right = tuple_literal("a%d" % i), tuple_literal("b%d" % i)
        poly = poly * Polynomial.from_monomials([[left], [right]])
        probs[left] = 0.3
        probs[right] = 0.4
    truth = (1.0 - 0.7 * 0.6) ** factors

    circuit, circuit_time = _time(lambda: Circuit.compile(poly))
    (bdd, root), bdd_time = _time(lambda: from_polynomial(poly))
    assert abs(circuit.probability(probs) - truth) < 1e-12
    assert abs(bdd.probability(root, probs) - truth) < 1e-12

    record_table(
        "ablation_inference_product_of_sums",
        "Ablation: (a+b)^%d product of sums, %d monomials — the exact "
        "circuit vs the BDD (P = %.6f)" % (factors, len(poly), truth),
        ["compiler", "nodes", "compile (ms)"],
        [["circuit (exact)", len(circuit), 1000 * circuit_time],
         ["BDD", bdd.size(root), 1000 * bdd_time]],
    )
    benchmark.pedantic(Circuit.compile, args=(poly,),
                       rounds=3, iterations=1)
