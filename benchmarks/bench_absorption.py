"""Extraction with int-mask absorption against frozenset-subset absorption.

Section 3.3's cycle elimination rests on the absorption law
``a + a·b = a``, so the algebra absorbs on every ``+``, ``*`` and
``times_literal``.  The algebra numbers each call's literals locally and
tests subsumption as ``k & m == k`` on int masks, checks a sum's operands
only against each other, and skips absorption where a product with one
literal cannot absorb.  The reference re-installs, for the duration of a
timed pass, the algebra it replaced: every operation re-absorbs its whole
result from scratch with ``frozenset`` subset tests in size order.

Workloads, on the Section-6.2 sample (150 nodes / 150 edges, sample
seed 5), query-grounded at hop limit 6 as the end-to-end
``batch-analytics`` workload runs it:

- ``batch``: the five keys of that workload's batch at ``--seed`` (four
  25-monomial keys and ``mutualTrustPath(50,68)``, 1,199 monomials);
- ``all``: every derivable ``mutualTrustPath`` key (704).

Each key is grounded untimed first; then reference and int-mask passes
alternate over the same graph, and each pass's extraction CPU time
(``time.process_time``) is summed.  Every polynomial must equal the
reference's, and its ``str()`` must match byte for byte.

Run from ``benchmarks/`` with ``PYTHONPATH=../src:.``::

    python bench_absorption.py           # writes results/BENCH_absorption.json
    python bench_absorption.py --quick   # equality only: the batch keys and
                                         # every 16th key, one pass, no file
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import time
from typing import Dict, List, Sequence

# The key draws of the end-to-end workloads live in e2e/inputs.py.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "e2e"))

import inputs  # noqa: E402
from repro import P3, P3Config
from repro.provenance import polynomial as algebra
from repro.provenance.extraction import extract_polynomial
from repro.provenance.polynomial import Monomial, Polynomial

from reporting import record_json
from workloads import QUERY_HOP_LIMIT, full_network

BATCH_SEED = 1
BATCH_ROUNDS = 7
ALL_ROUNDS = 1
QUICK_STRIDE = 16


def _reference_absorb(monomials):
    """Drop monomials subsumed by a smaller one, by frozenset subset
    tests in size order."""
    kept: List[Monomial] = []
    for candidate in sorted(monomials, key=len):
        if not any(keeper.subsumes(candidate) for keeper in kept):
            kept.append(candidate)
    return frozenset(kept)


def _reference_add(self, other):
    if self.is_zero:
        return other
    if other.is_zero:
        return self
    return Polynomial(self.monomials | other.monomials)


def _reference_mul(self, other):
    if self.is_zero or other.is_zero:
        return Polynomial.zero()
    if self.is_one:
        return other
    if other.is_one:
        return self
    return Polynomial(Monomial(left.literals | right.literals)
                      for left in self.monomials for right in other.monomials)


def _reference_times_literal(self, literal):
    return Polynomial(Monomial(monomial.literals | {literal})
                      for monomial in self.monomials)


@contextlib.contextmanager
def reference_algebra():
    """Every operation re-absorbs its whole result with subset tests."""
    methods = {"__add__": _reference_add, "__mul__": _reference_mul,
               "times_literal": _reference_times_literal}
    saved = {name: Polynomial.__dict__[name] for name in methods}
    saved_absorb = algebra._absorb
    for name, method in methods.items():
        setattr(Polynomial, name, method)
    algebra._absorb = _reference_absorb
    try:
        yield
    finally:
        for name, method in saved.items():
            setattr(Polynomial, name, method)
        algebra._absorb = saved_absorb


def _grounded_system(keys: Sequence[str]):
    """A query-grounded system with every key's goal grounded (untimed)."""
    sample = inputs.query_sample(full_network())
    p3 = P3(sample.to_program(), P3Config(hop_limit=QUERY_HOP_LIMIT,
                                          grounding="query"))
    p3.evaluate()
    for key in keys:
        p3.provenance_for(key)
    return p3


def _extract_pass(p3, keys: Sequence[str]):
    """(extraction CPU seconds, {key: polynomial}) for one pass."""
    polynomials: Dict[str, Polynomial] = {}
    seconds = 0.0
    for key in keys:
        graph = p3.provenance_for(key)
        start = time.process_time()
        polynomials[key] = extract_polynomial(graph, key,
                                              hop_limit=QUERY_HOP_LIMIT)
        seconds += time.process_time() - start
    return seconds, polynomials


def _compare(reference: Dict[str, Polynomial],
             current: Dict[str, Polynomial]) -> None:
    for key, expected in reference.items():
        got = current[key]
        if got != expected or str(got) != str(expected):
            raise AssertionError("%s: %d monomials, reference %d"
                                 % (key, len(got), len(expected)))


def measure(keys: Sequence[str], rounds: int) -> dict:
    """Alternate reference and int-mask passes over ``keys``."""
    p3 = _grounded_system(keys)
    reference_s: List[float] = []
    current_s: List[float] = []
    for _ in range(rounds):
        with reference_algebra():
            seconds, reference = _extract_pass(p3, keys)
        reference_s.append(seconds)
        seconds, current = _extract_pass(p3, keys)
        current_s.append(seconds)
        _compare(reference, current)
    reference_median = statistics.median(reference_s)
    current_median = statistics.median(current_s)
    return {
        "keys": len(keys),
        "monomials": sum(len(polynomial) for polynomial in current.values()),
        "rounds": rounds,
        "reference_cpu_s": reference_median,
        "int_mask_cpu_s": current_median,
        "speedup": reference_median / current_median,
        "equal": True,
    }


def workload_keys(seed: int) -> Dict[str, List[str]]:
    """The batch's five keys at ``seed`` and every mutualTrustPath key."""
    network = full_network()
    batch = inputs.batch_analytics(network, seed)
    edges = sorted(inputs.query_sample(network).edges)
    reachable = set(inputs.trust_paths(edges))
    every = ["mutualTrustPath(%d,%d)" % (x, y)
             for (x, y) in sorted(reachable) if (y, x) in reachable]
    return {"batch": list(batch["mid_keys"]) + [batch["big_key"]],
            "all": every}


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="check equality on a key subset, one pass, "
                        "and write no results file")
    parser.add_argument("--seed", type=int, default=BATCH_SEED,
                        help="batch-analytics seed that picks the batch keys")
    args = parser.parse_args(argv)
    keys = workload_keys(args.seed)
    if args.quick:
        keys["all"] = keys["all"][::QUICK_STRIDE]
        rounds = {"batch": 1, "all": 1}
    else:
        rounds = {"batch": BATCH_ROUNDS, "all": ALL_ROUNDS}
    results = {name: measure(keys[name], rounds[name])
               for name in ("batch", "all")}
    for name, result in results.items():
        print("%-5s %4d keys %6d monomials: reference %.3f s, int masks "
              "%.3f s CPU (%.2fx), polynomials equal"
              % (name, result["keys"], result["monomials"],
                 result["reference_cpu_s"], result["int_mask_cpu_s"],
                 result["speedup"]))
    if not args.quick:
        record_json("BENCH_absorption", {
            "sample": "Section-6.2 sample, query grounding, hop limit %d"
                      % QUERY_HOP_LIMIT,
            "batch_seed": args.seed,
            "batch_keys": keys["batch"],
            "python": sys.version.split()[0],
            "workloads": results,
        })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
