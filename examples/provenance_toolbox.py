"""The provenance toolbox: a tour of the extension features.

The other examples follow the paper's own case studies; this one walks
through the capabilities P3 adds around them, on one small social-trust
program:

1. **Why-not provenance** — explain an absent tuple,
2. **Anytime bounded inference** — bracket a probability without full
   extraction,
3. **Conditional probability** — update beliefs under evidence,
4. **Joint influence** — find complementary / substitutable literal pairs,
5. **Goal-directed evaluation** — answer one query with magic sets,
6. **A persisted store** — snapshot provenance into a durable store,
   warm-start from it, query without re-evaluating.

Run with::

    python examples/provenance_toolbox.py
"""

import os
import tempfile

from repro import P3, goal_directed_query
from repro.data import paper_fragment
from repro.inference.bounded import bounded_probability
from repro.queries import most_synergistic_pairs
from repro.store import ProvenanceStore

TARGET = "mutualTrustPath(1,6)"


def main() -> None:
    program = paper_fragment().to_program()
    p3 = P3(program)
    p3.evaluate()
    print("Program: the paper's 6-node Bitcoin-OTC fragment (Tables 5-7)")
    print("P[%s] = %.4f" % (TARGET, p3.probability_of(TARGET)))

    # ---- 1. why-not -------------------------------------------------------
    print("\n--- 1. Why-not provenance " + "-" * 40)
    # Person 5 has no ratings at all: both directions are missing.
    print(p3.why_not("mutualTrustPath", 1, 5).to_text())
    # Drilling down one level: what would give us trustPath(5,1)?
    print(p3.why_not("trustPath", 5, 1).to_text())

    # ---- 2. anytime bounds --------------------------------------------------
    print("\n--- 2. Anytime bounded inference " + "-" * 33)
    result = bounded_probability(p3.graph, TARGET, p3.probabilities,
                                 epsilon=1e-6)
    for hop, low, up in result.history:
        print("  hop %2d: P in [%.4f, %.4f]" % (hop, low, up))
    print("  converged to the exact value at hop %d" % result.hop_limit)

    # ---- 3. conditional probability ------------------------------------------
    print("\n--- 3. Conditional probability " + "-" * 35)
    prior = p3.probability_of(TARGET)
    posterior = p3.conditional_probability_of(
        TARGET, evidence={"trustPath(6,1)": True})
    print("  P[%s]                      = %.4f" % (TARGET, prior))
    print("  P[%s | trustPath(6,1)]     = %.4f" % (TARGET, posterior))
    negative = p3.conditional_probability_of(
        TARGET, evidence={"trust(1,13)": False})
    print("  P[%s | no trust(1,13)]     = %.4f" % (TARGET, negative))

    # ---- 4. joint influence ----------------------------------------------------
    print("\n--- 4. Joint influence " + "-" * 42)
    poly = p3.polynomial_of(TARGET)
    pairs = most_synergistic_pairs(
        poly, p3.probabilities, k=3,
        literals=sorted(poly.tuple_literals()))
    for first, second, value in pairs:
        kind = "complements" if value > 0 else "substitutes"
        print("  %s + %s: %+.4f (%s)" % (first, second, value, kind))

    # ---- 5. goal-directed evaluation ---------------------------------------------
    print("\n--- 5. Goal-directed evaluation (magic sets) " + "-" * 21)
    directed = goal_directed_query(
        paper_fragment().to_program(), "mutualTrustPath", 1, 6)
    print("  %d rule firings (full evaluation: %d)"
          % (directed.firing_count, p3.evaluate().firing_count))
    print("  same probability: %.4f"
          % directed.probability_of(TARGET))

    # ---- 6. persisted store ---------------------------------------------------------
    print("\n--- 6. A persisted provenance store " + "-" * 30)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "prov.db")
        with ProvenanceStore(path) as store:
            p3.attach_store(store)   # snapshots the evaluated graph
            p3.detach_store()
            epochs = store.epochs()
        print("  store written: %d bytes, epochs %s"
              % (os.path.getsize(path), [e["epoch"] for e in epochs]))
        offline = P3.from_store(path, attach=False)
        print("  warm-started: %d fixpoint rounds"
              % offline.evaluate().rounds)
        print("  reloaded without re-evaluation: P = %.4f"
              % offline.probability_of(TARGET))


if __name__ == "__main__":
    main()
