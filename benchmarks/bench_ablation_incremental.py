"""Extension bench — incremental insertion vs from-scratch re-evaluation.

Base data changes in live systems; re-running the whole program per
insertion wastes the provenance already captured.  This ablation inserts
trust edges one at a time into an evaluated sample and compares the
incremental delta evaluation against full re-evaluation, verifying the
models stay identical.
"""

import time

from repro import P3
from repro.datalog.ast import Fact
from repro.datalog.engine import Engine
from repro.datalog.parser import parse_program
from repro.datalog.terms import atom as make_atom

from reporting import record_table
from workloads import bfs_sample

INSERTIONS = 5


def test_ablation_incremental_insertion(benchmark):
    sample = bfs_sample(40, seed=1)
    nodes = sorted(sample.nodes)
    # Fresh edges between existing nodes (not already present).
    new_edges = []
    for src in nodes:
        for dst in reversed(nodes):
            if src != dst and (src, dst) not in sample.edges:
                new_edges.append((src, dst))
                break
        if len(new_edges) >= INSERTIONS:
            break

    system = P3(sample.to_program())
    system.evaluate()
    base_atoms = system.database.count()

    rows = []
    accumulated_source = str(sample.to_program())
    for index, (src, dst) in enumerate(new_edges):
        fact = Fact(make_atom("trust", src, dst), 0.6, "new%d" % index)
        accumulated_source += "\nnew%d 0.6: trust(%d,%d)." % (index, src, dst)

        start = time.perf_counter()
        delta = system.add_fact(fact)
        incremental_time = time.perf_counter() - start

        start = time.perf_counter()
        full = Engine(parse_program(accumulated_source)).run()
        scratch_time = time.perf_counter() - start

        # Identical models.
        assert ({str(a) for a in system.database.atoms()}
                == {str(a) for a in full.database.atoms()})
        rows.append(["trust(%d,%d)" % (src, dst), delta.firing_count,
                     incremental_time, scratch_time,
                     scratch_time / max(incremental_time, 1e-9)])

    record_table(
        "ablation_incremental",
        "Extension: incremental insertion vs from-scratch re-evaluation "
        "(40-node sample, %d tuples initially)" % base_atoms,
        ["inserted edge", "delta firings", "incremental (s)",
         "scratch (s)", "speedup"],
        rows,
    )

    speedups = [row[4] for row in rows]
    assert sum(speedups) / len(speedups) > 2

    def run_one():
        fresh = P3(sample.to_program())
        fresh.evaluate()
        src, dst = new_edges[0]
        fresh.add_fact(Fact(make_atom("trust", src, dst), 0.6, "bench"))

    benchmark.pedantic(run_one, rounds=2, iterations=1)
