"""Differential test: full, incremental and query-directed evaluation agree.

Every evaluation mode runs the same semi-naive fixpoint, but reaches it
by a different road: one full evaluation of the program, a base
evaluation grown by ``add_facts`` batches, or demand-driven grounding of
each asked key.  On generated trust programs (the audit generator's
shape: a recursive rule pair over a small, possibly cyclic digraph) with
the facts split at random into a base and insertion batches, every
derived key must get a byte-identical explanation envelope on all three
roads, and the full and incremental roads must build identical
provenance graphs.
"""

import json

from hypothesis import given, settings, strategies as st

from repro import P3, P3Config
from repro.audit.generator import _NODE_NAMES, _TRUST_RULES
from repro.io.serialize import dump_query_result, graph_to_json


@st.composite
def split_trust_programs(draw):
    """(rules + base fact lines, insertion batches of fact lines)."""
    nodes = _NODE_NAMES[:draw(st.integers(min_value=3, max_value=5))]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(st.permutations(pairs))[
        :draw(st.integers(min_value=2, max_value=len(nodes) + 2))]
    facts = ['t%d %.2f: trust("%s","%s").'
             % (index + 1, draw(st.sampled_from((0.3, 0.55, 0.8, 0.95))),
                src, dst)
             for index, (src, dst) in enumerate(edges)]
    facts = draw(st.permutations(facts))
    base_size = draw(st.integers(min_value=0, max_value=len(facts) - 1))
    rest = facts[base_size:]
    cuts = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=len(rest)),
        max_size=3, unique=True)))
    bounds = [0] + [cut for cut in cuts if cut < len(rest)] + [len(rest)]
    batches = [rest[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return facts[:base_size], batches


def explanations(system, keys):
    return {key: dump_query_result(system.explain(key, method="bdd"))
            for key in keys}


def graph_bytes(system):
    return json.dumps(graph_to_json(system.graph), sort_keys=True)


class TestEvaluationPathsAgree:
    @settings(max_examples=40, deadline=None)
    @given(split_trust_programs())
    def test_full_incremental_and_query_paths(self, split):
        base, batches = split
        every_fact = base + [line for batch in batches for line in batch]

        full = P3.from_source(_TRUST_RULES + "\n".join(every_fact))
        full.evaluate()
        incremental = P3.from_source(_TRUST_RULES + "\n".join(base))
        incremental.evaluate()
        for batch in batches:
            incremental.add_facts("\n".join(batch))
        grounded = P3.from_source(_TRUST_RULES + "\n".join(every_fact),
                                  P3Config(grounding="query"))
        grounded.evaluate()

        assert graph_bytes(incremental) == graph_bytes(full)
        derived = sorted(key for key in full.graph.tuple_keys()
                         if full.graph.is_derived(key))
        expected = explanations(full, derived)
        assert explanations(incremental, derived) == expected
        assert explanations(grounded, derived) == expected
