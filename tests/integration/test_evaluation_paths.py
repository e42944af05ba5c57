"""Differential test: every road to an evaluated model agrees.

Every evaluation mode runs the same semi-naive fixpoint, but reaches it
by a different road: one full evaluation of the program, a base
evaluation grown by ``add_facts`` batches, demand-driven grounding of
each asked key (through the planner, and through
``goal_directed_query``), a ``ProvenanceStore`` warm start of the whole
evaluated program, or a warm start of the base grown by the same
batches.  On generated trust programs (the audit
generator's shape: a recursive rule pair over a small, possibly cyclic
digraph, plus some ``trustPath`` base facts that the rules may also
derive) with the facts split at random into a base and insertion
batches, every derived key must get a byte-identical explanation
envelope on every P3 road and the same answers and polynomial from
``goal_directed_query``, and the roads that hold a whole model must
build identical provenance graphs and read back the same model: the
same atoms in the same relations, the program's relations only.
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro import P3, P3Config, goal_directed_query
from repro.audit.generator import _NODE_NAMES, _TRUST_RULES
from repro.datalog.parser import parse_atom, parse_program
from repro.io.serialize import dump_query_result, graph_to_json
from repro.store import ProvenanceStore


@st.composite
def split_trust_programs(draw):
    """(rules + base fact lines, insertion batches of fact lines)."""
    nodes = _NODE_NAMES[:draw(st.integers(min_value=3, max_value=5))]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(st.permutations(pairs))[
        :draw(st.integers(min_value=2, max_value=len(nodes) + 2))]
    probability = st.sampled_from((0.3, 0.55, 0.8, 0.95))
    facts = ['t%d %.2f: trust("%s","%s").'
             % (index + 1, draw(probability), src, dst)
             for index, (src, dst) in enumerate(edges)]
    paths = draw(st.permutations(pairs))[:draw(st.integers(0, 2))]
    facts += ['p%d %.2f: trustPath("%s","%s").'
              % (index + 1, draw(probability), src, dst)
              for index, (src, dst) in enumerate(paths)]
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


def model(system):
    """The evaluated model as read through ``derived_atoms``/``database``."""
    return (sorted(map(str, system.derived_atoms())),
            system.database.relations())


def snapshot(system, path):
    """Persist an evaluated system into a new store file at ``path``."""
    with ProvenanceStore(path) as store:
        system.attach_store(store)
        system.detach_store()


def warm_started(base_source, batches, directory):
    """Snapshot the evaluated base into a store, warm-start from it, and
    apply the batches to the restored system."""
    path = os.path.join(directory, "prov.db")
    base = P3.from_source(base_source)
    base.evaluate()
    snapshot(base, path)
    system = P3.from_store(path)
    for batch in batches:
        system.add_facts("\n".join(batch))
    return system


class TestEvaluationPathsAgree:
    @settings(max_examples=40, deadline=None)
    @given(split_trust_programs())
    def test_full_incremental_and_query_paths(self, split):
        base, batches = split
        every_fact = base + [line for batch in batches for line in batch]
        source = _TRUST_RULES + "\n".join(every_fact)
        base_source = _TRUST_RULES + "\n".join(base)

        full = P3.from_source(source)
        full.evaluate()
        incremental = P3.from_source(base_source)
        incremental.evaluate()
        for batch in batches:
            incremental.add_facts("\n".join(batch))
        grounded = P3.from_source(source, P3Config(grounding="query"))
        grounded.evaluate()

        assert graph_bytes(incremental) == graph_bytes(full)
        assert model(incremental) == model(full)
        derived = sorted(key for key in full.graph.tuple_keys()
                         if full.graph.is_derived(key))
        expected = explanations(full, derived)
        assert explanations(incremental, derived) == expected
        assert explanations(grounded, derived) == expected

        for key in derived:
            goal = goal_directed_query(parse_program(source), "",
                                       pattern=parse_atom(key))
            assert goal.answers() == [key]
            assert str(goal.polynomial_of(key)) == str(
                full.polynomial_of(key))

        with tempfile.TemporaryDirectory() as directory:
            restored_path = os.path.join(directory, "full.db")
            snapshot(full, restored_path)
            restored = P3.from_store(restored_path, attach=False)
            assert graph_bytes(restored) == graph_bytes(full)
            assert model(restored) == model(full)
            assert explanations(restored, derived) == expected

            warm = warm_started(base_source, batches, directory)
            try:
                assert graph_bytes(warm) == graph_bytes(full)
                assert model(warm) == model(full)
                assert explanations(warm, derived) == expected
            finally:
                warm.detach_store().close()
