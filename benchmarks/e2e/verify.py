"""Reference answers, computed untimed in the benchmark process by a
different path than the workload takes, and the checks against them.

- cold-full: the workload runs full grounding in a CLI process; the
  reference grounds each key on demand (``grounding="query"``).
- cold-grounded: the workload grounds one goal on the full network; the
  reference runs the full fixpoint on the subgraph of edges that lie on
  some walk of at most ``hop`` edges between the pair (every edge a
  hop-bounded derivation can use), plus a committed golden file for seed 0.
- serve-mixed: every answer must agree with every other answer for the
  same tenant, epoch and key; a seeded subset is rebuilt from scratch
  with query grounding and the writes applied in the epoch order the
  update envelopes returned.
- batch-analytics: polynomials must match the query-grounded ones,
  ``bdd`` probabilities the exact Shannon expansion, exact influences a
  ``bdd`` recomputation with the literal pinned to 1 and 0, modification
  plans a ``bdd`` recomputation with the plan applied, the large key's
  seeded influence a golden file, and every round the first round.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, Iterable, List, Optional, Tuple

TOLERANCE = 1e-12
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


def close(value: Optional[float], reference: float) -> bool:
    return (isinstance(value, (int, float))
            and abs(value - reference) <= TOLERANCE)


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def _query_grounded(program_text: str, hop: int):
    from repro import P3, P3Config
    system = P3.from_source(program_text,
                            P3Config(hop_limit=hop, grounding="query"))
    system.evaluate()
    return system


def cold_full_reference(program_text: str, keys: Iterable[str],
                        hop: int) -> Dict[str, float]:
    system = _query_grounded(program_text, hop)
    return {key: system.probability_of(key) for key in keys}


def _distances(adjacency: dict, start: int, limit: int) -> Dict[int, int]:
    distance = {start: 0}
    frontier = [start]
    for step in range(1, limit + 1):
        following = []
        for node in frontier:
            for successor in adjacency.get(node, ()):
                if successor not in distance:
                    distance[successor] = step
                    following.append(successor)
        frontier = following
    return distance


def cold_grounded_reference(network, keys: Iterable[str],
                            hop: int) -> Dict[str, float]:
    from repro import P3, P3Config
    from repro.data.bitcoin_otc import TrustEdge, TrustNetwork
    answers = {}
    for key in keys:
        src, dst = (int(part) for part in key[key.index("(") + 1:-1].split(","))
        from_src = _distances(network.out_adjacency, src, hop)
        to_dst = _distances(network.in_adjacency, dst, hop)
        subgraph = TrustNetwork()
        for (tail, head), edge in sorted(network.edges.items()):
            if (tail in from_src and head in to_dst
                    and from_src[tail] + 1 + to_dst[head] <= hop):
                subgraph.add_edge(TrustEdge(tail, head, edge.weight))
        system = P3(subgraph.to_program(), P3Config(hop_limit=hop))
        system.evaluate()
        answers[key] = system.probability_of(key)
    return answers


# -- serve-mixed -------------------------------------------------------------------

class ServeAnswers:
    """Collects per-spec answers of one service run and checks them."""

    def __init__(self) -> None:
        #: (tenant, epoch, key) -> values seen with an unambiguous epoch
        self.groups: Dict[Tuple[str, int, str], List[float]] = {}
        #: answers whose epoch label may be one newer than the state that
        #: produced them (a write to the tenant overlapped the read)
        self.ambiguous: List[Tuple[Tuple[str, int, str], float, int]] = []

    def add(self, tenant: str, epoch: int, key: str, value: float,
            ambiguous: bool, request: int) -> None:
        if ambiguous:
            self.ambiguous.append(((tenant, epoch, key), value, request))
        else:
            self.groups.setdefault((tenant, epoch, key), []).append(value)

    def check(self, program_text: str,
              history: Dict[str, List[Tuple[int, str]]], hop: int,
              sample: int, seed: int) -> Dict[str, object]:
        """Returns counts plus the request indices with a wrong answer."""
        wrong = set()
        inconsistent = 0
        settled: Dict[Tuple[str, int, str], float] = {}
        for triple, values in self.groups.items():
            if any(not close(value, values[0]) for value in values):
                inconsistent += 1
            settled[triple] = values[0]
        rng = random.Random("serve-check:%d" % seed)
        chosen = sorted(settled)
        chosen = rng.sample(chosen, min(sample, len(chosen)))
        needed = set(chosen)
        for (tenant, epoch, key), _value, _request in self.ambiguous:
            for candidate in (epoch, epoch - 1):
                if (tenant, candidate, key) not in settled:
                    needed.add((tenant, candidate, key))
        references = self._references(program_text, history, hop, needed)
        mismatched = [triple for triple in chosen
                      if not close(settled[triple], references[triple])]
        mislabelled = 0
        for (tenant, epoch, key), value, request in self.ambiguous:
            def expected(candidate: int) -> Optional[float]:
                triple = (tenant, candidate, key)
                return settled.get(triple, references.get(triple))
            if close(value, expected(epoch)):
                continue
            if close(value, expected(epoch - 1)):
                mislabelled += 1
                continue
            wrong.add(request)
        return {"groups": len(settled), "verified": len(chosen),
                "mismatched": [list(triple) for triple in mismatched],
                "inconsistent": inconsistent, "ambiguous": len(self.ambiguous),
                "epoch_mislabelled": mislabelled, "wrong_requests": wrong}

    @staticmethod
    def _references(program_text: str,
                    history: Dict[str, List[Tuple[int, str]]], hop: int,
                    triples: Iterable[Tuple[str, int, str]]
                    ) -> Dict[Tuple[str, int, str], float]:
        systems: Dict[Tuple[str, int], object] = {}
        answers = {}
        for tenant, epoch, key in sorted(triples):
            system = systems.get((tenant, epoch))
            if system is None:
                facts = [fact for applied, fact in sorted(history[tenant])
                         if applied <= epoch]
                system = _query_grounded(
                    program_text + "\n" + "\n".join(facts), hop)
                systems[(tenant, epoch)] = system
            answers[(tenant, epoch, key)] = system.probability_of(key)
        return answers


# -- batch-analytics ---------------------------------------------------------------

def batch_problems(result: dict, inputs: dict, hop: int) -> List[str]:
    """Everything wrong with one batch-analytics run (empty: all correct)."""
    from repro.inference import bdd_probability
    from repro.provenance.polynomial import Literal
    golden = load_golden("batch_big_key.json")
    problems = []
    if len(set(result["digests"])) != 1:
        problems.append("rounds disagree: %d distinct answer sets"
                        % len(set(result["digests"])))
    system = _query_grounded(inputs["program"], hop)
    probabilities = system.probabilities
    expected_digests = dict(inputs["mid_keys"])
    expected_digests[inputs["big_key"]] = golden["digest"]
    for key, digest in expected_digests.items():
        if result["polynomials"].get(key) != digest:
            problems.append("polynomial of %s differs from the "
                            "query-grounded one" % key)
    exact = {key: system.probability_of(key, method="exact")
             for key in inputs["mid_keys"]}
    for outcome in result["outcomes"]:
        spec = outcome["spec"]
        kind, key = spec["kind"], spec["key"]
        if "error" in outcome:
            problems.append("%s %s failed: %s" % (kind, key, outcome["error"]))
            continue
        value = outcome["value"]
        if kind == "probability":
            ok = close(value, exact[key])
        elif kind == "explain":
            ok = close(value["probability"], exact[key])
        elif kind == "derive":
            ok = (close(value["full_probability"], exact[key])
                  and value["error"] <= value["epsilon"] + TOLERANCE)
        elif kind == "influence" and key == inputs["big_key"]:
            ok = value["scores"] == golden["influence_scores"]
        elif kind == "influence":
            polynomial = system.polynomial_of(key)
            ok = True
            for entry in value["scores"][:3]:
                literal = Literal(entry["literal"]["kind"],
                                  entry["literal"]["key"])
                pinned = dict(probabilities)
                pinned[literal] = 1.0
                high = bdd_probability(polynomial, pinned)
                pinned[literal] = 0.0
                low = bdd_probability(polynomial, pinned)
                ok = ok and close(entry["influence"], high - low)
        elif kind == "modify":
            polynomial = system.polynomial_of(key)
            updated = dict(probabilities)
            for step in value["steps"]:
                updated[Literal(step["literal"]["kind"],
                                step["literal"]["key"])] = \
                    step["new_probability"]
            final = bdd_probability(polynomial, updated)
            ok = (close(value["initial_probability"], exact[key])
                  and close(value["final_probability"], final)
                  and value["reached"] == (final >= value["target"])
                  and len(value["steps"]) <= spec["params"]["max_steps"])
        else:
            ok = False
        if not ok:
            problems.append("%s %s disagrees with the reference" % (kind, key))
    return problems
