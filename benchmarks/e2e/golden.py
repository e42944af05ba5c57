"""Regenerate the committed golden files (``run.py golden``).

- ``batch_band.json``: the Section-6.2 sample's ``mutualTrustPath`` keys
  whose polynomial size lies in the batch workload's mid-size band, from
  which every seed draws its keys.
- ``fingerprints.json``: sha256 of every workload's seed-0 inputs; a run
  with seed 0 stops when its inputs no longer hash to this.
- ``cold_grounded_seed0.json``: the answers to the seed-0 cold-grounded
  keys.  Query-directed grounding has no tractable full-evaluation
  counterpart on the whole network, so the values are computed twice —
  by grounding the goal on the full network and by full evaluation of
  the pair's hop-bounded subgraph — and must agree with each other and
  with ``benchmarks/results/BENCH_grounding.json``.
- ``batch_big_key.json``: the Section-6.2 sample's largest
  ``mutualTrustPath`` key (most monomials, ties broken by key string),
  its polynomial digest, and its seeded ``parallel`` influence scores.
"""

from __future__ import annotations

import json
import os

import inputs
import verify

BENCH_GROUNDING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "results", "BENCH_grounding.json")


def _write(name: str, document: dict) -> None:
    path = os.path.join(verify.GOLDEN_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


def _cold_grounded(network) -> dict:
    from repro import P3, P3Config
    data = inputs.cold_grounded(network, 0)
    system = P3.from_source(data["program"], P3Config(
        hop_limit=inputs.HOP_COLD, grounding="query"))
    system.evaluate()
    grounded = {key: system.probability_of(key) for key in data["keys"]}
    subgraph = verify.cold_grounded_reference(network, data["keys"],
                                              inputs.HOP_COLD)
    for key in data["keys"]:
        if not verify.close(grounded[key], subgraph[key]):
            raise SystemExit("%s: grounded %r vs subgraph %r"
                             % (key, grounded[key], subgraph[key]))
    with open(BENCH_GROUNDING, encoding="utf-8") as handle:
        published = json.load(handle)
    for entry in published["full_graph_queries"]:
        if entry["key"] in grounded and not verify.close(
                grounded[entry["key"]], entry["probability"]):
            raise SystemExit("%s disagrees with BENCH_grounding.json"
                             % entry["key"])
    return {"keys": data["keys"], "answers": grounded,
            "hop_limit": inputs.HOP_COLD}


def _batch_big_key(network) -> dict:
    from repro import P3, P3Config
    from repro.exec.specs import QuerySpec
    sample = inputs.query_sample(network)
    system = P3(sample.to_program(), P3Config(hop_limit=inputs.HOP_QUERY))
    system.evaluate()
    sizes = {str(atom): len(system.polynomial_of(str(atom)))
             for atom in system.derived_atoms("mutualTrustPath")}
    key = min(sizes, key=lambda name: (-sizes[name], name))
    if key != inputs.BATCH_BIG_KEY:
        raise SystemExit("largest key is now %s, not %s"
                         % (key, inputs.BATCH_BIG_KEY))
    polynomial = system.polynomial_of(key)
    influence = system.executor().execute(QuerySpec(
        "influence", key, {"method": "parallel",
                           "samples": inputs.BATCH_INFLUENCE_SAMPLES,
                           "seed": inputs.BATCH_INFLUENCE_SEED}))
    return {"key": key, "monomials": len(polynomial),
            "digest": inputs.polynomial_digest(polynomial),
            "influence_scores": influence.to_dict()["scores"]}


def regenerate() -> None:
    from repro.data import generate_network
    network = generate_network()
    # The batch generator reads the band list, so it goes first.
    _write("batch_band.json", {
        "band": list(inputs.BATCH_MONOMIAL_BAND),
        "hop_limit": inputs.HOP_QUERY,
        "keys": inputs.batch_band(network)})
    _write("fingerprints.json", {
        name: inputs.fingerprint(generator(network, 0))
        for name, generator in inputs.GENERATORS.items()})
    _write("cold_grounded_seed0.json", _cold_grounded(network))
    _write("batch_big_key.json", _batch_big_key(network))
