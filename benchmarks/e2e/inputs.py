"""Seeded inputs for the four end-to-end workloads.

Everything here runs untimed, in the benchmark process, before any
workload process starts.  The dataset is always
``repro.data.generate_network()`` (5,881 nodes, 35,592 edges, dataset
seed 2020); the workload seed picks keys, arrival times and written
edges.  The programs are the ones the paper benchmarks use (BFS sample
seed 7, Section-6.2 sample seed 5), and seed 0 starts the trust pairs
where seed 2020 does, so the first numbers can be cross-checked against
``BENCH_grounding.json``.

Every seed must cost about the same, or run-to-run spread measures the
inputs instead of the program, so the programs are fixed and the seed
draws what varies within them:

- cold-full: the seed-7 100-node BFS sample for every seed; the seed
  draws the keys.  (Other 100-node samples with a fixpoint rule-firing
  count within 3% of it still took 10-50% longer to evaluate.)
- cold-grounded: the full network; the seed draws low-fanout pairs whose
  source starts a number of 3-hop walks within 10% of the seed-0 pair's
  (extraction cost follows that walk count).
- serve-mixed / batch-analytics: the Section-6.2 sample (the batch's
  large key is defined on it); the seed draws keys, arrival times and
  written edges, within the bands described at each generator.

Inputs do not depend on ``--seconds``, so neither does their
fingerprint: the serve schedule covers the longest run the benchmark
allows and is cut at the run length, and the cold loops cycle through
their key lists.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import statistics
from typing import Dict, Iterable, List, Sequence, Set, Tuple

HOP_COLD = 4
HOP_QUERY = 6

BFS_NODES = 100
BFS_SAMPLE_SEED = 7
COLD_FULL_KEYS_PER_INVOCATION = 3
MAX_INVOCATIONS = 16

PAIR_SEED = 2020
PAIR_FANOUT = 8
PAIR_CANDIDATES = 512
WALK_TOLERANCE = 0.10

QUERY_SAMPLE_SEED = 5
QUERY_SAMPLE_NODES = 150
QUERY_SAMPLE_EDGES = 150
#: Fixed rank order of the Zipf key draw, so every seed sees the same
#: hot keys.
ZIPF_ORDER_SEED = 2020
ZIPF_EXPONENT = 1.1
#: Served keys start within 2% of the median number of walks of up to
#: five edges: extraction at hop limit 6 explores those walks, and over
#: all keys an uncached read cost 0.2-50 ms per key.  The band holds the
#: 711 keys of two sources, 10-17 ms interquartile; at 10% it also held a
#: source whose keys cost 45 ms each.
SERVE_WALK_TOLERANCE = 0.02

SERVE_RATE_PER_S = 6.0
SERVE_WARMUP_S = 5.0
SERVE_MAX_SECONDS = 60.0
#: Every 50th request is a write (2%), alternating tenants.
SERVE_WRITE_EVERY = 50
#: Every tenth spec is an explanation (10%), the rest probabilities.
SERVE_EXPLAIN_EVERY = 10
#: Specs per read, cycled: 1-4 specs, 2.4 on average.  Read latency grows
#: about 15 ms per uncached spec, so drawn counts would move the median
#: read from seed to seed; a fixed cycle with two-spec reads in its
#: middle keeps the median inside one group.
SERVE_SPEC_CYCLE = (1, 2, 2, 3, 4)
TENANTS = ("hot", "durable")

BATCH_MID_KEYS = 4
BATCH_MONOMIAL_BAND = (20, 30)
BATCH_BIG_KEY = "mutualTrustPath(50,68)"
BATCH_INFLUENCE_SAMPLES = 2000
BATCH_INFLUENCE_SEED = 2020


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def fingerprint(inputs: dict) -> str:
    """sha256 over the canonical JSON of a workload's generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def polynomial_digest(polynomial: Iterable) -> str:
    """Order-independent sha256 of a polynomial's monomials."""
    monomials = sorted(
        sorted("%s:%s" % (literal.kind, literal.key) for literal in monomial)
        for monomial in polynomial)
    text = json.dumps(monomials, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- graph helpers ---------------------------------------------------------------

def _adjacency(edges: Iterable[Tuple[int, int]]) -> Dict[int, List[int]]:
    adjacency: Dict[int, List[int]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    return adjacency


def _reach(adjacency: Dict[int, List[int]], start: int) -> Set[int]:
    """Nodes reachable from ``start`` over one or more edges."""
    seen: Set[int] = set()
    stack = list(adjacency.get(start, ()))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
    return seen


def trust_paths(edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Every derivable ``trustPath(x, y)``: y reachable from x, x != y."""
    adjacency = _adjacency(edges)
    nodes = sorted({node for edge in edges for node in edge})
    return [(x, y) for x in nodes for y in sorted(_reach(adjacency, x))
            if y != x]


def walks(network, start: int, length: int) -> int:
    """Number of walks of exactly ``length`` edges leaving ``start``."""
    current = {start: 1}
    for _ in range(length):
        following: Dict[int, int] = {}
        for node, count in current.items():
            for successor in network.out_adjacency.get(node, ()):
                following[successor] = following.get(successor, 0) + count
        current = following
    return sum(current.values())


# -- workloads ---------------------------------------------------------------------

def cold_full(network, seed: int) -> dict:
    """The seed-7 100-node BFS sample plus three trustPath keys per
    invocation."""
    sample = network.bfs_sample(BFS_NODES, seed=BFS_SAMPLE_SEED)
    paths = trust_paths(sorted(sample.edges))
    picked = workload_rng("cold-full", seed).sample(
        paths, COLD_FULL_KEYS_PER_INVOCATION * MAX_INVOCATIONS)
    keys = ["trustPath(%d,%d)" % pair for pair in picked]
    return {
        "program": str(sample.to_program()),
        "keys": [keys[i:i + COLD_FULL_KEYS_PER_INVOCATION]
                 for i in range(0, len(keys), COLD_FULL_KEYS_PER_INVOCATION)],
    }


def cold_grounded(network, seed: int) -> dict:
    """The full-network program plus one low-fanout pair per invocation."""
    low_fanout = [
        (src, dst) for (src, dst) in sorted(network.edges)
        if network.out_degree(src) <= PAIR_FANOUT
        and network.out_degree(dst) <= PAIR_FANOUT]
    count = min(PAIR_CANDIDATES, len(low_fanout))
    # random.Random(2020).sample(...) is what full_graph_trust_pairs()
    # draws, so seed 0 starts with the BENCH_grounding.json pairs.
    reference_pair = random.Random(PAIR_SEED).sample(low_fanout, count)[0]
    reference = walks(network, reference_pair[0], 3)
    rng = (random.Random(PAIR_SEED) if seed == 0
           else workload_rng("cold-grounded", seed))
    keys = []
    for src, dst in rng.sample(low_fanout, count):
        if abs(walks(network, src, 3) - reference) <= WALK_TOLERANCE * reference:
            keys.append("trustPath(%d,%d)" % (src, dst))
            if len(keys) == MAX_INVOCATIONS:
                break
    if len(keys) < MAX_INVOCATIONS:
        raise RuntimeError("only %d in-band pairs for seed %d"
                           % (len(keys), seed))
    return {"program": str(network.to_program()), "keys": keys}


def query_sample(network):
    """The Section-6.2 sample (150 nodes / 150 edges, sample seed 5)."""
    return network.sample_nodes_edges(
        QUERY_SAMPLE_NODES, QUERY_SAMPLE_EDGES, seed=QUERY_SAMPLE_SEED)


class _Zipf:
    def __init__(self, size: int, exponent: float) -> None:
        weights = [1.0 / (rank ** exponent) for rank in range(1, size + 1)]
        total = sum(weights)
        self.cdf: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self.cdf.append(running)

    def rank(self, uniform: float) -> int:
        return min(bisect.bisect_left(self.cdf, uniform), len(self.cdf) - 1)


class _Quasi:
    """Low-discrepancy uniforms on [0, 1): an additive recurrence with an
    irrational step from a seeded start.  Any n consecutive draws cover
    [0, 1) evenly to within O(log n / n), so the key frequencies and the
    arrival count of a run barely change from seed to seed, while the
    seed still moves every draw."""

    def __init__(self, start: float, step: float) -> None:
        self.value = start
        self.step = step

    def __call__(self) -> float:
        self.value = (self.value + self.step) % 1.0
        return self.value


def serve_mixed(network, seed: int) -> dict:
    """Two tenants' open-loop schedule: Poisson arrivals, 98% reads.

    Writes sit at fixed positions (every 50th request) rather than being
    drawn: each write invalidates its tenant's caches, so a drawn write
    count would move read latency from seed to seed.  For the same
    reason reads alternate between the tenants, take their spec counts
    from a fixed cycle, every tenth spec is an explanation, and keys and
    inter-arrival gaps come from low-discrepancy sequences (Zipf and
    exponential by inverse CDF) that the seed starts at different points.
    A written edge always ends at a node that trusts no one, so it adds
    derivations only to the keys ending there: an edge into the strongly
    connected core rewrites the provenance of hundreds of keys, and with
    such edges the read median differed by 40% between seeds.

    Each event is ``[t, tenant, kind, payload]``: a read carries a spec
    list, a write one new trust fact.  ``prelude`` holds one write per
    tenant, applied before the load starts: a warm-started tenant keeps
    no incremental session, so its first update re-evaluates the whole
    program, and reads admitted meanwhile fail (HTTP 500
    ``NotEvaluatedError``: admission reads the tenant's executor outside
    the tenant lock).  Under load every write is incremental.
    """
    sample = query_sample(network)
    edges = sorted(sample.edges)
    paths = trust_paths(edges)
    reach = {node: sum(walks(sample, node, length)
                       for length in range(1, HOP_QUERY))
             for node in sample.nodes}
    middle = statistics.median(reach[src] for src, _dst in paths)
    keys = ["trustPath(%d,%d)" % (src, dst) for src, dst in paths
            if abs(reach[src] - middle) <= SERVE_WALK_TOLERANCE * middle]
    random.Random(ZIPF_ORDER_SEED).shuffle(keys)
    zipf = _Zipf(len(keys), ZIPF_EXPONENT)
    rng = workload_rng("serve-mixed", seed)
    key_draw = _Quasi(rng.random(), 0.6180339887498949)  # golden ratio - 1
    gap_draw = _Quasi(rng.random(), 0.41421356237309515)  # sqrt(2) - 1
    specs_sent = 0
    nodes = sorted(sample.nodes)
    sinks = sorted(set(nodes) - {src for src, _dst in edges})
    taken = set(edges)
    writes = 0
    reads = 0

    def new_fact() -> str:
        nonlocal writes
        while True:
            src, dst = rng.choice(nodes), rng.choice(sinks)
            if src != dst and (src, dst) not in taken:
                taken.add((src, dst))
                break
        writes += 1
        weight = rng.randint(1, 10)
        return "w%d %s: trust(%d,%d)." % (writes, (weight + 10) / 20.0,
                                         src, dst)

    prelude = [[tenant, new_fact()] for tenant in TENANTS]
    events: List[list] = []
    clock = 0.0
    while True:
        clock += -math.log(1.0 - gap_draw()) / SERVE_RATE_PER_S
        if clock > SERVE_WARMUP_S + SERVE_MAX_SECONDS:
            break
        if len(events) % SERVE_WRITE_EVERY == SERVE_WRITE_EVERY - 1:
            tenant = TENANTS[writes % 2]
            events.append([clock, tenant, "write", new_fact()])
            continue
        tenant = TENANTS[reads % 2]
        specs = []
        for _ in range(SERVE_SPEC_CYCLE[reads % len(SERVE_SPEC_CYCLE)]):
            specs_sent += 1
            kind = ("explain" if specs_sent % SERVE_EXPLAIN_EVERY == 0
                    else "probability")
            specs.append({"kind": kind, "key": keys[zipf.rank(key_draw())]})
        events.append([clock, tenant, "read", specs])
        reads += 1
    return {"program": str(sample.to_program()), "probe_key": keys[0],
            "rate_per_s": SERVE_RATE_PER_S, "warmup_s": SERVE_WARMUP_S,
            "prelude": prelude, "events": events}


def _batch_candidates(network) -> Tuple[str, List[str], object]:
    """The sample program, its mutualTrustPath keys, and a query-grounded
    system over it."""
    from repro import P3, P3Config
    sample = query_sample(network)
    reachable = set(trust_paths(sorted(sample.edges)))
    candidates = ["mutualTrustPath(%d,%d)" % (x, y)
                  for (x, y) in sorted(reachable) if (y, x) in reachable]
    program = str(sample.to_program())
    grounded = P3.from_source(program, P3Config(hop_limit=HOP_QUERY,
                                                grounding="query"))
    grounded.evaluate()
    return program, candidates, grounded


def _in_band(polynomial) -> bool:
    return BATCH_MONOMIAL_BAND[0] <= len(polynomial) <= BATCH_MONOMIAL_BAND[1]


def batch_band(network) -> List[str]:
    """Every candidate key whose polynomial size is in the mid-size band
    (``golden/batch_band.json``; extracting all 704 keys takes about 25 s,
    so runs read the list and extract only the keys they pick)."""
    _program, candidates, grounded = _batch_candidates(network)
    return [key for key in candidates
            if _in_band(grounded.polynomial_of(key))]


def batch_analytics(network, seed: int) -> dict:
    """Four mid-size mutualTrustPath keys plus the Section-6.2 sample's
    largest key, as one executor batch.

    The mid-size band (20-30 monomials) holds keys of one shape (25
    monomials over 25 literals), whose exact influence and modification
    cost about the same; 30-70-monomial keys range 0.5-2.8 s per exact
    influence.  The large key gets only the seeded ``parallel`` influence:
    its exact queries take tens of seconds and its BDD compile alone
    about 3 s, longer than the run allows per round.
    """
    from verify import load_golden
    band = set(load_golden("batch_band.json")["keys"])
    program, candidates, grounded = _batch_candidates(network)
    rng = workload_rng("batch-analytics", seed)
    mid = {}
    for key in rng.sample(candidates, len(candidates)):
        if key not in band:
            continue
        polynomial = grounded.polynomial_of(key)
        if not _in_band(polynomial):
            raise RuntimeError("golden/batch_band.json is stale: %s has %d "
                               "monomials; rerun 'run.py golden'"
                               % (key, len(polynomial)))
        mid[key] = polynomial_digest(polynomial)
        if len(mid) == BATCH_MID_KEYS:
            break
    specs = []
    for key in mid:
        specs += [
            {"kind": "probability", "key": key, "params": {"method": "bdd"}},
            {"kind": "influence", "key": key, "params": {"method": "exact"}},
            {"kind": "derive", "key": key,
             "params": {"epsilon": 0.05, "method": "match-group"}},
            {"kind": "explain", "key": key},
        ]
    specs += [
        {"kind": "modify", "key": next(iter(mid)),
         "params": {"target": 0.95, "max_steps": 3}},
        {"kind": "influence", "key": BATCH_BIG_KEY,
         "params": {"method": "parallel", "samples": BATCH_INFLUENCE_SAMPLES,
                    "seed": BATCH_INFLUENCE_SEED}},
    ]
    return {"program": program, "mid_keys": mid, "big_key": BATCH_BIG_KEY,
            "specs": specs}


GENERATORS = {
    "cold-full": cold_full,
    "cold-grounded": cold_grounded,
    "serve-mixed": serve_mixed,
    "batch-analytics": batch_analytics,
}
