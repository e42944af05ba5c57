"""Seeded generation of audit cases.

Three sources of cases, all deterministic in the sweep seed:

- **random polynomials** — monotone DNF with tunable width, monomial
  count, literal sharing, rule-literal rate, and extreme probabilities;
- **corpus fixtures** — hand-built adversarial structure that has bitten
  (or nearly bitten) real backends: absorption pairs, duplicated
  monomials, rule-only literals, the P4 diamond, constants,
  and deterministic (p ∈ {0,1}) literals;
- **random programs** — small recursive trust-graph programs evaluated
  through the full pipeline at generation time, so program cases exercise
  parsing, evaluation, provenance capture, and extraction, not just
  polynomial arithmetic.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..provenance.polynomial import (
    Literal,
    Monomial,
    Polynomial,
    ProbabilityMap,
    rule_literal,
    tuple_literal,
)


class GeneratorConfig:
    """Knobs for random polynomial shape.

    The defaults keep every random case inside the brute-force oracle's
    literal budget, so each one is checked against true 2ⁿ enumeration.
    """

    __slots__ = ("max_literals", "max_monomials", "max_width",
                 "shared_bias", "rule_literal_rate",
                 "extreme_probability_rate", "program_rate")

    def __init__(self,
                 max_literals: int = 8,
                 max_monomials: int = 6,
                 max_width: int = 4,
                 shared_bias: float = 0.6,
                 rule_literal_rate: float = 0.25,
                 extreme_probability_rate: float = 0.15,
                 program_rate: float = 0.2) -> None:
        self.max_literals = max_literals
        self.max_monomials = max_monomials
        self.max_width = max_width
        self.shared_bias = shared_bias
        self.rule_literal_rate = rule_literal_rate
        self.extreme_probability_rate = extreme_probability_rate
        self.program_rate = program_rate


class AuditCase:
    """One differential-testing input: a polynomial plus its context.

    ``origin`` records where the case came from (``"random"``,
    ``"corpus"``, ``"program"``, or ``"shrunk"``).  Program cases carry
    the program source and queried tuple so the oracle can re-run the
    whole facade/executor pipeline; polynomial cases carry only the
    polynomial and its probability map.
    """

    __slots__ = ("name", "polynomial", "probabilities", "origin",
                 "program_source", "query_key", "hop_limit")

    def __init__(self, name: str, polynomial: Polynomial,
                 probabilities: ProbabilityMap,
                 origin: str = "random",
                 program_source: Optional[str] = None,
                 query_key: Optional[str] = None,
                 hop_limit: Optional[int] = None) -> None:
        self.name = name
        self.polynomial = polynomial
        self.probabilities = dict(probabilities)
        self.origin = origin
        self.program_source = program_source
        self.query_key = query_key
        self.hop_limit = hop_limit

    @property
    def is_program_case(self) -> bool:
        return self.program_source is not None and self.query_key is not None

    def to_dict(self) -> dict:
        from ..io.serialize import literal_to_json, polynomial_to_json
        document: Dict[str, object] = {
            "name": self.name,
            "origin": self.origin,
            "polynomial": polynomial_to_json(self.polynomial),
            "probabilities": [
                dict(literal_to_json(literal), probability=value)
                for literal, value in sorted(
                    self.probabilities.items(),
                    key=lambda item: (item[0].kind, item[0].key))
            ],
        }
        if self.program_source is not None:
            document["program"] = self.program_source
        if self.query_key is not None:
            document["query"] = self.query_key
        if self.hop_limit is not None:
            document["hop_limit"] = self.hop_limit
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "AuditCase":
        from ..io.serialize import literal_from_json, polynomial_from_json
        probabilities = {
            literal_from_json(entry): entry["probability"]
            for entry in document["probabilities"]
        }
        return cls(
            document["name"],
            polynomial_from_json(document["polynomial"]),
            probabilities,
            origin=document.get("origin", "random"),
            program_source=document.get("program"),
            query_key=document.get("query"),
            hop_limit=document.get("hop_limit"),
        )

    def __repr__(self) -> str:
        return "AuditCase(%r, %s, %d monomials / %d literals)" % (
            self.name, self.origin, len(self.polynomial),
            len(self.polynomial.literals()))


# -- random polynomials ----------------------------------------------------------

def _random_probability(rng: random.Random, config: GeneratorConfig) -> float:
    if rng.random() < config.extreme_probability_rate:
        return rng.choice([0.0, 1.0, 0.01, 0.99])
    return round(rng.uniform(0.05, 0.95), 4)


def random_polynomial(rng: random.Random,
                      config: Optional[GeneratorConfig] = None) -> Polynomial:
    """One random monotone DNF over a small shared literal pool.

    ``shared_bias`` controls how often a monomial reuses a literal another
    monomial already holds (shared literals are what separate the exact
    methods from naive independent-product shortcuts); ``rule_literal_rate``
    mixes rule literals in among the tuple literals.
    """
    config = config or GeneratorConfig()
    pool: List[Literal] = []
    for index in range(config.max_literals):
        if rng.random() < config.rule_literal_rate:
            pool.append(rule_literal("r%d" % (index + 1)))
        else:
            pool.append(tuple_literal('t("x%d")' % (index + 1)))
    monomial_count = rng.randint(1, config.max_monomials)
    monomials: List[Monomial] = []
    used: List[Literal] = []
    for _ in range(monomial_count):
        width = rng.randint(1, config.max_width)
        chosen: List[Literal] = []
        for _ in range(width):
            if used and rng.random() < config.shared_bias:
                literal = rng.choice(used)
            else:
                literal = rng.choice(pool)
            if literal not in chosen:
                chosen.append(literal)
        monomials.append(Monomial(chosen))
        for literal in chosen:
            if literal not in used:
                used.append(literal)
    return Polynomial.from_monomials(monomials)


def random_case(rng: random.Random, index: int,
                config: Optional[GeneratorConfig] = None) -> AuditCase:
    """One random polynomial case with random literal probabilities."""
    config = config or GeneratorConfig()
    polynomial = random_polynomial(rng, config)
    probabilities = {
        literal: _random_probability(rng, config)
        for literal in sorted(polynomial.literals())
    }
    return AuditCase("random-%04d" % index, polynomial, probabilities,
                     origin="random")


# -- the adversarial corpus ------------------------------------------------------

def _case(name: str, groups: Sequence[Sequence[str]],
          probabilities: Dict[str, float]) -> AuditCase:
    """Corpus shorthand: names starting with ``r`` become rule literals."""
    def lit(token: str) -> Literal:
        if token.startswith("r"):
            return rule_literal(token)
        return tuple_literal('t("%s")' % token)

    polynomial = Polynomial.from_monomials(
        Monomial(lit(token) for token in group) for group in groups)
    return AuditCase(
        "corpus-" + name, polynomial,
        {lit(token): value for token, value in probabilities.items()},
        origin="corpus")


def corpus_cases() -> List[AuditCase]:
    """Hand-built adversarial fixtures seeding every audit sweep.

    Each targets a structure class with a history of breaking inference
    shortcuts; the cross-representation agreement tests in
    ``tests/audit/test_corpus.py`` reuse these same fixtures.
    """
    cases = [
        # Absorption: ab + a collapses to a; backends must agree on the
        # absorbed form (the unabsorbed comparison lives in the tests,
        # where raw DNF can be evaluated without Polynomial's canonicity).
        _case("absorption", [["a"], ["a", "b"], ["b", "c"]],
              {"a": 0.3, "b": 0.7, "c": 0.5}),
        # Duplicated monomials (set semantics must deduplicate).
        _case("duplicates", [["a", "b"], ["b", "a"], ["c"]],
              {"a": 0.4, "b": 0.6, "c": 0.2}),
        # Rule-only literals: no tuple literals anywhere.
        _case("rule-only", [["r1", "r2"], ["r2", "r3"]],
              {"r1": 0.8, "r2": 0.4, "r3": 0.2}),
        # P4 diamond ab + bc + cd: no AND/OR factorization exists, so
        # the exact circuit must take a decision.
        _case("p4-diamond", [["a", "b"], ["b", "c"], ["c", "d"]],
              {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}),
        # Deterministic literals: p ∈ {0, 1} exercises short-circuits.
        _case("deterministic-mix", [["a", "b"], ["c"]],
              {"a": 1.0, "b": 0.35, "c": 0.0}),
        # Certain truth through p=1 literals only.
        _case("certain", [["a"], ["b"]], {"a": 1.0, "b": 0.5}),
        # Impossible: every monomial contains a p=0 literal.
        _case("impossible", [["a", "b"], ["a", "c"]],
              {"a": 0.0, "b": 0.9, "c": 0.9}),
        # Disjoint singletons with large union weight: the Karp–Luby
        # regime where the historical clamp bias was worst.
        _case("karp-luby-heavy",
              [["m%d" % i] for i in range(8)],
              {"m%d" % i: 0.9 for i in range(8)}),
        # One wide monomial (joint-product path, no union logic at all).
        _case("single-wide", [["a", "b", "c", "d", "e", "f"]],
              {token: 0.8 for token in "abcdef"}),
        # Shared hub literal: every monomial funnels through b.
        _case("shared-hub", [["a", "b"], ["b", "c"], ["b", "d"]],
              {"a": 0.6, "b": 0.3, "c": 0.6, "d": 0.6}),
    ]
    # Constants: empty DNF (false) and the empty-monomial DNF (true).
    cases.append(AuditCase("corpus-zero", Polynomial.zero(), {},
                           origin="corpus"))
    cases.append(AuditCase("corpus-one", Polynomial.one(), {},
                           origin="corpus"))
    cases.extend(program_corpus_cases())
    return cases


# -- program cases --------------------------------------------------------------

#: Rule block shared by the generated trust-graph programs (recursive,
#: with a guard so cyclic trust networks still terminate).
_TRUST_RULES = (
    'r1 0.9: trustPath(P1,P2) :- trust(P1,P2).\n'
    'r2 0.8: trustPath(P1,P3) :- trust(P1,P2), trustPath(P2,P3), P1!=P3.\n'
)

_NODE_NAMES = ("Ann", "Bob", "Cat", "Dan", "Eve", "Fay")


def _trust_program(edges: Sequence[Tuple[str, str, float]]) -> str:
    lines = [_TRUST_RULES]
    for index, (src, dst, prob) in enumerate(edges):
        lines.append('t%d %.2f: trust("%s","%s").' % (index + 1, prob,
                                                      src, dst))
    return "\n".join(lines)


def _program_case(name: str, source: str, query_key: str,
                  hop_limit: Optional[int] = None) -> Optional[AuditCase]:
    """Evaluate a program and package one derived tuple as a case.

    Returns ``None`` when the requested tuple is not derivable (a random
    edge set may not connect the endpoints) — callers re-roll.
    """
    from ..core.system import P3
    p3 = P3.from_source(source)
    p3.evaluate()
    if query_key not in p3.graph:
        return None
    polynomial = p3.polynomial_of(query_key, hop_limit=hop_limit)
    if polynomial.is_zero:
        return None
    probabilities = {
        literal: p3.probabilities[literal]
        for literal in polynomial.literals()
    }
    return AuditCase(name, polynomial, probabilities, origin="program",
                     program_source=source, query_key=query_key,
                     hop_limit=hop_limit)


def random_program_case(rng: random.Random, index: int) -> AuditCase:
    """One random recursive trust-graph program case.

    Samples a small digraph (possibly cyclic — back edges are kept), runs
    it through the full pipeline, and queries a random reachable pair.
    Re-rolls until the sampled graph actually derives something.
    """
    while True:
        node_count = rng.randint(3, 5)
        nodes = _NODE_NAMES[:node_count]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        rng.shuffle(pairs)
        edge_count = rng.randint(node_count - 1, min(len(pairs),
                                                     node_count + 2))
        edges = [(src, dst, round(rng.uniform(0.2, 0.95), 2))
                 for src, dst in pairs[:edge_count]]
        source = _trust_program(edges)
        src, dst = rng.choice(pairs)
        key = 'trustPath("%s","%s")' % (src, dst)
        case = _program_case("program-%04d" % index, source, key)
        if case is not None and len(case.polynomial.literals()) <= 18:
            return case


def program_corpus_cases() -> List[AuditCase]:
    """Fixed program fixtures: a trust cycle and a diamond.

    The cycle fixture makes every sweep exercise cycle elimination (λ⁰
    extraction on a strongly connected trust graph); the diamond fixture
    pins down shared sub-derivations.
    """
    cycle = _trust_program([("Ann", "Bob", 0.8), ("Bob", "Cat", 0.7),
                            ("Cat", "Ann", 0.6), ("Ann", "Cat", 0.5)])
    diamond = _trust_program([("Ann", "Bob", 0.8), ("Ann", "Cat", 0.7),
                              ("Bob", "Dan", 0.6), ("Cat", "Dan", 0.5)])
    cases = []
    for name, source, key in (
            ("corpus-cycle", cycle, 'trustPath("Ann","Cat")'),
            ("corpus-diamond", diamond, 'trustPath("Ann","Dan")')):
        case = _program_case(name, source, key)
        if case is not None:  # pragma: no branch - fixtures always derive
            case.origin = "corpus"
            cases.append(case)
    return cases


# -- sweep assembly --------------------------------------------------------------

def generate_cases(count: int, seed: int,
                   include_corpus: bool = True,
                   include_programs: bool = True,
                   config: Optional[GeneratorConfig] = None
                   ) -> List[AuditCase]:
    """The deterministic case list for one sweep.

    The corpus (when included) always runs in full and counts toward
    ``count``; the remainder is split between random program cases (a
    ``program_rate`` fraction) and random polynomials.  The same
    ``(count, seed)`` always yields byte-identical cases.
    """
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    cases: List[AuditCase] = []
    if include_corpus:
        cases.extend(corpus_cases()[:count])
    remaining = count - len(cases)
    program_count = (int(remaining * config.program_rate)
                     if include_programs else 0)
    for index in range(program_count):
        cases.append(random_program_case(rng, index))
    for index in range(remaining - program_count):
        cases.append(random_case(rng, index, config))
    return cases


def iter_case_names(cases: Sequence[AuditCase]) -> Iterator[str]:
    for case in cases:
        yield case.name
