"""Influence Query (Section 4.3): most influential literals.

Implements Definition 4.1 (Kanagal et al. [13]): the influence of literal
``x`` on polynomial λ is the partial derivative of the arithmetization,

    Inf_x(λ) = P[λ | x=1] − P[λ | x=0].

For monotone DNFs the influence is always in [0, 1].  Backends:

- ``exact``: the circuit gradient — λ is compiled to a decision-DNNF
  circuit once, and one forward plus one backward pass yields P[λ] and
  *every* literal's influence
  (:meth:`repro.inference.circuit.Circuit.gradient`);
- ``mc``: sequential Monte-Carlo with common random numbers (the same
  sampled assignment is evaluated under both conditionings, which cancels
  most sampling noise out of the difference);
- ``parallel``: the numpy vectorized version of the same scheme, one
  per-monomial satisfaction pass per literal over the shared samples.
"""

from __future__ import annotations

import random
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from .. import telemetry
from ..core.errors import InferenceConfigurationError
from ..inference.circuit import Circuit, exact_gradient
from ..provenance.polynomial import Literal, Polynomial, ProbabilityMap
from .result import QueryResult, register_result

if TYPE_CHECKING:  # the sampled paths import NumPy and the kernel lazily
    import numpy as np

    from ..inference.kernel import CompiledPolynomial


class InfluenceScore:
    """One literal's influence on the queried tuple."""

    __slots__ = ("literal", "influence")

    def __init__(self, literal: Literal, influence: float) -> None:
        self.literal = literal
        self.influence = influence

    def __iter__(self):
        return iter((self.literal, self.influence))

    def __repr__(self) -> str:
        return "InfluenceScore(%s, %.6f)" % (self.literal, self.influence)


@register_result
class InfluenceReport(QueryResult):
    """Ranked influence scores for (a subset of) a polynomial's literals."""

    query_type = "influence"

    def __init__(self, scores: Sequence[InfluenceScore], method: str) -> None:
        self.scores = tuple(
            sorted(scores, key=lambda s: (-s.influence, str(s.literal))))
        self.method = method

    def top(self, k: int) -> Tuple[InfluenceScore, ...]:
        return self.scores[:k]

    @property
    def most_influential(self) -> Optional[InfluenceScore]:
        return self.scores[0] if self.scores else None

    def ranking(self) -> Tuple[Literal, ...]:
        return tuple(score.literal for score in self.scores)

    def score_of(self, literal: Literal) -> float:
        for score in self.scores:
            if score.literal == literal:
                return score.influence
        raise KeyError("Literal %s not in influence report" % literal)

    def filter(self, predicate: Callable[[Literal], bool]) -> "InfluenceReport":
        """Sub-report of literals passing ``predicate`` (e.g. one relation)."""
        return InfluenceReport(
            [s for s in self.scores if predicate(s.literal)], self.method)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "scores": [
                {"literal": {"kind": score.literal.kind,
                             "key": score.literal.key},
                 "influence": score.influence}
                for score in self.scores
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InfluenceReport":
        scores = [
            InfluenceScore(
                Literal(entry["literal"]["kind"], entry["literal"]["key"]),
                entry["influence"])
            for entry in payload["scores"]
        ]
        return cls(scores, payload["method"])

    def summary(self) -> str:
        best = self.most_influential
        if best is None:
            return "no literals scored (method=%s)" % self.method
        return "%d literals (method=%s), top: %s=%.6f" % (
            len(self.scores), self.method, best.literal, best.influence)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return iter(self.scores)

    def __repr__(self) -> str:
        head = ", ".join(
            "%s=%.4f" % (s.literal, s.influence) for s in self.scores[:3])
        return "InfluenceReport(<%d literals, method=%s: %s%s>)" % (
            len(self.scores), self.method, head,
            ", ..." if len(self.scores) > 3 else "",
        )


def exact_influence(polynomial: Polynomial,
                    probabilities: ProbabilityMap,
                    literal: Literal) -> float:
    """Inf_x(λ) = ∂P[λ]/∂p(x), read off one circuit gradient.

    Scoring several literals? Use :func:`influence_query`, which shares
    the compile and the pass across all of them.
    """
    return exact_gradient(polynomial, probabilities)[1].get(literal, 0.0)


#: Evaluates P[λ] under a probability map (a black-box backend).
Evaluator = Callable[[Polynomial, ProbabilityMap], float]


class _CircuitSlopes:
    """P[λ] and every slope from one gradient pass over one circuit."""

    def __init__(self, polynomial: Polynomial) -> None:
        self._circuit = Circuit.compile(polynomial)
        self._value = 0.0
        self._partials: Dict[Literal, float] = {}

    def probability(self, probabilities: ProbabilityMap) -> float:
        return self._circuit.probability(probabilities)

    def evaluate(self, probabilities: ProbabilityMap) -> float:
        """P[λ] at ``probabilities``; also refreshes every slope."""
        self._value, self._partials = self._circuit.gradient(probabilities)
        return self._value

    def slope(self, probabilities: ProbabilityMap,
              literal: Literal) -> Tuple[float, float]:
        """(Inf_x, P[λ|x=0]) at the last :meth:`evaluate`'s point."""
        influence = self._partials.get(literal, 0.0)
        return influence, self._value - influence * probabilities[literal]


class _EvaluatorSlopes:
    """Black-box slopes: two evaluator calls on the literal's cofactors."""

    def __init__(self, polynomial: Polynomial, evaluator: Evaluator) -> None:
        self._polynomial = polynomial
        self._evaluator = evaluator

    def probability(self, probabilities: ProbabilityMap) -> float:
        return self._evaluator(self._polynomial, probabilities)

    evaluate = probability

    def slope(self, probabilities: ProbabilityMap,
              literal: Literal) -> Tuple[float, float]:
        low = self._evaluator(
            self._polynomial.restrict(literal, False), probabilities)
        high = self._evaluator(
            self._polynomial.restrict(literal, True), probabilities)
        return high - low, low


def slopes(polynomial: Polynomial, evaluator: Optional[Evaluator] = None):
    """P[λ] and the slopes Inf_x(λ) of Equation 16, at point after point.

    The returned object answers ``evaluate(probabilities)`` (P[λ], and
    moves the point), ``slope(probabilities, x)`` (``(Inf_x(λ),
    P[λ|x=0])`` at that point) and ``probability(probabilities)`` (P[λ]
    only).  Without an ``evaluator`` λ is compiled to a circuit once and
    each ``evaluate`` is one gradient pass; a custom evaluator (Table 9's
    Monte-Carlo evaluators) is a black box, and each slope costs two
    evaluations on the literal's cofactors.
    """
    if evaluator is None:
        return _CircuitSlopes(polynomial)
    return _EvaluatorSlopes(polynomial, evaluator)


def mc_influence(polynomial: Polynomial,
                 probabilities: ProbabilityMap,
                 literal: Literal,
                 samples: int = 10000,
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> float:
    """Sequential Monte-Carlo influence with common random numbers.

    Each sampled assignment is evaluated twice — once with the literal
    forced true, once forced false — and the paired difference is averaged:
    an unbiased estimate of E[λ|x=1 − λ|x=0] (Definition 4.1).
    """
    if samples <= 0:
        raise InferenceConfigurationError("samples must be positive")
    if rng is None:
        rng = random.Random(seed)
    others = sorted(polynomial.literals() - {literal})
    high = polynomial.restrict(literal, True)
    low = polynomial.restrict(literal, False)
    delta = 0
    for _ in range(samples):
        assignment = {
            lit: rng.random() < probabilities[lit] for lit in others
        }
        delta += int(high.evaluate(assignment)) - int(low.evaluate(assignment))
    return delta / samples


def parallel_influence(polynomial: Polynomial,
                       probabilities: ProbabilityMap,
                       literal: Literal,
                       samples: int = 10000,
                       seed: Optional[int] = None,
                       rng: Optional[np.random.Generator] = None,
                       compiled: Optional[CompiledPolynomial] = None) -> float:
    """Vectorized common-random-numbers influence (Table 8's fast path)."""
    from ..inference.kernel import parallel_conditioned_pair
    high, low = parallel_conditioned_pair(
        polynomial, probabilities, literal,
        samples=samples, seed=seed, rng=rng, compiled=compiled)
    return high.value - low.value


def joint_influence(polynomial: Polynomial,
                    probabilities: ProbabilityMap,
                    first: Literal, second: Literal) -> float:
    """Second-order influence: the mixed partial ∂²P[λ] / ∂p(x)∂p(y).

    Because P[λ] is multilinear, the mixed partial is the four-cofactor
    combination

        P[x=1,y=1] − P[x=1,y=0] − P[x=0,y=1] + P[x=0,y=0],

    i.e. Inf_y(λ|x=1) − Inf_y(λ|x=0): two gradient passes over one
    circuit with p(x) pinned to 1 and then 0.

    Positive means the literals are *complements* (raising one makes the
    other more influential — e.g. two tuples in one conjunction); negative
    means *substitutes* (alternative derivations of the same tuple); zero
    means their effects are additive.
    """
    if first == second:
        # Multilinear in each variable: the pure second derivative is 0.
        return 0.0
    circuit = Circuit.compile(polynomial)
    return _mixed_partials(circuit, probabilities, first).get(second, 0.0)


def _mixed_partials(circuit: Circuit, probabilities: ProbabilityMap,
                    literal: Literal) -> Dict[Literal, float]:
    """∂²P/∂p(literal)∂p(y) for every literal y of the circuit."""
    pinned = dict(probabilities)
    pinned[literal] = 1.0
    high = circuit.gradient(pinned)[1]
    pinned[literal] = 0.0
    low = circuit.gradient(pinned)[1]
    return {y: high[y] - low[y] for y in high}


def most_synergistic_pairs(polynomial: Polynomial,
                           probabilities: ProbabilityMap,
                           k: int = 3,
                           literals: Optional[Sequence[Literal]] = None
                           ) -> List[Tuple[Literal, Literal, float]]:
    """The k literal pairs with the largest |joint influence|.

    One compile and two gradient passes per literal; the pair list
    itself is quadratic, so restrict via ``literals`` on large
    polynomials.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if literals is None:
        literals = sorted(polynomial.literals())
    circuit = Circuit.compile(polynomial)
    scored: List[Tuple[Literal, Literal, float]] = []
    for index, first in enumerate(literals):
        mixed = _mixed_partials(circuit, probabilities, first)
        for second in literals[index + 1:]:
            scored.append((first, second, mixed.get(second, 0.0)))
    scored.sort(key=lambda item: (-abs(item[2]), str(item[0]), str(item[1])))
    return scored[:k]


def influence_query(polynomial: Polynomial,
                    probabilities: ProbabilityMap,
                    literals: Optional[Sequence[Literal]] = None,
                    method: str = "exact",
                    samples: int = 10000,
                    seed: Optional[int] = None) -> InfluenceReport:
    """Compute influences for ``literals`` (default: all) and rank them.

    ``method`` ∈ {"exact", "mc", "parallel"}.
    """
    rt = telemetry.runtime()
    if not rt.enabled:
        return _influence_query(
            polynomial, probabilities, literals, method, samples, seed)
    with rt.tracer.span("query.influence", method=method,
                        monomials=len(polynomial)) as span:
        report = _influence_query(
            polynomial, probabilities, literals, method, samples, seed)
        span.set_attribute("literals", len(report.scores))
    return report


def _influence_query(polynomial: Polynomial,
                     probabilities: ProbabilityMap,
                     literals: Optional[Sequence[Literal]],
                     method: str,
                     samples: int,
                     seed: Optional[int]) -> InfluenceReport:
    if literals is None:
        literals = sorted(polynomial.literals())
    scores: List[InfluenceScore] = []
    if method == "exact":
        partials = exact_gradient(polynomial, probabilities)[1]
        for literal in literals:
            scores.append(InfluenceScore(literal, partials.get(literal, 0.0)))
    elif method == "mc":
        rng = random.Random(seed)
        for literal in literals:
            scores.append(InfluenceScore(
                literal,
                mc_influence(polynomial, probabilities, literal,
                             samples=samples, rng=rng)))
    elif method == "parallel":
        import numpy as np

        from ..inference.kernel import CompiledPolynomial
        rng = np.random.default_rng(seed)
        compiled = CompiledPolynomial(polynomial)
        for literal in literals:
            scores.append(InfluenceScore(
                literal,
                parallel_influence(polynomial, probabilities, literal,
                                   samples=samples, rng=rng,
                                   compiled=compiled)))
    else:
        raise ValueError(
            "Unknown influence method %r (expected exact/mc/parallel)" % method)
    return InfluenceReport(scores, method)


def top_k_influence(polynomial: Polynomial,
                    probabilities: ProbabilityMap,
                    k: int,
                    method: str = "exact",
                    samples: int = 10000,
                    seed: Optional[int] = None) -> Tuple[InfluenceScore, ...]:
    """Convenience: the top-K most influential literals."""
    report = influence_query(
        polynomial, probabilities, method=method, samples=samples, seed=seed)
    return report.top(k)
