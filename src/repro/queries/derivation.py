"""Derivation Query (Section 4.2): ε-sufficient provenance.

Given the provenance polynomial λ of a queried tuple and an error limit ε,
return a *sufficient provenance* λˢ — a subset of λ's monomials with
|P[λ] − P[λˢ]| ≤ ε.  Finding the smallest such subset is NP-hard [25], so
the paper implements two heuristics, both reproduced here:

- **naive** (Section 4.2, "performs surprisingly well"): sort monomials by
  their independent-product probability and greedily drop the least likely
  while the error bound keeps holding;
- **match/group** (Ré–Suciu [25], extended to PLP): find a *match* (a set
  of pairwise literal-disjoint monomials, whose probability is computable
  in closed form); if insufficient, factor the polynomial into groups
  sharing a literal and recurse.

Since λˢ's monomials are a subset of λ's and the DNF is monotone,
P[λˢ] ≤ P[λ] always, so the error is one-sided.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..inference.exact import exact_probability
from ..provenance.polynomial import (
    Literal,
    Monomial,
    Polynomial,
    ProbabilityMap,
)
from .result import QueryResult, register_result

#: Signature of a probability evaluator used while searching.
Evaluator = Callable[[Polynomial, ProbabilityMap], float]


@register_result
class SufficientProvenance(QueryResult):
    """Result of a Derivation Query."""

    query_type = "derivation"

    def __init__(self, original: Polynomial, sufficient: Polynomial,
                 epsilon: float, error: float, method: str,
                 full_probability: float, sufficient_probability: float) -> None:
        self.original = original
        self.sufficient = sufficient
        self.epsilon = epsilon
        self.error = error
        self.method = method
        self.full_probability = full_probability
        self.sufficient_probability = sufficient_probability

    @property
    def compression_ratio(self) -> float:
        """|λˢ| / |λ| — Figure 11's metric (smaller is better)."""
        if len(self.original) == 0:
            return 1.0
        return len(self.sufficient) / len(self.original)

    @property
    def removed_count(self) -> int:
        return len(self.original) - len(self.sufficient)

    def most_important_derivations(
            self, probabilities: ProbabilityMap, k: int = 1
            ) -> Tuple[Monomial, ...]:
        """The k highest-probability monomials retained in λˢ."""
        ranked = self.sufficient.monomials_by_probability(probabilities)
        return tuple(monomial for monomial, _ in ranked[:k])

    def to_dict(self) -> dict:
        from ..io.serialize import polynomial_to_json
        return {
            "epsilon": self.epsilon,
            "error": self.error,
            "method": self.method,
            "full_probability": self.full_probability,
            "sufficient_probability": self.sufficient_probability,
            "compression_ratio": self.compression_ratio,
            "original": polynomial_to_json(self.original),
            "sufficient": polynomial_to_json(self.sufficient),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SufficientProvenance":
        from ..io.serialize import polynomial_from_json
        return cls(
            polynomial_from_json(payload["original"]),
            polynomial_from_json(payload["sufficient"]),
            payload["epsilon"],
            payload["error"],
            payload["method"],
            payload["full_probability"],
            payload["sufficient_probability"],
        )

    def summary(self) -> str:
        return ("%d -> %d monomials (error %.6f <= eps %.6f, method=%s)"
                % (len(self.original), len(self.sufficient),
                   self.error, self.epsilon, self.method))

    def __repr__(self) -> str:
        return (
            "SufficientProvenance(%d -> %d monomials, error=%.6f <= eps=%.6f,"
            " method=%s)" % (
                len(self.original), len(self.sufficient),
                self.error, self.epsilon, self.method,
            )
        )


def derivation_query(polynomial: Polynomial,
                     probabilities: ProbabilityMap,
                     epsilon: float,
                     method: str = "naive",
                     evaluator: Optional[Evaluator] = None,
                     samples: int = 20000,
                     seed: Optional[int] = 0) -> SufficientProvenance:
    """Run a Derivation Query: compute ε-sufficient provenance.

    ``method`` is ``"naive"``, ``"union-bound"`` (a batch naive variant
    whose ε guarantee comes from the union bound — use it on very large
    polynomials), or ``"match-group"``.  ``evaluator`` computes P[·] during
    the search (defaults to exact inference — swap in a Monte-Carlo lambda
    for very large polynomials).
    """
    rt = telemetry.runtime()
    if not rt.enabled:
        return _derivation_query(
            polynomial, probabilities, epsilon, method, evaluator,
            samples, seed)
    with rt.tracer.span("query.derive", method=method, epsilon=epsilon,
                        monomials=len(polynomial)) as span:
        result = _derivation_query(
            polynomial, probabilities, epsilon, method, evaluator,
            samples, seed)
        span.set_attributes(kept=len(result.sufficient),
                            error=result.error)
    return result


def _derivation_query(polynomial: Polynomial,
                      probabilities: ProbabilityMap,
                      epsilon: float,
                      method: str,
                      evaluator: Optional[Evaluator],
                      samples: int,
                      seed: Optional[int]) -> SufficientProvenance:
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if evaluator is None:
        if method == "naive-mc":
            # Keep reporting consistent with the search: estimate with the
            # same vectorized sampler (fresh, independent samples).
            from ..inference.kernel import kernel_probability

            def evaluator(poly, probs):  # noqa: F811
                return kernel_probability(
                    poly, probs, samples=samples, seed=seed).value
        else:
            evaluator = exact_probability
    full_probability = evaluator(polynomial, probabilities)
    if method == "naive":
        sufficient = _naive_sufficient(
            polynomial, probabilities, epsilon, evaluator, full_probability)
    elif method == "naive-mc":
        sufficient = _naive_mc_sufficient(
            polynomial, probabilities, epsilon, samples, seed)
    elif method == "union-bound":
        sufficient = _union_bound_sufficient(polynomial, probabilities, epsilon)
    elif method == "match-group":
        sufficient = _match_group_sufficient(
            polynomial, probabilities, epsilon, evaluator, full_probability)
    else:
        raise ValueError(
            "Unknown sufficient-provenance method %r (expected 'naive', "
            "'naive-mc', 'union-bound', or 'match-group')" % method)
    sufficient_probability = evaluator(sufficient, probabilities)
    error = abs(full_probability - sufficient_probability)
    return SufficientProvenance(
        polynomial, sufficient, epsilon, error, method,
        full_probability, sufficient_probability,
    )


def _naive_sufficient(polynomial: Polynomial,
                      probabilities: ProbabilityMap,
                      epsilon: float,
                      evaluator: Evaluator,
                      full_probability: float) -> Polynomial:
    """Drop lowest-probability monomials while the ε bound still holds."""
    ranked = polynomial.monomials_by_probability(probabilities, descending=False)
    kept = list(polynomial.monomials)
    for monomial, _score in ranked:
        if len(kept) == 1:
            break
        candidate = [m for m in kept if m != monomial]
        candidate_poly = Polynomial(candidate)
        if full_probability - evaluator(candidate_poly, probabilities) <= epsilon:
            kept = candidate
        else:
            # Monomials are sorted ascending; anything later removes at
            # least as much probability alone, but may still be removable
            # after earlier removals changed nothing. Stopping here matches
            # the paper's "until the error limit is reached".
            break
    return Polynomial(kept)


def _naive_mc_sufficient(polynomial: Polynomial,
                         probabilities: ProbabilityMap,
                         epsilon: float,
                         samples: int,
                         seed: Optional[int]) -> Polynomial:
    """The naive algorithm with incremental Monte-Carlo evaluation.

    This is the configuration the paper's Section 6.2 actually measures:
    "the computation of Derivation Queries heavily relies on Monte-Carlo
    simulation".  One shared sample matrix is drawn; each monomial's
    satisfaction vector is precomputed; the per-sample count of satisfied
    kept monomials is maintained so every tentative removal costs one
    vector subtraction instead of a fresh simulation.  Removal proceeds in
    ascending monomial-probability order and stops at the first monomial
    whose removal would push the (estimated) error beyond ε.
    """
    import numpy as np

    from ..inference.kernel import CompiledPolynomial

    if len(polynomial) <= 1:
        return polynomial
    compiled = CompiledPolynomial(polynomial)
    rng = np.random.default_rng(seed)
    matrix = compiled.sample_matrix(probabilities, samples, rng)

    monomials = [m for m, _ in polynomial.monomials_by_probability(
        probabilities, descending=False)]
    # One packed-bitset pass computes every monomial's satisfaction
    # vector in the kernel's canonical column order; reindex the columns
    # into this function's ascending-probability removal order.
    canonical = compiled.satisfaction_matrix(matrix)
    order = np.fromiter((compiled.monomial_column(m) for m in monomials),
                        dtype=np.intp, count=len(monomials))
    satisfaction = canonical[:, order]

    counts = satisfaction.sum(axis=1).astype(np.int32)
    full_hits = int((counts > 0).sum())
    removed = []
    for column, monomial in enumerate(monomials):
        if len(monomials) - len(removed) == 1:
            break
        tentative = counts - satisfaction[:, column]
        error = (full_hits - int((tentative > 0).sum())) / samples
        if error <= epsilon:
            counts = tentative
            removed.append(monomial)
        else:
            break
    return polynomial.without_monomials(removed)


def _union_bound_sufficient(polynomial: Polynomial,
                            probabilities: ProbabilityMap,
                            epsilon: float) -> Polynomial:
    """Batch variant of the naive algorithm for large polynomials.

    Dropping a set D of monomials from a monotone DNF reduces the success
    probability by at most Σ_{m∈D} P[m] (union bound), so removing
    lowest-probability monomials while that running sum stays ≤ ε is
    guaranteed ε-sufficient *without re-evaluating P per removal* — one
    sort instead of |λ| probability computations.  More conservative than
    the naive method (it may keep more monomials), but exact in guarantee
    and fast enough for thousand-monomial provenance.
    """
    ranked = polynomial.monomials_by_probability(probabilities, descending=False)
    dropped = []
    budget = epsilon
    for monomial, score in ranked:
        if len(polynomial) - len(dropped) == 1:
            break
        if score <= budget:
            dropped.append(monomial)
            budget -= score
        else:
            break
    return polynomial.without_monomials(dropped)


def find_match(polynomial: Polynomial,
               probabilities: ProbabilityMap) -> Polynomial:
    """Greedy *match*: pairwise literal-disjoint monomials, best-first.

    Monomials in a match are independent, so
    P[match] = 1 − Π (1 − P[mᵢ]) in closed form (Step 1 of Ré–Suciu).
    """
    ranked = polynomial.monomials_by_probability(probabilities)
    used: Set[Literal] = set()
    chosen: List[Monomial] = []
    for monomial, _score in ranked:
        if used.isdisjoint(monomial.literals):
            chosen.append(monomial)
            used.update(monomial.literals)
    return Polynomial(chosen)


def match_probability(match: Polynomial,
                      probabilities: ProbabilityMap) -> float:
    """Closed-form probability of a match (independent monomials)."""
    miss = 1.0
    for monomial in match.monomials:
        miss *= 1.0 - monomial.probability(probabilities)
    return 1.0 - miss


def _most_frequent_literal(monomials: Sequence[Monomial]) -> Literal:
    counts: dict = {}
    for monomial in monomials:
        for literal in monomial.literals:
            counts[literal] = counts.get(literal, 0) + 1
    return max(counts, key=lambda lit: (counts[lit], str(lit)))


def _match_group_sufficient(polynomial: Polynomial,
                            probabilities: ProbabilityMap,
                            epsilon: float,
                            evaluator: Evaluator,
                            full_probability: float) -> Polynomial:
    """Ré–Suciu match/group recursion, with a top-up safety net.

    The recursion follows the paper's four steps.  Because the original
    algorithm's guarantees depend on the match and group choices ("in some
    cases it provides little reduction"), we finish with a verification
    pass that adds back highest-probability dropped monomials until the ε
    bound verifiably holds.
    """
    result = _match_group_recurse(polynomial, probabilities, epsilon, depth=0)
    # Safety net: enforce the bound exactly.
    dropped = [m for m in polynomial.monomials if m not in result.monomials]
    dropped.sort(key=lambda m: -m.probability(probabilities))
    kept = list(result.monomials)
    while dropped:
        current = evaluator(Polynomial(kept), probabilities)
        if full_probability - current <= epsilon:
            break
        kept.append(dropped.pop(0))
    return Polynomial(kept)


_MAX_RECURSION_DEPTH = 40


def _match_group_recurse(polynomial: Polynomial,
                         probabilities: ProbabilityMap,
                         epsilon: float,
                         depth: int) -> Polynomial:
    if len(polynomial) <= 1 or depth > _MAX_RECURSION_DEPTH:
        return polynomial

    # Step 1: find an arbitrary (greedy, best-first) match.
    match = find_match(polynomial, probabilities)

    # Step 2: accept the match when it is already an ε-approximation.
    # P[λ] ≤ union bound; P[match] is exact. Compare against the cheap
    # union bound to avoid exact inference inside the recursion.
    union = sum(m.probability(probabilities) for m in polynomial.monomials)
    union = min(1.0, union)
    if union - match_probability(match, probabilities) <= epsilon:
        return match

    # Step 3: partition the non-match monomials into groups sharing a
    # literal; each group factors as l·(m₁ + ... + m_k).
    remaining = [m for m in polynomial.monomials if m not in match.monomials]
    groups: List[Tuple[Literal, List[Monomial]]] = []
    pending = list(remaining)
    while pending:
        literal = _most_frequent_literal(pending)
        group = [m for m in pending if m.contains(literal)]
        pending = [m for m in pending if not m.contains(literal)]
        groups.append((literal, group))

    # Step 4: recurse on each group's inner (k−1 literal) polynomial with a
    # proportional share of the budget.
    result = match
    budget = epsilon / max(1, len(groups))
    for literal, group in groups:
        inner = Polynomial(m.without(literal) for m in group)
        inner_sufficient = _match_group_recurse(
            inner, probabilities, budget, depth + 1)
        result = result + inner_sufficient.times_literal(literal)
    return result
