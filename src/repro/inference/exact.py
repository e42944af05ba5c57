"""Exact success probability of a provenance polynomial.

Computing P[λ] for an arbitrary monotone DNF is #P-hard (Valiant [29]; the
paper's Section 2.2), but the polynomials produced by provenance queries at
case-study scale are small enough for exact evaluation, which the test
suite uses as ground truth for every approximate backend.

- :func:`exact_probability`: the one exact evaluator: compile the DNF
  into a decision-DNNF circuit and evaluate it in one pass
  (:mod:`repro.inference.circuit`).
- :func:`brute_force_probability`: sum over all 2ⁿ literal assignments.
  Exponential; guarded by a variable-count limit.  An oracle independent
  of the circuit, for tests and the audit.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..core.errors import BudgetExceededError
from ..provenance.polynomial import Polynomial, ProbabilityMap
from .circuit import exact_probability

__all__ = ["ExactLimitError", "brute_force_probability", "exact_probability",
           "monomial_probabilities"]


class ExactLimitError(BudgetExceededError):
    """Raised when brute force is asked to enumerate too many assignments.

    A :class:`~repro.core.errors.BudgetExceededError` (and therefore still
    a ``RuntimeError``, its historical base): the 2ⁿ assignment budget is
    a resource cap like any other, so fallback ladders treat it as
    "this backend cannot afford the input — try the next rung".
    """


def brute_force_probability(polynomial: Polynomial,
                            probabilities: ProbabilityMap,
                            max_literals: int = 22) -> float:
    """Oracle: enumerate every assignment of the polynomial's literals.

    Complexity O(2ⁿ·|λ|); refuses to run past ``max_literals`` variables.
    """
    if polynomial.is_zero:
        return 0.0
    if polynomial.is_one:
        return 1.0
    literals = sorted(polynomial.literals())
    if len(literals) > max_literals:
        raise ExactLimitError(
            "brute force over %d literals exceeds limit %d"
            % (len(literals), max_literals),
            resource="assignments", limit=max_literals,
            used=len(literals),
        )
    total = 0.0
    for values in itertools.product((False, True), repeat=len(literals)):
        assignment = dict(zip(literals, values))
        if polynomial.evaluate(assignment):
            weight = 1.0
            for literal, value in assignment.items():
                p = probabilities[literal]
                weight *= p if value else (1.0 - p)
            total += weight
    return total


def monomial_probabilities(polynomial: Polynomial,
                           probabilities: ProbabilityMap) -> Sequence[float]:
    """Per-monomial independent-product probabilities, descending."""
    return tuple(
        score for _, score
        in polynomial.monomials_by_probability(probabilities)
    )
