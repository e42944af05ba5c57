"""Gradient-based parameter learning over provenance polynomials.

Section 8 of the paper lists "machine-learning style inference" as future
work.  Provenance polynomials make the first step — differentiation —
exact and cheap: because P[λ] is *multilinear* in the literal
probabilities, the partial derivative with respect to p(x) is precisely
the influence of Definition 4.1,

    ∂P[λ]/∂p(x) = P[λ|x=1] − P[λ|x=0] = Inf_x(λ),

so the influence machinery doubles as an exact gradient oracle: one circuit
compile per polynomial, then one forward and one backward pass give P[λ]
and the whole gradient (:meth:`repro.inference.circuit.Circuit.gradient`).  On
top of it this module implements **learning from probabilistic examples** (the
simplest ProbLog-style parameter learning): given derived tuples with
target probabilities, fit the modifiable literal probabilities (typically
rule weights) by projected gradient descent on the squared loss

    L(θ) = Σᵢ (P[λᵢ](θ) − targetᵢ)²,   θ ∈ [0,1]^modifiable.

The loss is generally non-convex, but each P[λᵢ] is multilinear and the
box projection keeps parameters valid; in practice (and in the tests) the
procedure recovers planted weights on the paper's programs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..provenance.polynomial import Literal, Polynomial, ProbabilityMap
from ..queries.influence import Evaluator, slopes


def gradient(polynomial: Polynomial,
             probabilities: ProbabilityMap,
             literals: Optional[Sequence[Literal]] = None,
             evaluator: Optional[Evaluator] = None) -> Dict[Literal, float]:
    """Exact ∂P[λ]/∂p(x) for each requested literal (defaults to all).

    This IS the influence vector; provided under its calculus name so
    learning code reads naturally.  Without an ``evaluator`` it is one
    circuit gradient pass; a custom evaluator is differentiated as a
    black box, two cofactor evaluations per literal.
    """
    if literals is None:
        literals = sorted(polynomial.literals())
    model = slopes(polynomial, evaluator)
    model.evaluate(probabilities)
    return {literal: model.slope(probabilities, literal)[0]
            for literal in literals}


class TrainingExample:
    """One supervision signal: a tuple's polynomial and target probability."""

    __slots__ = ("polynomial", "target", "weight")

    def __init__(self, polynomial: Polynomial, target: float,
                 weight: float = 1.0) -> None:
        if not 0.0 <= target <= 1.0:
            raise ValueError("Target probability must be in [0, 1]")
        if weight <= 0.0:
            raise ValueError("Example weight must be positive")
        self.polynomial = polynomial
        self.target = target
        self.weight = weight

    def __repr__(self) -> str:
        return "TrainingExample(<%d monomials>, target=%.4f)" % (
            len(self.polynomial), self.target)


class FitResult:
    """Outcome of :func:`fit_probabilities`."""

    def __init__(self, probabilities: Dict[Literal, float],
                 loss_history: List[float], converged: bool,
                 iterations: int) -> None:
        self.probabilities = probabilities
        self.loss_history = loss_history
        self.converged = converged
        self.iterations = iterations

    @property
    def initial_loss(self) -> float:
        return self.loss_history[0]

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1]

    def __repr__(self) -> str:
        return "FitResult(loss %.6f -> %.6f, %d iterations%s)" % (
            self.initial_loss, self.final_loss, self.iterations,
            ", converged" if self.converged else "",
        )


def squared_loss(examples: Sequence[TrainingExample],
                 probabilities: ProbabilityMap,
                 evaluator: Optional[Evaluator] = None) -> float:
    """Weighted squared loss over the training examples."""
    return _loss(examples,
                 [slopes(example.polynomial, evaluator)
                  for example in examples],
                 probabilities)


def _loss(examples: Sequence[TrainingExample], models: Sequence,
          probabilities: ProbabilityMap) -> float:
    total = 0.0
    for example, model in zip(examples, models):
        predicted = model.probability(probabilities)
        total += example.weight * (predicted - example.target) ** 2
    return total


def fit_probabilities(examples: Sequence[TrainingExample],
                      probabilities: ProbabilityMap,
                      modifiable: Sequence[Literal],
                      learning_rate: float = 0.5,
                      max_iterations: int = 200,
                      tolerance: float = 1e-8,
                      evaluator: Optional[Evaluator] = None,
                      clamp: Tuple[float, float] = (0.0, 1.0)) -> FitResult:
    """Projected gradient descent on the squared loss.

    Only ``modifiable`` literals move; everything else stays fixed.
    ``clamp`` restricts the feasible box (e.g. ``(0.01, 0.99)`` to keep
    every possible world alive).  Uses a simple halving line search so a
    too-large ``learning_rate`` cannot diverge.  Without an
    ``evaluator`` each example is compiled once, and each iteration takes
    one gradient pass per example (plus forward passes in the line
    search).
    """
    if not examples:
        raise ValueError("Need at least one training example")
    if not modifiable:
        raise ValueError("Need at least one modifiable literal")
    low, high = clamp
    if not 0.0 <= low < high <= 1.0:
        raise ValueError("clamp must satisfy 0 <= low < high <= 1")

    models = [slopes(example.polynomial, evaluator) for example in examples]
    touched = [[literal for literal in modifiable
                if literal in example.polynomial.literals()]
               for example in examples]
    theta: Dict[Literal, float] = dict(probabilities)
    loss_history = [_loss(examples, models, theta)]
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        # Full-batch gradient of the squared loss.
        grad: Dict[Literal, float] = {literal: 0.0 for literal in modifiable}
        for example, model, literals in zip(examples, models, touched):
            predicted = model.evaluate(theta)
            residual = 2.0 * example.weight * (predicted - example.target)
            if residual == 0.0:
                continue
            for literal in literals:
                grad[literal] += residual * model.slope(theta, literal)[0]

        if all(abs(g) < tolerance for g in grad.values()):
            converged = True
            break

        # Backtracking line search on the projected step.
        step = learning_rate
        current_loss = loss_history[-1]
        improved = False
        for _ in range(20):
            candidate = dict(theta)
            for literal in modifiable:
                value = theta[literal] - step * grad[literal]
                candidate[literal] = min(high, max(low, value))
            candidate_loss = _loss(examples, models, candidate)
            if candidate_loss < current_loss - 1e-15:
                theta = candidate
                loss_history.append(candidate_loss)
                improved = True
                break
            step /= 2.0
        if not improved:
            converged = True
            break
        if abs(loss_history[-2] - loss_history[-1]) < tolerance:
            converged = True
            break

    return FitResult(theta, loss_history, converged, iterations)
