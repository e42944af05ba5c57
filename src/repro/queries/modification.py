"""Modification Query (Section 4.4): reach a target probability cheaply.

Given a queried tuple with success probability P[λ] and a target value, the
Modification Query proposes probability changes to individual literals so
that the new success probability reaches the target, minimising the total
cost Σ|Δp(xᵢ)| (Equation 17).

The paper's heuristic (reproduced as :func:`greedy_strategy`) exploits
Equation 16: viewing P[λ] as a function of one literal's probability,

    P[λ] = Inf_x(λ) · p(x) + P[λ | x=0],

i.e. linear in p(x) with slope equal to the influence.  Greedily picking
the most influential literal each round therefore moves the probability
fastest per unit of cost; when even p(x) ∈ {0, 1} is not enough the next
most influential literal is selected, and the final step solves the linear
equation exactly for the fractional change.

:func:`random_strategy` is the baseline of Table 7 — pick an arbitrary
modifiable literal each round and push it all the way (solving exactly on
the final, overshooting step).

Without a custom ``evaluator`` both strategies compile λ to a circuit once
and take P[λ] and every slope from one gradient pass per step
(:meth:`repro.inference.circuit.Circuit.gradient`), reading the intercept off
Equation 16 as P[λ|x=0] = P[λ] − Inf_x(λ)·p(x).  A custom evaluator (the
Monte-Carlo evaluators of Table 9) is treated as a black box: each slope
costs two evaluations on the literal's cofactors.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..provenance.polynomial import Literal, Polynomial, ProbabilityMap
from .influence import Evaluator, slopes as _slopes
from .result import QueryResult, register_result

#: Slopes this close are a tie, which the first literal in sorted order
#: wins.  Symmetric literals have equal influence, but the gradient pass
#: leaves float noise in the last bits, and which of them moves first
#: should not depend on it.
TIE_TOLERANCE = 1e-12


class ModificationStep:
    """One change in a modification plan."""

    __slots__ = ("literal", "old_probability", "new_probability",
                 "resulting_probability")

    def __init__(self, literal: Literal, old_probability: float,
                 new_probability: float, resulting_probability: float) -> None:
        self.literal = literal
        self.old_probability = old_probability
        self.new_probability = new_probability
        self.resulting_probability = resulting_probability

    @property
    def cost(self) -> float:
        return abs(self.new_probability - self.old_probability)

    def __repr__(self) -> str:
        return "ModificationStep(%s: %.4g -> %.4g, P=%.4f)" % (
            self.literal, self.old_probability, self.new_probability,
            self.resulting_probability,
        )


@register_result
class ModificationPlan(QueryResult):
    """Result of a Modification Query: ordered steps plus outcome."""

    query_type = "modification"

    def __init__(self, steps: Sequence[ModificationStep],
                 initial_probability: float, final_probability: float,
                 target: float, reached: bool, strategy: str) -> None:
        self.steps = tuple(steps)
        self.initial_probability = initial_probability
        self.final_probability = final_probability
        self.target = target
        self.reached = reached
        self.strategy = strategy

    @property
    def total_cost(self) -> float:
        """Σ|Δp| over all steps (Equation 17)."""
        return sum(step.cost for step in self.steps)

    def updated_probabilities(
            self, probabilities: ProbabilityMap) -> Dict[Literal, float]:
        """Apply the plan to a probability map (returns a new dict)."""
        updated = dict(probabilities)
        for step in self.steps:
            updated[step.literal] = step.new_probability
        return updated

    def to_text(self) -> str:
        lines = [
            "Modification plan (%s): P %.4f -> %.4f (target %.4f, %s)"
            % (self.strategy, self.initial_probability,
               self.final_probability, self.target,
               "reached" if self.reached else "NOT reached"),
        ]
        for index, step in enumerate(self.steps, start=1):
            lines.append(
                "  Step %d: %s  %.4g -> %.4g   (overall P=%.4f)"
                % (index, step.literal, step.old_probability,
                   step.new_probability, step.resulting_probability))
        lines.append("  total change = %.4g" % self.total_cost)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "target": self.target,
            "initial_probability": self.initial_probability,
            "final_probability": self.final_probability,
            "reached": self.reached,
            "total_cost": self.total_cost,
            "steps": [
                {"literal": {"kind": step.literal.kind,
                             "key": step.literal.key},
                 "old_probability": step.old_probability,
                 "new_probability": step.new_probability,
                 "resulting_probability": step.resulting_probability}
                for step in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModificationPlan":
        steps = [
            ModificationStep(
                Literal(entry["literal"]["kind"], entry["literal"]["key"]),
                entry["old_probability"], entry["new_probability"],
                entry["resulting_probability"])
            for entry in payload["steps"]
        ]
        return cls(steps, payload["initial_probability"],
                   payload["final_probability"], payload["target"],
                   payload["reached"], payload["strategy"])

    def summary(self) -> str:
        return "%s: P %.4f -> %.4f (target %.4f, %d steps, %s)" % (
            self.strategy, self.initial_probability, self.final_probability,
            self.target, len(self.steps),
            "reached" if self.reached else "not reached")

    def __repr__(self) -> str:
        return "ModificationPlan(%s, %d steps, cost=%.4f, %s)" % (
            self.strategy, len(self.steps), self.total_cost,
            "reached" if self.reached else "not reached",
        )


class ModificationError(RuntimeError):
    """Raised for unreachable targets or invalid parameters."""


def _solve_step(slopes, probabilities: Dict[Literal, float],
                literal: Literal, target: float) -> Tuple[float, float]:
    """Solve Equation 16 for p(x): the probability value reaching ``target``.

    Returns (influence, required_p_clamped).
    """
    influence, low = slopes.slope(probabilities, literal)
    if influence <= 0.0:
        return influence, probabilities[literal]
    required = (target - low) / influence
    return influence, min(1.0, max(0.0, required))


def greedy_strategy(polynomial: Polynomial,
                    probabilities: ProbabilityMap,
                    target: float,
                    modifiable: Optional[Callable[[Literal], bool]] = None,
                    tolerance: float = 1e-9,
                    max_steps: Optional[int] = None,
                    evaluator: Optional[Evaluator] = None) -> ModificationPlan:
    """The paper's heuristic: most influential literal first (Section 4.4).

    ``modifiable`` restricts which literals may change (e.g. only base
    tuples for Query 2C; only rules to propose program fixes).  The plan
    stops when the target is reached within ``tolerance``, when no literal
    can make further progress, or after ``max_steps`` steps.
    """
    if not 0.0 <= target <= 1.0:
        raise ModificationError("Target probability must be in [0, 1]")
    slopes = _slopes(polynomial, evaluator)
    working: Dict[Literal, float] = dict(probabilities)
    candidates = [
        literal for literal in sorted(polynomial.literals())
        if modifiable is None or modifiable(literal)
    ]
    initial = slopes.evaluate(working)
    current = initial
    increase = target > current
    steps: List[ModificationStep] = []
    used: set = set()

    while abs(current - target) > tolerance:
        if max_steps is not None and len(steps) >= max_steps:
            break
        best: Optional[Tuple[float, Literal, float]] = None
        for literal in candidates:
            if literal in used:
                continue
            p = working[literal]
            # Skip literals already saturated in the needed direction.
            if increase and p >= 1.0:
                continue
            if not increase and p <= 0.0:
                continue
            influence, required = _solve_step(
                slopes, working, literal, target)
            if influence <= tolerance:
                continue
            if best is None or influence > best[0] + TIE_TOLERANCE:
                best = (influence, literal, required)
        if best is None:
            break
        influence, literal, required = best
        old_p = working[literal]
        if abs(required - old_p) <= tolerance:
            # The slope is positive but this literal cannot move P any
            # closer (already at the required value); exclude and continue.
            used.add(literal)
            continue
        working[literal] = required
        current = slopes.evaluate(working)
        steps.append(ModificationStep(literal, old_p, required, current))
        used.add(literal)

    reached = abs(current - target) <= max(tolerance, 1e-9)
    return ModificationPlan(steps, initial, current, target, reached, "greedy")


def random_strategy(polynomial: Polynomial,
                    probabilities: ProbabilityMap,
                    target: float,
                    modifiable: Optional[Callable[[Literal], bool]] = None,
                    seed: Optional[int] = None,
                    tolerance: float = 1e-9,
                    max_steps: Optional[int] = None,
                    evaluator: Optional[Evaluator] = None) -> ModificationPlan:
    """Baseline: modify uniformly random literals (Table 7's comparison).

    Each round a random not-yet-used literal is pushed fully toward the
    target direction; if that overshoots, the step solves Equation 16
    exactly, mirroring the paper's random strategy whose final step is
    fractional.
    """
    if not 0.0 <= target <= 1.0:
        raise ModificationError("Target probability must be in [0, 1]")
    slopes = _slopes(polynomial, evaluator)
    rng = random.Random(seed)
    working: Dict[Literal, float] = dict(probabilities)
    candidates = [
        literal for literal in sorted(polynomial.literals())
        if modifiable is None or modifiable(literal)
    ]
    initial = slopes.evaluate(working)
    current = initial
    increase = target > current
    steps: List[ModificationStep] = []
    remaining = list(candidates)

    while abs(current - target) > tolerance and remaining:
        if max_steps is not None and len(steps) >= max_steps:
            break
        literal = remaining.pop(rng.randrange(len(remaining)))
        old_p = working[literal]
        if increase and old_p >= 1.0:
            continue
        if not increase and old_p <= 0.0:
            continue
        influence, required = _solve_step(slopes, working, literal, target)
        if influence <= tolerance:
            continue
        extreme = 1.0 if increase else 0.0
        reaches_target = (required < 1.0 if increase else required > 0.0)
        new_p = required if reaches_target else extreme
        if abs(new_p - old_p) <= tolerance:
            continue
        working[literal] = new_p
        current = slopes.evaluate(working)
        steps.append(ModificationStep(literal, old_p, new_p, current))

    reached = abs(current - target) <= max(tolerance, 1e-9)
    return ModificationPlan(steps, initial, current, target, reached, "random")


def modification_query(polynomial: Polynomial,
                       probabilities: ProbabilityMap,
                       target: float,
                       strategy: str = "greedy",
                       modifiable: Optional[Callable[[Literal], bool]] = None,
                       seed: Optional[int] = None,
                       tolerance: float = 1e-9,
                       max_steps: Optional[int] = None,
                       evaluator: Optional[Evaluator] = None
                       ) -> ModificationPlan:
    """Front door: run a Modification Query with the chosen strategy."""
    rt = telemetry.runtime()
    if not rt.enabled:
        return _modification_query(
            polynomial, probabilities, target, strategy, modifiable, seed,
            tolerance, max_steps, evaluator)
    with rt.tracer.span("query.modify", strategy=strategy,
                        target=target) as span:
        plan = _modification_query(
            polynomial, probabilities, target, strategy, modifiable, seed,
            tolerance, max_steps, evaluator)
        span.set_attributes(steps=len(plan.steps), reached=plan.reached)
    return plan


def _modification_query(polynomial: Polynomial,
                        probabilities: ProbabilityMap,
                        target: float,
                        strategy: str,
                        modifiable: Optional[Callable[[Literal], bool]],
                        seed: Optional[int],
                        tolerance: float,
                        max_steps: Optional[int],
                        evaluator: Optional[Evaluator]) -> ModificationPlan:
    if strategy == "greedy":
        return greedy_strategy(
            polynomial, probabilities, target, modifiable=modifiable,
            tolerance=tolerance, max_steps=max_steps, evaluator=evaluator)
    if strategy == "random":
        return random_strategy(
            polynomial, probabilities, target, modifiable=modifiable,
            seed=seed, tolerance=tolerance, max_steps=max_steps,
            evaluator=evaluator)
    raise ValueError(
        "Unknown modification strategy %r (expected greedy/random)" % strategy)
