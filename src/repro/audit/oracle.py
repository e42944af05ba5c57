"""The differential oracle: run every backend, flag every disagreement.

Agreement model
---------------
- **Exact backends** answer the same mathematical quantity, so any two of
  them must match to ``exact_tolerance`` (default 1e-12 — float
  associativity noise only).  The reference is the brute-force 2ⁿ
  enumerator whenever the case fits its literal budget, and the BDD
  otherwise: above that budget the ``exact`` circuit is checked against
  the BDD, an independent compiler.
- **Sampling backends** are checked against a tolerance band derived from
  their own reported standard error: the mean of ``repeats`` independent
  runs must land within ``z`` standard errors of the reference, where the
  standard error of the mean is the largest of (a) the backends' reported
  per-run errors combined in quadrature, (b) the observed across-repeat
  scatter, and (c) an Agresti–Coull floor that keeps the band open when a
  run reports zero hits (a zero-width band would flag every rare-event
  case).  At the default ``z = 5`` a single comparison false-positives
  with probability ≈ 5.7e-7, so even a 200-case sweep (~600 sampling
  comparisons) stays below a one-in-a-thousand flake rate.

Program cases additionally re-run the full pipeline — facade, shared
executor, throwaway executor, and each query type — and check the
cross-path and per-query-type invariants.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Sequence

from ..inference.request import InferenceRequest
from ..inference.registry import (
    BackendReading,
    available_backends,
    get_backend,
)
from ..provenance.polynomial import Polynomial, ProbabilityMap
from .generator import AuditCase

#: Default number of Monte-Carlo draws per sampling-backend run.
DEFAULT_SAMPLES = 4000

#: Default agreement band width for sampling backends, in standard errors.
DEFAULT_Z = 5.0

#: Default tolerance between two exact backends.
EXACT_TOLERANCE = 1e-12


def _mix_seed(seed: int, tag: str) -> int:
    """Decorrelate per-(case, backend, repeat) seeds, deterministically."""
    return (seed ^ zlib.crc32(tag.encode("utf-8"))) & 0x7FFFFFFF


class Disagreement:
    """One failed agreement check."""

    __slots__ = ("case_name", "channel", "value", "reference",
                 "tolerance", "detail")

    def __init__(self, case_name: str, channel: str, value: float,
                 reference: float, tolerance: float,
                 detail: str = "") -> None:
        self.case_name = case_name
        self.channel = channel
        self.value = value
        self.reference = reference
        self.tolerance = tolerance
        self.detail = detail

    @property
    def deviation(self) -> float:
        return abs(self.value - self.reference)

    def to_dict(self) -> dict:
        return {
            "case": self.case_name,
            "channel": self.channel,
            "value": self.value,
            "reference": self.reference,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }

    def __repr__(self) -> str:
        return ("Disagreement(%s/%s: %.9f vs %.9f, tol %.3g%s)"
                % (self.case_name, self.channel, self.value,
                   self.reference, self.tolerance,
                   "; " + self.detail if self.detail else ""))


class CaseVerdict:
    """Everything the oracle learned about one case."""

    __slots__ = ("case", "reference", "reference_backend", "readings",
                 "disagreements")

    def __init__(self, case: AuditCase, reference: float,
                 reference_backend: str,
                 readings: Sequence[BackendReading],
                 disagreements: Sequence[Disagreement]) -> None:
        self.case = case
        self.reference = reference
        self.reference_backend = reference_backend
        self.readings = list(readings)
        self.disagreements = list(disagreements)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        return {
            "case": self.case.name,
            "ok": self.ok,
            "reference": self.reference,
            "reference_backend": self.reference_backend,
            "readings": [reading.to_dict() for reading in self.readings],
            "disagreements": [d.to_dict() for d in self.disagreements],
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else "%d disagreements" % len(
            self.disagreements)
        return "CaseVerdict(%s, %s)" % (self.case.name, state)


def reference_probability(case: AuditCase) -> BackendReading:
    """The trusted reading: brute force when it fits, the BDD otherwise."""
    return _reference_reading(case.polynomial, case.probabilities)


def _reference_reading(polynomial: Polynomial,
                       probabilities: ProbabilityMap) -> BackendReading:
    # Brute force and the BDD are different algorithms from the exact
    # circuit, so the reference checks it independently.
    brute = get_backend("brute-force")
    if brute.supports(polynomial):
        return brute.run(polynomial, probabilities)
    return get_backend("bdd").run(polynomial, probabilities)


def _sampling_floor(samples: int, z: float) -> float:
    """Agresti–Coull rate floor: the per-run standard error at zero hits."""
    centre = (z * z / 2.0) / (samples + z * z)
    return math.sqrt(centre * (1.0 - centre) / samples)


def audit_polynomial_case(case: AuditCase,
                          backends: Optional[Sequence[str]] = None,
                          samples: int = DEFAULT_SAMPLES,
                          seed: int = 0,
                          repeats: int = 1,
                          z: float = DEFAULT_Z,
                          exact_tolerance: float = EXACT_TOLERANCE
                          ) -> CaseVerdict:
    """Cross-check every applicable backend on one polynomial case."""
    reference = reference_probability(case)
    selected = available_backends(
        case.polynomial,
        names=list(backends) if backends is not None else None)
    readings: List[BackendReading] = [reference]
    disagreements: List[Disagreement] = []
    floor = _sampling_floor(samples, z)
    for backend in selected:
        if backend.deterministic:
            reading = backend.run(case.polynomial, case.probabilities)
            readings.append(reading)
            deviation = abs(reading.value - reference.value)
            if deviation > exact_tolerance:
                disagreements.append(Disagreement(
                    case.name, "backend:%s" % backend.name,
                    reading.value, reference.value, exact_tolerance,
                    detail="exact backend off reference %s by %.3g"
                    % (reference.backend, deviation)))
            continue
        values: List[float] = []
        errors: List[float] = []
        for repeat in range(repeats):
            run_seed = _mix_seed(
                seed, "%s:%s:%d" % (case.name, backend.name, repeat))
            reading = backend.run(
                case.polynomial, case.probabilities,
                InferenceRequest(samples=samples, seed=run_seed))
            values.append(reading.value)
            errors.append(reading.stderr or 0.0)
        mean = sum(values) / repeats
        reported = math.sqrt(
            sum(error * error for error in errors) / repeats) \
            / math.sqrt(repeats)
        if repeats > 1:
            centred = sum((value - mean) ** 2 for value in values)
            scatter = math.sqrt(centred / (repeats - 1)) \
                / math.sqrt(repeats)
        else:
            scatter = 0.0
        stderr = max(reported, scatter, floor / math.sqrt(repeats))
        readings.append(BackendReading(
            backend.name, mean, stderr=stderr, exact=False))
        tolerance = z * stderr + exact_tolerance
        deviation = abs(mean - reference.value)
        if deviation > tolerance:
            disagreements.append(Disagreement(
                case.name, "backend:%s" % backend.name,
                mean, reference.value, tolerance,
                detail="mean of %d run(s) x %d samples, se %.3g, "
                "deviation %.1f se" % (repeats, samples, stderr,
                                       deviation / stderr
                                       if stderr else math.inf)))
    return CaseVerdict(case, reference.value, reference.backend,
                       readings, disagreements)


# -- program-level channels ------------------------------------------------------

def audit_program_case(case: AuditCase,
                       seed: int = 0,
                       exact_tolerance: float = EXACT_TOLERANCE
                       ) -> CaseVerdict:
    """Re-run a program case through every query path and cross-check.

    Channels, each compared against the exact probability of the
    polynomial re-extracted from a fresh evaluation:

    - ``facade:probability`` — :meth:`P3.probability_of` (shared executor);
    - ``executor:batch`` — the same query through :meth:`QueryExecutor.run`;
    - ``executor:throwaway`` — a cold fresh executor (no shared caches to
      hide behind);
    - ``query:conditional`` — conditioning on empty evidence must be a
      no-op;
    - ``query:explain`` — the explanation's probability and polynomial
      must match;
    - ``query:derive`` — ε-sufficient provenance must honour its error
      bound, one-sidedly;
    - ``query:influence`` — exact influence scores must lie in [0, 1]
      (monotone DNF);
    - ``query:modify`` — the plan's claimed final probability must be
      reproducible by re-evaluating under the updated probability map.
    """
    if not case.is_program_case:
        raise ValueError("%s is not a program case" % case.name)
    from ..core.system import P3
    from ..exec.executor import QueryExecutor
    from ..exec.specs import QuerySpec

    p3 = P3.from_source(case.program_source)
    p3.evaluate()
    key = case.query_key
    disagreements: List[Disagreement] = []

    def check(channel: str, value: float, reference: float,
              tolerance: float, detail: str = "") -> None:
        if abs(value - reference) > tolerance:
            disagreements.append(Disagreement(
                case.name, channel, value, reference, tolerance, detail))

    polynomial = p3.polynomial_of(key, hop_limit=case.hop_limit)
    reference = _reference_reading(polynomial, p3.probabilities).value
    readings = [BackendReading("program-exact", reference)]

    # Serialized case vs fresh evaluation: the generator snapshot must
    # still describe this program (catches nondeterministic evaluation
    # or extraction drift between generation time and audit time).
    snapshot = _reference_reading(case.polynomial, case.probabilities).value
    check("program:snapshot", snapshot, reference, exact_tolerance,
          detail="stored polynomial disagrees with fresh extraction")

    value = p3.probability_of(key, method="exact",
                              hop_limit=case.hop_limit)
    check("facade:probability", value, reference, exact_tolerance)

    params: Dict[str, object] = {"method": "exact"}
    if case.hop_limit is not None:
        params["hop_limit"] = case.hop_limit
    spec = QuerySpec("probability", key, dict(params))
    batch = p3.executor().run([spec])
    check("executor:batch", batch[0].value, reference, exact_tolerance)

    throwaway = QueryExecutor(p3)
    try:
        cold = throwaway.run([QuerySpec("probability", key, dict(params))])
        check("executor:throwaway", cold[0].value, reference,
              exact_tolerance)
    finally:
        throwaway.close()

    value = p3.conditional_probability_of(key, hop_limit=case.hop_limit)
    check("query:conditional", value, reference, 1e-9,
          detail="empty evidence must be a no-op")

    explanation = p3.explain(key, method="exact",
                             hop_limit=case.hop_limit)
    check("query:explain", explanation.probability, reference,
          exact_tolerance)
    if explanation.polynomial != polynomial:
        disagreements.append(Disagreement(
            case.name, "query:explain", explanation.derivation_count,
            len(polynomial), 0.0,
            detail="explanation polynomial differs from direct extraction"))

    epsilon = 0.25
    sufficient = p3.sufficient_provenance(
        key, epsilon=epsilon, method="naive", hop_limit=case.hop_limit)
    check("query:derive", sufficient.full_probability, reference,
          exact_tolerance, detail="derivation query full probability")
    if sufficient.error > epsilon + 1e-9:
        disagreements.append(Disagreement(
            case.name, "query:derive", sufficient.error, epsilon, 1e-9,
            detail="sufficient provenance violates its epsilon bound"))
    if sufficient.sufficient_probability > (
            sufficient.full_probability + exact_tolerance):
        disagreements.append(Disagreement(
            case.name, "query:derive", sufficient.sufficient_probability,
            sufficient.full_probability, exact_tolerance,
            detail="P[sufficient] must be one-sided (<= P[full])"))

    influence = p3.influence(key, method="exact",
                             hop_limit=case.hop_limit)
    for score in influence:
        if not (-exact_tolerance <= score.influence <= 1 + exact_tolerance):
            disagreements.append(Disagreement(
                case.name, "query:influence", score.influence, 0.0, 1.0,
                detail="influence of %s outside [0, 1]" % (score.literal,)))

    target = min(0.95, reference + 0.25)
    plan = p3.modify(key, target=target, hop_limit=case.hop_limit)
    updated = plan.updated_probabilities(p3.probabilities)
    replayed = _reference_reading(polynomial, updated).value
    check("query:modify", plan.final_probability, replayed, 1e-9,
          detail="plan's claimed final probability must replay")

    return CaseVerdict(case, reference, "program-exact",
                       readings, disagreements)


def audit_case(case: AuditCase,
               backends: Optional[Sequence[str]] = None,
               samples: int = DEFAULT_SAMPLES,
               seed: int = 0,
               repeats: int = 1,
               z: float = DEFAULT_Z,
               exact_tolerance: float = EXACT_TOLERANCE) -> CaseVerdict:
    """Full oracle for one case: backend channels, plus the program
    channels when the case carries a program."""
    verdict = audit_polynomial_case(
        case, backends=backends, samples=samples, seed=seed,
        repeats=repeats, z=z, exact_tolerance=exact_tolerance)
    if case.is_program_case:
        program_verdict = audit_program_case(
            case, seed=seed, exact_tolerance=exact_tolerance)
        verdict.readings.extend(program_verdict.readings)
        verdict.disagreements.extend(program_verdict.disagreements)
    return verdict
