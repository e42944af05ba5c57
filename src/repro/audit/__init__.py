"""Differential audit harness: randomized oracle testing of inference.

Every inference backend, every provenance representation, and every query
path in this repo is supposed to agree on P[λ] — exactly for the exact
backends, within statistically sound tolerance bands for the sampling
estimators.  This package turns that promise into an executable check:

- :mod:`repro.audit.generator` — seeded random provenance polynomials and
  small recursive programs, plus a hand-built adversarial corpus
  (absorption pairs, P4 diamonds, rule-only literals, cycles);
- :mod:`repro.audit.oracle` — runs every registered backend (and, for
  program cases, every query type through both the :class:`~repro.core.P3`
  facade and the batched executor) against a trusted reference and
  records disagreements;
- :mod:`repro.audit.shrink` — reduces a disagreeing case to a minimal
  reproducer by greedily dropping monomials, literals, and probability
  detail while the disagreement persists;
- :mod:`repro.audit.runner` — the sweep driver behind ``p3 audit``:
  generate, check, shrink, and serialize failures to replay files;
- :mod:`repro.audit.faults` — deliberate bug injection (e.g. the
  historical Karp–Luby clamp) used to prove the harness actually catches
  the class of defects it exists for.
"""

from .generator import (
    AuditCase,
    GeneratorConfig,
    corpus_cases,
    generate_cases,
    random_polynomial,
)
from .oracle import (
    CaseVerdict,
    Disagreement,
    audit_case,
    audit_polynomial_case,
    audit_program_case,
)
from .runner import (
    AuditReport,
    load_replay,
    run_audit,
    run_replay,
    write_replay,
)
from .shrink import shrink_case
from .faults import FAULT_NAMES, inject_fault

__all__ = [
    "AuditCase",
    "AuditReport",
    "CaseVerdict",
    "Disagreement",
    "FAULT_NAMES",
    "GeneratorConfig",
    "audit_case",
    "audit_polynomial_case",
    "audit_program_case",
    "corpus_cases",
    "generate_cases",
    "inject_fault",
    "load_replay",
    "random_polynomial",
    "run_audit",
    "run_replay",
    "shrink_case",
    "write_replay",
]
