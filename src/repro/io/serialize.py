"""JSON envelopes for provenance graphs, polynomials and query results.

This module defines a versioned, dependency-free JSON format for what
the CLI and the service print (persisting an evaluated system is the
job of :mod:`repro.store`):

- :func:`graph_to_json` / :func:`graph_from_json` — base tuples, rules,
  and rule executions;
- :func:`polynomial_to_json` / :func:`polynomial_from_json` — monomials as
  sorted literal lists;
- :func:`update_to_json` — the ``p3 update`` envelope: delta-evaluation
  statistics, post-update epoch, and re-answered queries;
- :func:`trace_to_json` / :func:`metrics_to_json` — telemetry span trees
  and metric snapshots in the same versioned envelope family;
- :func:`chaos_report_to_json` / :func:`error_to_json` — resilience
  artifacts: chaos-harness reports and the structured error envelope the
  CLI prints under ``--json`` when a command fails.

The format is line-oriented-diff friendly (sorted keys, sorted lists) so
exports are stable across runs.
"""

from __future__ import annotations

import json
from typing import Dict

from ..provenance.graph import ProvenanceGraph, RuleExecution
from ..provenance.polynomial import Literal, Monomial, Polynomial

#: Format version written into every document.  Version 2 added an
#: ``epoch`` field to the session document, a kind since removed (the
#: store persists evaluated systems); every kept kind reads the same at
#: versions 1 and 2, so readers accept both.
FORMAT_VERSION = 2

#: Versions this module can still read.
COMPATIBLE_VERSIONS = frozenset({1, 2})


class SerializationError(ValueError):
    """Raised for unknown versions or malformed documents."""


class FormatVersionError(SerializationError):
    """A document's format version is one this build cannot read.

    Carries structured detail (``found`` / ``expected``) that
    :func:`error_to_json` folds into the error envelope, so scripted
    callers can distinguish a version mismatch from a corrupt file.
    """

    def __init__(self, kind: str, found: object) -> None:
        expected = sorted(COMPATIBLE_VERSIONS)
        super().__init__(
            "Unsupported %s format version %r (readable: %s)"
            % (kind, found, ", ".join(map(str, expected))))
        self.kind = kind
        self.found = found
        self.expected = expected

    def to_dict(self) -> dict:
        return {
            "document_kind": self.kind,
            "found_version": self.found,
            "expected_versions": self.expected,
        }


def _check_version(document: dict, kind: str) -> None:
    version = document.get("version")
    if version not in COMPATIBLE_VERSIONS:
        raise FormatVersionError(kind, version)
    if document.get("kind") != kind:
        raise SerializationError(
            "Expected a %r document, found %r" % (kind, document.get("kind")))


# -- literals / polynomials -----------------------------------------------------

def literal_to_json(literal: Literal) -> dict:
    return {"kind": literal.kind, "key": literal.key}


def literal_from_json(document: dict) -> Literal:
    return Literal(document["kind"], document["key"])


def polynomial_to_json(polynomial: Polynomial) -> dict:
    monomials = sorted(
        [
            [literal_to_json(lit) for lit in sorted(monomial.literals)]
            for monomial in polynomial.monomials
        ],
        key=json.dumps,
    )
    return {
        "version": FORMAT_VERSION,
        "kind": "polynomial",
        "monomials": monomials,
    }


def polynomial_from_json(document: dict) -> Polynomial:
    _check_version(document, "polynomial")
    return Polynomial(
        Monomial(literal_from_json(entry) for entry in group)
        for group in document["monomials"]
    )


def _sort_key(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True)


# -- graphs -----------------------------------------------------------------------

def graph_to_json(graph: ProvenanceGraph) -> dict:
    base = [
        {"key": key, "probability": graph.base_probability(key),
         "label": graph.base_label(key)}
        for key in sorted(k for k in graph.tuple_keys() if graph.is_base(k))
    ]
    rules = [
        {"label": label, "probability": probability}
        for label, probability in sorted(graph.rules().items())
    ]
    executions = [
        {"rule": execution.rule_label, "head": execution.head,
         "body": list(execution.body),
         "probability": execution.probability}
        for execution in sorted(graph.executions(), key=lambda e: e.exec_id)
    ]
    return {
        "version": FORMAT_VERSION,
        "kind": "graph",
        "base_tuples": base,
        "rules": rules,
        "executions": executions,
    }


def graph_from_json(document: dict) -> ProvenanceGraph:
    _check_version(document, "graph")
    graph = ProvenanceGraph()
    for entry in document["base_tuples"]:
        graph.add_base_tuple(entry["key"], entry["probability"],
                             entry.get("label"))
    for entry in document["rules"]:
        graph.add_rule(entry["label"], entry["probability"])
    for entry in document["executions"]:
        graph.add_execution(RuleExecution(
            entry["rule"], entry["head"], tuple(entry["body"]),
            entry["probability"]))
    return graph


# -- query results --------------------------------------------------------------------

def query_result_to_json(result) -> dict:
    """Wrap any :class:`~repro.queries.result.QueryResult` in the uniform
    versioned envelope: ``{"version", "kind": "query_result",
    "query_type", "summary", "payload"}``."""
    if not hasattr(result, "to_dict") or not getattr(
            result, "query_type", ""):
        raise SerializationError(
            "%r does not implement the QueryResult protocol" % (result,))
    document = {
        "version": FORMAT_VERSION,
        "kind": "query_result",
        "query_type": result.query_type,
        "summary": result.summary(),
        "payload": result.to_dict(),
    }
    resilience = getattr(result, "resilience", None)
    if resilience is not None:
        document["resilience"] = (
            resilience.to_dict() if hasattr(resilience, "to_dict")
            else dict(resilience))
    return document


def query_result_from_json(document: dict):
    """Rebuild the typed query result from its envelope.

    The concrete class is looked up by the envelope's ``query_type`` tag
    in :data:`repro.queries.result.RESULT_TYPES`.
    """
    _check_version(document, "query_result")
    from ..queries.result import RESULT_TYPES
    query_type = document.get("query_type")
    cls = RESULT_TYPES.get(query_type)  # type: ignore[arg-type]
    if cls is None:
        raise SerializationError(
            "Unknown query_type %r (known: %s)"
            % (query_type, ", ".join(sorted(RESULT_TYPES))))
    return cls.from_dict(document["payload"])


def dump_query_result(result, indent: int = 2) -> str:
    """The enveloped result as stable (sorted-key) JSON text."""
    return json.dumps(query_result_to_json(result), indent=indent,
                      sort_keys=True)


def load_query_result(text: str):
    """Inverse of :func:`dump_query_result`."""
    return query_result_from_json(json.loads(text))


# -- live updates ---------------------------------------------------------------------

def evaluation_result_to_json(result) -> dict:
    """Serialise an :class:`~repro.datalog.engine.EvaluationResult`'s
    statistics (the database itself is not captured)."""
    return {
        "rounds": result.rounds,
        "firings": result.firing_count,
        "derived": result.derived_count,
        "seconds": result.elapsed_seconds,
    }


def update_to_json(delta, epoch: int, results: Dict[str, float]) -> dict:
    """Envelope for one live update: the delta-evaluation statistics, the
    system epoch after the update, and any (re-)answered queries."""
    return {
        "version": FORMAT_VERSION,
        "kind": "update",
        "epoch": epoch,
        "delta": evaluation_result_to_json(delta),
        "results": {key: results[key] for key in sorted(results)},
    }


# -- differential audits --------------------------------------------------------------

def audit_report_to_json(report) -> dict:
    """Envelope for an audit sweep (duck-typed, like query results).

    :class:`repro.audit.AuditReport.to_dict` already emits the versioned
    ``audit_report`` envelope; this wrapper validates the protocol so the
    CLI and CI artifacts stay consistent with the other ``*_to_json``
    entry points.
    """
    if not hasattr(report, "to_dict"):
        raise SerializationError(
            "%r does not implement the audit report protocol" % (report,))
    document = report.to_dict()
    if document.get("kind") != "audit_report":
        raise SerializationError(
            "Expected an 'audit_report' document, found %r"
            % document.get("kind"))
    return document


def audit_case_to_json(case) -> dict:
    """Envelope for one audit case (a polynomial plus its context)."""
    if not hasattr(case, "to_dict"):
        raise SerializationError(
            "%r does not implement the audit case protocol" % (case,))
    return {
        "version": FORMAT_VERSION,
        "kind": "audit_case",
        "case": case.to_dict(),
    }


def audit_case_from_json(document: dict):
    """Inverse of :func:`audit_case_to_json`."""
    from ..audit.generator import AuditCase
    _check_version(document, "audit_case")
    return AuditCase.from_dict(document["case"])


# -- resilience -----------------------------------------------------------------------

def chaos_report_to_json(report) -> dict:
    """Envelope for a chaos-harness run (duck-typed, like audit reports).

    :class:`repro.resilience.chaos.ChaosReport.to_dict` already emits the
    versioned ``chaos_report`` envelope; this wrapper validates the
    protocol so CLI output and CI artifacts stay consistent with the
    other ``*_to_json`` entry points.
    """
    if not hasattr(report, "to_dict"):
        raise SerializationError(
            "%r does not implement the chaos report protocol" % (report,))
    document = report.to_dict()
    if document.get("kind") != "chaos_report":
        raise SerializationError(
            "Expected a 'chaos_report' document, found %r"
            % document.get("kind"))
    return document


def error_to_json(error: BaseException) -> dict:
    """Envelope for a failed CLI invocation.

    Under ``--json`` the CLI prints this instead of a half-finished
    result so scripted callers always parse *something*: ``{"version",
    "kind": "error", "error": {"type", "message", ...}}``.  Budget hits
    contribute their structured detail (resource, limit, used) via
    :meth:`repro.core.errors.BudgetExceededError.to_dict`.
    """
    # str(KeyError) wraps the message in repr quotes; unwrap for the
    # KeyError-derived facade errors (UnknownTupleError, ...).
    if isinstance(error, KeyError) and len(error.args) == 1:
        message = str(error.args[0])
    else:
        message = str(error)
    detail = {
        "type": type(error).__name__,
        "message": message,
    }
    if hasattr(error, "to_dict"):
        try:
            extra = error.to_dict()
        except Exception:
            extra = None
        if isinstance(extra, dict):
            for key in sorted(extra):
                detail.setdefault(key, extra[key])
    return {
        "version": FORMAT_VERSION,
        "kind": "error",
        "error": detail,
    }


# -- telemetry ------------------------------------------------------------------------

def trace_to_json(spans, anchor_ns: int = 0) -> dict:
    """Envelope for a collection of telemetry spans.

    ``spans`` may be :class:`repro.telemetry.tracer.Span` objects or the
    dicts produced by ``Span.to_dict``; ``anchor_ns`` converts monotonic
    timestamps into wall-clock ones (pass ``Tracer.anchor_ns``).
    """
    rendered = []
    for span in spans:
        if hasattr(span, "to_dict"):
            rendered.append(span.to_dict(anchor_ns))
        elif isinstance(span, dict):
            rendered.append(dict(span))
        else:
            raise SerializationError(
                "%r is neither a Span nor a span dict" % (span,))
    rendered.sort(key=lambda entry: (entry.get("trace_id", ""),
                                     entry.get("start_ns", 0),
                                     entry.get("span_id", "")))
    return {
        "version": FORMAT_VERSION,
        "kind": "trace",
        "spans": rendered,
    }


def trace_from_json(document: dict) -> list:
    """Inverse of :func:`trace_to_json` (spans stay plain dicts)."""
    _check_version(document, "trace")
    spans = document["spans"]
    if not isinstance(spans, list):
        raise SerializationError("'spans' must be a list")
    return [dict(entry) for entry in spans]


def metrics_to_json(registry) -> dict:
    """Envelope for a :class:`repro.telemetry.metrics.MetricsRegistry`."""
    if not hasattr(registry, "to_json"):
        raise SerializationError(
            "%r does not implement the metrics registry protocol"
            % (registry,))
    return {
        "version": FORMAT_VERSION,
        "kind": "metrics",
        "metrics": registry.to_json(),
    }


def metrics_from_json(document: dict) -> list:
    """Inverse of :func:`metrics_to_json` (the plain metric documents)."""
    _check_version(document, "metrics")
    metrics = document["metrics"]
    if not isinstance(metrics, list):
        raise SerializationError("'metrics' must be a list")
    return [dict(entry) for entry in metrics]
