"""Declarative query specifications for the batch executor.

A :class:`QuerySpec` names one provenance query — its kind (Table 1 query
type or plain probability), target tuple key, and parameters — without
running anything.  Specs are plain values: hashable, comparable, and
round-trippable through dicts, so batches can arrive from JSON, be
deduplicated, and be used as cache keys.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

#: Query kinds understood by the executor.
KINDS = ("probability", "conditional", "explain", "derive", "influence",
         "modify")

#: Parameters accepted per kind (beyond the common method/hop_limit/
#: samples/seed).  Used for validation in ``__init__``.
_KIND_PARAMS = {
    "probability": frozenset(),
    "conditional": frozenset({"evidence"}),
    "explain": frozenset(),
    "derive": frozenset({"epsilon"}),
    "influence": frozenset({"kind_filter", "relation"}),
    "modify": frozenset({"target", "strategy", "only_tuples", "only_rules",
                         "max_steps"}),
}

_COMMON_PARAMS = frozenset({"method", "hop_limit", "samples", "seed",
                            "timeout"})


class QuerySpec:
    """One query to run: ``kind`` + tuple ``key`` + keyword parameters.

    Use the per-kind constructors (:meth:`probability`, :meth:`explain`,
    :meth:`derive`, :meth:`influence`, :meth:`modify`,
    :meth:`conditional`) rather than ``__init__`` directly.
    """

    __slots__ = ("kind", "key", "params")

    def __init__(self, kind: str, key: str,
                 params: Optional[Dict[str, Any]] = None) -> None:
        if kind not in KINDS:
            raise ValueError(
                "Unknown query kind %r (expected one of %s)"
                % (kind, ", ".join(KINDS)))
        # Drop explicit Nones: a parameter passed as None means "use the
        # config default", exactly like not passing it at all — so the two
        # spellings must share one identity (and one cache entry).
        params = {name: value for name, value in (params or {}).items()
                  if value is not None}
        allowed = _COMMON_PARAMS | _KIND_PARAMS[kind]
        unknown = set(params) - allowed
        if unknown:
            raise ValueError(
                "Unknown parameters for %r spec: %s"
                % (kind, ", ".join(sorted(unknown))))
        if kind == "derive" and "epsilon" not in params:
            raise ValueError("derive specs require an 'epsilon' parameter")
        if kind == "modify":
            if "target" not in params:
                raise ValueError("modify specs require a 'target' parameter")
            if params.get("only_tuples") and params.get("only_rules"):
                raise ValueError(
                    "only_tuples and only_rules are mutually exclusive: "
                    "together they leave nothing modifiable")
        self.kind = kind
        self.key = key
        self.params = params

    # -- per-kind constructors ----------------------------------------------------

    @classmethod
    def probability(cls, key: str, **params: Any) -> "QuerySpec":
        """Success probability P[tuple]."""
        return cls("probability", key, params)

    @classmethod
    def conditional(cls, key: str,
                    evidence: Optional[Dict[str, bool]] = None,
                    **params: Any) -> "QuerySpec":
        """P[tuple | evidence] (program evidence plus per-spec extras)."""
        if evidence is not None:
            params["evidence"] = dict(evidence)
        return cls("conditional", key, params)

    @classmethod
    def explain(cls, key: str, **params: Any) -> "QuerySpec":
        """Explanation Query (Section 4.1)."""
        return cls("explain", key, params)

    @classmethod
    def derive(cls, key: str, epsilon: float, **params: Any) -> "QuerySpec":
        """Derivation Query (Section 4.2): ε-sufficient provenance."""
        params["epsilon"] = epsilon
        return cls("derive", key, params)

    @classmethod
    def influence(cls, key: str, **params: Any) -> "QuerySpec":
        """Influence Query (Section 4.3)."""
        return cls("influence", key, params)

    @classmethod
    def modify(cls, key: str, target: float, **params: Any) -> "QuerySpec":
        """Modification Query (Section 4.4)."""
        params["target"] = target
        return cls("modify", key, params)

    # -- identity ----------------------------------------------------------------

    def cache_identity(self) -> Hashable:
        """Canonical hashable identity: equal specs share cached results.

        ``timeout`` is excluded — a deadline bounds how long a query may
        run, never what it answers, so specs differing only in timeout
        share one result.
        """
        return (self.kind, self.key, _freeze(
            {name: value for name, value in self.params.items()
             if name != "timeout"}))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QuerySpec)
                and self.cache_identity() == other.cache_identity())

    def __hash__(self) -> int:
        return hash(self.cache_identity())

    # -- dict round trip -----------------------------------------------------------

    def to_dict(self) -> dict:
        document: Dict[str, Any] = {"kind": self.kind, "key": self.key}
        if self.params:
            document["params"] = dict(self.params)
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "QuerySpec":
        """Parse ``{"kind": ..., "key": ..., "params": {...}}``.

        A bare string is also accepted and means a probability query.
        """
        if isinstance(document, str):
            return cls("probability", document)
        return cls(document["kind"], document["key"],
                   document.get("params"))

    @classmethod
    def coerce(cls, value: object) -> "QuerySpec":
        """Normalise str / dict / QuerySpec inputs into a QuerySpec."""
        if isinstance(value, QuerySpec):
            return value
        if isinstance(value, str):
            return cls("probability", value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(
            "Cannot interpret %r as a query spec" % (value,))

    def __repr__(self) -> str:
        extras = ", ".join(
            "%s=%r" % (name, self.params[name]) for name in sorted(self.params))
        return "QuerySpec(%s, %r%s)" % (
            self.kind, self.key, (", " + extras) if extras else "")


def _freeze(value: Any) -> Hashable:
    """Recursively convert dicts/lists to hashable tuples."""
    if isinstance(value, dict):
        return tuple(sorted(
            (name, _freeze(entry)) for name, entry in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(
            value, (set, frozenset)) else value
        return tuple(_freeze(entry) for entry in items)
    return value
