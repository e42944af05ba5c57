"""Record/replay of whole query sessions against the durable store.

``record_session`` runs a list of query specs against a live system —
optionally interleaved with fact updates, each of which lands in the
store as a new epoch batch — and persists, per query, the epoch it ran
under and the exact result envelope it produced.  ``replay_recording``
later cold-starts the system from the store at each recorded epoch,
re-runs every query with the recorded method/samples/seed, and asserts
the envelopes match **byte for byte** — turning any production incident
into a local reproducer.

Byte-identity holds because every source of nondeterminism is pinned:
stochastic backends derive their seed from the configured seed and the
query key (scheduling-independent), floats round-trip exactly through
SQLite REAL columns, and envelopes are sorted-key JSON.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..exec.specs import QuerySpec
from .schema import RecordingError, StoreError

_PARAM_TYPES = {int: "int", float: "float", str: "str", bool: "bool"}
_PARAM_DECODERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda text: text == "True",
}


def result_envelope(spec: QuerySpec, value: Any) -> str:
    """The stable JSON envelope for one query answer.

    Protocol results (:class:`~repro.queries.result.QueryResult`
    implementers) use the uniform versioned envelope from
    :func:`repro.io.serialize.dump_query_result`; scalar answers
    (probability / conditional queries return floats) get the same
    treatment under kind ``query_value``.
    """
    from ..io.serialize import FORMAT_VERSION, query_result_to_json
    if hasattr(value, "to_dict") and getattr(value, "query_type", ""):
        document = query_result_to_json(value)
    else:
        document = {
            "version": FORMAT_VERSION,
            "kind": "query_value",
            "query_type": spec.kind,
            "key": spec.key,
            "value": value,
        }
    return json.dumps(document, indent=2, sort_keys=True)


class ReplayMismatch:
    """One replayed query whose envelope diverged from the recording."""

    __slots__ = ("seq", "epoch", "kind", "key", "expected", "actual")

    def __init__(self, seq: int, epoch: int, kind: str, key: str,
                 expected: str, actual: str) -> None:
        self.seq = seq
        self.epoch = epoch
        self.kind = kind
        self.key = key
        self.expected = expected
        self.actual = actual

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "epoch": self.epoch,
            "kind": self.kind,
            "key": self.key,
            "expected": json.loads(self.expected),
            "actual": json.loads(self.actual),
        }


class ReplayReport:
    """Outcome of one replay: per-query byte-comparison results."""

    def __init__(self, name: str, total: int,
                 mismatches: Sequence[ReplayMismatch],
                 epochs: Sequence[int]) -> None:
        self.name = name
        self.total = total
        self.mismatches = list(mismatches)
        self.epochs = sorted(set(epochs))

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def matched(self) -> int:
        return self.total - len(self.mismatches)

    def summary(self) -> str:
        if self.ok:
            return ("replay '%s': %d/%d queries byte-identical across "
                    "epochs %s" % (self.name, self.matched, self.total,
                                   self.epochs))
        return "replay '%s': %d/%d queries DIVERGED" % (
            self.name, len(self.mismatches), self.total)

    def to_dict(self) -> dict:
        from ..io.serialize import FORMAT_VERSION
        return {
            "version": FORMAT_VERSION,
            "kind": "replay_report",
            "name": self.name,
            "ok": self.ok,
            "total": self.total,
            "matched": self.matched,
            "epochs": self.epochs,
            "mismatches": [entry.to_dict() for entry in self.mismatches],
        }


class RecordedQuery:
    """One captured query: spec + epoch + the envelope it produced."""

    __slots__ = ("seq", "epoch", "spec", "envelope")

    def __init__(self, seq: int, epoch: int, spec: QuerySpec,
                 envelope: str) -> None:
        self.seq = seq
        self.epoch = epoch
        self.spec = spec
        self.envelope = envelope


class Recording:
    """A named, replayable query session loaded from the store."""

    def __init__(self, name: str, config_fields: Dict[str, Any],
                 queries: Sequence[RecordedQuery]) -> None:
        self.name = name
        self.config_fields = dict(config_fields)
        self.queries = list(queries)


def _spec_rows(spec: QuerySpec):
    """Split a spec's params into scalar rows + evidence rows.

    Raises :class:`RecordingError` for parameter values the normalized
    schema cannot hold (only int/float/str/bool scalars, plus the
    conditional-evidence mapping, are recordable).
    """
    scalars = []
    evidence = []
    for name in sorted(spec.params):
        value = spec.params[name]
        if name == "evidence":
            for key in sorted(value):
                evidence.append((key, int(bool(value[key]))))
            continue
        value_type = _PARAM_TYPES.get(type(value))
        if value_type is None:
            raise RecordingError(
                "Cannot record %r parameter %s=%r (unsupported type %s)"
                % (spec.kind, name, value, type(value).__name__))
        scalars.append((name, value_type, str(value)))
    return scalars, evidence


def _spec_from_rows(kind: str, key: str, scalars, evidence) -> QuerySpec:
    params: Dict[str, Any] = {
        name: _PARAM_DECODERS[value_type](value)
        for name, value_type, value in scalars
    }
    if evidence:
        params["evidence"] = {
            entry_key: bool(observed) for entry_key, observed in evidence
        }
    return QuerySpec(kind, key, params)


def save_recording(store: Any, name: str, config: Any,
                   queries: Sequence[RecordedQuery]) -> None:
    """Persist a captured session under ``name`` (one transaction)."""
    connection = store._connection
    with store._lock:
        try:
            if connection.execute(
                    "SELECT 1 FROM recordings WHERE name = ?",
                    (name,)).fetchone() is not None:
                raise RecordingError(
                    "Recording %r already exists in %s" % (name, store.path))
            cursor = connection.execute(
                "INSERT INTO recordings (name, method, influence_method, "
                "derivation_method, samples, seed, hop_limit, query_count) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (name, config.probability_method, config.influence_method,
                 config.derivation_method,
                 config.samples, config.seed, config.hop_limit,
                 len(queries)))
            recording_id = cursor.lastrowid
            for entry in queries:
                cursor = connection.execute(
                    "INSERT INTO recorded_queries (recording_id, seq, "
                    "epoch, kind, key, envelope) VALUES (?, ?, ?, ?, ?, ?)",
                    (recording_id, entry.seq, entry.epoch, entry.spec.kind,
                     entry.spec.key, entry.envelope))
                query_id = cursor.lastrowid
                scalars, evidence = _spec_rows(entry.spec)
                connection.executemany(
                    "INSERT INTO recorded_params (query_id, name, "
                    "value_type, value) VALUES (?, ?, ?, ?)",
                    [(query_id, pname, ptype, pvalue)
                     for pname, ptype, pvalue in scalars])
                connection.executemany(
                    "INSERT INTO recorded_evidence (query_id, key, "
                    "observed) VALUES (?, ?, ?)",
                    [(query_id, ekey, observed)
                     for ekey, observed in evidence])
            connection.commit()
        except BaseException:
            connection.rollback()
            raise


def list_recordings(store: Any) -> List[Dict[str, Any]]:
    with store._lock:
        rows = store._connection.execute(
            "SELECT name, query_count, seed, samples, method "
            "FROM recordings ORDER BY id").fetchall()
    return [
        {"name": name, "queries": count, "seed": seed,
         "samples": samples, "method": method}
        for name, count, seed, samples, method in rows
    ]


def load_recording(store: Any, name: Optional[str] = None) -> Recording:
    """Load a recording by name (or the only/newest one when unnamed)."""
    with store._lock:
        connection = store._connection
        if name is None:
            row = connection.execute(
                "SELECT name FROM recordings ORDER BY id DESC LIMIT 1"
            ).fetchone()
            if row is None:
                raise RecordingError(
                    "Store %s holds no recordings" % store.path)
            name = row[0]
        header = connection.execute(
            "SELECT id, method, influence_method, derivation_method, "
            "samples, seed, hop_limit FROM recordings WHERE name = ?",
            (name,)).fetchone()
        if header is None:
            raise RecordingError(
                "No recording named %r in %s" % (name, store.path))
        (recording_id, method, influence_method, derivation_method,
         samples, seed, hop_limit) = header
        queries: List[RecordedQuery] = []
        rows = connection.execute(
            "SELECT id, seq, epoch, kind, key, envelope "
            "FROM recorded_queries WHERE recording_id = ? ORDER BY seq",
            (recording_id,)).fetchall()
        for query_id, seq, epoch, kind, key, envelope in rows:
            scalars = connection.execute(
                "SELECT name, value_type, value FROM recorded_params "
                "WHERE query_id = ? ORDER BY name", (query_id,)).fetchall()
            evidence = connection.execute(
                "SELECT key, observed FROM recorded_evidence "
                "WHERE query_id = ? ORDER BY key", (query_id,)).fetchall()
            queries.append(RecordedQuery(
                seq, epoch, _spec_from_rows(kind, key, scalars, evidence),
                envelope))
    return Recording(name, {
        "probability_method": method,
        "influence_method": influence_method,
        "derivation_method": derivation_method,
        "samples": samples,
        "seed": seed,
        "hop_limit": hop_limit,
    }, queries)


def record_session(system: Any, store: Any, name: str,
                   specs: Sequence[object],
                   updates: Sequence[str] = ()) -> Recording:
    """Capture a query session: answer ``specs`` at the current epoch,
    then once more after each ``updates`` entry (fact source text fed to
    ``add_facts``, each landing in the store as a new epoch batch).

    Every answer is recorded with the epoch it ran under and its exact
    envelope text; polynomials extracted along the way are persisted at
    their epoch so replays prime the extraction cache.  The attached
    system syncs the store automatically; an unattached one is attached
    for the duration of the recording.
    """
    coerced = [QuerySpec.coerce(spec) for spec in specs]
    if not coerced:
        raise RecordingError("Cannot record an empty query session")
    for spec in coerced:
        _spec_rows(spec)  # validate recordability before running anything
    attached_here = system.store is None
    if attached_here:
        system.attach_store(store)
    elif system.store is not store:
        raise StoreError(
            "System is attached to a different store than the recording "
            "target")
    try:
        captured: List[RecordedQuery] = []
        executor = system.executor()
        phases: List[Optional[str]] = [None] + list(updates)
        seq = 0
        for phase in phases:
            if phase is not None:
                system.add_facts(phase)
            epoch = system.epoch
            for spec in coerced:
                value = executor.execute(spec)
                captured.append(RecordedQuery(
                    seq, epoch, spec, result_envelope(spec, value)))
                seq += 1
                if spec.key in system.graph:
                    store.save_polynomial(
                        spec.key, spec.params.get("hop_limit"),
                        executor.polynomial(
                            spec.key,
                            hop_limit=spec.params.get("hop_limit")),
                        epoch)
        save_recording(store, name, system.config, captured)
        return Recording(name, {}, captured)
    finally:
        if attached_here:
            system.detach_store()


def replay_recording(store: Any, name: Optional[str] = None,
                     system_cls: Optional[Any] = None) -> ReplayReport:
    """Re-run a recorded session against the store, cold.

    For every epoch the recording touched, a fresh system is
    warm-started from the store *as of that epoch* (no fixpoint
    evaluation, no shared state with the recorder) and each query is
    re-executed with the recorded method/samples/seed.  Envelopes are
    compared byte for byte.
    """
    if system_cls is None:
        from ..core.system import P3
        system_cls = P3
    recording = load_recording(store, name)
    from ..core.config import P3Config
    fields = recording.config_fields
    config = P3Config(
        probability_method=fields["probability_method"] or "exact",
        influence_method=fields["influence_method"] or "exact",
        derivation_method=fields["derivation_method"] or "naive",
        samples=fields["samples"],
        seed=fields["seed"],
        hop_limit=fields["hop_limit"],
    )
    systems: Dict[int, Any] = {}
    mismatches: List[ReplayMismatch] = []
    epochs: List[int] = []
    for entry in recording.queries:
        epochs.append(entry.epoch)
        system = systems.get(entry.epoch)
        if system is None:
            system = store.open_system(
                system_cls, config=config, epoch=entry.epoch)
            systems[entry.epoch] = system
        value = system.executor().execute(entry.spec)
        actual = result_envelope(entry.spec, value)
        if actual != entry.envelope:
            mismatches.append(ReplayMismatch(
                entry.seq, entry.epoch, entry.spec.kind, entry.spec.key,
                entry.envelope, actual))
    return ReplayReport(
        recording.name, len(recording.queries), mismatches, epochs)
