"""Record/replay determinism tests: byte-identical envelopes from a
cold store, across epochs and stochastic backends."""

import json

import pytest

from repro import P3, P3Config
from repro.exec.specs import QuerySpec
from repro.store import (
    ProvenanceStore,
    RecordingError,
    list_recordings,
    load_recording,
    record_session,
    replay_recording,
)

PROGRAM = """
0.9::edge(a,b).
0.8::edge(b,c).
0.7::edge(a,c).
0.5::edge(c,d).
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
query(path(a,c)).
"""

KEY = 'path("a","c")'
UPDATE = "0.6::edge(c,e)."


@pytest.fixture()
def store(tmp_path):
    with ProvenanceStore(str(tmp_path / "prov.db")) as handle:
        yield handle


def fresh_system(config=None):
    p3 = P3.from_source(PROGRAM, config=config)
    p3.evaluate()
    return p3


class TestRecord:
    def test_captures_queries_and_epochs(self, store):
        recording = record_session(
            fresh_system(), store, "demo",
            [QuerySpec.probability(KEY)], updates=[UPDATE])
        assert [entry.epoch for entry in recording.queries] == [0, 1]
        assert all(entry.envelope for entry in recording.queries)
        # The recorder attached the store transiently: both epochs landed.
        assert [e["epoch"] for e in store.epochs()] == [0, 1]

    def test_round_trips_spec_params(self, store):
        spec = QuerySpec.probability(KEY, hop_limit=4)
        record_session(fresh_system(), store, "params", [spec])
        loaded = load_recording(store, "params")
        assert loaded.queries[0].spec.params["hop_limit"] == 4

    def test_duplicate_name_rejected(self, store):
        record_session(fresh_system(), store, "demo",
                       [QuerySpec.probability(KEY)])
        with pytest.raises(RecordingError):
            record_session(fresh_system(), store, "demo",
                           [QuerySpec.probability(KEY)])

    def test_empty_session_rejected(self, store):
        with pytest.raises(RecordingError):
            record_session(fresh_system(), store, "empty", [])

    def test_listing(self, store):
        record_session(fresh_system(), store, "demo",
                       [QuerySpec.probability(KEY)])
        assert [entry["name"] for entry in list_recordings(store)] \
            == ["demo"]


class TestReplay:
    def test_byte_identical_across_epochs(self, store):
        record_session(
            fresh_system(), store, "demo",
            [QuerySpec.probability(KEY), QuerySpec.explain(KEY)],
            updates=[UPDATE])
        report = replay_recording(store, "demo")
        assert report.ok
        assert report.matched == report.total == 4
        assert report.epochs == [0, 1]

    def test_unnamed_replay_uses_newest_recording(self, store):
        record_session(fresh_system(), store, "first",
                       [QuerySpec.probability(KEY)])
        record_session(fresh_system(), store, "second",
                       [QuerySpec.explain(KEY)])
        assert replay_recording(store).name == "second"

    def test_stochastic_backend_replays_deterministically(self, store):
        config = P3Config(probability_method="mc", samples=500, seed=7)
        record_session(fresh_system(config), store, "mc",
                       [QuerySpec.probability(KEY)])
        report = replay_recording(store, "mc")
        assert report.ok

    def test_null_derivation_method_replays_as_naive(self, store):
        # Recordings made while the config field could be unset store
        # NULL; replay must read it as the "naive" default.
        record_session(fresh_system(), store, "derive",
                       [QuerySpec.derive(KEY, 0.05)])
        store._connection.execute(
            "UPDATE recordings SET derivation_method = NULL")
        store._connection.commit()
        recording = load_recording(store, "derive")
        assert recording.config_fields["derivation_method"] is None
        report = replay_recording(store, "derive")
        assert report.ok
        assert report.matched == report.total == 1

    def test_tampered_envelope_detected(self, store):
        record_session(fresh_system(), store, "demo",
                       [QuerySpec.probability(KEY)])
        store._connection.execute(
            "UPDATE recorded_queries SET envelope = ?",
            (json.dumps({"version": 2, "kind": "query_value",
                         "query_type": "probability", "key": KEY,
                         "value": 0.123},
                        indent=2, sort_keys=True),))
        store._connection.commit()
        report = replay_recording(store, "demo")
        assert not report.ok
        mismatch = report.mismatches[0].to_dict()
        assert mismatch["expected"]["value"] == 0.123
        assert mismatch["actual"]["value"] != 0.123

    def test_unknown_recording_rejected(self, store):
        with pytest.raises(RecordingError):
            replay_recording(store, "ghost")

    def test_replay_survives_process_restart(self, tmp_path):
        # Record into a file, close everything, reopen cold: the replay
        # must reconstruct program, graph, and config purely from rows.
        path = str(tmp_path / "prov.db")
        with ProvenanceStore(path) as store:
            record_session(fresh_system(), store, "demo",
                           [QuerySpec.probability(KEY)],
                           updates=[UPDATE])
        with ProvenanceStore(path, create=False) as reopened:
            report = replay_recording(reopened, "demo")
        assert report.ok
        assert report.total == 2

    def test_replay_does_not_rerun_fixpoint(self, store, monkeypatch):
        from repro.datalog import engine as engine_module
        record_session(fresh_system(), store, "demo",
                       [QuerySpec.probability(KEY)])

        def explode(self, *args, **kwargs):
            raise AssertionError("replay must not run the engine")

        monkeypatch.setattr(engine_module.Engine, "run", explode)
        assert replay_recording(store, "demo").ok
