"""Unit tests for the durable provenance store (snapshot, incremental
append, warm-start, crash recovery)."""

import sqlite3

import pytest

from repro import P3, P3Config
from repro.store import (
    ProvenanceStore,
    StoreCrashError,
    StoreError,
    StoreVersionError,
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
def evaluated():
    p3 = P3.from_source(PROGRAM)
    p3.evaluate()
    return p3


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "prov.db")


def snapshot(p3, path):
    store = ProvenanceStore(path)
    p3.attach_store(store)
    return store


class TestSnapshot:
    def test_graph_round_trip(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            again = store.load_graph()
        assert again.tuple_keys() == evaluated.graph.tuple_keys()
        assert again.executions() == evaluated.graph.executions()
        assert again.probability_map() == evaluated.graph.probability_map()

    def test_program_round_trip(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            program = store.load_program()
        assert str(program) == str(evaluated.program)

    def test_negation_survives(self, store_path):
        p3 = P3.from_source("""
            p(1). q(1). p(2).
            r1 1.0: a(X) :- p(X), not q(X).
        """)
        p3.evaluate()
        with snapshot(p3, store_path) as store:
            program = store.load_program()
        assert len(program.rules[0].negations) == 1
        restored = P3.from_store(store_path, attach=False)
        assert sorted(map(str, restored.derived_atoms("a"))) == ["a(2)"]

    def test_epoch_spine(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            spine = store.epochs()
        assert [entry["epoch"] for entry in spine] == [0]
        assert spine[0]["tuples"] == len(evaluated.graph.tuple_keys())
        assert spine[0]["firings"] == len(evaluated.graph.executions())

    def test_sync_is_idempotent(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            assert store.sync(evaluated) == 0
            assert [entry["epoch"] for entry in store.epochs()] == [0]

    def test_missing_store_rejected(self, store_path):
        with pytest.raises(StoreError):
            ProvenanceStore(store_path, create=False)


class TestIncrementalAppend:
    def test_update_lands_as_new_epoch(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            evaluated.add_facts(UPDATE)
            assert [entry["epoch"] for entry in store.epochs()] == [0, 1]
            assert 'edge("c","e")' in store.load_graph().tuple_keys()

    def test_as_of_epoch_excludes_later_facts(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            evaluated.add_facts(UPDATE)
            old = store.load_graph(epoch=0)
            assert 'edge("c","e")' not in old.tuple_keys()

    def test_load_program_grafts_update_facts(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            evaluated.add_facts(UPDATE)
            program = store.load_program()
        assert 'edge("c","e")' in {
            str(fact.atom) for fact in program.facts}

    def test_append_behind_head_rejected(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            evaluated.add_facts(UPDATE)
            evaluated.detach_store()
            stale = P3.from_source(PROGRAM)
            stale.evaluate()  # epoch 0 < store head 1
            with pytest.raises(StoreError):
                store.sync(stale)

    def test_out_of_range_epoch_rejected(self, evaluated, store_path):
        with snapshot(evaluated, store_path) as store:
            with pytest.raises(StoreError):
                store.load_graph(epoch=99)

    def test_empty_store_has_no_epochs(self, store_path):
        with ProvenanceStore(store_path) as store:
            with pytest.raises(StoreError):
                store.last_epoch()


class TestWarmStart:
    def test_from_store_skips_evaluation(self, evaluated, store_path):
        expected = evaluated.probability_of(KEY)
        snapshot(evaluated, store_path).close()
        p3 = P3.from_store(store_path, attach=False)
        assert p3.warm_started
        assert p3.evaluated
        # rounds == 0 is the tell: no fixpoint iteration ran.
        assert p3.evaluate().rounds == 0
        assert p3.probability_of(KEY) == pytest.approx(expected)

    def test_restored_epoch_threads_into_system(self, evaluated,
                                                store_path):
        with snapshot(evaluated, store_path):
            evaluated.add_facts(UPDATE)
        p3 = P3.from_store(store_path, attach=False)
        assert p3.epoch == 1

    def test_warm_start_at_historical_epoch(self, evaluated, store_path):
        with snapshot(evaluated, store_path):
            evaluated.add_facts(UPDATE)
        p3 = P3.from_store(store_path, epoch=0, attach=False)
        assert p3.epoch == 0
        assert 'edge("c","e")' not in p3.graph.tuple_keys()

    def test_attached_warm_start_appends_new_epochs(self, evaluated,
                                                    store_path):
        snapshot(evaluated, store_path).close()
        p3 = P3.from_store(store_path)
        try:
            p3.add_facts(UPDATE)
            assert [entry["epoch"] for entry in p3.store.epochs()] == [0, 1]
        finally:
            store = p3.store
            p3.detach_store()
            store.close()

    def test_warm_start_matches_cold_answers(self, evaluated, store_path):
        with snapshot(evaluated, store_path):
            evaluated.add_facts(UPDATE)
        cold = evaluated.probability_of('path("a","e")')
        warm = P3.from_store(store_path, attach=False)
        assert warm.probability_of('path("a","e")') == pytest.approx(cold)


class TestPolynomials:
    def test_round_trip(self, evaluated, store_path):
        poly = evaluated.executor().polynomial(KEY)
        with snapshot(evaluated, store_path) as store:
            store.save_polynomial(KEY, None, poly, epoch=0)
            loaded = store.load_polynomials(0)
        assert loaded[(KEY, None)] == poly

    def test_only_exact_epoch_is_primed(self, evaluated, store_path):
        poly = evaluated.executor().polynomial(KEY)
        with snapshot(evaluated, store_path) as store:
            store.save_polynomial(KEY, None, poly, epoch=0)
            evaluated.add_facts(UPDATE)
            # The epoch-0 polynomial is stale once the graph grew.
            assert store.load_polynomials(1) == {}

    def test_unknown_root_rejected(self, evaluated, store_path):
        poly = evaluated.executor().polynomial(KEY)
        with snapshot(evaluated, store_path) as store:
            with pytest.raises(StoreError):
                store.save_polynomial("nope(1)", None, poly, epoch=0)


class TestCrashRecovery:
    def test_reopen_drops_torn_epoch(self, evaluated, store_path):
        store = snapshot(evaluated, store_path)
        store.fail_before_commit = True
        with pytest.raises(StoreCrashError):
            evaluated.add_facts(UPDATE)
        evaluated.detach_store()
        store.close()
        # The torn batch is on disk, uncommitted.
        raw = sqlite3.connect(store_path)
        assert raw.execute(
            "SELECT COUNT(*) FROM epochs WHERE committed = 0"
        ).fetchone()[0] == 1
        raw.close()
        with ProvenanceStore(store_path) as reopened:
            assert [e["epoch"] for e in reopened.epochs()] == [0]
            assert 'edge("c","e")' not in reopened.load_graph().tuple_keys()

    def test_recovered_store_accepts_new_appends(self, evaluated,
                                                 store_path):
        store = snapshot(evaluated, store_path)
        store.fail_before_commit = True
        with pytest.raises(StoreCrashError):
            evaluated.add_facts(UPDATE)
        evaluated.detach_store()
        store.close()
        fresh = P3.from_store(store_path)
        try:
            fresh.add_facts(UPDATE)
            assert [e["epoch"] for e in fresh.store.epochs()] == [0, 1]
        finally:
            reopened = fresh.store
            fresh.detach_store()
            reopened.close()


class TestVersioning:
    def test_incompatible_store_rejected(self, evaluated, store_path):
        snapshot(evaluated, store_path).close()
        raw = sqlite3.connect(store_path)
        raw.execute("UPDATE meta SET value = '99' "
                    "WHERE key = 'store_format'")
        raw.commit()
        raw.close()
        with pytest.raises(StoreVersionError) as info:
            ProvenanceStore(store_path)
        document = info.value.to_dict()
        assert document["found_version"] == 99
        assert 1 in document["expected_versions"]


class TestTenantWarmStart:
    def test_store_backed_tenant(self, evaluated, store_path):
        from repro.exec.specs import QuerySpec
        from repro.serve.tenants import TenantRegistry
        expected = evaluated.probability_of(KEY)
        snapshot(evaluated, store_path).close()
        registry = TenantRegistry(base_config=P3Config())
        try:
            tenant = registry.create("warm", store=store_path,
                                     persist=True)
            assert tenant.system.warm_started
            batch = tenant.run_batch([QuerySpec.probability(KEY)])
            assert batch[0].value == pytest.approx(expected)
            tenant.add_facts(UPDATE)
            assert [e["epoch"] for e in tenant.system.store.epochs()] \
                == [0, 1]
        finally:
            registry.close()

    def test_exactly_one_source_enforced(self, store_path):
        from repro.serve.tenants import TenantRegistry
        registry = TenantRegistry(base_config=P3Config())
        try:
            with pytest.raises(ValueError):
                registry.create("bad", source="p(1).", store=store_path)
            with pytest.raises(ValueError):
                registry.create("bad", source="p(1).", persist=True)
        finally:
            registry.close()
