"""Tenant registry: validation, lifecycle, and the read/write lock."""

import dataclasses
import threading

import pytest

from repro import P3Config
from repro.data import ACQUAINTANCE
from repro.serve import (
    TenantExistsError,
    TenantLimitError,
    TenantRegistry,
    UnknownTenantError,
)
from repro.serve.tenants import _CONFIG_OVERRIDE_FIELDS

KEY = 'know("Ben","Elena")'


@pytest.fixture()
def registry():
    reg = TenantRegistry()
    yield reg
    reg.close()


class TestRegistryLifecycle:
    def test_create_evaluates_up_front(self, registry):
        tenant = registry.create("alpha", source=ACQUAINTANCE)
        assert tenant.system.evaluated
        assert registry.names() == ["alpha"]
        assert registry.get("alpha") is tenant

    def test_create_from_file(self, registry, tmp_path):
        program = tmp_path / "acq.pl"
        program.write_text(ACQUAINTANCE)
        tenant = registry.create("filed", path=str(program))
        assert tenant.system.evaluated

    def test_duplicate_name_is_409_shaped(self, registry):
        registry.create("alpha", source=ACQUAINTANCE)
        with pytest.raises(TenantExistsError):
            registry.create("alpha", source=ACQUAINTANCE)

    def test_unknown_tenant_is_404_shaped(self, registry):
        with pytest.raises(UnknownTenantError):
            registry.get("missing")
        with pytest.raises(UnknownTenantError):
            registry.remove("missing")

    def test_limit_enforced(self):
        reg = TenantRegistry(max_tenants=1)
        try:
            reg.create("one", source=ACQUAINTANCE)
            with pytest.raises(TenantLimitError):
                reg.create("two", source=ACQUAINTANCE)
        finally:
            reg.close()

    def test_remove_frees_the_name(self, registry):
        registry.create("alpha", source=ACQUAINTANCE)
        registry.remove("alpha")
        assert registry.names() == []
        registry.create("alpha", source=ACQUAINTANCE)

    def test_failed_create_releases_the_name(self, registry):
        with pytest.raises(Exception):
            registry.create("broken", source="this is not a program ((")
        assert registry.names() == []
        registry.create("broken", source=ACQUAINTANCE)


class TestValidation:
    @pytest.mark.parametrize("name", ["", "a b", "x/y", "t" * 65, "é"])
    def test_bad_names_rejected(self, registry, name):
        with pytest.raises(ValueError):
            registry.create(name, source=ACQUAINTANCE)

    def test_source_xor_path_required(self, registry):
        with pytest.raises(ValueError):
            registry.create("alpha")
        with pytest.raises(ValueError):
            registry.create("alpha", source=ACQUAINTANCE, path="x.pl")

    def test_unknown_config_override_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.create("alpha", source=ACQUAINTANCE,
                            config_overrides={"bogus_knob": 1})

    def test_config_overrides_apply(self, registry):
        tenant = registry.create("alpha", source=ACQUAINTANCE,
                                 config_overrides={"samples": 123})
        assert tenant.system.config.samples == 123

    def test_override_fields_are_config_fields(self):
        fields = {field.name for field in dataclasses.fields(P3Config)}
        assert set(_CONFIG_OVERRIDE_FIELDS) <= fields

    def test_default_config_bounds_hangs_with_a_deadline(self, registry):
        tenant = registry.create("alpha", source=ACQUAINTANCE)
        assert tenant.system.config.query_timeout == 30.0
        assert tenant.system.config.resilience is not None


class TestTenantConcurrency:
    def test_update_excludes_queries(self, registry):
        """A writer in add_facts blocks new query batches until it
        finishes — no reader ever sees the graph mid-growth."""
        tenant = registry.create("alpha", source=ACQUAINTANCE)
        in_write = threading.Event()
        release_write = threading.Event()
        original = tenant.system.add_facts

        def slow_add(facts):
            in_write.set()
            release_write.wait(timeout=10.0)
            return original(facts)

        tenant.system.add_facts = slow_add
        writer = threading.Thread(
            target=tenant.add_facts,
            args=('t9 0.5: live("Zoe","DC").',), daemon=True)
        writer.start()
        assert in_write.wait(timeout=5.0)

        batch_done = threading.Event()
        results = {}

        def query():
            results["batch"] = tenant.run_batch([KEY])
            batch_done.set()

        reader = threading.Thread(target=query, daemon=True)
        reader.start()
        # The reader must be parked behind the writer...
        assert not batch_done.wait(timeout=0.3)
        release_write.set()
        # ...and proceed the moment it commits.
        assert batch_done.wait(timeout=10.0)
        writer.join(timeout=10.0)
        assert results["batch"].ok
        assert tenant.updates == 1
        assert tenant.queries == 1

    def test_epoch_moves_with_updates(self, registry):
        tenant = registry.create("alpha", source=ACQUAINTANCE)
        before = tenant.system.epoch
        _delta, epoch = tenant.add_facts('t9 0.5: live("Zoe","DC").')
        assert epoch == before + 1
