"""End-to-end HTTP tests: the service booted for real on a loopback
port, driven with plain ``http.client`` — concurrent multi-tenant
batches, live updates with epoch invalidation, backpressure, and the
operational endpoints."""

import json
import threading
import time
import http.client

import pytest

from repro import telemetry
from repro.data import ACQUAINTANCE
from repro.inference.exact import exact_probability
from repro.inference.registry import BackendReading, override_backend
from repro.serve import (
    AdmissionController,
    ProvenanceService,
    TenantRegistry,
    start_in_background,
)

KEY = 'know("Ben","Elena")'
KEY_PROBABILITY = 0.163840
OTHER = 'know("Ben","Steve")'
NEW_FACT = 't9 0.5: live("Zoe","DC").'
NEW_KEY = 'know("Zoe","Elena")'


def request(port, method, path, body=None, timeout=30):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        data = response.read()
        headers = {name.lower(): value
                   for name, value in response.getheaders()}
        return response.status, headers, data
    finally:
        connection.close()


def json_request(port, method, path, body=None, timeout=30):
    status, headers, data = request(port, method, path, body, timeout)
    return status, headers, json.loads(data)


@pytest.fixture()
def service():
    registry = TenantRegistry()
    registry.create("alpha", source=ACQUAINTANCE)
    registry.create("beta", source=ACQUAINTANCE)
    svc = ProvenanceService(
        registry, AdmissionController(max_concurrent=4, max_queue=8))
    handle = start_in_background(svc)
    yield handle
    handle.stop()
    registry.close()


class TestQueries:
    def test_batch_envelope_carries_library_outcomes(self, service):
        status, _, document = json_request(
            service.port, "POST", "/tenants/alpha/query",
            {"specs": [KEY, {"kind": "probability", "key": OTHER}]})
        assert status == 200
        assert document["kind"] == "batch_result"
        assert document["tenant"] == "alpha"
        outcomes = document["result"]["outcomes"]
        assert outcomes[0]["value"] == pytest.approx(KEY_PROBABILITY)
        assert outcomes[1]["value"] == pytest.approx(1.0)

    def test_concurrent_multi_tenant_batches(self, service):
        """Many clients, two tenants, one shared service: every batch
        answers correctly and tenants stay isolated."""
        errors = []

        def client(tenant):
            try:
                for _ in range(5):
                    status, _, document = json_request(
                        service.port, "POST",
                        "/tenants/%s/query" % tenant, {"specs": [KEY]})
                    assert status == 200, document
                    value = document["result"]["outcomes"][0]["value"]
                    assert value == pytest.approx(KEY_PROBABILITY)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client,
                                    args=("alpha" if i % 2 else "beta",),
                                    daemon=True)
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors

    def test_unknown_tenant_404(self, service):
        status, _, document = json_request(
            service.port, "POST", "/tenants/ghost/query",
            {"specs": [KEY]})
        assert status == 404
        assert document["kind"] == "error"

    def test_malformed_body_400(self, service):
        status, _, data = request(service.port, "POST",
                                  "/tenants/alpha/query",
                                  body=None)
        assert status == 400
        status, _, document = json_request(
            service.port, "POST", "/tenants/alpha/query",
            {"specs": "not-a-list"})
        assert status == 400
        assert document["kind"] == "error"

    def test_unroutable_path_404(self, service):
        status, _, document = json_request(service.port, "GET",
                                           "/no/such/route")
        assert status == 404
        assert document["kind"] == "error"


class TestLiveUpdates:
    def test_update_bumps_epoch_and_invalidates_over_http(self, service):
        # know("Zoe","Elena") does not exist yet.
        status, _, before = json_request(
            service.port, "POST", "/tenants/alpha/query",
            {"specs": [NEW_KEY]})
        assert status == 200
        assert "error" in before["result"]["outcomes"][0]

        status, _, update = json_request(
            service.port, "POST", "/tenants/alpha/facts",
            {"facts": NEW_FACT})
        assert status == 200
        assert update["kind"] == "update"
        assert update["epoch"] == before["epoch"] + 1
        assert "delta" in update

        # The same spec now answers — the epoch bump invalidated the
        # cached failure from before the update.
        status, _, after = json_request(
            service.port, "POST", "/tenants/alpha/query",
            {"specs": [NEW_KEY]})
        assert status == 200
        assert after["epoch"] == update["epoch"]
        assert after["result"]["outcomes"][0]["value"] == pytest.approx(0.4)

    def test_reads_during_warm_started_first_update_never_5xx(
            self, tmp_path):
        """A warm-started tenant re-evaluates on its first update, and
        for that moment the system is unevaluated.  Reads admitted then
        (admission checks the tenant's breakers without the tenant lock)
        must wait for the write and answer, not fail with HTTP 500."""
        from repro import P3
        from repro.store import ProvenanceStore
        path = str(tmp_path / "warm.db")
        seed = P3.from_source(ACQUAINTANCE)
        seed.evaluate()
        store = ProvenanceStore(path)
        try:
            seed.attach_store(store)
        finally:
            seed.detach_store()
            store.close()

        registry = TenantRegistry()
        tenant = registry.create("warm", store=path)
        system = tenant.system
        evaluating = threading.Event()
        evaluate = system.evaluate

        def slow_evaluate(*args, **kwargs):
            evaluating.set()
            time.sleep(0.5)  # hold the unevaluated window open
            return evaluate(*args, **kwargs)

        system.evaluate = slow_evaluate
        service = ProvenanceService(
            registry, AdmissionController(max_concurrent=16, max_queue=16))
        handle = start_in_background(service)
        statuses = []

        def call(path, body):
            status, _, _ = request(handle.port, "POST", path, body)
            statuses.append((path, status))

        try:
            writer = threading.Thread(target=call, args=(
                "/tenants/warm/facts", {"facts": NEW_FACT}))
            writer.start()
            assert evaluating.wait(10)
            readers = [threading.Thread(target=call, args=(
                "/tenants/warm/query", {"specs": [KEY]}))
                for _ in range(8)]
            for reader in readers:
                reader.start()
            for thread in readers + [writer]:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            handle.stop()
            registry.close()
        assert len(statuses) == 9
        assert all(status == 200 for _, status in statuses), statuses

    def test_update_isolated_per_tenant(self, service):
        json_request(service.port, "POST", "/tenants/alpha/facts",
                     {"facts": NEW_FACT})
        status, _, beta = json_request(
            service.port, "POST", "/tenants/beta/query",
            {"specs": [NEW_KEY]})
        assert status == 200
        # beta never saw alpha's new fact.
        assert "error" in beta["result"]["outcomes"][0]


class TestBackpressure:
    def test_queue_overflow_returns_429_with_retry_after(self):
        registry = TenantRegistry()
        registry.create("alpha", source=ACQUAINTANCE)
        service = ProvenanceService(
            registry, AdmissionController(max_concurrent=1, max_queue=0,
                                          retry_after_seconds=2.0))
        release = threading.Event()

        def wedged_exact(polynomial, probabilities, request):
            release.wait(timeout=30.0)
            return BackendReading("exact", exact_probability(
                polynomial, probabilities))

        handle = start_in_background(service)
        statuses = {}
        try:
            with override_backend("exact", wedged_exact):
                def slow_client():
                    statuses["slow"] = request(
                        service.port, "POST", "/tenants/alpha/query",
                        {"specs": [KEY]})[0]

                slow = threading.Thread(target=slow_client, daemon=True)
                slow.start()
                # Wait for the slow request to occupy the only slot.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    snapshot = json_request(service.port, "GET",
                                            "/healthz")[2]["admission"]
                    if snapshot["inflight"] >= 1:
                        break
                    time.sleep(0.01)
                status, headers, document = json_request(
                    service.port, "POST", "/tenants/alpha/query",
                    {"specs": [OTHER]})
                assert status == 429
                assert document["kind"] == "error"
                assert int(headers["retry-after"]) >= 2
                release.set()
                slow.join(timeout=30.0)
                assert statuses["slow"] == 200
        finally:
            release.set()
            handle.stop()
            registry.close()


class TestOperationalEndpoints:
    def test_healthz(self, service):
        status, _, document = json_request(service.port, "GET", "/healthz")
        assert status == 200
        assert document["kind"] == "health"
        assert document["status"] == "ok"
        assert document["tenants"] == 2
        assert document["admission"]["max_concurrent"] == 4

    def test_stats_expose_executor_document(self, service):
        json_request(service.port, "POST", "/tenants/alpha/query",
                     {"specs": [KEY]})
        status, _, document = json_request(
            service.port, "GET", "/tenants/alpha/stats")
        assert status == 200
        assert document["kind"] == "tenant_stats"
        assert document["queries"] >= 1
        assert "stats" in document
        assert document["breakers"] is not None  # service default config

    def test_tenant_listing(self, service):
        status, _, document = json_request(service.port, "GET", "/tenants")
        assert status == 200
        names = [entry["name"] for entry in document["tenants"]]
        assert names == ["alpha", "beta"]

    def test_create_and_delete_over_http(self, service):
        status, _, document = json_request(
            service.port, "POST", "/tenants/gamma",
            {"source": ACQUAINTANCE})
        assert status == 201
        assert document["kind"] == "tenant_stats"
        status, _, _ = json_request(service.port, "POST", "/tenants/gamma",
                                    {"source": ACQUAINTANCE})
        assert status == 409
        status, _, document = json_request(service.port, "DELETE",
                                           "/tenants/gamma")
        assert status == 200
        assert document["kind"] == "tenant_removed"

    def test_session_source_rejected(self, service):
        status, _, document = json_request(
            service.port, "POST", "/tenants/gamma",
            {"session": "session.json"})
        assert status == 400
        assert document["kind"] == "error"
        assert "'store'" in document["error"]["message"]
        status, _, document = json_request(service.port, "GET", "/tenants")
        assert [entry["name"] for entry in document["tenants"]] \
            == ["alpha", "beta"]

    def test_unknown_tenant_fields_rejected(self, service):
        status, _, document = json_request(
            service.port, "POST", "/tenants/gamma",
            {"source": ACQUAINTANCE, "session": "s.json",
             "srote": "typo.db"})
        assert status == 400
        assert document["kind"] == "error"
        message = document["error"]["message"]
        assert "'session'" in message and "'srote'" in message
        status, _, document = json_request(service.port, "GET", "/tenants")
        assert [entry["name"] for entry in document["tenants"]] \
            == ["alpha", "beta"]

    def test_metrics_scrape(self):
        registry = TenantRegistry()
        registry.create("alpha", source=ACQUAINTANCE)
        service = ProvenanceService(registry)
        telemetry.configure(telemetry.TelemetryConfig())
        handle = start_in_background(service)
        try:
            json_request(service.port, "POST", "/tenants/alpha/query",
                         {"specs": [KEY]})
            status, headers, data = request(service.port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = data.decode("utf-8")
            assert "p3_http_requests_total" in text
            assert "p3_http_inflight" in text
        finally:
            handle.stop()
            registry.close()
            telemetry.disable()
