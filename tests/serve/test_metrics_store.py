"""``/metrics`` and the tenant stats read one store.

Each executor family in the service's Prometheus export is the sum, over
the resident tenants, of what ``GET /tenants/{name}/stats`` reports.
"""

import json
import http.client

import pytest

from repro import telemetry
from repro.data import ACQUAINTANCE
from repro.serve import ProvenanceService, TenantRegistry, start_in_background

KEY = 'know("Ben","Elena")'
OTHER = 'know("Steve","Elena")'
MISSING = 'know("Nobody","Elena")'


def request(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path,
                           body=json.dumps(body) if body else None)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def parse_prometheus(text):
    """{(name, frozenset of label pairs): value} of every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        pairs = frozenset(
            tuple(pair.split("=", 1)) for pair in
            labels.rstrip("}").replace('"', "").split(",") if pair)
        samples[(name, pairs)] = float(value)
    return samples


def expected_families(stats):
    """The export's samples implied by one tenant's ``stats()``."""
    samples = {
        ("p3_query_errors_total", frozenset()): stats["errors"],
        ("p3_batches_total", frozenset()): stats["batches"],
        ("p3_deduplicated_total", frozenset()): stats["deduplicated"],
    }
    for kind, count in stats["queries"].items():
        samples[("p3_queries_total",
                 frozenset({("kind", kind)}))] = count
    for cache, snapshot in stats["caches"].items():
        for outcome, field in (("hit", "hits"), ("miss", "misses")):
            samples[("p3_cache_requests_total", frozenset(
                {("cache", cache), ("outcome", outcome)}))] = snapshot[field]
        samples[("p3_cache_invalidations_total",
                 frozenset({("cache", cache)}))] = snapshot["invalidations"]
    for stage, timing in stats["stages"].items():
        samples[("p3_stage_seconds_count",
                 frozenset({("stage", stage)}))] = timing["calls"]
    return samples


def drive(port, tenant):
    for specs in ([KEY, KEY, OTHER], [KEY, MISSING], [OTHER]):
        status, _ = request(port, "POST", "/tenants/%s/query" % tenant,
                            {"specs": specs})
        assert status == 200
    status, _ = request(port, "POST", "/tenants/%s/facts" % tenant,
                        {"facts": 't9 0.5: live("Zoe","DC").'})
    assert status == 200
    status, _ = request(port, "POST", "/tenants/%s/query" % tenant,
                        {"specs": [KEY]})
    assert status == 200


@pytest.fixture()
def served():
    """Boots a telemetry-on service over tenants ``names``."""
    booted = []

    def boot(names):
        registry = TenantRegistry()
        for name in names:
            registry.create(name, source=ACQUAINTANCE)
        telemetry.configure(telemetry.TelemetryConfig())
        handle = start_in_background(ProvenanceService(registry))
        booted.append((handle, registry))
        return handle

    yield boot
    for handle, registry in booted:
        handle.stop()
        registry.close()
    telemetry.disable()


def scrape(handle, names):
    stats = {}
    for name in names:
        status, data = request(handle.port, "GET", "/tenants/%s/stats" % name)
        assert status == 200
        stats[name] = json.loads(data)["stats"]
    status, data = request(handle.port, "GET", "/metrics")
    assert status == 200
    return stats, parse_prometheus(data.decode("utf-8"))


class TestMetricsEqualStats:
    def test_one_tenant(self, served):
        handle = served(["alpha"])
        drive(handle.port, "alpha")
        stats, samples = scrape(handle, ["alpha"])
        expected = expected_families(stats["alpha"])
        assert stats["alpha"]["invalidations"] > 0
        assert stats["alpha"]["deduplicated"] == 1
        for sample, value in expected.items():
            assert samples.get(sample, 0.0) == value, sample

    def test_two_tenants_sum(self, served):
        handle = served(["alpha", "beta"])
        drive(handle.port, "alpha")
        drive(handle.port, "beta")
        request(handle.port, "POST", "/tenants/beta/query",
                {"specs": [KEY, OTHER]})
        stats, samples = scrape(handle, ["alpha", "beta"])
        alpha = expected_families(stats["alpha"])
        beta = expected_families(stats["beta"])
        assert alpha != beta
        for sample in set(alpha) | set(beta):
            assert samples.get(sample, 0.0) == (
                alpha.get(sample, 0) + beta.get(sample, 0)), sample
