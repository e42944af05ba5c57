"""Service lifecycle: graceful drain on SIGTERM, forced shutdown past
the drain budget, and restart-from-store envelope identity.

The signal tests boot ``p3 serve`` as a real subprocess (signals and
exit codes are process-level behavior); the draining/degraded readiness
checks run in-process against :func:`start_in_background`.
"""

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.data import ACQUAINTANCE
from repro.serve import (
    AdmissionController,
    ProvenanceService,
    TenantRegistry,
    start_in_background,
)
from repro.serve.envelopes import health_envelope

KEY = 'know("Ben","Elena")'

#: ~2.5 s of chunked Monte-Carlo work: long enough to still be in
#: flight when SIGTERM lands, short enough to finish within any drain.
SLOW_SPEC = {"kind": "probability", "key": KEY,
             "params": {"method": "mc", "samples": 50_000_000}}

#: Several minutes of work: reliably outlives a ~1 s drain budget.
WEDGE_SPEC = {"kind": "probability", "key": KEY,
              "params": {"method": "mc", "samples": 4_000_000_000}}


def request(port, method, path, body=None, timeout=60):
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


def boot_serve(*args):
    """Start ``p3 serve`` as a subprocess; returns (process, port)."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=source_root)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *args],
        env=env, stderr=subprocess.PIPE, text=True)
    line = process.stderr.readline()
    if "listening on" not in line:
        process.kill()
        raise AssertionError("serve failed to boot: %r" % line)
    port = int(line.split("http://", 1)[1].split(",", 1)[0]
               .rsplit(":", 1)[1])
    return process, port


def finish(process, timeout=60):
    """Wait for exit; returns (exit code, remaining stderr)."""
    _, stderr = process.communicate(timeout=timeout)
    return process.returncode, stderr


def normalize(document):
    """Strip volatile timing/caching fields for envelope comparison."""
    if isinstance(document, dict):
        return {key: normalize(value) for key, value in document.items()
                if key not in ("seconds", "cached")}
    if isinstance(document, list):
        return [normalize(item) for item in document]
    return document


def background_request(port, body, results):
    try:
        status, headers, data = request(port, "POST",
                                        "/tenants/default/query", body)
        results["status"] = status
        results["data"] = data
    except Exception as exc:  # noqa: BLE001 — asserted by the caller
        results["error"] = exc


@pytest.fixture
def store_path(tmp_path):
    from repro import P3
    from repro.store import ProvenanceStore
    path = str(tmp_path / "lifecycle.db")
    p3 = P3.from_source(ACQUAINTANCE)
    p3.evaluate()
    store = ProvenanceStore(path)
    try:
        p3.attach_store(store)
    finally:
        p3.detach_store()
        store.close()
    return path


class TestSigtermLifecycle:
    def test_sigterm_drains_inflight_and_restarts_identically(
            self, store_path):
        process, port = boot_serve("--from-store", store_path, "--persist",
                                   "--drain-timeout", "30")
        try:
            status, _, baseline = request(
                port, "POST", "/tenants/default/query", {"specs": [KEY]})
            assert status == 200

            results = {}
            inflight = threading.Thread(
                target=background_request,
                args=(port, {"specs": [SLOW_SPEC]}, results))
            inflight.start()
            time.sleep(0.5)  # let the slow query take its slot
            process.send_signal(signal.SIGTERM)
            time.sleep(0.3)  # let the handler close admission

            # Admission is closed: new work is shed with an orderly
            # 503 + Retry-After — never a connection reset — and
            # /healthz reports the drain to the load balancer.
            status, headers, data = request(
                port, "POST", "/tenants/default/query", {"specs": [KEY]})
            assert status == 503
            assert "retry-after" in headers
            assert json.loads(data)["kind"] == "error"
            status, headers, data = request(port, "GET", "/healthz")
            assert status == 503
            assert json.loads(data)["status"] == "draining"
            assert json.loads(data)["admission"]["draining"] is True

            # The in-flight query completes under the drain budget.
            inflight.join(timeout=60)
            assert not inflight.is_alive()
            assert results.get("status") == 200, results

            code, stderr = finish(process)
            assert code == 0, stderr
            assert "drained cleanly" in stderr
            assert "stores synced" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        # Restart from the same store: byte-identical answers (modulo
        # wall-clock timing fields) without re-running the fixpoint.
        process, port = boot_serve("--from-store", store_path, "--persist",
                                   "--drain-timeout", "30")
        try:
            status, _, restarted = request(
                port, "POST", "/tenants/default/query", {"specs": [KEY]})
            assert status == 200
            before = normalize(json.loads(baseline))
            after = normalize(json.loads(restarted))
            assert json.dumps(before, sort_keys=True) == \
                json.dumps(after, sort_keys=True)
            process.send_signal(signal.SIGTERM)
            code, stderr = finish(process)
            assert code == 0, stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_sigterm_past_drain_timeout_forces_distinct_exit_code(
            self, tmp_path):
        program = tmp_path / "acquaintance.pl"
        program.write_text(ACQUAINTANCE)
        process, port = boot_serve(str(program), "--drain-timeout", "1")
        try:
            results = {}
            wedged = threading.Thread(
                target=background_request,
                args=(port, {"specs": [WEDGE_SPEC]}, results))
            wedged.start()
            time.sleep(0.5)
            process.send_signal(signal.SIGTERM)
            code, stderr = finish(process, timeout=60)
            assert code == 3, stderr
            assert "forcing shutdown" in stderr
            assert "forced exit" in stderr
            wedged.join(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestDrainingReadiness:
    def test_begin_drain_sheds_and_flips_healthz(self):
        registry = TenantRegistry()
        registry.create("t", source=ACQUAINTANCE)
        service = ProvenanceService(registry, AdmissionController())
        with start_in_background(service) as handle:
            status, _, data = request(handle.port, "GET", "/healthz")
            assert status == 200
            assert json.loads(data)["status"] == "ok"

            service.begin_drain()
            service.begin_drain()  # idempotent

            status, headers, data = request(handle.port, "GET", "/healthz")
            assert status == 503
            assert headers.get("retry-after") == "1"
            assert json.loads(data)["status"] == "draining"
            status, headers, data = request(
                handle.port, "POST", "/tenants/t/query", {"specs": [KEY]})
            assert status == 503
            assert "retry-after" in headers
        registry.close()

    def test_drain_without_inflight_returns_immediately(self):
        import asyncio
        service = ProvenanceService(TenantRegistry())
        service.begin_drain()
        assert asyncio.run(service.drain(timeout=1.0)) is True

    def test_admission_snapshot_reports_draining(self):
        admission = AdmissionController()
        assert admission.snapshot()["draining"] is False
        admission.begin_drain()
        assert admission.draining is True
        assert admission.snapshot()["draining"] is True


class TestDegradedReadiness:
    def test_abandoned_threads_flip_health_to_degraded(self):
        registry = TenantRegistry()
        registry.create("t", source=ACQUAINTANCE)
        tenant = registry.get("t")
        executor = tenant.executor
        try:
            stats = dict(executor.deadline_runner_stats())
            stats["abandoned_live"] = 3
            executor.deadline_runner_stats = lambda: stats
            admission = AdmissionController()
            healthy = health_envelope(registry, 1.0, admission,
                                      abandoned_threshold=4)
            assert healthy["status"] == "ok"
            assert healthy["deadline_threads"]["abandoned_live"] == 3
            degraded = health_envelope(registry, 1.0, admission,
                                       abandoned_threshold=3)
            assert degraded["status"] == "degraded"
            assert degraded["deadline_threads"]["degraded_threshold"] == 3
            unchecked = health_envelope(registry, 1.0, admission)
            assert unchecked["status"] == "ok"
        finally:
            registry.close()

    def test_draining_outranks_degraded(self):
        registry = TenantRegistry()
        admission = AdmissionController()
        admission.begin_drain()
        document = health_envelope(registry, 1.0, admission,
                                   abandoned_threshold=0)
        assert document["status"] == "draining"
        registry.close()


class TestStopAwaitsConnections:
    def test_stop_leaves_no_handler_task_pending(self):
        """Keep-alive connections left open and ``Connection: close``
        requests still closing when ``stop()`` runs: every handler task
        is done once the service has stopped."""
        registry = TenantRegistry()
        registry.create("alpha", source=ACQUAINTANCE)
        service = ProvenanceService(registry)
        tasks = []
        handle_connection = service._handle_connection

        async def tracked(reader, writer):
            tasks.append(asyncio.current_task())
            await handle_connection(reader, writer)

        service._handle_connection = tracked
        handle = start_in_background(service)
        kept = []
        try:
            for index in range(6):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=30)
                headers = {} if index % 2 else {"Connection": "close"}
                connection.request("GET", "/healthz", headers=headers)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                if index % 2:
                    kept.append(connection)   # idle keep-alive reader
                else:
                    connection.close()
        finally:
            handle.stop()
            for connection in kept:
                connection.close()
            registry.close()
        assert len(tasks) == 6
        assert all(task.done() for task in tasks)
