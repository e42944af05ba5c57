"""The chaos harness: every transport must come back fully well-formed."""

import http.client
import json
from unittest import mock

import pytest

from repro.exec.executor import QueryExecutor
from repro.io.serialize import chaos_report_to_json
from repro.resilience.chaos import (
    CHAOS_FAULT_CLASSES,
    ExecutorTransport,
    FaultPlan,
    ProcessTransport,
    ServiceTransport,
    build_chaos_program,
    run_chaos,
)
from repro.resilience.isolation import (
    WORKER_FAULTS,
    process_isolation_supported,
)
from repro.serve import TenantRegistry

needs_processes = pytest.mark.skipif(
    not process_isolation_supported(),
    reason="process isolation requires POSIX kill/resource semantics")


def test_program_is_deterministic_per_seed():
    assert build_chaos_program(seed=4) == build_chaos_program(seed=4)
    assert build_chaos_program(seed=4) != build_chaos_program(seed=5)


def _check_executor(report):
    # The wedged mc spec ends at its deadline as a typed timeout.
    (hung,) = [outcome for outcome in report.details["outcomes"]
               if outcome["spec"].get("params", {}).get("method") == "mc"]
    assert hung["error"].startswith("QueryTimeoutError"), hung
    # The resilience layer visibly did work.
    assert report.details["resilience"]["fallbacks"] > 0
    assert report.exchanges == report.details["specs"] == 20


def _check_service(report):
    assert report.details["server_errors"] == 0
    assert report.exchanges == report.details["requests"] == 40


def _check_process(report):
    for fault in WORKER_FAULTS:
        assert report.faults_observed[fault] == 1, fault
    # Bounded recovery: at most one respawn per worker-killing fault,
    # and no leaked processes beyond the configured pool size.
    pool = report.details["pool"]
    assert pool["respawned"] <= report.details["respawn_bound"]
    assert pool["live"] <= pool["workers"]


@pytest.mark.parametrize("transport, seed, fault_classes, check", [
    pytest.param(ExecutorTransport(specs=20, people=9, samples=8000,
                                   include_outcomes=True),
                 0, CHAOS_FAULT_CLASSES, _check_executor, id="executor"),
    pytest.param(ServiceTransport(requests=40), 5, CHAOS_FAULT_CLASSES,
                 _check_service, id="service"),
    pytest.param(ProcessTransport(rounds=1, people=8), 0, WORKER_FAULTS,
                 _check_process, id="process", marks=needs_processes),
])
def test_chaos_survives_and_serializes(transport, seed, fault_classes,
                                       check):
    report = run_chaos(transport, seed=seed)
    assert report.ok, report.to_dict()
    assert report.unhandled is None
    assert report.well_formed == report.exchanges
    for fault in fault_classes:
        assert report.faults_observed.get(fault, 0) > 0, fault
    check(report)
    # The envelope is valid, versioned JSON.
    document = chaos_report_to_json(report)
    assert document["kind"] == "chaos_report"
    assert document["transport"] == transport.name
    json.dumps(document)


def test_fault_plan_rates_are_seeded():
    plan_a = FaultPlan(seed=3)
    plan_b = FaultPlan(seed=3)
    rolls_a = [plan_a._fires(0.5) for _ in range(50)]
    rolls_b = [plan_b._fires(0.5) for _ in range(50)]
    assert rolls_a == rolls_b


# -- the skeleton's bookkeeping on failure paths ----------------------------


def test_lost_http_exchanges_are_malformed():
    # A socket-level failure mid-exchange must count against the run,
    # not vanish with the driver thread that hit it.
    genuine = http.client.HTTPConnection.getresponse
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(None)
        if len(calls) in (3, 7):
            raise ConnectionResetError("injected reset")
        return genuine(self, *args, **kwargs)

    with mock.patch.object(http.client.HTTPConnection, "getresponse",
                           flaky):
        report = run_chaos(ServiceTransport(requests=60), seed=0)
    assert not report.ok
    assert report.exchanges == report.details["requests"] == 60
    assert report.well_formed == 58
    problems = [entry["problem"] for entry in report.malformed]
    assert problems == ["ConnectionResetError: injected reset"] * 2


def test_registry_closes_when_service_run_ends_early():
    # Every registry a service run opens is closed, whichever way the run
    # ends: too few keys, or a driver failure after the registry is up.
    opened, closed = [], []
    genuine_init, genuine_close = TenantRegistry.__init__, TenantRegistry.close

    def spy_init(self, *args, **kwargs):
        opened.append(self)
        genuine_init(self, *args, **kwargs)

    def spy_close(self):
        closed.append(self)
        return genuine_close(self)

    with mock.patch.object(TenantRegistry, "__init__", spy_init), \
            mock.patch.object(TenantRegistry, "close", spy_close):
        # Two people yield fewer keys than the service transport needs.
        short = run_chaos(ServiceTransport(people=2), seed=0)
        with mock.patch.object(ServiceTransport, "min_keys", 0), \
                mock.patch("repro.resilience.chaos._build_service_workload",
                           side_effect=RuntimeError("boom")):
            failed = run_chaos(ServiceTransport(people=2), seed=0)
    assert short.unhandled == "chaos program yielded 0 keys"
    assert failed.unhandled == "RuntimeError: boom"
    assert not short.ok and not failed.ok
    assert opened and opened == closed


def test_unhandled_exception_still_records_faults_and_time():
    def explode(self, specs):
        raise RuntimeError("executor exploded")

    with mock.patch.object(QueryExecutor, "run", explode):
        report = run_chaos(ExecutorTransport(specs=6, people=6,
                                             samples=2000), seed=0)
    assert report.unhandled == "RuntimeError: executor exploded"
    assert report.faults_observed == {name: 0
                                      for name in CHAOS_FAULT_CLASSES}
    assert report.seconds > 0.0
    assert not report.ok
