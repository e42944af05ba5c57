"""The chaos harness: a faulted batch must come back fully well-formed."""

import json

from repro.io.serialize import chaos_report_to_json
from repro.resilience.chaos import (
    CHAOS_FAULT_CLASSES,
    FaultPlan,
    build_chaos_program,
    run_chaos,
)


def test_program_is_deterministic_per_seed():
    assert build_chaos_program(seed=4) == build_chaos_program(seed=4)
    assert build_chaos_program(seed=4) != build_chaos_program(seed=5)


def test_chaos_run_survives_and_serializes():
    report = run_chaos(seed=0, spec_count=20, people=9, samples=8000,
                       include_outcomes=True)
    assert report.ok, report.to_dict()
    assert report.well_formed == report.specs
    assert report.unhandled is None
    for fault in CHAOS_FAULT_CLASSES:
        assert report.faults_observed.get(fault, 0) > 0, fault
    assert not report.accuracy_failures
    # The wedged mc spec ends at its deadline as a typed timeout.
    (hung,) = [outcome for outcome in report.outcomes
               if outcome["spec"].get("params", {}).get("method") == "mc"]
    assert hung["error"].startswith("QueryTimeoutError"), hung
    # The resilience layer visibly did work.
    assert report.fallbacks > 0
    # The envelope is valid, versioned JSON.
    document = chaos_report_to_json(report)
    assert document["kind"] == "chaos_report"
    json.dumps(document)


def test_fault_plan_rates_are_seeded():
    plan_a = FaultPlan(seed=3)
    plan_b = FaultPlan(seed=3)
    rolls_a = [plan_a._fires(0.5) for _ in range(50)]
    rolls_b = [plan_b._fires(0.5) for _ in range(50)]
    assert rolls_a == rolls_b
