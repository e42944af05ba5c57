"""Resource budgets: caps, the ambient meter, and pipeline enforcement."""

import pytest

from repro import P3, P3Config
from repro.core.errors import BudgetExceededError
from repro.data import ACQUAINTANCE
from repro.exec import QueryExecutor
from repro.provenance.extraction import extract_polynomial
from repro.resilience import ResourceBudget, activate_budget, active_meter
from repro.resilience.config import ResilienceConfig

KEY = 'know("Ben","Elena")'


@pytest.fixture()
def system():
    p3 = P3.from_source(ACQUAINTANCE)
    p3.evaluate()
    return p3


class TestResourceBudget:
    def test_rejects_non_positive_caps(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_monomials=0)
        with pytest.raises(ValueError):
            ResourceBudget(max_node_visits=-1)

    def test_unbounded(self):
        assert ResourceBudget().unbounded
        assert not ResourceBudget(max_monomials=5).unbounded

    def test_to_dict_round_trip(self):
        budget = ResourceBudget(max_monomials=10, max_compiled_bytes=1 << 20)
        assert ResourceBudget(**budget.to_dict()).to_dict() == budget.to_dict()


class TestMeter:
    def test_node_visits_trip(self):
        meter = ResourceBudget(max_node_visits=2).meter()
        meter.count_visit()
        meter.count_visit()
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.count_visit()
        assert excinfo.value.resource == "node_visits"
        assert excinfo.value.limit == 2
        assert excinfo.value.used == 3

    def test_monomial_caps_carry_partial(self, system):
        polynomial = extract_polynomial(system.graph, KEY)
        meter = ResourceBudget(max_monomials=1).meter()
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.check_polynomial(polynomial)
        assert excinfo.value.resource == "monomials"
        assert excinfo.value.partial is polynomial
        assert excinfo.value.to_dict()["has_partial"] is True

    def test_width_cap(self, system):
        polynomial = extract_polynomial(system.graph, KEY)
        widest = max(len(monomial) for monomial in polynomial)
        meter = ResourceBudget(max_monomial_width=widest - 1).meter()
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.check_polynomial(polynomial)
        assert excinfo.value.resource == "monomial_width"

    def test_compiled_bytes_cap(self):
        meter = ResourceBudget(max_compiled_bytes=100).meter()
        meter.check_compiled_bytes(100)  # at the cap: fine
        with pytest.raises(BudgetExceededError):
            meter.check_compiled_bytes(101)


class TestAmbientActivation:
    def test_no_meter_by_default(self):
        assert active_meter() is None

    def test_activate_and_restore(self):
        budget = ResourceBudget(max_node_visits=10)
        with activate_budget(budget) as meter:
            assert active_meter() is meter
            assert meter.budget is budget
        assert active_meter() is None

    def test_none_and_unbounded_deactivate(self):
        with activate_budget(ResourceBudget(max_monomials=5)):
            with activate_budget(None):
                assert active_meter() is None
            with activate_budget(ResourceBudget()):
                assert active_meter() is None
            assert active_meter() is not None

    def test_nested_activations_shadow(self):
        outer = ResourceBudget(max_node_visits=1)
        inner = ResourceBudget(max_node_visits=99)
        with activate_budget(outer):
            with activate_budget(inner) as meter:
                assert meter.budget is inner
            assert active_meter().budget is outer

    def test_restores_on_raise(self):
        with pytest.raises(RuntimeError):
            with activate_budget(ResourceBudget(max_monomials=5)):
                raise RuntimeError("boom")
        assert active_meter() is None


class TestPipelineEnforcement:
    def test_extraction_honours_ambient_visit_budget(self, system):
        with activate_budget(ResourceBudget(max_node_visits=2)):
            with pytest.raises(BudgetExceededError) as excinfo:
                extract_polynomial(system.graph, KEY)
        assert excinfo.value.resource == "node_visits"

    def test_executor_budget_yields_sound_partial_outcome(self):
        # A blown extraction budget carries the last consistent partial
        # polynomial; probability specs degrade to its (lower-bound)
        # probability with an explicit marker instead of a bare error.
        p3 = P3.from_source(ACQUAINTANCE, config=P3Config(
            resilience=ResilienceConfig(
                budget=ResourceBudget(max_node_visits=2),
                fallback=False, breakers=False)))
        p3.evaluate()
        reference = P3.from_source(ACQUAINTANCE)
        reference.evaluate()
        exact = reference.probability_of(KEY)
        with QueryExecutor(p3) as executor:
            batch = executor.run([KEY])
        outcome = batch[0]
        assert outcome.error is None
        assert outcome.partial is True
        assert 0.0 <= outcome.value <= exact
        assert outcome.to_dict()["partial"] is True

    def test_deadlined_budget_blowup_still_degrades(self):
        # A deadlined spec runs on a deadline runner; the blown budget
        # crosses back unchanged and still degrades to a partial answer.
        p3 = P3.from_source(ACQUAINTANCE, config=P3Config(
            query_timeout=30.0,
            resilience=ResilienceConfig(
                budget=ResourceBudget(max_node_visits=2),
                fallback=False, breakers=False)))
        p3.evaluate()
        with QueryExecutor(p3) as executor:
            outcome = executor.run([KEY])[0]
            assert executor.deadline_runner_stats()["spawned"] >= 1
        assert outcome.error is None
        assert outcome.partial is True

    def test_executor_budget_without_partial_is_typed_error(self):
        # Non-probability specs cannot degrade to a partial answer: the
        # blown budget stays a typed error outcome.
        p3 = P3.from_source(ACQUAINTANCE, config=P3Config(
            resilience=ResilienceConfig(
                budget=ResourceBudget(max_node_visits=2),
                fallback=False, breakers=False)))
        p3.evaluate()
        with QueryExecutor(p3) as executor:
            batch = executor.run([
                {"kind": "explain", "key": KEY}])
        outcome = batch[0]
        assert outcome.error is not None
        assert isinstance(outcome.exception, BudgetExceededError)
        assert not outcome.partial

    def test_generous_budget_changes_nothing(self, system):
        reference = extract_polynomial(system.graph, KEY)
        with activate_budget(ResourceBudget(max_node_visits=10**6,
                                            max_monomials=10**6)):
            assert extract_polynomial(system.graph, KEY) == reference
