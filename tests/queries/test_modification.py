"""Unit tests for the Modification Query."""

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.inference.exact import exact_probability
from repro.provenance.polynomial import rule_literal, tuple_literal
from repro.queries.modification import (
    ModificationError,
    greedy_strategy,
    modification_query,
    random_strategy,
)


class TestSection44:
    """The paper's Section 4.4 example: raise know(Ben,Elena) to 0.5."""

    def test_single_step_on_r3(self, acquaintance):
        poly = acquaintance.polynomial_of("know", "Ben", "Elena")
        plan = greedy_strategy(poly, acquaintance.probabilities, 0.5)
        assert plan.reached
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.literal == rule_literal("r3")
        # Exact influence gives p* = 0.5/0.8192 ≈ 0.6104 (the paper's 0.56
        # came from its approximate influence value).
        assert step.new_probability == pytest.approx(0.5 / 0.8192, abs=1e-6)

    def test_plan_actually_achieves_target(self, acquaintance):
        poly = acquaintance.polynomial_of("know", "Ben", "Elena")
        plan = greedy_strategy(poly, acquaintance.probabilities, 0.5)
        updated = plan.updated_probabilities(acquaintance.probabilities)
        assert exact_probability(poly, updated) == pytest.approx(0.5)


class TestTable6:
    """Query 2C: the trust fragment's optimal strategy (Table 6)."""

    def test_greedy_plan_matches_paper(self, trust_fragment):
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        plan = greedy_strategy(
            poly, trust_fragment.probabilities, 0.7,
            modifiable=lambda lit: lit.is_tuple)
        assert plan.reached
        literals = [str(step.literal) for step in plan.steps]
        assert literals == ["trust(6,2)", "trust(2,6)", "trust(2,1)"]
        # Steps 1-2 saturate at 1.0; step 3 is fractional (paper: 0.93).
        assert plan.steps[0].new_probability == 1.0
        assert plan.steps[1].new_probability == 1.0
        assert plan.steps[2].new_probability == pytest.approx(0.93, abs=0.005)
        # Total change: paper reports 0.58.
        assert plan.total_cost == pytest.approx(0.58, abs=0.005)

    def test_greedy_beats_random(self, trust_fragment):
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        greedy = greedy_strategy(
            poly, trust_fragment.probabilities, 0.7,
            modifiable=lambda lit: lit.is_tuple)
        worse = 0
        for seed in range(8):
            rand = random_strategy(
                poly, trust_fragment.probabilities, 0.7,
                modifiable=lambda lit: lit.is_tuple, seed=seed)
            if not rand.reached or rand.total_cost >= greedy.total_cost - 1e-9:
                worse += 1
        # Greedy should beat (or tie) random in essentially every trial.
        assert worse >= 7


class TestPinnedPlans:
    """Plans on the paper's examples, pinned from the per-literal Shannon
    implementation the circuit gradient replaced: same literals, same
    values within 1e-12."""

    @staticmethod
    def _assert_plan(plan, initial, expected):
        assert plan.initial_probability == pytest.approx(initial, abs=1e-12)
        assert [str(step.literal) for step in plan.steps] == [
            literal for literal, _, _ in expected]
        for step, (_, new, resulting) in zip(plan.steps, expected):
            assert step.new_probability == pytest.approx(new, abs=1e-12)
            assert step.resulting_probability == pytest.approx(
                resulting, abs=1e-12)

    def test_section44(self, acquaintance):
        poly = acquaintance.polynomial_of("know", "Ben", "Elena")
        plan = greedy_strategy(poly, acquaintance.probabilities, 0.5)
        self._assert_plan(plan, 0.16384, [("r3", 0.6103515625, 0.5)])

    def test_table6_greedy(self, trust_fragment):
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        plan = greedy_strategy(poly, trust_fragment.probabilities, 0.7,
                               modifiable=lambda lit: lit.is_tuple)
        self._assert_plan(plan, 0.354942, [
            ("trust(6,2)", 1.0, 0.50706),
            ("trust(2,6)", 1.0, 0.67608),
            ("trust(2,1)", 0.9318423855165068, 0.7)])

    def test_table7_random(self, trust_fragment):
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        plan = random_strategy(poly, trust_fragment.probabilities, 0.7,
                               modifiable=lambda lit: lit.is_tuple, seed=7)
        self._assert_plan(plan, 0.354942, [
            ("trust(13,2)", 1.0, 0.36477),
            ("trust(1,2)", 1.0, 0.378),
            ("trust(6,2)", 1.0, 0.54),
            ("trust(2,6)", 0.9722222222222221, 0.7)])

    def test_symmetric_literals_tie_by_name(self):
        # Every literal of a·b·c·d·e·f has the same influence; the
        # gradient pass's last-bit noise must not pick among them.
        poly = make_polynomial(("a", "b", "c", "d", "e", "f"))
        probs = {literal: 0.8 for literal in poly.literals()}
        plan = greedy_strategy(poly, probs, 0.5)
        assert [str(step.literal) for step in plan.steps] == [
            "a", "b", "c"]


class TestCircuitSlopes:
    """The no-evaluator path: one compile, one gradient pass per step."""

    def test_one_compile_and_one_pass_per_step(self, trust_fragment,
                                               monkeypatch):
        from repro.inference.circuit import Circuit
        compiles = []
        passes = []
        compile_ = Circuit.compile
        gradient = Circuit.gradient
        monkeypatch.setattr(
            Circuit, "compile",
            lambda polynomial: compiles.append(1) or compile_(polynomial))
        monkeypatch.setattr(
            Circuit, "gradient",
            lambda self, *a, **k: passes.append(1) or gradient(self, *a, **k))
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        plan = greedy_strategy(poly, trust_fragment.probabilities, 0.7,
                               modifiable=lambda lit: lit.is_tuple)
        assert len(compiles) == 1
        assert len(passes) == 1 + len(plan.steps)

    def test_budget_exceeded_is_typed(self, trust_fragment):
        from repro.core.errors import BudgetExceededError
        from repro.resilience.budgets import ResourceBudget, activate_budget
        poly = trust_fragment.polynomial_of("mutualTrustPath", 1, 6)
        with activate_budget(ResourceBudget(max_compiled_bytes=1024)):
            with pytest.raises(BudgetExceededError) as caught:
                greedy_strategy(poly, trust_fragment.probabilities, 0.7)
        assert caught.value.resource == "compiled_bytes"


class TestGreedyBehaviour:
    def test_decrease_target(self):
        poly = make_polynomial(("a",), ("b",))
        probs = {lit: 0.8 for lit in poly.literals()}
        initial = exact_probability(poly, probs)
        plan = greedy_strategy(poly, probs, 0.4)
        assert plan.initial_probability == pytest.approx(initial)
        assert plan.reached
        assert plan.final_probability == pytest.approx(0.4)
        assert all(step.new_probability < step.old_probability
                   for step in plan.steps)

    def test_unreachable_target_reports_not_reached(self):
        poly = make_polynomial(("a", "b"))
        a, b = sorted(poly.literals())
        # Even p(a)=p(b)=1 gives P=1·0.5 when only a is modifiable.
        plan = greedy_strategy(
            poly, {a: 0.5, b: 0.5}, 0.9,
            modifiable=lambda lit: lit == a)
        assert not plan.reached
        assert plan.final_probability == pytest.approx(0.5)

    def test_already_at_target_no_steps(self):
        poly = make_polynomial(("a",))
        a = tuple_literal("a")
        plan = greedy_strategy(poly, {a: 0.5}, 0.5)
        assert plan.reached
        assert plan.steps == ()
        assert plan.total_cost == 0.0

    def test_max_steps_respected(self):
        poly = make_polynomial(("a",), ("b",), ("c",))
        probs = {lit: 0.1 for lit in poly.literals()}
        plan = greedy_strategy(poly, probs, 0.99, max_steps=1)
        assert len(plan.steps) <= 1

    def test_invalid_target_rejected(self):
        poly = make_polynomial(("a",))
        with pytest.raises(ModificationError):
            greedy_strategy(poly, {tuple_literal("a"): 0.5}, 1.5)

    def test_modifiable_filter_respected(self):
        poly = make_polynomial(("r1", "a"))
        plan = greedy_strategy(
            poly,
            {rule_literal("r1"): 0.5, tuple_literal("a"): 0.5},
            0.7,
            modifiable=lambda lit: lit.is_tuple)
        assert all(step.literal.is_tuple for step in plan.steps)

    def test_cost_is_sum_of_changes(self):
        poly = make_polynomial(("a",), ("b",))
        probs = {lit: 0.1 for lit in poly.literals()}
        plan = greedy_strategy(poly, probs, 0.9)
        assert plan.total_cost == pytest.approx(
            sum(abs(s.new_probability - s.old_probability)
                for s in plan.steps))


class TestRandomStrategy:
    def test_reaches_reachable_target(self):
        poly = make_polynomial(("a",), ("b",))
        probs = {lit: 0.2 for lit in poly.literals()}
        plan = random_strategy(poly, probs, 0.6, seed=1)
        assert plan.reached
        updated = plan.updated_probabilities(probs)
        assert exact_probability(poly, updated) == pytest.approx(0.6)

    def test_seed_reproducible(self):
        poly = make_polynomial(("a",), ("b",), ("c",))
        probs = {lit: 0.2 for lit in poly.literals()}
        first = random_strategy(poly, probs, 0.7, seed=5)
        second = random_strategy(poly, probs, 0.7, seed=5)
        assert [str(s.literal) for s in first.steps] == [
            str(s.literal) for s in second.steps]

    def test_final_step_fractional_on_overshoot(self):
        poly = make_polynomial(("a",), ("b",))
        probs = {lit: 0.2 for lit in poly.literals()}
        plan = random_strategy(poly, probs, 0.5, seed=0)
        if plan.steps:
            last = plan.steps[-1]
            assert 0.0 <= last.new_probability <= 1.0

    def test_invalid_target_rejected(self):
        poly = make_polynomial(("a",))
        with pytest.raises(ModificationError):
            random_strategy(poly, {tuple_literal("a"): 0.5}, -0.1)


class TestDispatch:
    def test_strategy_selection(self):
        poly = make_polynomial(("a",))
        probs = {tuple_literal("a"): 0.3}
        greedy = modification_query(poly, probs, 0.6, strategy="greedy")
        rand = modification_query(poly, probs, 0.6, strategy="random", seed=1)
        assert greedy.strategy == "greedy"
        assert rand.strategy == "random"

    def test_unknown_strategy(self):
        poly = make_polynomial(("a",))
        with pytest.raises(ValueError):
            modification_query(poly, {tuple_literal("a"): 0.5}, 0.5,
                               strategy="nope")


class TestPlanObject:
    def test_to_text(self):
        poly = make_polynomial(("a",))
        plan = greedy_strategy(poly, {tuple_literal("a"): 0.3}, 0.6)
        text = plan.to_text()
        assert "Step 1" in text
        assert "total change" in text

    def test_updated_probabilities_does_not_mutate(self):
        poly = make_polynomial(("a",))
        probs = {tuple_literal("a"): 0.3}
        plan = greedy_strategy(poly, probs, 0.6)
        plan.updated_probabilities(probs)
        assert probs[tuple_literal("a")] == 0.3


class TestPropertyStyle:
    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_reaches_or_saturates(self, seed):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("d",))
        probs = random_probabilities(poly, seed=seed)
        current = exact_probability(poly, probs)
        target = min(0.95, current + 0.2)
        plan = greedy_strategy(poly, probs, target)
        updated = plan.updated_probabilities(probs)
        achieved = exact_probability(poly, updated)
        if plan.reached:
            assert achieved == pytest.approx(target, abs=1e-6)
        else:
            # Not reached means every modifiable literal is saturated.
            assert all(updated[lit] == 1.0 or probs[lit] == updated[lit]
                       for lit in poly.literals())
