"""Unit tests for the probability front door."""

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.inference import METHODS, probability
from repro.inference.exact import exact_probability


POLY = make_polynomial(("a", "b"), ("b", "c"), ("d",))
PROBS = random_probabilities(POLY, seed=1)
TRUTH = exact_probability(POLY, PROBS)


class TestDispatch:
    def test_exact_methods_agree(self):
        assert probability(POLY, PROBS, method="exact") == pytest.approx(TRUTH)
        assert probability(POLY, PROBS, method="bdd") == pytest.approx(TRUTH)

    @pytest.mark.parametrize("method", ["mc", "parallel", "karp-luby"])
    def test_estimators_near_truth(self, method):
        value = probability(POLY, PROBS, method=method,
                            samples=40000, seed=5)
        assert value == pytest.approx(TRUTH, abs=0.02)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            probability(POLY, PROBS, method="magic")

    def test_methods_constant_lists_all(self):
        assert set(METHODS) == {"brute-force", "exact", "bdd",
                                "mc", "parallel", "karp-luby"}

    def test_brute_force_method_agrees(self):
        assert probability(POLY, PROBS, method="brute-force") == \
            pytest.approx(TRUTH, abs=1e-12)
