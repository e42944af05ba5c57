"""Unit tests for the inference backend registry."""

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.inference.exact import exact_probability
from repro.inference.registry import (
    BRUTE_FORCE_LITERAL_LIMIT,
    BackendReading,
    InferenceBackend,
    available_backends,
    backend_names,
    exact_backend_names,
    get_backend,
    is_deterministic,
    override_backend,
    register_backend,
    sampling_backend_names,
)
from repro.inference.request import InferenceRequest
from repro.provenance.polynomial import (
    Monomial,
    Polynomial,
    tuple_literal,
)

POLY = make_polynomial(("a", "b"), ("b", "c"), ("d",))
PROBS = random_probabilities(POLY, seed=1)
TRUTH = exact_probability(POLY, PROBS)


class TestRegistryLookup:
    def test_all_six_backends_registered(self):
        assert backend_names() == ("bdd", "brute-force", "exact",
                                   "karp-luby", "mc", "parallel")

    def test_exact_is_its_own_backend(self):
        # ``exact`` is the circuit, ``bdd`` an independent ROBDD: a
        # fallback from one to the other runs a different algorithm.
        exact, bdd = get_backend("exact"), get_backend("bdd")
        assert exact._fn is not bdd._fn
        assert exact.run(POLY, PROBS).backend == "exact"
        assert bdd.run(POLY, PROBS).backend == "bdd"

    def test_kind_partitions(self):
        assert exact_backend_names() == ("bdd", "brute-force", "exact")
        assert sampling_backend_names() == ("karp-luby", "mc", "parallel")
        assert set(exact_backend_names()) | set(sampling_backend_names()) \
            == set(backend_names())

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="magic"):
            get_backend("magic")

    def test_is_deterministic(self):
        assert is_deterministic("exact")
        assert is_deterministic("brute-force")
        assert not is_deterministic("mc")
        assert not is_deterministic("karp-luby")
        assert not is_deterministic("no-such-backend")

    def test_register_duplicate_raises(self):
        backend = get_backend("exact")
        with pytest.raises(ValueError):
            register_backend(backend)
        # replace=True is the explicit override path.
        register_backend(backend, replace=True)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            InferenceBackend("bogus", "quantum", lambda *a: None)


class TestApplicability:
    def test_brute_force_refuses_large_polynomials(self):
        wide = Polynomial.from_monomials([
            Monomial([tuple_literal("x%d" % i)])
            for i in range(BRUTE_FORCE_LITERAL_LIMIT + 1)
        ])
        assert not get_backend("brute-force").supports(wide)
        assert get_backend("exact").supports(wide)

    def test_available_backends_filters_by_support(self):
        diamond = make_polynomial(("a", "b"), ("b", "c"), ("c", "d"))
        wide = make_polynomial(*[("x%d" % i,) for i in range(25)])
        assert "brute-force" in [
            b.name for b in available_backends(diamond)]
        assert "brute-force" not in [
            b.name for b in available_backends(wide)]

    def test_available_backends_named_subset(self):
        selected = available_backends(POLY, names=["exact", "mc"])
        assert [b.name for b in selected] == ["exact", "mc"]


class TestReadings:
    def test_exact_backends_agree_with_truth(self):
        for name in ("brute-force", "exact", "bdd"):
            reading = get_backend(name).run(POLY, PROBS)
            assert reading.exact
            assert reading.stderr is None
            assert reading.value == pytest.approx(TRUTH, abs=1e-12)

    def test_sampling_backends_report_stderr(self):
        for name in sampling_backend_names():
            reading = get_backend(name).run(
                POLY, PROBS, InferenceRequest(samples=2000, seed=3))
            assert not reading.exact
            assert reading.stderr is not None and reading.stderr >= 0.0
            assert reading.value == pytest.approx(TRUTH, abs=0.1)

    def test_sampling_runs_reproducible_by_seed(self):
        backend = get_backend("mc")
        first = backend.run(POLY, PROBS,
                            InferenceRequest(samples=500, seed=11))
        second = backend.run(POLY, PROBS,
                             InferenceRequest(samples=500, seed=11))
        assert first.value == second.value

    def test_reading_value_clamped(self):
        assert BackendReading("x", 1.07).value_clamped == 1.0
        assert BackendReading("x", -0.2).value_clamped == 0.0
        assert BackendReading("x", 0.4).value_clamped == 0.4

    def test_reading_to_dict(self):
        document = BackendReading("mc", 0.5, stderr=0.01,
                                  exact=False).to_dict()
        assert document == {"backend": "mc", "value": 0.5,
                            "stderr": 0.01, "exact": False}


class TestOverride:
    def test_override_swaps_and_restores(self):
        def broken(polynomial, probabilities, request):
            return BackendReading("exact", 0.123)

        original = get_backend("exact")
        with override_backend("exact", broken) as replaced:
            assert replaced.deterministic
            assert get_backend("exact").run(POLY, PROBS).value == 0.123
        assert get_backend("exact") is original

    def test_override_restores_on_error(self):
        def exploding(polynomial, probabilities, request):
            raise RuntimeError("boom")

        original = get_backend("bdd")
        with pytest.raises(RuntimeError):
            with override_backend("bdd", exploding):
                get_backend("bdd").run(POLY, PROBS)
        assert get_backend("bdd") is original

    def test_override_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            with override_backend("magic", lambda *a: None):
                pass
