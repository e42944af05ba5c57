"""Tests for the unified InferenceRequest.

The request object is the one typed parameter set all seven backends
accept, and ``backend.run`` takes nothing else.
"""

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.inference.registry import (
    BackendReading,
    get_backend,
    override_backend,
)
from repro.inference.request import DEFAULT_SAMPLES, InferenceRequest


class TestInferenceRequest:
    def test_defaults(self):
        request = InferenceRequest()
        assert request.samples == DEFAULT_SAMPLES
        assert request.seed is None
        assert request.deadline is None
        assert request.budget is None

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceRequest(samples=0)
        # The request has no worker or depth field.
        with pytest.raises(TypeError):
            InferenceRequest(workers=2)
        with pytest.raises(TypeError):
            InferenceRequest(depth=3)

    def test_immutable(self):
        request = InferenceRequest()
        with pytest.raises(AttributeError):
            request.samples = 5

    def test_replace(self):
        base = InferenceRequest(samples=100, seed=3)
        derived = base.replace(samples=200)
        assert derived.samples == 200
        assert derived.seed == 3
        assert base.samples == 100  # the original is untouched

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            InferenceRequest().replace(smaples=5)

    def test_coerce(self):
        request = InferenceRequest(samples=7)
        assert InferenceRequest.coerce(request) is request
        assert InferenceRequest.coerce(None) == InferenceRequest()
        assert InferenceRequest.coerce({"samples": 7}) == \
            InferenceRequest(samples=7)
        with pytest.raises(TypeError):
            InferenceRequest.coerce(12.5)

    def test_equality_and_hash(self):
        assert InferenceRequest(samples=5, seed=1) == \
            InferenceRequest(samples=5, seed=1)
        assert InferenceRequest(samples=5) != InferenceRequest(samples=6)
        assert hash(InferenceRequest(samples=5, seed=1)) == \
            hash(InferenceRequest(samples=5, seed=1))

    def test_to_dict_omits_unset_optionals(self):
        assert InferenceRequest(samples=5).to_dict() == {
            "samples": 5, "seed": None}
        document = InferenceRequest(samples=5, deadline=1.5).to_dict()
        assert document["deadline"] == 1.5


class TestDeprecationShims:
    """``backend.run`` takes a request and backend functions follow the
    request convention; both paths stay warning-free."""

    def setup_method(self):
        self.poly = make_polynomial(("a", "b"), ("c",))
        self.probs = random_probabilities(self.poly, seed=0)

    def test_run_with_request_is_warning_free(self):
        backend = get_backend("mc")
        reading = backend.run(self.poly, self.probs,
                              InferenceRequest(samples=500, seed=1))
        assert 0.0 <= reading.value <= 1.0

    def test_new_style_override_is_warning_free(self):
        import warnings

        def new_style(polynomial, probabilities, request):
            return BackendReading("mc", 0.5, stderr=0.01, exact=False)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with override_backend("mc", new_style) as backend:
                reading = backend.run(self.poly, self.probs,
                                      InferenceRequest(samples=10))
        assert reading.value == 0.5

    def test_legacy_keywords_are_rejected(self):
        backend = get_backend("mc")
        with pytest.raises(TypeError):
            backend.run(self.poly, self.probs, samples=500, seed=1)
