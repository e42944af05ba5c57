"""Behavioral tests for the bitset sampling kernel.

Covers the three properties the vectorization must not break:
statistical agreement with the pure-Python sequential baseline, estimate
determinism however the pool schedules the shards, and resource-budget
enforcement inside the vectorized path.
"""

import time

import numpy as np
import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.core.errors import BudgetExceededError
from repro.inference.exact import exact_probability
from repro.inference.kernel import (
    DEFAULT_CHUNK,
    SHARD_SIZE,
    CompiledPolynomial,
    _kl_shard,
    _mc_shard,
    kernel_karp_luby,
    kernel_probability,
)
from repro.inference.montecarlo import sequential_probability
from repro.inference.registry import get_backend
from repro.inference.request import InferenceRequest
from repro.resilience.budgets import ResourceBudget, activate_budget


@pytest.fixture
def case():
    poly = make_polynomial(("a", "b"), ("b", "c"), ("d",))
    return poly, random_probabilities(poly, seed=9)


class TestStatisticalEquivalence:
    def test_kernel_matches_sequential_baseline(self, case):
        poly, probs = case
        truth = exact_probability(poly, probs)
        vectorized = kernel_probability(poly, probs, samples=40000, seed=1)
        baseline = sequential_probability(poly, probs, samples=8000, seed=1)
        # Both estimators target the same exact value; each must sit
        # within its own (generous) sampling band.
        assert vectorized.value == pytest.approx(truth, abs=0.015)
        assert baseline.value == pytest.approx(truth, abs=0.03)
        assert abs(vectorized.value - baseline.value) < 0.04

    def test_karp_luby_matches_exact(self, case):
        poly, probs = case
        truth = exact_probability(poly, probs)
        estimate = kernel_karp_luby(poly, probs, samples=40000, seed=1)
        assert estimate.value == pytest.approx(truth, abs=0.015)


class TestWorkerDeterminism:
    """(samples, seed) fixes the estimate: the shard layout depends only
    on the sample budget, and the shared pool running the shards
    concurrently gives the same answer as running them one after
    another on the calling thread."""

    SAMPLES = 3 * SHARD_SIZE + 500  # forces the sharded path, ragged tail

    def _serial_hits(self, shard):
        sizes = [SHARD_SIZE] * 3 + [500]
        streams = np.random.SeedSequence(7).spawn(len(sizes))
        return sum(
            shard(size, np.random.default_rng(stream), index == 0)[0]
            for index, (size, stream) in enumerate(zip(sizes, streams)))

    def test_mc_identical_across_worker_counts(self, case):
        poly, probs = case
        compiled = CompiledPolynomial(poly)
        vector = compiled.probability_vector(probs)
        pooled = [kernel_probability(poly, probs, samples=self.SAMPLES,
                                     seed=7) for _ in range(3)]
        serial = self._serial_hits(
            lambda size, rng, first: _mc_shard(
                compiled, vector, size, rng, None, DEFAULT_CHUNK, first))
        assert {estimate.hits for estimate in pooled} == {serial}
        assert len({estimate.value for estimate in pooled}) == 1

    def test_karp_luby_identical_across_worker_counts(self, case):
        poly, probs = case
        compiled = CompiledPolynomial(poly)
        vector = compiled.probability_vector(probs)
        weights = compiled.monomial_weights(probs)
        pooled = [kernel_karp_luby(poly, probs, samples=self.SAMPLES,
                                   seed=7) for _ in range(3)]
        serial = self._serial_hits(
            lambda size, rng, first: _kl_shard(
                compiled, vector, weights, float(weights.sum()), size, rng,
                None, DEFAULT_CHUNK, first))
        assert {estimate.hits for estimate in pooled} == {serial}
        assert len({estimate.value for estimate in pooled}) == 1

    def test_seeded_runs_reproduce(self, case):
        poly, probs = case
        first = kernel_probability(poly, probs, samples=4000, seed=5)
        second = kernel_probability(poly, probs, samples=4000, seed=5)
        assert first.value == second.value


class TestBudgetEnforcement:
    def test_impossible_budget_trips_before_allocation(self, case):
        poly, probs = case
        with activate_budget(ResourceBudget(max_compiled_bytes=4)):
            with pytest.raises(BudgetExceededError):
                kernel_probability(poly, probs, samples=100, seed=0)

    def test_budget_flows_through_backend_request(self, case):
        poly, probs = case
        request = InferenceRequest(
            samples=100, seed=0,
            budget=ResourceBudget(max_compiled_bytes=4))
        with pytest.raises(BudgetExceededError):
            get_backend("mc").run(poly, probs, request)

    def test_chunk_capping_budget_preserves_the_estimate(self, case):
        # A tight-but-feasible cap only shrinks the chunk size; the draw
        # is the same Generator stream, so the estimate is bit-identical.
        poly, probs = case
        unbudgeted = kernel_probability(poly, probs, samples=2000, seed=3)
        with activate_budget(ResourceBudget(max_compiled_bytes=2048)):
            capped = kernel_probability(poly, probs, samples=2000, seed=3)
        assert capped.value == unbudgeted.value


class TestDeadline:
    def test_expired_deadline_truncates_but_never_returns_empty(self, case):
        poly, probs = case
        requested = 4 * SHARD_SIZE
        estimate = kernel_probability(
            poly, probs, samples=requested, seed=1,
            deadline=time.monotonic() - 1.0)
        # The first shard always draws one chunk so the estimate is
        # well-defined; everything after the deadline is skipped.
        assert 0 < estimate.samples < requested
        assert 0.0 <= estimate.value <= 1.0

    def test_far_deadline_draws_everything(self, case):
        poly, probs = case
        estimate = kernel_probability(
            poly, probs, samples=2000, seed=1,
            deadline=time.monotonic() + 60.0)
        assert estimate.samples == 2000


class TestKarpLubyBudgetContract:
    """Karp–Luby chunk layout is a pure function of the sample budget:
    a memory budget may veto a run, but never reshape (and so reseed)
    it.  See ``_kl_chunk_rows``."""

    def test_estimate_is_budget_independent(self, case):
        poly, probs = case
        free = kernel_karp_luby(poly, probs, samples=2000, seed=3)
        with activate_budget(ResourceBudget(max_compiled_bytes=1 << 20)):
            budgeted = kernel_karp_luby(poly, probs, samples=2000, seed=3)
        assert budgeted.value == free.value
        assert budgeted.samples == free.samples

    def test_infeasible_chunk_raises_instead_of_shrinking(self, case):
        # Big enough for compilation, too small for one 2000-row chunk:
        # the contract demands a typed refusal, not a silently different
        # sample stream.
        poly, probs = case
        with activate_budget(ResourceBudget(max_compiled_bytes=4096)):
            with pytest.raises(BudgetExceededError):
                kernel_karp_luby(poly, probs, samples=2000, seed=3)
