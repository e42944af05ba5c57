"""Unit tests for the vectorized Monte-Carlo kernel: the compiled
polynomial, the ``mc``/``parallel`` estimator and the conditioned pair
behind the ``parallel`` influence method."""

import numpy as np
import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro.inference.exact import exact_probability
from repro.inference import kernel
from repro.inference.kernel import (
    CompiledPolynomial,
    kernel_probability,
    parallel_conditioned_pair,
)
from repro.provenance.polynomial import Monomial, Polynomial, tuple_literal

A = tuple_literal("a")
B = tuple_literal("b")


class TestCompiledPolynomial:
    def test_variable_count(self):
        poly = make_polynomial(("a", "b"), ("c",))
        compiled = CompiledPolynomial(poly)
        assert compiled.variable_count == 3

    def test_index_stable_and_sorted(self):
        poly = make_polynomial(("b", "a"))
        compiled = CompiledPolynomial(poly)
        assert compiled.literals == sorted(poly.literals())
        assert compiled.index_of(compiled.literals[0]) == 0

    def test_probability_vector_order(self):
        poly = make_polynomial(("a", "b"))
        compiled = CompiledPolynomial(poly)
        probs = {A: 0.25, B: 0.75}
        vector = compiled.probability_vector(probs)
        assert vector[compiled.index_of(A)] == 0.25
        assert vector[compiled.index_of(B)] == 0.75

    def test_evaluate_matrix_matches_python(self):
        poly = make_polynomial(("a", "b"), ("c",))
        compiled = CompiledPolynomial(poly)
        literals = compiled.literals
        rows = np.array([
            [True, True, False],
            [False, False, True],
            [True, False, False],
            [False, False, False],
        ])
        expected = [
            poly.evaluate(dict(zip(literals, row))) for row in rows
        ]
        assert list(compiled.evaluate_matrix(rows)) == expected

    def test_true_polynomial_rows_all_satisfied(self):
        compiled = CompiledPolynomial(Polynomial.one())
        matrix = np.zeros((4, 0), dtype=bool)
        assert compiled.evaluate_matrix(matrix).all()


class TestParallelProbability:
    def test_terminal_polynomials(self):
        assert kernel_probability(Polynomial.zero(), {}, 10).value == 0.0
        assert kernel_probability(Polynomial.one(), {}, 10).value == 1.0

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            kernel_probability(Polynomial.of([A]), {A: 0.5}, samples=-1)

    def test_seed_reproducible(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = random_probabilities(poly)
        first = kernel_probability(poly, probs, 1000, seed=42)
        second = kernel_probability(poly, probs, 1000, seed=42)
        assert first.value == second.value

    def test_converges_to_exact(self):
        poly = make_polynomial(("a", "b"), ("b", "c"), ("d",))
        probs = random_probabilities(poly, seed=9)
        truth = exact_probability(poly, probs)
        estimate = kernel_probability(poly, probs, 60000, seed=1)
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= truth <= high

    def test_compiled_reuse(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = random_probabilities(poly)
        compiled = CompiledPolynomial(poly)
        rng = np.random.default_rng(0)
        first = kernel_probability(
            poly, probs, 2000, rng=rng, compiled=compiled)
        second = kernel_probability(
            poly, probs, 2000, rng=rng, compiled=compiled)
        assert 0.0 <= first.value <= 1.0
        assert 0.0 <= second.value <= 1.0


class TestConditionedPair:
    def test_influence_estimate_matches_exact(self):
        poly = make_polynomial(("a", "b"), ("c",))
        probs = {lit: 0.5 for lit in poly.literals()}
        high, low = parallel_conditioned_pair(
            poly, probs, A, samples=80000, seed=5)
        exact_high = exact_probability(poly.restrict(A, True), probs)
        exact_low = exact_probability(poly.restrict(A, False), probs)
        assert high.value == pytest.approx(exact_high, abs=0.01)
        assert low.value == pytest.approx(exact_low, abs=0.01)

    def test_counterfactual_literal(self):
        poly = make_polynomial(("a",))
        high, low = parallel_conditioned_pair(
            poly, {A: 0.5}, A, samples=100, seed=5)
        assert high.value == 1.0
        assert low.value == 0.0


def _two_pass_pair(compiled, probabilities, literal, samples, rng):
    """Reference: the whole matrix evaluated twice, column forced 1 then 0."""
    matrix = compiled.sample_matrix(probabilities, samples, rng)
    column = compiled.index_of(literal)
    matrix[:, column] = True
    hits_true = int(compiled.evaluate_matrix(matrix).sum())
    matrix[:, column] = False
    hits_false = int(compiled.evaluate_matrix(matrix).sum())
    return hits_true, hits_false


class TestOnePassConditionedPair:
    """The one-pass satisfaction kernel is bit-identical to two passes."""

    @staticmethod
    def _wide_polynomial(seed, variables=90, monomials=40):
        import random
        rng = random.Random(seed)
        names = ["v%02d" % i for i in range(variables)]
        groups = [rng.sample(names, rng.randint(1, 4))
                  for _ in range(monomials)]
        groups.append(names[:3])  # the literals all appear somewhere
        groups.extend([name] + rng.sample(names, 2) for name in names)
        return make_polynomial(*groups)

    @pytest.mark.parametrize("chunk_bytes", [None, 4000])
    def test_bit_identical_to_two_pass(self, monkeypatch, chunk_bytes):
        if chunk_bytes is not None:
            # Force several chunks (and a ragged last one) per literal.
            monkeypatch.setattr(
                kernel, "CONDITIONED_CHUNK_BYTES", chunk_bytes)
        for seed in (0, 1):
            poly = self._wide_polynomial(seed)
            probs = random_probabilities(poly, seed=seed)
            compiled = CompiledPolynomial(poly)
            assert compiled.words > 1
            literals = sorted(poly.literals())
            probe = literals[::7] + [literals[63], literals[64],
                                     literals[-1]]
            reference_rng = np.random.default_rng(seed)
            one_pass_rng = np.random.default_rng(seed)
            for literal in probe:
                expected = _two_pass_pair(
                    compiled, probs, literal, 997, reference_rng)
                high, low = parallel_conditioned_pair(
                    poly, probs, literal, samples=997,
                    rng=one_pass_rng, compiled=compiled)
                assert (high.hits, low.hits) == expected
                assert high.samples == low.samples == 997

    def test_chunking_never_changes_counts(self, monkeypatch):
        poly = self._wide_polynomial(3)
        probs = random_probabilities(poly, seed=3)
        literal = sorted(poly.literals())[70]
        counts = []
        for chunk_bytes in (1, 1000, 1 << 21):
            monkeypatch.setattr(
                kernel, "CONDITIONED_CHUNK_BYTES", chunk_bytes)
            high, low = parallel_conditioned_pair(
                poly, probs, literal, samples=500, seed=9)
            counts.append((high.hits, low.hits))
        assert counts[0] == counts[1] == counts[2]


class TestBitsetPacking:
    """The packed-bitset representation: masks, multi-word polynomials,
    and the packed/unpacked evaluation agreement (replaces the retired
    float32-matmul membership tests)."""

    def test_word_count(self):
        assert CompiledPolynomial(make_polynomial(("a", "b"))).words == 1
        wide = Polynomial([
            Monomial([tuple_literal("v%03d" % i) for i in range(70)])])
        assert CompiledPolynomial(wide).words == 2

    def test_pack_rows_round_trip(self):
        poly = make_polynomial(("a", "b"), ("c",))
        compiled = CompiledPolynomial(poly)
        rng = np.random.default_rng(0)
        matrix = rng.random((16, compiled.variable_count)) < 0.5
        packed = compiled.pack_rows(matrix)
        for row in range(matrix.shape[0]):
            for column in range(matrix.shape[1]):
                word, bit = divmod(column, 64)
                stored = bool((int(packed[row, word]) >> bit) & 1)
                assert stored == bool(matrix[row, column])

    def test_multi_word_monomial_evaluates_correctly(self):
        wide = [tuple_literal("v%03d" % i) for i in range(70)]
        # One monomial spanning both uint64 words plus a disjoint narrow
        # one (a subset monomial would absorb the wide one away).
        poly = Polynomial([Monomial(wide), Monomial([A])])
        compiled = CompiledPolynomial(poly)
        assert compiled.variable_count == 71
        assert compiled.words == 2
        narrow_idx = compiled.index_of(A)
        high_idx = compiled.index_of(wide[-1])
        assert high_idx >= 64  # the wide monomial really crosses a word

        all_true = np.ones((1, 71), dtype=bool)
        assert compiled.evaluate_matrix(all_true).all()
        # Clearing a bit in the *second* word breaks only the wide
        # monomial; the narrow one still satisfies.
        missing_high = all_true.copy()
        missing_high[0, high_idx] = False
        assert compiled.evaluate_matrix(missing_high).all()
        # Clearing the narrow literal too kills both monomials.
        missing_both = missing_high.copy()
        missing_both[0, narrow_idx] = False
        assert not compiled.evaluate_matrix(missing_both).any()

    def test_packed_and_matrix_paths_agree(self):
        poly = make_polynomial(("a", "b", "c"), ("d",), ("b", "d"))
        compiled = CompiledPolynomial(poly)
        rng = np.random.default_rng(5)
        matrix = rng.random((256, compiled.variable_count)) < 0.5
        packed = compiled.pack_rows(matrix)
        assert (compiled.evaluate_packed(packed)
                == compiled.evaluate_matrix(matrix)).all()

    def test_satisfaction_matrix_matches_python(self):
        poly = make_polynomial(("a", "b", "c"), ("d",), ("b", "d"))
        compiled = CompiledPolynomial(poly)
        rng = np.random.default_rng(9)
        matrix = rng.random((64, compiled.variable_count)) < 0.5
        satisfaction = compiled.satisfaction_matrix(matrix)
        for column, monomial in enumerate(compiled.monomial_order):
            assert compiled.monomial_column(monomial) == column
            for row in range(matrix.shape[0]):
                assignment = dict(zip(compiled.literals, matrix[row]))
                assert satisfaction[row, column] \
                    == monomial.evaluate(assignment)

    def test_sampling_agrees_with_exact(self):
        poly = make_polynomial(("a", "b", "c"), ("d",))
        probs = random_probabilities(poly, seed=2)
        truth = exact_probability(poly, probs)
        compiled = CompiledPolynomial(poly)
        estimate = kernel_probability(
            poly, probs, samples=60000, seed=3, compiled=compiled)
        assert estimate.value == pytest.approx(truth, abs=0.02)
