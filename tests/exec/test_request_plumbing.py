"""The executor front door must hand backends a *complete*
:class:`InferenceRequest`: sample budget, mixed seed, and the per-query
deadline, with seeded budgets larger than one shard reaching the sharded
kernel.
"""

import time

from repro import P3, P3Config
from repro.data import ACQUAINTANCE
from repro.exec import QueryExecutor, QuerySpec
from repro.inference.exact import exact_probability
from repro.inference.registry import BackendReading, override_backend

KEY = 'know("Ben","Elena")'


def _spy_backend(name, seen):
    def spy(polynomial, probabilities, request):
        seen.append(request)
        return BackendReading(
            name, exact_probability(polynomial, probabilities))
    return spy


def _system(**config_overrides):
    p3 = P3.from_source(ACQUAINTANCE, config=P3Config(**config_overrides))
    p3.evaluate()
    return p3


class TestWorkersPlumbing:
    """The executor plumbs no worker count: the shard layout is a
    function of the sample budget alone."""

    def test_parallel_kernel_actually_shards(self):
        """End-to-end: a seeded budget larger than one shard runs the
        kernel's sharded layout (one ``SeedSequence`` child stream per
        shard), and the executor's answer is that layout's answer, bit
        for bit."""
        import numpy as np

        from repro.exec.executor import _mix_seed
        from repro.inference.kernel import (
            SHARD_SIZE,
            CompiledPolynomial,
            _mc_shard,
            kernel_probability,
        )

        p3 = _system(seed=7)
        poly = p3.polynomial_of(KEY)
        samples = 4 * SHARD_SIZE
        seed = _mix_seed(7, KEY)
        sharded = kernel_probability(poly, p3.probabilities,
                                     samples=samples, seed=seed)
        assert sharded.samples == samples
        # The shards, drawn one after another on this thread, sum to the
        # pooled estimate; a single stream of the same seed does not.
        compiled = CompiledPolynomial(poly)
        vector = compiled.probability_vector(p3.probabilities)
        streams = np.random.SeedSequence(seed).spawn(4)
        hits = sum(
            _mc_shard(compiled, vector, SHARD_SIZE,
                      np.random.default_rng(stream), None, SHARD_SIZE,
                      first=index == 0)[0]
            for index, stream in enumerate(streams))
        assert sharded.hits == hits
        single = kernel_probability(
            poly, p3.probabilities, samples=samples,
            rng=np.random.default_rng(seed))
        assert single.value != sharded.value
        with QueryExecutor(p3) as executor:
            via_executor = executor.probability(
                KEY, method="parallel", samples=samples, seed=7)
        assert via_executor == sharded.value


class TestDeadlinePlumbing:
    def test_deadlined_spec_hands_backend_the_deadline(self):
        seen = []
        p3 = _system()
        with override_backend("parallel", _spy_backend("parallel", seen)):
            with QueryExecutor(p3) as executor:
                batch = executor.run([QuerySpec.probability(
                    KEY, method="parallel", timeout=30.0)])
        assert batch.ok
        deadline = seen[0].deadline
        assert deadline is not None
        assert deadline > time.monotonic()
        assert deadline < time.monotonic() + 31.0

    def test_undeadlined_query_leaves_deadline_unset(self):
        seen = []
        p3 = _system()
        with override_backend("parallel", _spy_backend("parallel", seen)):
            with QueryExecutor(p3) as executor:
                executor.run([QuerySpec.probability(KEY, method="parallel")])
        assert seen[0].deadline is None
