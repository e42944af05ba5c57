"""The executor front door must hand backends a *complete*
:class:`InferenceRequest`: sample budget, mixed seed, worker count, and
the per-query deadline.  Historically only samples/seed were plumbed, so
the parallel kernel always ran single-shard no matter how many workers
were configured — these tests pin the fix.
"""

import time

import pytest

from repro import P3, P3Config
from repro.data import ACQUAINTANCE
from repro.exec import QueryExecutor, QuerySpec
from repro.inference.exact import exact_probability
from repro.inference.registry import BackendReading, override_backend

KEY = 'know("Ben","Elena")'
KEY_PROBABILITY = 0.163840


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
    def test_configured_inference_workers_reach_the_backend(self):
        seen = []
        p3 = _system(inference_workers=6)
        with override_backend("parallel", _spy_backend("parallel", seen)):
            with QueryExecutor(p3) as executor:
                value = executor.probability(KEY, method="parallel")
        assert value == pytest.approx(KEY_PROBABILITY)
        assert seen[0].workers == 6

    def test_workers_default_to_executor_width(self):
        """Unset ``inference_workers`` resolves to the constant 4."""
        seen = []
        p3 = _system()
        with override_backend("parallel", _spy_backend("parallel", seen)):
            with QueryExecutor(p3) as executor:
                executor.probability(KEY, method="parallel")
        assert seen[0].workers == 4

    def test_batch_path_carries_workers_too(self):
        seen = []
        p3 = _system(inference_workers=5)
        with override_backend("parallel", _spy_backend("parallel", seen)):
            with QueryExecutor(p3) as executor:
                batch = executor.run([QuerySpec.probability(
                    KEY, method="parallel")])
        assert batch.ok
        assert seen[0].workers == 5

    def test_parallel_kernel_actually_shards(self):
        """End-to-end: with workers > 1 the kernel splits the sample
        budget across shard streams, which changes the RNG layout
        relative to a single-worker run of the same seed."""
        from repro.exec.executor import _mix_seed
        from repro.inference.kernel import SHARD_SIZE, kernel_probability

        p3 = _system(inference_workers=4, seed=7)
        poly = p3.polynomial_of(KEY)
        samples = 4 * SHARD_SIZE
        wide = kernel_probability(poly, p3.probabilities,
                                  samples=samples,
                                  seed=_mix_seed(7, KEY), workers=4)
        assert wide.samples == samples
        with QueryExecutor(p3) as executor:
            via_executor = executor.probability(
                KEY, method="parallel", samples=samples, seed=7)
        # The executor's answer must be the wide (multi-worker) kernel's
        # answer, bit for bit — proof the worker count arrived.
        assert via_executor == wide.value

    def test_config_validates_inference_workers(self):
        assert P3Config(inference_workers=2).inference_workers == 2
        assert P3Config().inference_workers is None
        with pytest.raises(ValueError):
            P3Config(inference_workers=0)


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
