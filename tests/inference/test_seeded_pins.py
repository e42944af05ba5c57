"""Seeded sampling answers, pinned bit for bit.

The ``mc`` and ``parallel`` backends are one runner under two names, and
every seeded budget larger than one shard runs its shards on the kernel's
shared pool.  Neither fact may move a seeded answer: these values were
recorded from the implementation that still had a separate ``parallel``
runner and ran unhinted shards one after another on the calling thread.
"""

import pytest

from tests.conftest import make_polynomial, random_probabilities

from repro import P3
from repro.data import ACQUAINTANCE
from repro.exec import QueryExecutor
from repro.inference.kernel import SHARD_SIZE, kernel_probability
from repro.inference.registry import get_backend
from repro.inference.request import InferenceRequest
from repro.queries.influence import influence_query

KEY = 'know("Ben","Elena")'

#: (backend, samples) -> (value, stderr) at seed 11.
BACKEND_PINS = {
    ("mc", 10000): (0.4212, 0.004937515164533675),
    ("mc", 4 * SHARD_SIZE): (0.4235382080078125, 0.001930152376179654),
    ("parallel", 10000): (0.4212, 0.004937515164533675),
    ("parallel", 4 * SHARD_SIZE): (0.4235382080078125,
                                   0.001930152376179654),
    ("karp-luby", 10000): (0.42037884722400004, 0.0021058345524626906),
    ("karp-luby", 4 * SHARD_SIZE): (0.4184893430456543,
                                    0.0008280587280599845),
}

#: influence(method="parallel", samples=20000, seed=3) on KEY.
INFLUENCE_PINS = [
    ("r3", 0.81895),
    ("r1", 0.1797),
    ('know("Ben","Steve")', 0.1606),
    ('live("Steve","DC")', 0.1449),
    ('live("Elena","DC")', 0.14055),
    ('like("Steve","Veggies")', 0.011300000000000004),
    ("r2", 0.009149999999999991),
    ('like("Elena","Veggies")', 0.005599999999999994),
]

#: Executor answers for KEY at 4 * SHARD_SIZE samples, seed 7.
EXECUTOR_PINS = {
    "mc": 0.1661376953125,
    "parallel": 0.1661376953125,
    "karp-luby": 0.16380273437500004,
}


@pytest.fixture(scope="module")
def case():
    poly = make_polynomial(("a", "b"), ("b", "c"), ("d",),
                           ("e", "f", "g"), ("a", "h"))
    return poly, random_probabilities(poly, seed=4)


@pytest.fixture(scope="module")
def acquaintance():
    p3 = P3.from_source(ACQUAINTANCE)
    p3.evaluate()
    return p3


@pytest.mark.parametrize("name,samples", sorted(BACKEND_PINS))
def test_backend_readings_unchanged(case, name, samples):
    poly, probs = case
    reading = get_backend(name).run(
        poly, probs, InferenceRequest(samples=samples, seed=11))
    assert (reading.value, reading.stderr) == BACKEND_PINS[name, samples]


def test_direct_kernel_call_unchanged(case):
    poly, probs = case
    estimate = kernel_probability(poly, probs, samples=4 * SHARD_SIZE,
                                  seed=11)
    assert (estimate.value, estimate.samples, estimate.hits) == (
        0.4235382080078125, 4 * SHARD_SIZE, 27757)


def test_parallel_influence_report_unchanged(acquaintance):
    report = influence_query(
        acquaintance.polynomial_of(KEY), acquaintance.probabilities,
        method="parallel", samples=20000, seed=3)
    assert [(str(score.literal), score.influence)
            for score in report.scores] == INFLUENCE_PINS


@pytest.mark.parametrize("method", sorted(EXECUTOR_PINS))
def test_executor_answers_unchanged(acquaintance, method):
    with QueryExecutor(acquaintance) as executor:
        value = executor.probability(KEY, method=method,
                                     samples=4 * SHARD_SIZE, seed=7)
    assert value == EXECUTOR_PINS[method]
