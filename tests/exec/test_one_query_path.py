"""One query path: every P3 query method is a spec the executor answers.

``probability_of``, ``conditional_probability_of``, ``explain``,
``sufficient_provenance``, ``influence`` and ``modify`` each submit one
:class:`QuerySpec`.  These tests pin what that buys: the facade, a batch
and the CLI give byte-identical envelopes (seeded kinds included), and
the executor's deadlines and resource budgets reach the facade too.
"""

import contextlib
import json
import time

import pytest

from repro import P3, P3Config
from repro.cli import main
from repro.core.errors import BudgetExceededError, QueryTimeoutError
from repro.data import ACQUAINTANCE
from repro.exec import QuerySpec
from repro.exec.executor import _mix_seed
from repro.inference.registry import get_backend, override_backend
from repro.io.serialize import dump_query_result
from repro.resilience import ResilienceConfig
from repro.resilience.budgets import ResourceBudget

KEY = 'know("Ben","Elena")'
EVIDENCE = {'like("Steve","Veggies")': True}

#: (facade call, the spec it stands for) per query kind, seeded kinds and
#: filters included.
CASES = {
    "probability": (
        lambda p3: p3.probability_of(KEY),
        QuerySpec.probability(KEY)),
    "probability-mc": (
        lambda p3: p3.probability_of(KEY, method="mc"),
        QuerySpec.probability(KEY, method="mc")),
    "conditional": (
        lambda p3: p3.conditional_probability_of(KEY, evidence=EVIDENCE),
        QuerySpec.conditional(KEY, evidence=EVIDENCE)),
    "explain": (
        lambda p3: p3.explain(KEY, hop_limit=4),
        QuerySpec.explain(KEY, hop_limit=4)),
    "derive": (
        lambda p3: p3.sufficient_provenance(KEY, epsilon=0.05),
        QuerySpec.derive(KEY, 0.05)),
    "derive-naive-mc": (
        lambda p3: p3.sufficient_provenance(
            KEY, epsilon=0.05, method="naive-mc"),
        QuerySpec.derive(KEY, 0.05, method="naive-mc")),
    "influence": (
        lambda p3: p3.influence(KEY, kind="tuple"),
        QuerySpec.influence(KEY, kind_filter="tuple")),
    "influence-parallel": (
        lambda p3: p3.influence(KEY, method="parallel", relation="like"),
        QuerySpec.influence(KEY, method="parallel", relation="like")),
    "modify": (
        lambda p3: p3.modify(KEY, target=0.5, only_rules=True),
        QuerySpec.modify(KEY, 0.5, only_rules=True)),
    "modify-random": (
        lambda p3: p3.modify(KEY, target=0.95, strategy="random"),
        QuerySpec.modify(KEY, 0.95, strategy="random")),
}


def system(**config):
    p3 = P3.from_source(ACQUAINTANCE, P3Config(**config))
    p3.evaluate()
    return p3


def envelope(value):
    """The JSON a client sees: the QueryResult envelope, or the bare
    number for the probability kinds."""
    if isinstance(value, float):
        return json.dumps(value)
    return dump_query_result(value)


class TestFacadeEqualsExecutor:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical_envelopes(self, name):
        facade_call, spec = CASES[name]
        # Two fresh systems, so neither answer is the other's cache hit.
        facade = facade_call(system(seed=7, samples=2000))
        [outcome] = system(seed=7, samples=2000).executor().run([spec])
        assert outcome.ok, outcome.error
        assert envelope(facade) == envelope(outcome.value)

    def test_cli_random_modify_equals_executor(self, tmp_path, capsys):
        path = tmp_path / "acquaintance.pl"
        path.write_text(ACQUAINTANCE)
        code = main(["modify", str(path), KEY, "--target", "0.95",
                     "--strategy", "random", "--seed", "7", "--json"])
        assert code in (0, 1)  # 1 = target not reached; still a plan
        printed = capsys.readouterr().out
        [outcome] = system(seed=7).executor().run(
            [QuerySpec.modify(KEY, 0.95, strategy="random")])
        assert printed.strip() == dump_query_result(outcome.value)

    def test_facade_answers_are_result_cache_entries(self):
        p3 = system()
        for facade_call, _spec in CASES.values():
            facade_call(p3)
        stats = p3.executor().stats()
        assert sum(stats["queries"].values()) >= len(CASES)
        hits = p3.executor().result_cache.hits
        for facade_call, _spec in CASES.values():
            facade_call(p3)
        assert p3.executor().result_cache.hits >= hits + len(CASES)


class TestDerivationSampling:
    def test_derive_passes_resolved_samples_and_mixed_seed(
            self, monkeypatch, tmp_path):
        import repro.queries.derivation as derivation
        seen = []
        real = derivation.derivation_query

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(derivation, "derivation_query", spy)
        system(samples=1234, seed=5).sufficient_provenance(
            KEY, epsilon=0.1, method="naive-mc")
        path = tmp_path / "acquaintance.pl"
        path.write_text(ACQUAINTANCE)
        assert main(["derive", str(path), KEY, "--epsilon", "0.1",
                     "--algorithm", "naive-mc", "--samples", "1234",
                     "--seed", "5", "--json"]) == 0
        assert len(seen) == 2
        for call in seen:
            assert call["method"] == "naive-mc"
            assert call["samples"] == 1234
            assert call["seed"] == _mix_seed(5, KEY)


class TestGuardsReachTheFacade:
    @pytest.fixture()
    def budgeted(self):
        return system(resilience=ResilienceConfig(
            budget=ResourceBudget(max_node_visits=3)))

    def test_modify_under_blown_budget(self, budgeted):
        with pytest.raises(BudgetExceededError):
            budgeted.modify(KEY, target=0.5)

    def test_sufficient_provenance_under_blown_budget(self, budgeted):
        with pytest.raises(BudgetExceededError):
            budgeted.sufficient_provenance(KEY, epsilon=0.05)

    def test_probability_of_under_query_timeout(self):
        real = get_backend("exact")

        def slow(polynomial, probabilities, request):
            reading = real.run(polynomial, probabilities, request)
            time.sleep(0.3)
            return reading

        p3 = system(query_timeout=0.05)
        with contextlib.ExitStack() as stack:
            stack.enter_context(override_backend("exact", slow))
            started = time.perf_counter()
            with pytest.raises(QueryTimeoutError):
                p3.probability_of(KEY)
            assert time.perf_counter() - started < 0.25
