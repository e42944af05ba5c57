"""End-to-end integration tests: the paper's case studies in full.

Each test runs an entire pipeline — parse, evaluate, capture provenance,
extract polynomials, answer queries — and asserts the paper's qualitative
claims (and, where DESIGN.md §4 establishes them, the exact numbers).
"""

import pytest

from repro import P3, P3Config
from repro.data import (
    ACQUAINTANCE,
    fixed_scene,
    generate_network,
    modified_scene,
    paper_fragment,
)
from repro.inference import exact_probability
from repro.queries import modification_query, random_strategy


class TestAcquaintanceEndToEnd:
    """Sections 2.1 and 4: the running example, all four query types."""

    @pytest.fixture(scope="class")
    def p3(self):
        p3 = P3.from_source(ACQUAINTANCE)
        p3.evaluate()
        return p3

    def test_derived_tuples(self, p3):
        know = set(map(str, p3.derived_atoms("know")))
        assert know == {
            'know("Ben","Steve")', 'know("Ben","Elena")',
            'know("Steve","Elena")', 'know("Elena","Steve")',
        }

    def test_all_backends_agree_on_query(self, p3):
        exact = p3.probability_of("know", "Ben", "Elena", method="exact")
        bdd = p3.probability_of("know", "Ben", "Elena", method="bdd")
        assert exact == pytest.approx(0.16384)
        assert bdd == pytest.approx(0.16384)
        for method in ("mc", "parallel", "karp-luby"):
            estimate = P3.from_source(
                ACQUAINTANCE,
                P3Config(probability_method=method, samples=60000, seed=4))
            estimate.evaluate()
            assert estimate.probability_of(
                "know", "Ben", "Elena") == pytest.approx(0.16384, abs=0.01)

    def test_four_query_types_compose(self, p3):
        explanation = p3.explain("know", "Ben", "Elena")
        sufficient = p3.sufficient_provenance(
            "know", "Ben", "Elena", epsilon=0.05, method="naive")
        influence = p3.influence("know", "Ben", "Elena")
        plan = p3.modify("know", "Ben", "Elena", target=0.5)
        assert explanation.derivation_count == 2
        assert len(sufficient.sufficient) == 1
        assert str(influence.most_influential.literal) == "r3"
        assert plan.reached and len(plan.steps) == 1

    def test_modification_plan_verifies_under_rerun(self, p3):
        plan = p3.modify("know", "Ben", "Elena", target=0.5)
        # Re-run the PROGRAM with the modified rule probability and check
        # the derived tuple's probability actually becomes 0.5.
        new_r3 = plan.steps[0].new_probability
        source = ACQUAINTANCE.replace(
            "r3 0.2:", "r3 %.6f:" % new_r3)
        rerun = P3.from_source(source)
        rerun.evaluate()
        assert rerun.probability_of(
            "know", "Ben", "Elena") == pytest.approx(0.5, abs=1e-6)


class TestTrustCaseStudy:
    """Section 5.2: Queries 2A-2C on the Figure 8 fragment."""

    @pytest.fixture(scope="class")
    def p3(self):
        p3 = P3(paper_fragment().to_program())
        p3.evaluate()
        return p3

    def test_query_2a_structure(self, p3):
        explanation = p3.explain("mutualTrustPath", 1, 6)
        text = explanation.to_text()
        # Figure 8: mutual trust via both directions.
        assert "trustPath(1,6)" in text
        assert "trustPath(6,1)" in text

    def test_trustpath_derivation_counts(self, p3):
        # Paper: trustPath(6,1) has a single derivation (via Person 2);
        # trustPath(1,6) has two (1->2->6 and 1->13->2->6).
        assert len(p3.polynomial_of("trustPath", 6, 1)) == 1
        assert len(p3.polynomial_of("trustPath", 1, 6)) == 2

    def test_query_2b_values(self, p3):
        report = p3.influence("mutualTrustPath", 1, 6, kind="tuple")
        scores = {str(s.literal): s.influence for s in report}
        assert scores["trust(6,2)"] == pytest.approx(0.51, abs=0.01)
        assert scores["trust(2,6)"] == pytest.approx(0.48, abs=0.01)

    def test_query_2c_optimal_strategy(self, p3):
        plan = p3.modify("mutualTrustPath", 1, 6, target=0.7,
                         only_tuples=True)
        assert [str(s.literal) for s in plan.steps] == [
            "trust(6,2)", "trust(2,6)", "trust(2,1)"]
        assert plan.total_cost == pytest.approx(0.58, abs=0.005)

    def test_query_2c_random_baseline_costs_more(self, p3):
        poly = p3.polynomial_of("mutualTrustPath", 1, 6)
        greedy_cost = p3.modify("mutualTrustPath", 1, 6, target=0.7,
                                only_tuples=True).total_cost
        costs = []
        for seed in range(6):
            plan = random_strategy(
                poly, p3.probabilities, 0.7,
                modifiable=lambda lit: lit.is_tuple, seed=seed)
            if plan.reached:
                costs.append(plan.total_cost)
        assert costs, "random baseline never reached the target"
        average = sum(costs) / len(costs)
        assert average > greedy_cost


class TestVQACaseStudy:
    """Section 5.1: the full debugging narrative (Queries 1A-1C)."""

    def test_debug_and_fix_cycle(self):
        config = P3Config(hop_limit=8)
        buggy = P3(modified_scene().to_program(), config)
        buggy.evaluate()

        def winner(p3):
            return max(
                ((a.as_values()[1], p3.probability_of(str(a)))
                 for a in p3.derived_atoms("ans")),
                key=lambda pair: pair[1])[0]

        assert winner(buggy) == "barn"  # the bug

        # Locate the culprit via unique influence (Query 1C).
        barn_lits = buggy.polynomial_of("ans", "ID1", "barn").literals()
        report = buggy.influence("ans", "ID1", "church", relation="sim")
        unique = [s for s in report if s.literal not in barn_lits]
        suspect = unique[0].literal
        assert str(suspect) == 'sim("church","cross")'

        # Compute the fix via the Modification Query.
        target = buggy.probability_of("ans", "ID1", "barn")
        plan = modification_query(
            buggy.polynomial_of("ans", "ID1", "church"), buggy.probabilities,
            target, modifiable=lambda lit: lit == suspect)
        assert plan.reached

        # The repaired scene answers church.
        repaired = P3(fixed_scene().to_program(), config)
        repaired.evaluate()
        assert winner(repaired) == "church"


class TestSyntheticNetworkAtScale:
    """The Section 6 pipeline on a generated network sample."""

    def test_sampled_trust_pipeline(self):
        network = generate_network(nodes=400, edges=1600, seed=11)
        sample = network.sample_nodes_edges(40, 60, seed=3)
        p3 = P3(sample.to_program(), P3Config(hop_limit=4))
        p3.evaluate()
        mutual = list(map(str, p3.derived_atoms("mutualTrustPath")))
        assert mutual, "sample should contain mutual trust paths"
        key = mutual[0]
        poly = p3.polynomial_of(key)
        probability = exact_probability(poly, p3.probabilities)
        assert 0.0 < probability <= 1.0
        sufficient = p3.sufficient_provenance(key, epsilon=0.05,
                                              method="naive")
        assert sufficient.error <= 0.05 + 1e-12
        report = p3.influence(key, kind="tuple")
        assert report.most_influential is not None
