"""Unit tests for the differential oracle."""

import pytest

from repro.audit.generator import AuditCase, corpus_cases, generate_cases
from repro.audit.oracle import (
    _mix_seed,
    _sampling_floor,
    audit_case,
    audit_polynomial_case,
    audit_program_case,
    reference_probability,
)
from repro.inference.registry import (
    BackendReading,
    override_backend,
)
from repro.provenance.polynomial import (
    Monomial,
    Polynomial,
    tuple_literal,
)


def _case(groups, probabilities, name="t"):
    poly = Polynomial.from_monomials(
        Monomial(tuple_literal(k) for k in group) for group in groups)
    return AuditCase(name, poly,
                     {tuple_literal(k): v
                      for k, v in probabilities.items()})


class TestSeedMixing:
    def test_distinct_tags_distinct_seeds(self):
        seeds = {_mix_seed(0, "case:%s:%d" % (backend, repeat))
                 for backend in ("mc", "parallel", "karp-luby")
                 for repeat in range(50)}
        assert len(seeds) == 150

    def test_deterministic(self):
        assert _mix_seed(3, "x") == _mix_seed(3, "x")

    def test_non_negative_31_bit(self):
        for seed in (0, 1, 2**31, -5 & 0xFFFFFFFF):
            mixed = _mix_seed(seed, "tag")
            assert 0 <= mixed < 2**31


class TestReference:
    def test_prefers_brute_force(self):
        case = _case([("a", "b")], {"a": 0.5, "b": 0.5})
        assert reference_probability(case).backend == "brute-force"

    def test_falls_back_to_bdd_on_large_cases(self):
        wide = [("x%d" % i,) for i in range(25)]
        case = _case(wide, {"x%d" % i: 0.01 for i in range(25)})
        assert reference_probability(case).backend == "bdd"


class TestPolynomialOracle:
    def test_clean_case_all_agree(self):
        case = _case([("a", "b"), ("c",)],
                     {"a": 0.4, "b": 0.6, "c": 0.3})
        verdict = audit_polynomial_case(case, samples=3000, seed=0)
        assert verdict.ok
        names = {reading.backend for reading in verdict.readings}
        assert {"brute-force", "exact", "bdd", "mc", "parallel",
                "karp-luby"} <= names

    def test_backend_subset(self):
        case = _case([("a",)], {"a": 0.5})
        verdict = audit_polynomial_case(case, backends=["exact", "bdd"])
        assert {r.backend for r in verdict.readings} == {
            "brute-force", "exact", "bdd"}

    def test_exact_disagreement_flagged(self):
        case = _case([("a", "b")], {"a": 0.5, "b": 0.5})

        def skewed(polynomial, probabilities, request):
            return BackendReading("bdd", 0.2501)

        with override_backend("bdd", skewed):
            verdict = audit_polynomial_case(case)
        assert not verdict.ok
        [disagreement] = verdict.disagreements
        assert disagreement.channel == "backend:bdd"
        assert disagreement.deviation == pytest.approx(1e-4)

    def test_circuit_fault_caught_above_brute_force_limit(
            self, monkeypatch):
        # 12 two-literal components: 24 literals, so the reference is the
        # BDD, and the circuit's root is an independent OR.
        from repro.inference import circuit
        from repro.inference.registry import BRUTE_FORCE_LITERAL_LIMIT
        groups = [("x%d" % (2 * i), "x%d" % (2 * i + 1)) for i in range(12)]
        case = _case(groups, {"x%d" % i: 0.3 for i in range(24)})
        assert len(case.polynomial.literals()) > BRUTE_FORCE_LITERAL_LIMIT
        plan = circuit._plan

        def drop_one_or_child(*args):
            kind, payload, children = plan(*args)
            if kind == circuit.OR:
                children = children[1:]
            return kind, payload, children

        monkeypatch.setattr(circuit, "_plan", drop_one_or_child)
        verdict = audit_polynomial_case(case, backends=["exact", "bdd"])
        assert verdict.reference_backend == "bdd"
        assert not verdict.ok
        [disagreement] = verdict.disagreements
        assert disagreement.channel == "backend:exact"

    def test_sampling_within_band_passes(self):
        case = _case([("a", "b"), ("b", "c")],
                     {"a": 0.3, "b": 0.7, "c": 0.4})
        verdict = audit_polynomial_case(case, samples=2000, seed=1,
                                        repeats=3)
        assert verdict.ok
        sampling = [r for r in verdict.readings if not r.exact]
        assert all(r.stderr > 0 for r in sampling)

    def test_sampling_gross_bias_flagged(self):
        case = _case([("a",)], {"a": 0.5})

        def biased(polynomial, probabilities, request):
            return BackendReading("mc", 0.9, stderr=0.001, exact=False)

        with override_backend("mc", biased):
            verdict = audit_polynomial_case(case, backends=["mc"])
        assert not verdict.ok
        assert verdict.disagreements[0].channel == "backend:mc"

    def test_zero_hit_case_tolerated_by_floor(self):
        # True probability 1e-6: runs report 0 hits and stderr 0; without
        # the Agresti-Coull floor the band would have zero width and the
        # (correct) backends would be flagged.
        case = _case([("a", "b", "c")], {k: 0.01 for k in "abc"})
        verdict = audit_polynomial_case(case, samples=1000, seed=0,
                                        repeats=2)
        assert verdict.ok

    def test_floor_positive_and_decreasing_in_samples(self):
        assert _sampling_floor(100, 5.0) > _sampling_floor(10000, 5.0) > 0

    def test_verdict_to_dict(self):
        case = _case([("a",)], {"a": 0.5})
        document = audit_polynomial_case(case).to_dict()
        assert document["ok"] is True
        assert document["reference_backend"] == "brute-force"
        assert document["disagreements"] == []


class TestProgramOracle:
    @pytest.fixture(scope="class")
    def program_case(self):
        return next(case for case in corpus_cases()
                    if case.name == "corpus-diamond")

    def test_clean_program_case(self, program_case):
        verdict = audit_program_case(program_case)
        assert verdict.ok, verdict.disagreements

    def test_cycle_program_case(self):
        cycle = next(case for case in corpus_cases()
                     if case.name == "corpus-cycle")
        verdict = audit_program_case(cycle)
        assert verdict.ok, verdict.disagreements

    def test_rejects_polynomial_only_cases(self):
        case = _case([("a",)], {"a": 0.5})
        with pytest.raises(ValueError):
            audit_program_case(case)

    def test_audit_case_merges_channels(self, program_case):
        verdict = audit_case(program_case, samples=1500, seed=0)
        backends = {r.backend for r in verdict.readings}
        assert "program-exact" in backends
        assert "exact" in backends

    def test_generated_program_cases_pass(self):
        cases = [case for case in generate_cases(40, seed=11)
                 if case.origin == "program"]
        assert cases
        for case in cases[:3]:
            verdict = audit_program_case(case)
            assert verdict.ok, verdict.disagreements
