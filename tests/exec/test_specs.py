"""Unit tests for QuerySpec — identity, validation, round trips."""

import pytest

from repro.exec.specs import KINDS, QuerySpec


class TestConstruction:
    def test_kinds_constant(self):
        assert set(KINDS) == {"probability", "conditional", "explain",
                              "derive", "influence", "modify"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="Unknown query kind"):
            QuerySpec("frobnicate", "a(1)")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="Unknown parameters"):
            QuerySpec("probability", "a(1)", {"epsilon": 0.1})

    def test_influence_has_no_top_k(self):
        # A report ranks every literal; trimming is the caller's (the CLI's
        # --top), so top_k would only split one report's cache entry.
        with pytest.raises(ValueError, match="top_k"):
            QuerySpec.influence("a(1)", top_k=3)

    def test_derive_requires_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            QuerySpec("derive", "a(1)")
        spec = QuerySpec.derive("a(1)", 0.05)
        assert spec.params["epsilon"] == 0.05

    def test_modify_requires_target(self):
        with pytest.raises(ValueError, match="target"):
            QuerySpec("modify", "a(1)")
        spec = QuerySpec.modify("a(1)", 0.9, strategy="greedy")
        assert spec.params["target"] == 0.9

    def test_common_params_accepted_everywhere(self):
        for kind in KINDS:
            extra = {}
            if kind == "derive":
                extra["epsilon"] = 0.1
            if kind == "modify":
                extra["target"] = 0.5
            spec = QuerySpec(kind, "a(1)",
                             dict(method="exact", hop_limit=4, **extra))
            assert spec.params["method"] == "exact"


class TestIdentity:
    def test_equality_and_hash(self):
        first = QuerySpec.probability("a(1)", method="exact")
        second = QuerySpec.probability("a(1)", method="exact")
        third = QuerySpec.probability("a(1)", method="mc")
        assert first == second
        assert hash(first) == hash(second)
        assert first != third
        assert first != "a(1)"

    def test_set_dedupe(self):
        specs = {QuerySpec.probability("a(1)"),
                 QuerySpec.probability("a(1)"),
                 QuerySpec.explain("a(1)")}
        assert len(specs) == 2

    def test_cache_identity_freezes_nested(self):
        first = QuerySpec.conditional("a(1)", evidence={"b(1)": True,
                                                        "c(2)": False})
        second = QuerySpec.conditional("a(1)", evidence={"c(2)": False,
                                                         "b(1)": True})
        assert first.cache_identity() == second.cache_identity()
        hash(first.cache_identity())  # must be hashable

    def test_kind_distinguishes(self):
        assert (QuerySpec.probability("a(1)").cache_identity()
                != QuerySpec.explain("a(1)").cache_identity())


class TestRoundTrip:
    def test_to_from_dict(self):
        spec = QuerySpec.derive("a(1)", 0.05, method="naive")
        clone = QuerySpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_bare_dict_without_params(self):
        spec = QuerySpec.probability("a(1)")
        document = spec.to_dict()
        assert "params" not in document
        assert QuerySpec.from_dict(document) == spec

    def test_from_dict_accepts_string(self):
        assert QuerySpec.from_dict("a(1)") == QuerySpec.probability("a(1)")

    def test_coerce(self):
        spec = QuerySpec.explain("a(1)")
        assert QuerySpec.coerce(spec) is spec
        assert QuerySpec.coerce("a(1)").kind == "probability"
        assert QuerySpec.coerce(
            {"kind": "influence", "key": "a(1)"}).kind == "influence"
        with pytest.raises(TypeError):
            QuerySpec.coerce(42)

    def test_repr(self):
        text = repr(QuerySpec.modify("a(1)", 0.9))
        assert "modify" in text and "a(1)" in text and "0.9" in text
