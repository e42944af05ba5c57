"""Unit tests for literals, monomials, and provenance polynomials."""

import pickle

import pytest

from repro.provenance.polynomial import (
    Literal,
    Monomial,
    Polynomial,
    rule_literal,
    tuple_literal,
)

A = tuple_literal("a")
B = tuple_literal("b")
C = tuple_literal("c")
R1 = rule_literal("r1")


class TestLiteral:
    def test_kinds(self):
        assert tuple_literal("t").is_tuple
        assert rule_literal("r").is_rule

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Literal("other", "x")

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            tuple_literal("")

    def test_equality_and_hash(self):
        assert tuple_literal("a") == tuple_literal("a")
        assert tuple_literal("a") != rule_literal("a")
        assert len({tuple_literal("a"), tuple_literal("a")}) == 1

    def test_ordering(self):
        assert sorted([tuple_literal("b"), rule_literal("a")]) == [
            rule_literal("a"), tuple_literal("b"),
        ]

    def test_immutable(self):
        with pytest.raises(AttributeError):
            A.key = "other"

    def test_str_is_key(self):
        assert str(A) == "a"


class TestMonomial:
    def test_empty_is_true(self):
        assert Monomial().is_empty
        assert str(Monomial()) == "1"

    def test_idempotent_product(self):
        assert Monomial([A, A]) == Monomial([A])

    def test_union(self):
        assert Monomial([A]).union(Monomial([B])) == Monomial([A, B])

    def test_contains_and_without(self):
        monomial = Monomial([A, B])
        assert monomial.contains(A)
        assert monomial.without(A) == Monomial([B])

    def test_subsumes(self):
        assert Monomial([A]).subsumes(Monomial([A, B]))
        assert not Monomial([A, B]).subsumes(Monomial([A]))

    def test_probability_is_product(self):
        probs = {A: 0.5, B: 0.4}
        assert Monomial([A, B]).probability(probs) == pytest.approx(0.2)

    def test_empty_probability_is_one(self):
        assert Monomial().probability({}) == 1.0

    def test_evaluate(self):
        monomial = Monomial([A, B])
        assert monomial.evaluate({A: True, B: True})
        assert not monomial.evaluate({A: True, B: False})

    def test_str_sorted(self):
        assert str(Monomial([B, A])) == "a·b"

    def test_rejects_non_literaccording(self):
        with pytest.raises(TypeError):
            Monomial(["raw"])


class TestPolynomialConstruction:
    def test_zero(self):
        assert Polynomial.zero().is_zero
        assert str(Polynomial.zero()) == "0"

    def test_one(self):
        assert Polynomial.one().is_one
        assert len(Polynomial.one()) == 1

    def test_of(self):
        poly = Polynomial.of([A, B])
        assert len(poly) == 1
        assert poly.literals() == frozenset({A, B})

    def test_from_monomials(self):
        poly = Polynomial.from_monomials([[A], [B]])
        assert len(poly) == 2

    def test_absorption_on_construction(self):
        poly = Polynomial([Monomial([A]), Monomial([A, B])])
        assert poly == Polynomial.of([A])

    def test_duplicate_monomials_collapse(self):
        poly = Polynomial([Monomial([A]), Monomial([A])])
        assert len(poly) == 1


class TestSharedConstants:
    """``zero()`` and ``one()`` hand out one instance each."""

    def test_one_instance_each(self):
        assert Polynomial.zero() is Polynomial.zero()
        assert Polynomial.one() is Polynomial.one()
        assert Polynomial.of([A]) * Polynomial.zero() is Polynomial.zero()

    @pytest.mark.parametrize("constant", [Polynomial.zero, Polynomial.one])
    def test_immutable(self, constant):
        with pytest.raises(AttributeError):
            constant().monomials = frozenset()
        with pytest.raises(AttributeError):
            setattr(constant(), "extra", 1)

    @pytest.mark.parametrize("constant", [Polynomial.zero, Polynomial.one])
    def test_pickle_round_trip(self, constant):
        restored = pickle.loads(pickle.dumps(constant()))
        assert restored == constant()
        assert str(restored) == str(constant())
        assert hash(restored) == hash(constant())

    def test_equal_to_fresh_construction(self):
        assert Polynomial(()) == Polynomial.zero()
        assert Polynomial((Monomial(()),)) == Polynomial.one()


class TestPolynomialAlgebra:
    def test_addition_unions(self):
        poly = Polynomial.of([A]) + Polynomial.of([B])
        assert len(poly) == 2

    def test_addition_zero_identity(self):
        poly = Polynomial.of([A])
        assert poly + Polynomial.zero() == poly
        assert Polynomial.zero() + poly == poly

    def test_addition_absorbs(self):
        assert (Polynomial.of([A]) + Polynomial.of([A, B])) == Polynomial.of([A])

    def test_multiplication_cross_product(self):
        left = Polynomial.of([A]) + Polynomial.of([B])
        right = Polynomial.of([C])
        product = left * right
        assert product == Polynomial.from_monomials([[A, C], [B, C]])

    def test_multiplication_zero_annihilates(self):
        assert (Polynomial.of([A]) * Polynomial.zero()).is_zero

    def test_multiplication_one_identity(self):
        poly = Polynomial.of([A])
        assert poly * Polynomial.one() == poly
        assert Polynomial.one() * poly == poly

    def test_multiplication_absorbs(self):
        # (a + b)·(a) = a + a·b = a
        left = Polynomial.of([A]) + Polynomial.of([B])
        assert left * Polynomial.of([A]) == Polynomial.of([A])

    def test_times_literal(self):
        poly = Polynomial.from_monomials([[A], [B]])
        assert poly.times_literal(C) == Polynomial.from_monomials(
            [[A, C], [B, C]])

    def test_distributivity(self):
        x = Polynomial.of([A])
        y = Polynomial.of([B])
        z = Polynomial.of([C])
        assert x * (y + z) == x * y + x * z

    def test_commutativity(self):
        x = Polynomial.from_monomials([[A], [B]])
        y = Polynomial.from_monomials([[C]])
        assert x * y == y * x
        assert x + y == y + x


class TestRestrict:
    def test_restrict_true_removes_literal(self):
        poly = Polynomial.from_monomials([[A, B], [C]])
        assert poly.restrict(A, True) == Polynomial.from_monomials([[B], [C]])

    def test_restrict_false_drops_monomials(self):
        poly = Polynomial.from_monomials([[A, B], [C]])
        assert poly.restrict(A, False) == Polynomial.of([C])

    def test_restrict_true_can_reach_one(self):
        poly = Polynomial.of([A])
        assert poly.restrict(A, True).is_one

    def test_restrict_false_can_reach_zero(self):
        poly = Polynomial.of([A])
        assert poly.restrict(A, False).is_zero

    def test_restrict_absent_literal_noop(self):
        poly = Polynomial.of([A])
        assert poly.restrict(B, True) == poly
        assert poly.restrict(B, False) == poly

    def test_restrict_triggers_absorption(self):
        # b + a·c --a=1--> b + c
        poly = Polynomial.from_monomials([[B], [A, B]])
        assert poly.restrict(A, True) == Polynomial.of([B])


class TestEvaluationAndInspection:
    def test_evaluate_dnf(self):
        poly = Polynomial.from_monomials([[A, B], [C]])
        assert poly.evaluate({A: True, B: True, C: False})
        assert poly.evaluate({A: False, B: False, C: True})
        assert not poly.evaluate({A: True, B: False, C: False})

    def test_zero_evaluates_false(self):
        assert not Polynomial.zero().evaluate({})

    def test_one_evaluates_true(self):
        assert Polynomial.one().evaluate({})

    def test_literal_partition(self):
        poly = Polynomial.from_monomials([[A, R1], [B]])
        assert poly.tuple_literals() == frozenset({A, B})
        assert poly.rule_literals() == frozenset({R1})

    def test_monomials_by_probability(self):
        poly = Polynomial.from_monomials([[A], [B]])
        probs = {A: 0.9, B: 0.1}
        ranked = poly.monomials_by_probability(probs)
        assert ranked[0] == (Monomial([A]), 0.9)
        ascending = poly.monomials_by_probability(probs, descending=False)
        assert ascending[0][1] == pytest.approx(0.1)

    def test_without_monomials(self):
        poly = Polynomial.from_monomials([[A], [B]])
        assert poly.without_monomials([Monomial([A])]) == Polynomial.of([B])

    def test_str_canonical(self):
        poly = Polynomial.from_monomials([[B], [A]])
        assert str(poly) == "a + b"
