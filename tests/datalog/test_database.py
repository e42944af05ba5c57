"""Unit tests for the relational store."""

import pytest

from repro.datalog.database import Database, Relation
from repro.datalog.terms import Atom, Constant, Variable, atom


X = Variable("X")
Y = Variable("Y")


class TestRelation:
    def test_add_returns_new_flag(self):
        rel = Relation("p")
        assert rel.add(atom("p", 1))
        assert not rel.add(atom("p", 1))

    def test_rejects_wrong_relation(self):
        rel = Relation("p")
        with pytest.raises(ValueError):
            rel.add(atom("q", 1))

    def test_rejects_nonground(self):
        rel = Relation("p")
        with pytest.raises(ValueError):
            rel.add(Atom("p", (X,)))

    def test_len_and_contains(self):
        rel = Relation("p")
        rel.add(atom("p", 1))
        rel.add(atom("p", 2))
        assert len(rel) == 2
        assert atom("p", 1) in rel
        assert atom("p", 3) not in rel

    def test_match_all_with_variables(self):
        rel = Relation("p")
        rel.add(atom("p", 1, "a"))
        rel.add(atom("p", 2, "b"))
        matches = list(rel.match(Atom("p", (X, Y))))
        assert len(matches) == 2

    def test_match_uses_bound_column(self):
        rel = Relation("p")
        rel.add(atom("p", 1, "a"))
        rel.add(atom("p", 2, "b"))
        matches = list(rel.match(Atom("p", (Constant(1), Y))))
        assert len(matches) == 1
        assert matches[0][Y] == Constant("a")

    def test_match_with_prior_substitution(self):
        rel = Relation("p")
        rel.add(atom("p", 1, "a"))
        rel.add(atom("p", 2, "b"))
        matches = list(rel.match(Atom("p", (X, Y)), {X: Constant(2)}))
        assert len(matches) == 1
        assert matches[0][Y] == Constant("b")

    def test_match_no_candidates(self):
        rel = Relation("p")
        rel.add(atom("p", 1))
        assert list(rel.match(Atom("p", (Constant(9),)))) == []

    def test_match_repeated_variable(self):
        rel = Relation("p")
        rel.add(atom("p", 1, 1))
        rel.add(atom("p", 1, 2))
        matches = list(rel.match(Atom("p", (X, X))))
        assert len(matches) == 1

    def test_match_atoms_yields_stored_atom(self):
        rel = Relation("p")
        stored = atom("p", 1)
        rel.add(stored)
        [(matched, subst)] = list(rel.match_atoms(Atom("p", (X,))))
        assert matched == stored
        assert subst[X] == Constant(1)


class TestDatabase:
    def test_relations_spring_into_existence(self):
        db = Database()
        assert db.count("missing") == 0
        db.add(atom("p", 1))
        assert db.count("p") == 1

    def test_contains(self):
        db = Database()
        db.add(atom("p", 1))
        assert atom("p", 1) in db
        assert atom("p", 2) not in db
        assert atom("q", 1) not in db

    def test_atoms_single_relation(self):
        db = Database()
        db.add(atom("p", 1))
        db.add(atom("q", 2))
        assert list(db.atoms("p")) == [atom("p", 1)]

    def test_atoms_all_relations_sorted_by_name(self):
        db = Database()
        db.add(atom("z", 1))
        db.add(atom("a", 1))
        names = [a.relation for a in db.atoms()]
        assert names == ["a", "z"]

    def test_atoms_missing_relation_empty(self):
        db = Database()
        assert list(db.atoms("nope")) == []

    def test_total_count(self):
        db = Database()
        db.add(atom("p", 1))
        db.add(atom("p", 2))
        db.add(atom("q", 1))
        assert db.count() == 3

    def test_match_missing_relation(self):
        db = Database()
        assert list(db.match(Atom("nope", (X,)))) == []

    def test_snapshot_counts(self):
        db = Database()
        db.add(atom("p", 1))
        db.add(atom("q", 1))
        db.add(atom("q", 2))
        assert db.snapshot_counts() == {"p": 1, "q": 2}

    def test_relations_listing(self):
        db = Database()
        db.add(atom("b", 1))
        db.add(atom("a", 1))
        assert db.relations() == ["a", "b"]


class TestLazyIndexes:
    def test_match_sees_atoms_added_before_and_after_first_match(self):
        rel = Relation("p")
        rel.add(atom("p", 1, "a"))
        assert [m[Y] for m in rel.match(Atom("p", (Constant(1), Y)))] == [
            Constant("a")]
        rel.add(atom("p", 1, "b"))
        rel.add(atom("p", 2, "c"))
        matches = {m[Y] for m in rel.match(Atom("p", (Constant(1), Y)))}
        assert matches == {Constant("a"), Constant("b")}

    def test_attach_installs_a_prebuilt_relation(self):
        db = Database()
        rel = Relation("log")
        rel.add(atom("log", 1))
        db.attach(rel)
        assert db.count("log") == 1
        assert atom("log", 1) in db
        with pytest.raises(ValueError):
            db.attach(Relation("log"))
