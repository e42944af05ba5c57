"""Unit tests for the evaluated model's read surface (``ModelView``)."""

from repro.datalog.arena import FactStore, ModelView
from repro.datalog.parser import parse_program
from repro.datalog.engine import Engine
from repro.datalog.rewrite import PROV_RELATION, RULE_RELATION
from repro.datalog.terms import Atom, Constant, Variable, atom


X = Variable("X")
Y = Variable("Y")


def store_of(*atoms):
    store = FactStore()
    for ground in atoms:
        store.add(ground.relation, ground.as_values())
    return store


def model(*atoms):
    """A view over one store holding ``atoms``."""
    return ModelView([store_of(*atoms)])


class TestRelation:
    def test_add_returns_new_flag(self):
        store = FactStore()
        assert store.add("p", (1,))[1]
        assert not store.add("p", (1,))[1]

    def test_len_and_contains(self):
        view = model(atom("p", 1), atom("p", 2))
        assert view.count("p") == 2
        assert atom("p", 1) in view
        assert atom("p", 3) not in view

    def test_match_all_with_variables(self):
        view = model(atom("p", 1, "a"), atom("p", 2, "b"))
        matches = list(view.match(Atom("p", (X, Y))))
        assert len(matches) == 2

    def test_match_uses_bound_column(self):
        view = model(atom("p", 1, "a"), atom("p", 2, "b"))
        matches = list(view.match(Atom("p", (Constant(1), Y))))
        assert len(matches) == 1
        assert matches[0][Y] == Constant("a")

    def test_match_with_prior_substitution(self):
        view = model(atom("p", 1, "a"), atom("p", 2, "b"))
        matches = list(view.match(Atom("p", (X, Y)), {X: Constant(2)}))
        assert len(matches) == 1
        assert matches[0][Y] == Constant("b")

    def test_match_no_candidates(self):
        view = model(atom("p", 1))
        assert list(view.match(Atom("p", (Constant(9),)))) == []

    def test_match_repeated_variable(self):
        view = model(atom("p", 1, 1), atom("p", 1, 2))
        matches = list(view.match(Atom("p", (X, X))))
        assert len(matches) == 1

    def test_match_atoms_yields_stored_atom(self):
        stored = atom("p", 1)
        view = model(stored)
        [(matched, subst)] = list(view.match_atoms(Atom("p", (X,))))
        assert matched == stored
        assert subst[X] == Constant(1)

    def test_constants_match_by_type(self):
        view = model(atom("p", 1), atom("p", "1"))
        assert [m[X] for m in view.match(Atom("p", (X,)))] == [
            Constant(1), Constant("1")]
        assert list(view.match(Atom("p", (Constant(1.0),)))) == []
        assert atom("p", 1.0) not in view

    def test_arity_mismatch_matches_nothing(self):
        view = model(atom("p", 1))
        assert list(view.match(Atom("p", (X, Y)))) == []


class TestDatabase:
    def test_relations_spring_into_existence(self):
        store = FactStore()
        view = ModelView([store])
        assert view.count("missing") == 0
        store.add("p", (1,))
        assert view.count("p") == 1

    def test_contains(self):
        view = model(atom("p", 1))
        assert atom("p", 1) in view
        assert atom("p", 2) not in view
        assert atom("q", 1) not in view
        assert Atom("p", (X,)) not in view

    def test_atoms_single_relation(self):
        view = model(atom("p", 1), atom("q", 2))
        assert list(view.atoms("p")) == [atom("p", 1)]

    def test_atoms_all_relations_sorted_by_name(self):
        view = model(atom("z", 1), atom("a", 1))
        names = [a.relation for a in view.atoms()]
        assert names == ["a", "z"]

    def test_atoms_missing_relation_empty(self):
        assert list(model().atoms("nope")) == []

    def test_total_count(self):
        view = model(atom("p", 1), atom("p", 2), atom("q", 1))
        assert view.count() == 3

    def test_match_missing_relation(self):
        assert list(model().match(Atom("nope", (X,)))) == []

    def test_snapshot_counts(self):
        view = model(atom("p", 1), atom("q", 1), atom("q", 2))
        assert view.snapshot_counts() == {"p": 1, "q": 2}

    def test_relations_listing(self):
        view = model(atom("b", 1), atom("a", 1))
        assert view.relations() == ["a", "b"]

    def test_view_unions_its_stores(self):
        # The grounding planner's shape: base facts and merged goal rows
        # in separate stores, one relation spread over both.
        view = ModelView([store_of(atom("p", 1), atom("q", 1)),
                          store_of(atom("p", 2))])
        assert view.relations() == ["p", "q"]
        assert view.count("p") == 2
        assert atom("p", 2) in view
        assert {m[X] for m in view.match(Atom("p", (X,)))} == {
            Constant(1), Constant(2)}


class TestLazyIndexes:
    def test_match_sees_atoms_added_before_and_after_first_match(self):
        store = store_of(atom("p", 1, "a"))
        view = ModelView([store])
        assert [m[Y] for m in view.match(Atom("p", (Constant(1), Y)))] == [
            Constant("a")]
        store.add("p", (1, "b"))
        store.add("p", (2, "c"))
        matches = {m[Y] for m in view.match(Atom("p", (Constant(1), Y)))}
        assert matches == {Constant("a"), Constant("b")}


class TestCaptureRelations:
    SOURCE = """
        edge(1,2). edge(2,3).
        r1 1.0: path(X,Y) :- edge(X,Y).
    """

    def test_firings_stay_out_of_the_model(self):
        engine = Engine(parse_program(self.SOURCE))
        view = engine.run().database
        assert len(engine.firings) == 2
        assert view.relations() == ["edge", "path"]
        assert view.count(PROV_RELATION) == 0
        assert list(view.match(Atom(PROV_RELATION, (
            Constant("path(1,2)"), Variable("P"), Variable("E"))))) == []
        assert Atom(RULE_RELATION, (
            Constant("r1[edge(2,3)]"), Constant("r1"),
            Constant("edge(2,3)"))) not in view

    def test_no_capture_relations_without_firings(self):
        view = Engine(parse_program("edge(1,2).")).run().database
        assert view.relations() == ["edge"]
