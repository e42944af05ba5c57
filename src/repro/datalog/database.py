"""In-memory relational store holding an evaluation's results.

Relations hold sets of ground :class:`~repro.datalog.terms.Atom` tuples
and answer pattern matches through single-column hash indexes, built on
the first match so a relation that is only filled and counted never pays
for them.  This is the "relational tables" substrate of Section 3.2:
derived tuples, and the ``prov``/``rule`` dependency tuples produced by
the rewrite, all live here.  The fixpoint itself joins over the interned
rows of :mod:`repro.datalog.arena` and fills a database once per new
tuple.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .terms import Atom, Constant, Substitution, Variable


class Relation:
    """A named set of ground atoms with per-column value indexes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._atoms: Set[Atom] = set()
        # _indexes[column][constant] -> set of atoms with that constant
        # there; None until the first match asks for them.
        self._indexes: Optional[Dict[int, Dict[Constant, Set[Atom]]]] = None

    def add(self, atom: Atom) -> bool:
        """Insert a ground atom; returns True when it was new."""
        if atom.relation != self.name:
            raise ValueError(
                "Atom %s inserted into relation %r" % (atom, self.name)
            )
        if not atom.is_ground:
            raise ValueError("Only ground atoms can be stored: %s" % atom)
        if atom in self._atoms:
            return False
        self._atoms.add(atom)
        if self._indexes is not None:
            self._index(atom)
        return True

    def _index(self, atom: Atom) -> None:
        indexes = self._indexes
        assert indexes is not None
        for column, arg in enumerate(atom.args):
            indexes[column][arg].add(atom)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def match(self, pattern: Atom,
              subst: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Yield extensions of ``subst`` unifying ``pattern`` with stored atoms.

        Uses the index of the most selective bound column to restrict the
        candidate set before unifying.
        """
        from .terms import unify_atom

        base: Substitution = subst or {}
        candidates = self._candidates(pattern, base)
        for atom in candidates:
            extended = unify_atom(pattern, atom, base)
            if extended is not None:
                yield extended

    def match_atoms(self, pattern: Atom,
                    subst: Optional[Substitution] = None
                    ) -> Iterator[Tuple[Atom, Substitution]]:
        """Like :meth:`match`, but also yields the matched stored atom.

        Why-not analysis uses this to name the stored tuple behind each
        partial match.
        """
        from .terms import unify_atom

        base: Substitution = subst or {}
        for atom in self._candidates(pattern, base):
            extended = unify_atom(pattern, atom, base)
            if extended is not None:
                yield atom, extended

    def _candidates(self, pattern: Atom, subst: Substitution) -> Iterable[Atom]:
        if self._indexes is None:
            self._indexes = defaultdict(lambda: defaultdict(set))
            for atom in self._atoms:
                self._index(atom)
        best: Optional[Set[Atom]] = None
        for column, arg in enumerate(pattern.args):
            if isinstance(arg, Variable):
                arg = subst.get(arg, arg)  # type: ignore[assignment]
            if isinstance(arg, Constant):
                bucket = self._indexes[column].get(arg)
                if bucket is None:
                    return ()
                if best is None or len(bucket) < len(best):
                    best = bucket
        if best is None:
            return list(self._atoms)
        return list(best)

    def __repr__(self) -> str:
        return "Relation(%r, %d tuples)" % (self.name, len(self))


class Database:
    """A collection of named relations.

    Missing relations spring into existence on first access so program
    evaluation never needs a schema declaration step.
    """

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}

    def relation(self, name: str) -> Relation:
        rel = self._relations.get(name)
        if rel is None:
            rel = Relation(name)
            self._relations[name] = rel
        return rel

    def attach(self, relation: Relation) -> None:
        """Install a prebuilt relation object (e.g. a lazily rendered view)
        under its name; the name must not exist yet."""
        if relation.name in self._relations:
            raise ValueError("Relation %r already exists" % relation.name)
        self._relations[relation.name] = relation

    def add(self, atom: Atom) -> bool:
        """Insert a ground atom into its relation; True when new."""
        return self.relation(atom.relation).add(atom)

    def __contains__(self, atom: Atom) -> bool:
        rel = self._relations.get(atom.relation)
        return rel is not None and atom in rel

    def relations(self) -> List[str]:
        return sorted(self._relations)

    def atoms(self, relation: Optional[str] = None) -> Iterator[Atom]:
        """Iterate atoms of one relation, or of the whole database."""
        if relation is not None:
            rel = self._relations.get(relation)
            if rel is not None:
                yield from rel
            return
        for name in sorted(self._relations):
            yield from self._relations[name]

    def count(self, relation: Optional[str] = None) -> int:
        if relation is not None:
            rel = self._relations.get(relation)
            return len(rel) if rel is not None else 0
        return sum(len(rel) for rel in self._relations.values())

    def match(self, pattern: Atom,
              subst: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Match a pattern against the pattern's relation."""
        rel = self._relations.get(pattern.relation)
        if rel is None:
            return iter(())
        return rel.match(pattern, subst)

    def snapshot_counts(self) -> Dict[str, int]:
        """Relation-name → cardinality map (useful in tests and benchmarks)."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def __repr__(self) -> str:
        return "Database(%s)" % (
            ", ".join(
                "%s:%d" % (name, len(rel))
                for name, rel in sorted(self._relations.items())
            )
        )
