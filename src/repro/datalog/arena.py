"""Interned-term arena and columnar fact storage for the fixpoint.

Atoms are the program's currency — every ground atom an
:class:`~repro.datalog.terms.Atom` holding per-argument
:class:`~repro.datalog.terms.Constant` instances — but joining them is
slow: every candidate costs a unification over Python objects.  The
semi-naive loop (:mod:`repro.datalog.fixpoint`) therefore evaluates over
this module's representation instead:

- :class:`TermArena` interns every constant value once, mapping it to a
  dense integer *term id* (tid).
- :class:`RelationTable` stores one relation's ground tuples as rows of
  tids with lazily-built per-column hash indexes — joins compare small
  ints, never objects.
- :class:`FactStore` groups tables behind a dense *global fact id* (gid)
  space and supports cheap copy-on-write overlays: a per-goal grounding
  run shares the (large, read-only) base facts of its parent store and
  owns only the magic/adorned relations it derives, so repeated goals
  against one program never re-intern the EDB.

Atoms only materialize again at the edge — once per new row when the
engine renders its tuple key, when the grounder renders provenance keys,
or when :class:`ModelView` (the read surface of an evaluated model)
renders a row — through the same ``str(Atom(...))`` path, which keeps key
bytes identical between every evaluation mode.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple)

from .ast import Program
from .terms import Atom, Constant, Substitution, Variable, unify_atom

#: A fact's probability/label pair, carried for program (base) facts only;
#: derived rows have no meta.
FactMeta = Tuple[float, Optional[str]]


class TermArena:
    """Interns constant values to dense integer term ids.

    Interning keys on ``(type(value), value)`` so that e.g. ``1`` and
    ``1.0`` — equal under ``==`` but distinct constants under unification
    — receive distinct ids.  Term-id equality is then exactly
    :class:`~repro.datalog.terms.Constant` equality, which is what joins
    need.
    """

    __slots__ = ("_ids", "_values", "_constants")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[type, Any], int] = {}
        self._values: List[Any] = []
        self._constants: List[Constant] = []

    def intern(self, value: Any) -> int:
        key = (type(value), value)
        tid = self._ids.get(key)
        if tid is None:
            tid = len(self._values)
            self._ids[key] = tid
            self._values.append(value)
        return tid

    def lookup(self, value: Any) -> Optional[int]:
        """The term id of ``value`` if already interned, else ``None``."""
        return self._ids.get((type(value), value))

    def value(self, tid: int) -> Any:
        return self._values[tid]

    def constant(self, tid: int) -> Constant:
        """The :class:`Constant` of ``tid``, built once and shared."""
        constants = self._constants
        while len(constants) <= tid:
            constants.append(Constant(self._values[len(constants)]))
        return constants[tid]

    def __len__(self) -> int:
        return len(self._values)


class RelationTable:
    """One relation's ground tuples as rows of term ids.

    Rows are append-only and deduplicated; ``gids[i]`` is the global fact
    id of ``rows[i]``.  A column index (tid → ascending row positions) is
    built on the first match that binds the column and extended by every
    later append, so semi-naive rounds never rebuild one.
    """

    __slots__ = ("name", "arity", "rows", "gids", "_row_ids", "_indexes")

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        self.rows: List[Tuple[int, ...]] = []
        self.gids: List[int] = []
        self._row_ids: Dict[Tuple[int, ...], int] = {}
        self._indexes: Dict[int, Dict[int, List[int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def local_index(self, row: Tuple[int, ...]) -> Optional[int]:
        return self._row_ids.get(row)

    def add(self, row: Tuple[int, ...], gid: int) -> bool:
        """Append ``row`` under global id ``gid``; False when a duplicate."""
        if row in self._row_ids:
            return False
        position = len(self.rows)
        self._row_ids[row] = position
        self.rows.append(row)
        self.gids.append(gid)
        for column, index in self._indexes.items():
            index.setdefault(row[column], []).append(position)
        return True

    def _build_index(self, column: int) -> Dict[int, List[int]]:
        index: Dict[int, List[int]] = {}
        for position, row in enumerate(self.rows):
            index.setdefault(row[column], []).append(position)
        self._indexes[column] = index
        return index

    def match(self, bound: Sequence[Tuple[int, int]], lo: int = 0,
              hi: Optional[int] = None) -> Sequence[int]:
        """Row positions in ``[lo, hi)`` agreeing with ``bound``.

        ``bound`` is a sequence of ``(column, tid)`` pairs; the smallest
        matching column bucket drives the scan.  Buckets hold
        positions in ascending order, so the window is two bisections.
        The result is a fresh sequence: callers may append rows while
        iterating it.
        """
        if hi is None:
            hi = len(self.rows)
        if lo >= hi:
            return ()
        if not bound:
            return range(lo, hi)
        indexes = self._indexes
        best: Optional[List[int]] = None
        for column, tid in bound:
            index = indexes.get(column)
            if index is None:
                index = self._build_index(column)
            bucket = index.get(tid)
            if not bucket:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        start = bisect_left(best, lo) if lo else 0
        window = best[start:bisect_left(best, hi, start)]
        if len(bound) == 1:
            return window
        rows = self.rows
        out: List[int] = []
        for position in window:
            row = rows[position]
            for column, tid in bound:
                if row[column] != tid:
                    break
            else:
                out.append(position)
        return out


class FactStore:
    """Relation tables behind a dense global fact id (gid) space.

    A root store owns every table.  An overlay (``FactStore(parent=...)``)
    shares the parent's arena, reads the parent's tables in place, and may
    only create *new* relations of its own — which is exactly the shape of
    a magic-transformed program: original EDB relations are read, while
    every derived relation (``m_*``, adorned copies) is fresh.  Overlay
    gids continue after ``parent.count()``, so a gid resolves to the same
    fact in parent and overlay alike.

    The parent must not grow while overlays are alive (the planner resets
    its store whenever base facts change).
    """

    def __init__(self, parent: Optional["FactStore"] = None) -> None:
        self._parent = parent
        if parent is None:
            self.arena = TermArena()
            self._tables: Dict[str, RelationTable] = {}
            self._parent_count = 0
        else:
            self.arena = parent.arena
            self._tables = dict(parent._tables)
            self._parent_count = parent.count()
        # Insertion-ordered (dict) so evaluation order — and with it gid
        # assignment — is deterministic across processes.
        self._owned: Dict[str, None] = {}
        self._locations: List[Tuple[RelationTable, int]] = []
        self._meta: List[Optional[FactMeta]] = []

    @classmethod
    def from_program(cls, program: Program) -> "FactStore":
        """A root store seeded with every fact of ``program``."""
        store = cls()
        for fact in program.facts:
            store.add(fact.atom.relation, fact.atom.as_values(),
                      meta=(fact.probability, fact.label))
        return store

    # -- writes ------------------------------------------------------------

    def add(self, relation: str, values: Sequence[Any],
            meta: Optional[FactMeta] = None) -> Tuple[int, bool]:
        """Intern ``values`` and insert one fact; returns ``(gid, inserted)``."""
        row = tuple(self.arena.intern(value) for value in values)
        return self.add_row(relation, row, meta)

    def add_row(self, relation: str, row: Tuple[int, ...],
                meta: Optional[FactMeta] = None) -> Tuple[int, bool]:
        """Insert a row of already-interned term ids."""
        table = self._tables.get(relation)
        if table is None:
            table = RelationTable(relation, len(row))
            self._tables[relation] = table
            self._owned[relation] = None
        elif len(row) != table.arity:
            raise ValueError(
                "relation %r expects arity %d, got %d"
                % (relation, table.arity, len(row)))
        existing = table.local_index(row)
        if existing is not None:
            return table.gids[existing], False
        if self._parent is not None and relation not in self._owned:
            raise ValueError(
                "overlay cannot insert into parent-owned relation %r"
                % relation)
        gid = self._parent_count + len(self._locations)
        table.add(row, gid)
        self._locations.append((table, len(table.rows) - 1))
        self._meta.append(meta)
        return gid, True

    # -- reads -------------------------------------------------------------

    def table(self, relation: str) -> Optional[RelationTable]:
        return self._tables.get(relation)

    def relations(self) -> Iterable[str]:
        return self._tables.keys()

    def owned_relations(self) -> Tuple[str, ...]:
        """Names of the relations this store (not a parent) owns."""
        return tuple(self._owned)

    def location(self, gid: int) -> Tuple[RelationTable, int]:
        if gid < self._parent_count:
            return self._parent.location(gid)
        return self._locations[gid - self._parent_count]

    def relation_of(self, gid: int) -> str:
        return self.location(gid)[0].name

    def row_of(self, gid: int) -> Tuple[int, ...]:
        table, position = self.location(gid)
        return table.rows[position]

    def fact(self, gid: int) -> Tuple[str, Tuple[Any, ...]]:
        """The fact behind ``gid`` as ``(relation, value tuple)``."""
        table, position = self.location(gid)
        arena = self.arena
        return table.name, tuple(arena.value(tid)
                                 for tid in table.rows[position])

    def meta(self, gid: int) -> Optional[FactMeta]:
        """Probability/label of a program fact; ``None`` for derived rows."""
        if gid < self._parent_count:
            return self._parent.meta(gid)
        return self._meta[gid - self._parent_count]

    def set_meta(self, gid: int, meta: FactMeta) -> None:
        """Make an owned derived row a program fact as well."""
        self._meta[gid - self._parent_count] = meta

    def find(self, relation: str, values: Sequence[Any]) -> Optional[int]:
        """The gid of a stored fact, or ``None``."""
        table = self._tables.get(relation)
        if table is None:
            return None
        row: List[int] = []
        for value in values:
            tid = self.arena.lookup(value)
            if tid is None:
                return None
            row.append(tid)
        position = table.local_index(tuple(row))
        if position is None:
            return None
        return table.gids[position]

    def count(self) -> int:
        """Total facts visible through this store (parent + own)."""
        return self._parent_count + len(self._locations)

    def local_count(self) -> int:
        """Facts owned by this store (excluding any parent)."""
        return len(self._locations)


class ModelView:
    """Read-only view of an evaluated model over fact-store rows.

    The read surface of :attr:`repro.core.system.P3.database`: relation
    names, counts, membership and pattern matches, answered from the
    stores' tables (matches go through their column indexes) and rendered
    as atoms on read, so the stores stay the only copy of the model.
    Only the owner repoints ``stores``.
    """

    def __init__(self, stores: Sequence[FactStore]) -> None:
        self.stores = list(stores)

    def _tables(self, relation: str
                ) -> Iterator[Tuple[FactStore, RelationTable]]:
        for store in self.stores:
            table = store.table(relation)
            if table is not None:
                yield store, table

    def relations(self) -> List[str]:
        return sorted({name for store in self.stores
                       for name in store.relations()})

    def count(self, relation: Optional[str] = None) -> int:
        if relation is None:
            return sum(self.count(name) for name in self.relations())
        return sum(len(table) for _, table in self._tables(relation))

    def snapshot_counts(self) -> Dict[str, int]:
        """Relation-name → cardinality map (useful in tests and benchmarks)."""
        return {name: self.count(name) for name in self.relations()}

    def atoms(self, relation: Optional[str] = None) -> Iterator[Atom]:
        """Iterate atoms of one relation, or of every relation by name."""
        if relation is None:
            for name in self.relations():
                yield from self.atoms(name)
            return
        for store, table in self._tables(relation):
            constant = store.arena.constant
            for row in table.rows:
                yield Atom(relation, tuple(constant(tid) for tid in row))

    def __contains__(self, atom: Atom) -> bool:
        if not atom.is_ground:
            return False
        values = atom.as_values()
        return any(store.find(atom.relation, values) is not None
                   for store in self.stores)

    def match(self, pattern: Atom,
              subst: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Yield extensions of ``subst`` unifying ``pattern`` with a row."""
        for _, extended in self.match_atoms(pattern, subst):
            yield extended

    def match_atoms(self, pattern: Atom,
                    subst: Optional[Substitution] = None
                    ) -> Iterator[Tuple[Atom, Substitution]]:
        """Like :meth:`match`, but also yields the matched atom (why-not
        analysis names the stored tuple behind each partial match)."""
        base: Substitution = subst or {}
        for atom in self._candidates(pattern, base):
            extended = unify_atom(pattern, atom, base)
            if extended is not None:
                yield atom, extended

    def _candidates(self, pattern: Atom,
                    subst: Substitution) -> Iterator[Atom]:
        """Rows agreeing with the pattern's bound columns, as atoms."""
        for store, table in self._tables(pattern.relation):
            if table.arity != pattern.arity:
                continue
            arena = store.arena
            bound: List[Tuple[int, int]] = []
            for column, arg in enumerate(pattern.args):
                if isinstance(arg, Variable):
                    arg = subst.get(arg, arg)  # type: ignore[assignment]
                if isinstance(arg, Constant):
                    tid = arena.lookup(arg.value)
                    if tid is None:
                        break
                    bound.append((column, tid))
            else:
                rows = table.rows
                for position in table.match(bound):
                    yield Atom(pattern.relation, tuple(
                        arena.constant(tid) for tid in rows[position]))

    def __repr__(self) -> str:
        return "ModelView(%s)" % ", ".join(
            "%s:%d" % item for item in self.snapshot_counts().items())
