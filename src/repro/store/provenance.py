"""The append-only SQLite provenance store behind the in-memory graph.

:class:`ProvenanceStore` persists everything a
:class:`~repro.core.system.P3` derives — tuple vertices, rule firings,
extracted polynomials — as normalized rows keyed by the epoch they first
appeared in.  Three flows use it:

- **Snapshot**: attach a store to an evaluated system
  (``p3.attach_store(store)`` or ``p3 snapshot``) and the current graph
  lands as one committed epoch batch.
- **Incremental append**: while attached, every ``add_facts`` delta is
  synced as a *new* epoch batch — the store is a chain-of-custody log,
  never rewritten in place.
- **Warm-start**: :meth:`open_system` (via ``P3.from_store``) rebuilds
  the graph as of any committed epoch and hands back a system that
  answers queries without re-running fixpoint evaluation.

Durability: each sync writes its epoch row with ``committed=0``, inserts
the batch, then flips the flag — all in one transaction.  Opening a
store deletes the rows of any epoch whose flag never flipped, so a crash
mid-append reopens to the last complete epoch.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..provenance.graph import ProvenanceGraph, RuleExecution
from ..provenance.polynomial import Literal, Monomial, Polynomial
from .schema import (
    COMPATIBLE_STORE_VERSIONS,
    SCHEMA,
    STORE_FORMAT_VERSION,
    StoreCrashError,
    StoreError,
    StoreVersionError,
)


class ProvenanceStore:
    """One SQLite-backed, append-only provenance store.

    Parameters
    ----------
    path:
        The store file.  ``":memory:"`` works for tests.
    create:
        Create (and initialise) the file when it does not exist.  With
        ``create=False`` a missing file raises :class:`StoreError` —
        warm-start callers want "no such store", not a silently created
        empty one.

    The store is safe to share across threads: SQLite's
    ``check_same_thread`` guard is disabled and every access holds one
    internal lock (service tenants mutate from worker threads).
    """

    def __init__(self, path: str, create: bool = True) -> None:
        self.path = os.fspath(path)
        if (not create and self.path != ":memory:"
                and not os.path.exists(self.path)):
            raise StoreError("No provenance store at %s" % self.path)
        self._lock = threading.RLock()
        #: Test hook: when True, the next sync commits its row batch but
        #: raises before the epoch's commit marker lands — the exact torn
        #: state a crash between batch and marker would leave on disk.
        self.fail_before_commit = False
        self._connection = sqlite3.connect(
            self.path, check_same_thread=False)
        self._connection.execute("PRAGMA foreign_keys = ON")
        try:
            self._initialise()
        except BaseException:
            self._connection.close()
            raise

    # -- lifecycle ---------------------------------------------------------------

    def _initialise(self) -> None:
        with self._lock:
            self._connection.executescript(SCHEMA)
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = 'store_format'"
            ).fetchone()
            if row is None:
                self._connection.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("store_format", str(STORE_FORMAT_VERSION)))
                self._connection.commit()
            else:
                try:
                    found: object = int(row[0])
                except ValueError:
                    found = row[0]
                if found not in COMPATIBLE_STORE_VERSIONS:
                    raise StoreVersionError(self.path, found)
            self._recover()

    def _recover(self) -> None:
        """Delete the rows of epochs whose commit marker never landed."""
        torn = [row[0] for row in self._connection.execute(
            "SELECT epoch FROM epochs WHERE committed = 0")]
        if not torn:
            return
        marks = ",".join("?" * len(torn))
        cascade_roots = (
            # firing_body / monomials / monomial_literals cascade off
            # these via ON DELETE CASCADE.
            "DELETE FROM polynomials WHERE epoch IN (%s)" % marks,
            "DELETE FROM firings WHERE epoch IN (%s)" % marks,
            "DELETE FROM tuples WHERE epoch IN (%s)" % marks,
            "DELETE FROM rules WHERE epoch IN (%s)" % marks,
            "DELETE FROM epochs WHERE epoch IN (%s)" % marks,
        )
        for statement in cascade_roots:
            self._connection.execute(statement, torn)
        self._connection.commit()

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- meta --------------------------------------------------------------------

    def _meta(self, key: str) -> Optional[str]:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: str) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, value))

    # -- epochs ------------------------------------------------------------------

    def epochs(self) -> List[Dict[str, int]]:
        """The committed epoch spine, oldest first."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT epoch, tuples_added, rules_added, firings_added "
                "FROM epochs WHERE committed = 1 ORDER BY epoch").fetchall()
        return [
            {"epoch": epoch, "tuples": tuples, "rules": rules,
             "firings": firings}
            for epoch, tuples, rules, firings in rows
        ]

    def last_epoch(self) -> int:
        """The newest committed epoch; raises on an empty store."""
        with self._lock:
            row = self._connection.execute(
                "SELECT MAX(epoch) FROM epochs WHERE committed = 1"
            ).fetchone()
        if row is None or row[0] is None:
            raise StoreError(
                "Store %s has no committed epochs (snapshot one first)"
                % self.path)
        return int(row[0])

    def _resolve_epoch(self, epoch: Optional[int]) -> int:
        last = self.last_epoch()
        if epoch is None:
            return last
        first = int(self._connection.execute(
            "SELECT MIN(epoch) FROM epochs WHERE committed = 1"
        ).fetchone()[0])
        if not first <= epoch <= last:
            raise StoreError(
                "Epoch %d is outside the store's committed range [%d, %d]"
                % (epoch, first, last))
        return int(epoch)

    # -- snapshot / incremental append -------------------------------------------

    def sync(self, system: Any) -> int:
        """Append everything ``system``'s graph knows that this store
        does not yet hold, as one epoch batch.

        Called by :meth:`P3.attach_store` (initial snapshot) and after
        every ``add_facts`` delta (incremental append).  Appending is
        diff-based, so it is idempotent: a re-sync with nothing new
        writes nothing.  Returns the number of new rows appended.
        """
        graph = system.graph
        epoch = int(system.epoch)
        with self._lock:
            last = self._connection.execute(
                "SELECT MAX(epoch) FROM epochs WHERE committed = 1"
            ).fetchone()[0]
            if last is not None and epoch < int(last):
                raise StoreError(
                    "Cannot append epoch %d behind the store head %d: "
                    "the chain of custody is append-only"
                    % (epoch, int(last)))
            try:
                appended = self._append_batch(graph, epoch, system)
                if self.fail_before_commit and appended:
                    # Persist the batch WITHOUT its commit marker, then
                    # die: simulates a crash between the two.
                    self._connection.commit()
                    raise StoreCrashError(
                        "injected crash before epoch %d commit marker"
                        % epoch)
                self._connection.commit()
            except StoreCrashError:
                raise  # the torn batch must stay on disk
            except BaseException:
                self._connection.rollback()
                raise
            return appended

    def _append_batch(self, graph: ProvenanceGraph, epoch: int,
                      system: Any) -> int:
        connection = self._connection
        if self._meta("program_source") is None:
            self._set_meta("program_source", str(system.program))
            self._set_meta("base_epoch", str(epoch))

        # The epoch row anchors the batch's foreign keys, so it goes in
        # first — uncommitted; the marker flips only after the batch.
        fresh_epoch_row = connection.execute(
            "SELECT 1 FROM epochs WHERE epoch = ?",
            (epoch,)).fetchone() is None
        if fresh_epoch_row:
            connection.execute(
                "INSERT INTO epochs (epoch, committed) VALUES (?, 0)",
                (epoch,))

        tuple_ids: Dict[str, int] = dict(connection.execute(
            "SELECT key, id FROM tuples"))
        rule_ids: Dict[str, int] = dict(connection.execute(
            "SELECT label, id FROM rules"))
        known_execs = {row[0] for row in connection.execute(
            "SELECT exec_id FROM firings")}

        new_tuples = new_rules = new_firings = 0
        for key in sorted(graph.tuple_keys()):
            if key in tuple_ids:
                continue
            is_base = graph.is_base(key)
            cursor = connection.execute(
                "INSERT INTO tuples (key, is_base, probability, label, "
                "epoch) VALUES (?, ?, ?, ?, ?)",
                (key, int(is_base),
                 graph.base_probability(key) if is_base else None,
                 graph.base_label(key) if is_base else None,
                 epoch))
            tuple_ids[key] = cursor.lastrowid
            new_tuples += 1
        for label, probability in sorted(graph.rules().items()):
            if label in rule_ids:
                continue
            cursor = connection.execute(
                "INSERT INTO rules (label, probability, epoch) "
                "VALUES (?, ?, ?)", (label, probability, epoch))
            rule_ids[label] = cursor.lastrowid
            new_rules += 1
        for execution in sorted(graph.executions(),
                                key=lambda entry: entry.exec_id):
            if execution.exec_id in known_execs:
                continue
            cursor = connection.execute(
                "INSERT INTO firings (exec_id, rule_id, head_id, "
                "probability, epoch) VALUES (?, ?, ?, ?, ?)",
                (execution.exec_id, rule_ids[execution.rule_label],
                 tuple_ids[execution.head], execution.probability, epoch))
            firing_id = cursor.lastrowid
            connection.executemany(
                "INSERT INTO firing_body (firing_id, position, tuple_id) "
                "VALUES (?, ?, ?)",
                [(firing_id, position, tuple_ids[body_key])
                 for position, body_key in enumerate(execution.body)])
            new_firings += 1

        appended = new_tuples + new_rules + new_firings
        if fresh_epoch_row and appended == 0 and self._has_committed_epochs():
            # Nothing new: keep the spine free of empty epoch rows.
            connection.execute(
                "DELETE FROM epochs WHERE epoch = ?", (epoch,))
            return 0
        if appended:
            connection.execute(
                "UPDATE epochs SET tuples_added = tuples_added + ?, "
                "rules_added = rules_added + ?, "
                "firings_added = firings_added + ? WHERE epoch = ?",
                (new_tuples, new_rules, new_firings, epoch))
        if not self.fail_before_commit:
            connection.execute(
                "UPDATE epochs SET committed = 1 WHERE epoch = ?", (epoch,))
        return appended

    def _has_committed_epochs(self) -> bool:
        return self._connection.execute(
            "SELECT 1 FROM epochs WHERE committed = 1 LIMIT 1"
        ).fetchone() is not None

    # -- warm-start loads --------------------------------------------------------

    def load_graph(self, epoch: Optional[int] = None) -> ProvenanceGraph:
        """Rebuild the provenance graph as of a committed epoch
        (default: the newest)."""
        with self._lock:
            as_of = self._resolve_epoch(epoch)
            graph = ProvenanceGraph()
            for key, probability, label in self._connection.execute(
                    "SELECT key, probability, label FROM tuples "
                    "WHERE is_base = 1 AND epoch <= ? ORDER BY key",
                    (as_of,)):
                graph.add_base_tuple(key, probability, label)
            for label, probability in self._connection.execute(
                    "SELECT label, probability FROM rules "
                    "WHERE epoch <= ? ORDER BY label", (as_of,)):
                graph.add_rule(label, probability)
            for firing_id, rule_label, head, probability in (
                    self._connection.execute(
                        "SELECT f.id, r.label, t.key, f.probability "
                        "FROM firings f "
                        "JOIN rules r ON r.id = f.rule_id "
                        "JOIN tuples t ON t.id = f.head_id "
                        "WHERE f.epoch <= ? ORDER BY f.exec_id",
                        (as_of,)).fetchall()):
                body = tuple(key for (key,) in self._connection.execute(
                    "SELECT t.key FROM firing_body b "
                    "JOIN tuples t ON t.id = b.tuple_id "
                    "WHERE b.firing_id = ? ORDER BY b.position",
                    (firing_id,)))
                graph.add_execution(RuleExecution(
                    rule_label, head, body, probability))
        return graph

    def load_program(self, epoch: Optional[int] = None):
        """Rebuild the program as of a committed epoch.

        The program source captured at the first snapshot is re-parsed,
        then base facts that arrived in later epochs (``add_facts``
        appends) are grafted back on from their tuple rows.
        """
        from ..datalog.ast import Fact
        from ..datalog.parser import parse_atom, parse_program
        with self._lock:
            as_of = self._resolve_epoch(epoch)
            source = self._meta("program_source")
            if source is None:
                raise StoreError(
                    "Store %s has no program snapshot" % self.path)
            base_epoch = int(self._meta("base_epoch") or 0)
            program = parse_program(source)
            known = {str(fact.atom) for fact in program.facts}
            rows = self._connection.execute(
                "SELECT key, probability, label FROM tuples "
                "WHERE is_base = 1 AND epoch > ? AND epoch <= ? "
                "ORDER BY epoch, id", (base_epoch, as_of)).fetchall()
        for key, probability, label in rows:
            if key in known:
                continue
            program.add(Fact(parse_atom(key), probability, label))
        return program

    def open_system(self, system_cls: Any,
                    config: Optional[Any] = None,
                    epoch: Optional[int] = None) -> Any:
        """Warm-start a ``system_cls`` (:class:`~repro.core.system.P3`)
        from the store, as of ``epoch`` (default: newest committed).

        The restored epoch is threaded into the system, so the
        executor's epoch-tagged caches — including any polynomials
        persisted at that epoch, which are primed straight into the
        polynomial LRU — carry the store's epoch, not 0.
        """
        with self._lock:
            as_of = self._resolve_epoch(epoch)
        program = self.load_program(as_of)
        graph = self.load_graph(as_of)
        system = system_cls.warm_start(program, graph, epoch=as_of,
                                       config=config)
        polynomials = self.load_polynomials(as_of)
        if polynomials:
            executor = system.executor()
            for (root, hop_limit) in sorted(
                    polynomials, key=lambda item: (item[0], repr(item[1]))):
                executor.prime_polynomial(
                    root, hop_limit, polynomials[(root, hop_limit)])
        return system

    # -- persisted polynomials ---------------------------------------------------

    def save_polynomial(self, key: str, hop_limit: Optional[int],
                        polynomial: Polynomial, epoch: int) -> None:
        """Persist one extracted polynomial under ``epoch``.

        Normalized into rows: the monomials in a stable sorted order,
        each as its sorted literal rows.  Saving the same (root, hop, epoch) again replaces it.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT id FROM tuples WHERE key = ?", (key,)).fetchone()
            if row is None:
                raise StoreError(
                    "Cannot persist a polynomial for unknown tuple %r"
                    % key)
            root_id = row[0]
            try:
                self._connection.execute(
                    "DELETE FROM polynomials WHERE root_id = ? AND "
                    "IFNULL(hop_limit, -1) = IFNULL(?, -1) AND epoch = ?",
                    (root_id, hop_limit, epoch))
                cursor = self._connection.execute(
                    "INSERT INTO polynomials (root_id, hop_limit, epoch) "
                    "VALUES (?, ?, ?)", (root_id, hop_limit, epoch))
                polynomial_id = cursor.lastrowid
                monomials = sorted(
                    (tuple(sorted(monomial.literals))
                     for monomial in polynomial.monomials),
                    key=repr)
                for ordinal, literals in enumerate(monomials):
                    cursor = self._connection.execute(
                        "INSERT INTO monomials (polynomial_id, ordinal) "
                        "VALUES (?, ?)", (polynomial_id, ordinal))
                    self._connection.executemany(
                        "INSERT INTO monomial_literals (monomial_id, "
                        "position, kind, key) VALUES (?, ?, ?, ?)",
                        [(cursor.lastrowid, position, literal.kind,
                          literal.key)
                         for position, literal in enumerate(literals)])
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise

    def load_polynomials(self, epoch: Optional[int] = None
                         ) -> Dict[Tuple[str, Optional[int]], Polynomial]:
        """Polynomials persisted at exactly ``epoch``.

        Only the requested epoch's polynomials are returned: a
        polynomial captured under an older graph may have fewer
        derivations than the current graph supports, so priming it into
        a newer epoch's cache would serve stale provenance.
        """
        with self._lock:
            as_of = self._resolve_epoch(epoch)
            loaded: Dict[Tuple[str, Optional[int]], Polynomial] = {}
            rows = self._connection.execute(
                "SELECT p.id, t.key, p.hop_limit FROM polynomials p "
                "JOIN tuples t ON t.id = p.root_id WHERE p.epoch = ?",
                (as_of,)).fetchall()
            for polynomial_id, root, hop_limit in rows:
                monomials = []
                for (monomial_id,) in self._connection.execute(
                        "SELECT id FROM monomials WHERE polynomial_id = ? "
                        "ORDER BY ordinal", (polynomial_id,)):
                    literals = [
                        Literal(kind, key)
                        for kind, key in self._connection.execute(
                            "SELECT kind, key FROM monomial_literals "
                            "WHERE monomial_id = ? ORDER BY position",
                            (monomial_id,))
                    ]
                    monomials.append(Monomial(literals))
                loaded[(root, hop_limit)] = Polynomial(monomials)
        return loaded

    def __repr__(self) -> str:
        return "ProvenanceStore(%r)" % self.path
