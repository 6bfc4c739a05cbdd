"""MVCC mutations: versioned snapshots with incremental storage maintenance.

A :class:`Database` is treated as an immutable snapshot throughout the
service and server layers; mutations therefore never modify a snapshot in
place.  :meth:`Database.begin_mutation` opens a :class:`Mutation` against
the current snapshot; the caller stages inserts, deletes and updates
through it; :meth:`Mutation.commit` seals a **new** snapshot carrying the
next ``data_version``.  Readers that captured the old snapshot keep every
object they were handed -- relations, column arrays --
untouched, which is the whole MVCC contract: writers never block readers,
readers never observe a torn version.

The sealed snapshot is built incrementally, not rebuilt:

* untouched tables share their relation objects with the parent snapshot
  outright;
* an append-only table shares its sealed column arrays and appends the new
  rows as a tail segment (:meth:`ColumnarRelation` dictionary merges keep
  existing row codes stable);
* a table with deletes gathers its kept rows with one fancy-indexing pass
  per column (:meth:`ColumnarRelation.take`) -- logically a deletion
  bitmap applied at commit time -- then appends.

Row order of the sealed snapshot is exactly the order a from-scratch
rebuild of the same logical content would produce (kept rows in their
original order, inserted rows appended in statement order), which is what
lets the versioned differential harness demand bit-identical candidates,
witness order, lineage digests and certainties at every version.

Errors are typed for the wire protocol: :class:`MutationConflictError`
(``conflict``) for duplicate rows, :class:`MutationValidationError`
(``validation``) for schema/typing violations.  A mutation that raises
leaves the parent snapshot untouched -- statements are atomic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.relational.columnar import ColumnarRelation
from repro.relational.relation import Relation
from repro.relational.schema import SchemaError
from repro.relational.values import Value, is_base_null, is_num_null

__all__ = [
    "Mutation",
    "MutationConflictError",
    "MutationError",
    "MutationValidationError",
    "TableDelta",
]


class MutationError(ValueError):
    """Base class of typed mutation failures; ``code`` is the wire code."""

    code = "validation"


class MutationValidationError(MutationError):
    """The staged change violates the schema or the statement's typing."""

    code = "validation"


class MutationConflictError(MutationError):
    """The staged change collides with an existing row (set semantics)."""

    code = "conflict"


@dataclass(frozen=True)
class TableDelta:
    """What one committed mutation did to one table.

    ``deleted_rows`` holds the removed tuples themselves: the service's
    delta-driven invalidation needs the nulls those rows carried, and the
    rows are already materialised at delete time.  ``deleted_indices``
    holds their row indices in the parent snapshot, ascending (parallel to
    ``deleted_rows``): join-frontier maintenance shifts cached row indices
    past them.  ``appended`` counts rows added at the tail; ``old_length``
    is the table's row count in the parent snapshot.
    """

    table: str
    old_length: int
    appended: int
    deleted_rows: tuple[tuple[Value, ...], ...] = ()
    deleted_indices: tuple[int, ...] = ()

    @property
    def append_only(self) -> bool:
        return not self.deleted_rows

    def touched_nulls(self) -> frozenset[str]:
        """Names of the marked nulls occurring in the deleted rows."""
        names = set()
        for row in self.deleted_rows:
            for value in row:
                if is_base_null(value) or is_num_null(value):
                    names.add(value.name)
        return frozenset(names)


class _TableEdit:
    """The staged state of one table inside an open mutation."""

    def __init__(self, relation) -> None:
        self.relation = relation
        self.old_length = len(relation)
        #: Live membership set: parent rows minus deletes plus inserts.
        #: ``_seen_set`` reuses (and caches) the relation's own set, so a
        #: bulk-loaded table pays the row materialisation once, ever.
        if isinstance(relation, ColumnarRelation):
            self.seen: set[tuple[Value, ...]] = set(relation._seen_set())
        else:
            self.seen = set(relation._seen)
        self.inserts: list[tuple[Value, ...]] = []
        self.deleted: dict[int, tuple[Value, ...]] = {}


class Mutation:
    """Staged inserts/deletes/updates against one database snapshot.

    Obtained from :meth:`Database.begin_mutation`; not thread-safe (the
    service serialises writers).  All staging methods validate eagerly and
    raise typed errors without touching the parent snapshot; only
    :meth:`commit` produces the new version.
    """

    def __init__(self, database) -> None:
        self._database = database
        self._edits: dict[str, _TableEdit] = {}
        self._committed = False

    # -- staging -----------------------------------------------------------

    def _edit(self, table: str) -> _TableEdit:
        if self._committed:
            raise MutationValidationError("mutation already committed")
        if table not in self._database.relation_names():
            raise MutationValidationError(f"unknown relation {table!r}")
        edit = self._edits.get(table)
        if edit is None:
            edit = _TableEdit(self._database.relation(table))
            self._edits[table] = edit
        return edit

    def insert(self, table: str, values: Sequence[Value]) -> tuple[Value, ...]:
        """Stage one row for insertion; returns the normalised tuple."""
        edit = self._edit(table)
        try:
            normalised = edit.relation.schema.validate_tuple(values)
        except SchemaError as error:
            raise MutationValidationError(str(error)) from error
        if normalised in edit.seen:
            raise MutationConflictError(
                f"duplicate row in {table!r}: {normalised!r}")
        edit.seen.add(normalised)
        edit.inserts.append(normalised)
        return normalised

    def delete(self, table: str, row_index: int) -> tuple[Value, ...]:
        """Stage the deletion of the row at ``row_index`` (parent snapshot
        numbering); returns the removed tuple."""
        edit = self._edit(table)
        if not 0 <= row_index < edit.old_length:
            raise MutationValidationError(
                f"row index {row_index} out of range for {table!r} "
                f"({edit.old_length} rows)")
        if row_index in edit.deleted:
            raise MutationConflictError(
                f"row {row_index} of {table!r} deleted twice in one mutation")
        row = edit.relation.row(row_index)
        edit.deleted[row_index] = row
        edit.seen.discard(row)
        return row

    def update(self, table: str, row_index: int,
               values: Sequence[Value]) -> tuple[Value, ...]:
        """Stage an update as delete-then-insert: the new row lands at the
        tail, exactly where a replayed from-scratch build would put it."""
        self.delete(table, row_index)
        return self.insert(table, values)

    def staged_counts(self) -> dict[str, tuple[int, int]]:
        """``{table: (inserted, deleted)}`` of the changes staged so far."""
        return {table: (len(edit.inserts), len(edit.deleted))
                for table, edit in self._edits.items()}

    # -- sealing -----------------------------------------------------------

    def commit(self):
        """Seal the staged changes into a new immutable snapshot.

        Returns ``(database, deltas)``: the next-version :class:`Database`
        and a ``{table: TableDelta}`` of what changed.  The parent snapshot
        is never modified; committing an empty mutation still produces a
        new version (callers normally avoid that).
        """
        if self._committed:
            raise MutationValidationError("mutation already committed")
        self._committed = True
        deltas: dict[str, TableDelta] = {}
        rebuilt: dict[str, object] = {}
        for table, edit in self._edits.items():
            if not edit.inserts and not edit.deleted:
                continue
            deleted_indices = tuple(sorted(edit.deleted))
            deltas[table] = TableDelta(
                table=table,
                old_length=edit.old_length,
                appended=len(edit.inserts),
                deleted_rows=tuple(edit.deleted[index]
                                   for index in deleted_indices),
                deleted_indices=deleted_indices)
            rebuilt[table] = self._rebuild(edit, deleted_indices)
        return self._database._commit_mutation(rebuilt, deltas), deltas

    def _rebuild(self, edit: _TableEdit, deleted_indices: tuple[int, ...]):
        relation = edit.relation
        if isinstance(relation, ColumnarRelation):
            if deleted_indices:
                kept = np.setdiff1d(
                    np.arange(edit.old_length, dtype=np.int64),
                    np.asarray(deleted_indices, dtype=np.int64),
                    assume_unique=True)
                base = relation.take(kept)
            else:
                base = relation
            rebuilt = base.with_appended(edit.inserts)
            # Hand over the membership set maintained while staging, so the
            # next mutation of this table never re-materialises the rows.
            rebuilt._seen = edit.seen
            return rebuilt
        kept_rows = [row for index, row in enumerate(relation.tuples())
                     if index not in edit.deleted]
        rebuilt = Relation(relation.schema)
        rebuilt._tuples = kept_rows + edit.inserts
        rebuilt._seen = edit.seen
        return rebuilt
