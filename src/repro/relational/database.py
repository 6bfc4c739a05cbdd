"""Incomplete databases over the two-sorted schema.

A :class:`Database` holds one relation per schema relation and exposes the
inventories the paper's definitions are phrased in terms of: the base and
numerical constants appearing in the database (``C_base(D)``, ``C_num(D)``)
and its base and numerical nulls (``N_base(D)``, ``N_num(D)``).

Two storage backends are supported behind the same interface:

* ``backend="rows"`` -- :class:`~repro.relational.relation.Relation`, Python
  tuples in a list.  The reference representation; every code path was
  originally written against it.
* ``backend="columnar"`` -- :class:`~repro.relational.columnar.
  ColumnarRelation`, one NumPy array per column.  The vectorized join
  engine (:mod:`repro.engine.vectorized`) requires it; everything else
  works on either backend through the shared relation protocol.

``with_backend`` converts losslessly in both directions (up to numeric
widening of ``int`` constants to the equal ``float``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.relational.columnar import ColumnarRelation
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema, SchemaError
from repro.relational.values import BaseNull, NumNull, Value

#: The supported storage backends.
BACKENDS = ("rows", "columnar")


@dataclass(frozen=True)
class NullOrder:
    """A database's numerical nulls in coordinate order, with the two maps
    every lineage translation derives from that order.

    Shared by every translation of one snapshot, so treat ``by_variable``
    as read-only.
    """

    #: The nulls sorted by name (:meth:`Database.num_nulls_ordered`).
    nulls: tuple[NumNull, ...]
    #: ``null.variable`` of each null, in the same order.
    variables: tuple[str, ...]
    #: Variable name back to its null.
    by_variable: Mapping[str, NumNull]


class Database:
    """A database instance: one relation per relation schema, nulls allowed."""

    def __init__(self, schema: DatabaseSchema, backend: str = "rows") -> None:
        if backend not in BACKENDS:
            raise SchemaError(
                f"unknown storage backend {backend!r}; expected one of {BACKENDS}")
        relation_class = ColumnarRelation if backend == "columnar" else Relation
        self._schema = schema
        self._backend = backend
        self._relations: dict[str, Relation] = {
            relation_schema.name: relation_class(relation_schema)
            for relation_schema in schema
        }
        # -- MVCC version chain (see repro.relational.mutation) -------------
        #: Monotone snapshot counter; bumped by every committed mutation.
        self._data_version = 0
        #: Per-table version of the last mutation touching the table at all
        #: (plan caches key on these, so untouched tables stay warm).
        self._table_versions: dict[str, int] = {
            name: 0 for name in self._relations}
        #: Per-table version of the last *non-append* mutation (deletes and
        #: updates shift row indices; appends do not).  The incremental
        #: frontier maintenance is only sound against snapshots whose
        #: epochs have not moved past the cached version.
        self._table_epochs: dict[str, int] = {
            name: 0 for name in self._relations}
        #: Identity of this snapshot's version chain: shared by every
        #: snapshot committed from this one, distinct for converted copies.
        self._version_token: object = object()
        #: :meth:`null_order`, computed on first use.  A sealed snapshot is
        #: a new object; the in-place edits (``add``, ``install_relation``)
        #: clear it.
        self._null_order: Optional[NullOrder] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, schema: DatabaseSchema,
                  contents: Mapping[str, Iterable[Sequence[Value]]],
                  backend: str = "rows") -> "Database":
        """Build a database from ``{relation name: iterable of tuples}``."""
        database = cls(schema, backend=backend)
        for name, rows in contents.items():
            for row in rows:
                database.add(name, row)
        return database

    def add(self, relation_name: str, values: Sequence[Value]) -> None:
        """Insert a tuple into the named relation."""
        if relation_name not in self._relations:
            raise SchemaError(f"unknown relation {relation_name!r}")
        self._relations[relation_name].add(values)
        self._null_order = None

    def install_relation(self, relation) -> None:
        """Replace a relation wholesale with a bulk-built instance.

        The entry point for bulk loaders (the columnar data generator, bulk
        imports) that build a relation outside the database and hand it
        over: the relation must be declared by this database's schema and
        stored in this database's backend, so the per-backend invariants
        the tuple-at-a-time path maintains keep holding.
        """
        name = relation.name
        if name not in self._relations:
            raise SchemaError(f"unknown relation {name!r}")
        if relation.schema != self._schema.relation(name):
            raise SchemaError(
                f"relation {name!r} does not match the database schema")
        expected = ColumnarRelation if self._backend == "columnar" else Relation
        if not isinstance(relation, expected):
            raise SchemaError(
                f"relation {name!r} is not a {expected.__name__}; this "
                f"database uses the {self._backend!r} backend")
        # Wholesale replacement is indistinguishable from arbitrary deletes
        # and rewrites: start a new version chain, so anything cached
        # against the old chain token never treats the old content as a
        # prefix of the new.
        self._version_token = object()
        self._relations[name] = relation
        self._null_order = None

    def copy(self) -> "Database":
        """A deep copy (tuples are immutable, so sharing them is safe).

        The copy keeps the version numbers but starts its own version
        chain (fresh token): the original and the copy may diverge
        independently, so incremental state cached against one must never
        be applied to the other.
        """
        duplicate = Database(self._schema, backend=self._backend)
        for name, relation in self._relations.items():
            duplicate._relations[name] = relation.copy()
        duplicate._data_version = self._data_version
        duplicate._table_versions = dict(self._table_versions)
        duplicate._table_epochs = dict(self._table_epochs)
        return duplicate

    def with_backend(self, backend: str) -> "Database":
        """This database under the requested storage backend.

        Returns ``self`` when the backend already matches (databases are
        treated as stable snapshots throughout the service layer);
        otherwise converts every relation.  Conversion preserves content
        and tuple order exactly, so query answers and lineage formulas are
        identical across backends.
        """
        if backend not in BACKENDS:
            raise SchemaError(
                f"unknown storage backend {backend!r}; expected one of {BACKENDS}")
        if backend == self._backend:
            return self
        converted = Database(self._schema, backend=backend)
        for name, relation in self._relations.items():
            if backend == "columnar":
                converted._relations[name] = ColumnarRelation.from_relation(relation)
            else:
                converted._relations[name] = relation.to_relation()
        # Same content, same version numbers -- but a fresh chain token:
        # the converted snapshot evolves independently of its source.
        converted._data_version = self._data_version
        converted._table_versions = dict(self._table_versions)
        converted._table_epochs = dict(self._table_epochs)
        return converted

    # -- access ------------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    @property
    def backend(self) -> str:
        """Which storage backend this database uses (``rows`` or ``columnar``)."""
        return self._backend

    # -- MVCC version chain --------------------------------------------------

    @property
    def data_version(self) -> int:
        """Monotone version of this snapshot (0 for a freshly built database)."""
        return self._data_version

    @property
    def version_token(self) -> object:
        """Identity of this snapshot's version chain (see the mutation docs)."""
        return self._version_token

    def table_version(self, name: str) -> int:
        """Version of the last committed mutation that touched ``name``."""
        return self._table_versions.get(name, 0)

    def table_epoch(self, name: str) -> int:
        """Version of the last committed *non-append* mutation of ``name``."""
        return self._table_epochs.get(name, 0)

    def begin_mutation(self):
        """Open a staged mutation against this snapshot.

        Returns a :class:`~repro.relational.mutation.Mutation`; staging
        never modifies this snapshot, and ``commit()`` seals a *new*
        database at ``data_version + 1``.  Writers must be serialised by
        the caller (the service holds a writer lock); readers need no
        coordination at all -- they keep the snapshot they started on.
        """
        from repro.relational.mutation import Mutation
        return Mutation(self)

    def _commit_mutation(self, rebuilt: Mapping[str, object],
                         deltas: Mapping[str, object]) -> "Database":
        """Seal a committed mutation into the next-version snapshot.

        Called by :meth:`Mutation.commit` with the incrementally rebuilt
        relations of the touched tables and their deltas.  Untouched
        tables share their relation objects.
        """
        sealed = Database(self._schema, backend=self._backend)
        sealed._relations = {
            name: rebuilt.get(name, relation)
            for name, relation in self._relations.items()}
        sealed._data_version = self._data_version + 1
        sealed._version_token = self._version_token
        sealed._table_versions = dict(self._table_versions)
        sealed._table_epochs = dict(self._table_epochs)
        for table, delta in deltas.items():
            sealed._table_versions[table] = sealed._data_version
            if not delta.append_only:
                sealed._table_epochs[table] = sealed._data_version
        return sealed

    def relation(self, name: str) -> Relation:
        if name not in self._relations:
            raise SchemaError(f"unknown relation {name!r}")
        return self._relations[name]

    def relation_schema(self, name: str) -> RelationSchema:
        return self._schema.relation(name)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations.keys())

    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(relation) for relation in self._relations.values())

    # -- inventories (C_base(D), C_num(D), N_base(D), N_num(D)) -------------

    def base_constants(self) -> set:
        """``C_base(D)``: base-type constants appearing in the database."""
        constants: set = set()
        for relation in self._relations.values():
            constants.update(relation.base_constants())
        return constants

    def num_constants(self) -> set[float]:
        """``C_num(D)``: numerical constants appearing in the database."""
        constants: set[float] = set()
        for relation in self._relations.values():
            constants.update(relation.num_constants())
        return constants

    def base_nulls(self) -> set[BaseNull]:
        """``N_base(D)``: base-type nulls appearing in the database."""
        nulls: set[BaseNull] = set()
        for relation in self._relations.values():
            nulls.update(relation.base_nulls())
        return nulls

    def num_nulls(self) -> set[NumNull]:
        """``N_num(D)``: numerical-type nulls appearing in the database."""
        nulls: set[NumNull] = set()
        for relation in self._relations.values():
            nulls.update(relation.num_nulls())
        return nulls

    def num_nulls_ordered(self) -> tuple[NumNull, ...]:
        """Numerical nulls in a deterministic order (sorted by name).

        The translation to a constraint formula and the samplers need a fixed
        correspondence between nulls and vector coordinates; sorting by name
        makes that correspondence reproducible across runs.
        """
        return self.null_order().nulls

    def null_order(self) -> NullOrder:
        """:meth:`num_nulls_ordered` with its variable tuple and map, built
        once per snapshot: every plan and commit reads them."""
        order = self._null_order
        if order is None:
            nulls = tuple(sorted(self.num_nulls(), key=lambda null: null.name))
            order = self._null_order = NullOrder(
                nulls=nulls,
                variables=tuple(null.variable for null in nulls),
                by_variable={null.variable: null for null in nulls})
        return order

    def is_complete(self) -> bool:
        """Whether the database contains no nulls at all."""
        return not self.base_nulls() and not self.num_nulls()

    def map_values(self, mapping) -> "Database":
        """A new database with every stored value passed through ``mapping``."""
        result = Database(self._schema, backend=self._backend)
        for name, relation in self._relations.items():
            result._relations[name] = relation.map_values(mapping)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = ", ".join(f"{name}={len(relation)}"
                           for name, relation in self._relations.items())
        return f"Database({counts})"
