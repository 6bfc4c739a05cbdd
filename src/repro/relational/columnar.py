"""Columnar relations: one NumPy array per column, nulls via companion codes.

The row backend (:class:`~repro.relational.relation.Relation`) stores Python
tuples in a list; every access touches every value object.  At the table
sizes the ROADMAP's north star implies (10^5-10^6 rows), that representation
is the dominant cost of query evaluation -- the PR 1 kernels and the PR 2
scheduler sit idle behind a row-at-a-time scan.  :class:`ColumnarRelation`
stores the same logical content column-wise so that the vectorized join
engine (:mod:`repro.engine.vectorized`) can prune and join whole columns at
once:

* a **base column** is an ``int64`` code array plus a small interning
  dictionary (insertion-ordered list of distinct values, constants and
  :class:`~repro.relational.values.BaseNull` marks alike).  Code equality is
  value equality, which is exactly the paper's semantics for base columns --
  a marked null equals itself and nothing else;
* a **numerical column** is a ``float64`` value array (``NaN`` at null
  slots) plus an ``int64`` null-code array (``-1`` for constants, otherwise
  an index into the column's list of :class:`NumNull` marks).

The class is protocol-compatible with :class:`Relation` (iteration, ``add``,
``tuples``, inventories, ...), so everything outside the vectorized hot path
-- the Proposition 5.3 translator, CSV round-tripping, the certainty schemes
-- works on either backend unchanged.  Conversion both ways is lossless up
to numeric widening (``int`` constants come back as the equal ``float``).

Incremental ``add`` appends to a small row-buffer that is sealed into the
arrays on the next columnar access, so interactive use stays cheap while
bulk construction (:meth:`from_columns`, :meth:`from_relation`) never pays a
per-row ``validate_tuple``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.relational.schema import RelationSchema, SchemaError
from repro.relational.values import (
    BaseNull,
    NumNull,
    Value,
    is_base_null,
    is_num_null,
    is_numeric_constant,
)


@dataclass
class BaseColumnData:
    """Interned base column: ``values[codes[i]]`` is the value of row ``i``."""

    codes: np.ndarray
    #: Interning dictionary, in order of first appearance.
    values: list
    #: Inverse of :attr:`values`.
    code_of: dict

    def value_objects(self) -> np.ndarray:
        """The column as an object array of the original values."""
        dictionary = np.empty(len(self.values), dtype=object)
        for index, value in enumerate(self.values):
            dictionary[index] = value
        if len(self.codes) == 0:
            return np.empty(0, dtype=object)
        return dictionary[self.codes]

    def values_at(self, rows: np.ndarray) -> list:
        """The values of the rows at ``rows``, as a list."""
        values = self.values
        return [values[code] for code in self.codes[rows].tolist()]


@dataclass
class NumericColumnData:
    """Numerical column: floats with ``NaN`` at null slots, nulls coded aside."""

    values: np.ndarray
    #: ``-1`` where the entry is a constant, else an index into :attr:`nulls`.
    null_codes: np.ndarray
    nulls: list

    def value_objects(self) -> np.ndarray:
        """The column as an object array (Python floats and ``NumNull`` marks)."""
        objects = np.array(self.values.tolist(), dtype=object)
        if len(objects) == 0:
            return np.empty(0, dtype=object)
        for position in np.flatnonzero(self.null_codes >= 0):
            objects[position] = self.nulls[self.null_codes[position]]
        return objects

    def values_at(self, rows: np.ndarray) -> list:
        """The values of the rows at ``rows``, as a list (Python floats
        and ``NumNull`` marks)."""
        nulls = self.nulls
        return [nulls[code] if code >= 0 else value
                for code, value in zip(self.null_codes[rows].tolist(),
                                       self.values[rows].tolist())]

    @property
    def null_mask(self) -> np.ndarray:
        return self.null_codes >= 0


def _intern_base_column(values: Iterable[Value],
                        column_label: str,
                        validate: bool) -> BaseColumnData:
    codes: list[int] = []
    dictionary: list = []
    code_of: dict = {}
    for value in values:
        try:
            code = code_of.get(value)
        except TypeError as error:
            raise SchemaError(
                f"column {column_label} is base-typed but got "
                f"unhashable {value!r}") from error
        if code is None:
            if validate and (is_num_null(value) or is_numeric_constant(value)):
                raise SchemaError(
                    f"column {column_label} is base-typed but got {value!r}")
            code = len(dictionary)
            code_of[value] = code
            dictionary.append(value)
        codes.append(code)
    return BaseColumnData(codes=np.asarray(codes, dtype=np.int64),
                          values=dictionary, code_of=code_of)


def _intern_numeric_column(values: Iterable[Value],
                           column_label: str) -> NumericColumnData:
    floats: list[float] = []
    null_codes: list[int] = []
    nulls: list = []
    null_code_of: dict = {}
    for value in values:
        if is_num_null(value):
            code = null_code_of.get(value)
            if code is None:
                code = len(nulls)
                null_code_of[value] = code
                nulls.append(value)
            floats.append(np.nan)
            null_codes.append(code)
        elif is_numeric_constant(value):
            floats.append(float(value))
            null_codes.append(-1)
        else:
            raise SchemaError(
                f"column {column_label} is numerical but got {value!r}")
    return NumericColumnData(values=np.asarray(floats, dtype=np.float64),
                             null_codes=np.asarray(null_codes, dtype=np.int64),
                             nulls=nulls)


class ColumnarRelation:
    """A relation stored column-wise; drop-in compatible with :class:`Relation`.

    Set semantics are preserved: duplicate tuples inserted through ``add`` /
    ``extend`` are stored once.  Bulk constructors accept ``dedupe=False``
    for inputs known to be duplicate-free (conversion from a row relation,
    generated serial keys), in which case the seen-set is built lazily only
    if row-at-a-time mutation resumes later.
    """

    def __init__(self, schema: RelationSchema,
                 tuples: Iterable[Sequence[Value]] = ()) -> None:
        self._schema = schema
        self._columns: Optional[list] = None  # sealed column data, row-aligned
        self._sealed_rows = 0
        self._tail: list[tuple[Value, ...]] = []
        self._seen: Optional[set[tuple[Value, ...]]] = set()
        self._row_cache: Optional[tuple[tuple[Value, ...], ...]] = None
        self._object_cache: dict[str, np.ndarray] = {}
        for values in tuples:
            self.add(values)

    # -- bulk construction -------------------------------------------------

    @classmethod
    def from_columns(cls, schema: RelationSchema,
                     columns: dict[str, Sequence[Value]],
                     dedupe: bool = True,
                     validate: bool = True) -> "ColumnarRelation":
        """Build a relation straight from per-column value sequences.

        This is the zero-copy-ish path the data generator and the row-to-
        columnar conversion use: no per-row ``validate_tuple``, typing is
        checked once per column while interning.  With ``dedupe=True``
        duplicate rows are dropped (first occurrence wins), matching the set
        semantics of ``add``.
        """
        missing = [attribute.name for attribute in schema.attributes
                   if attribute.name not in columns]
        if missing:
            raise SchemaError(
                f"relation {schema.name!r} is missing columns {missing}")
        lengths = {len(columns[attribute.name]) for attribute in schema.attributes}
        if len(lengths) > 1:
            raise SchemaError(
                f"relation {schema.name!r}: ragged columns of lengths {sorted(lengths)}")
        relation = cls(schema)
        data = []
        for attribute in schema.attributes:
            label = f"{schema.name}.{attribute.name}"
            raw = columns[attribute.name]
            if attribute.is_numeric:
                data.append(_intern_numeric_column(raw, label))
            else:
                data.append(_intern_base_column(raw, label, validate=validate))
        if dedupe:
            data = _dedupe_columns(data)
        relation._columns = data
        relation._sealed_rows = len(data[0].codes) if isinstance(data[0], BaseColumnData) \
            else len(data[0].values)
        relation._seen = None  # rebuilt lazily if add()/``in`` is used later
        return relation

    @classmethod
    def from_rows(cls, schema: RelationSchema,
                  rows: Sequence[Sequence[Value]],
                  dedupe: bool = True,
                  validate: bool = True) -> "ColumnarRelation":
        """Columnarise a sequence of row tuples in one pass."""
        columns = {
            attribute.name: [row[index] for row in rows]
            for index, attribute in enumerate(schema.attributes)
        }
        for row in rows:
            if len(row) != schema.arity:
                raise SchemaError(
                    f"relation {schema.name!r} expects {schema.arity} values, "
                    f"got {len(row)}")
        return cls.from_columns(schema, columns, dedupe=dedupe, validate=validate)

    @classmethod
    def from_relation(cls, relation) -> "ColumnarRelation":
        """Convert a row :class:`Relation` (already validated and deduped)."""
        return cls.from_rows(relation.schema, relation.tuples(),
                             dedupe=False, validate=False)

    def to_relation(self):
        """Materialise back into a row :class:`Relation`."""
        from repro.relational.relation import Relation
        return Relation(self._schema, self.tuples())

    def copy(self) -> "ColumnarRelation":
        """A cheap copy: sealed arrays are immutable here, so they are shared."""
        duplicate = ColumnarRelation(self._schema)
        self._flush()
        duplicate._columns = list(self._columns) if self._columns is not None else None
        duplicate._sealed_rows = self._sealed_rows
        duplicate._seen = set(self._seen) if self._seen is not None else None
        duplicate._row_cache = self._row_cache
        return duplicate

    # -- the Relation protocol ---------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    @property
    def arity(self) -> int:
        return self._schema.arity

    def add(self, values: Sequence[Value]) -> None:
        """Insert a tuple after validating it against the schema."""
        normalised = self._schema.validate_tuple(values)
        if normalised in self._seen_set():
            return
        self._seen.add(normalised)
        self._tail.append(normalised)
        self._row_cache = None
        self._object_cache.clear()

    def extend(self, tuples: Iterable[Sequence[Value]]) -> None:
        for values in tuples:
            self.add(values)

    def __len__(self) -> int:
        return self._sealed_rows + len(self._tail)

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        return iter(self.tuples())

    def __contains__(self, values: Sequence[Value]) -> bool:
        try:
            normalised = self._schema.validate_tuple(values)
        except SchemaError:
            return False
        return normalised in self._seen_set()

    def tuples(self) -> tuple[tuple[Value, ...], ...]:
        """All tuples, in insertion order (materialised lazily and cached)."""
        if self._row_cache is None:
            self._flush()
            if self._sealed_rows == 0:
                self._row_cache = ()
            else:
                object_columns = [self._column_data(index).value_objects()
                                  for index in range(self._schema.arity)]
                self._row_cache = tuple(zip(*object_columns))
        return self._row_cache

    def row(self, index: int) -> tuple[Value, ...]:
        """Materialise the single row ``index`` without touching the others."""
        if self._row_cache is not None:
            return self._row_cache[index]
        self._flush()
        values = []
        for position in range(self._schema.arity):
            data = self._column_data(position)
            if isinstance(data, BaseColumnData):
                values.append(data.values[data.codes[index]])
            else:
                code = data.null_codes[index]
                values.append(data.nulls[code] if code >= 0
                              else float(data.values[index]))
        return tuple(values)

    def column(self, name: str) -> tuple[Value, ...]:
        """All values of the named column, in insertion order."""
        return tuple(self.column_objects(name))

    def column_objects(self, name: str) -> np.ndarray:
        """The named column as an object array of Python values (cached)."""
        cached = self._object_cache.get(name)
        if cached is None:
            cached = self.column_data(name).value_objects()
            self._object_cache[name] = cached
        return cached

    def column_data(self, name: str):
        """The sealed columnar storage of the named column."""
        self._flush()
        return self._column_data(self._schema.position(name))

    def base_nulls(self) -> set:
        """Base-type nulls occurring anywhere in the relation."""
        self._flush()
        nulls: set = set()
        for index, attribute in enumerate(self._schema.attributes):
            if not attribute.is_numeric and self._columns is not None:
                nulls.update(value for value in self._columns[index].values
                             if is_base_null(value))
        return nulls

    def num_nulls(self) -> set:
        """Numerical-type nulls occurring anywhere in the relation."""
        self._flush()
        nulls: set = set()
        for index, attribute in enumerate(self._schema.attributes):
            if attribute.is_numeric and self._columns is not None:
                nulls.update(self._columns[index].nulls)
        return nulls

    def base_constants(self) -> set:
        """Base-type constants occurring anywhere in the relation."""
        self._flush()
        constants: set = set()
        for index, attribute in enumerate(self._schema.attributes):
            if not attribute.is_numeric and self._columns is not None:
                constants.update(value for value in self._columns[index].values
                                 if not is_base_null(value))
        return constants

    def num_constants(self) -> set[float]:
        """Numerical constants occurring anywhere in the relation."""
        self._flush()
        constants: set[float] = set()
        for index, attribute in enumerate(self._schema.attributes):
            if attribute.is_numeric and self._columns is not None:
                data = self._columns[index]
                constants.update(
                    float(value)
                    for value in data.values[data.null_codes < 0].tolist())
        return constants

    def take(self, indices: np.ndarray) -> "ColumnarRelation":
        """The sub-relation of the rows at ``indices``, in that order.

        The delete path of :mod:`repro.relational.mutation`: row-aligned
        arrays are gathered with one fancy-indexing pass per column, and
        each column's interning dictionary is *compacted* to the values the
        taken rows actually use, which keeps the sub-relation's inventories
        (``base_constants`` and friends) exact.  Code *numbering* changes
        under compaction; only code equality carries meaning, which every
        consumer honours.
        """
        self._flush()
        indices = np.asarray(indices, dtype=np.int64)
        result = ColumnarRelation(self._schema)
        taken = []
        for data in self._columns or []:
            if isinstance(data, BaseColumnData):
                codes = data.codes[indices]
                used, compacted = np.unique(codes, return_inverse=True)
                values = [data.values[code] for code in used.tolist()]
                taken.append(BaseColumnData(
                    codes=compacted.astype(np.int64),
                    values=values,
                    code_of={value: code for code, value in enumerate(values)}))
            else:
                null_codes = data.null_codes[indices]
                used = np.unique(null_codes[null_codes >= 0])
                compacted = np.where(
                    null_codes >= 0,
                    np.searchsorted(used, null_codes), -1).astype(np.int64)
                taken.append(NumericColumnData(
                    values=data.values[indices],
                    null_codes=compacted,
                    nulls=[data.nulls[code] for code in used.tolist()]))
        result._columns = taken
        result._sealed_rows = len(indices)
        result._seen = None
        return result

    def with_appended(self, rows: Sequence[Sequence[Value]]) -> "ColumnarRelation":
        """A new relation sharing this one's sealed arrays plus a tail segment.

        The MVCC append path: the parent snapshot's column arrays are
        shared (immutable once sealed), the appended rows are merged as a
        tail through the dictionary-preserving :meth:`_flush`, so existing
        row codes never change and the parent relation is untouched.  The
        caller guarantees the rows are validated and duplicate-free
        against the parent content (:class:`~repro.relational.mutation.
        Mutation` does); the seen-set is left unset and rebuilt lazily if
        row-at-a-time ``add`` resumes.
        """
        self._flush()
        result = ColumnarRelation(self._schema)
        result._columns = list(self._columns) if self._columns is not None else None
        result._sealed_rows = self._sealed_rows
        result._seen = None
        result._tail = [tuple(row) for row in rows]
        result._flush()
        return result

    def map_values(self, mapping) -> "ColumnarRelation":
        """A new columnar relation with every value passed through ``mapping``."""
        result = ColumnarRelation(self._schema)
        for row in self.tuples():
            result.add(tuple(mapping(value) for value in row))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarRelation({self.name}, {len(self)} tuples)"

    # -- internals ----------------------------------------------------------

    def _column_data(self, position: int):
        assert self._columns is not None
        return self._columns[position]

    def _seen_set(self) -> set[tuple[Value, ...]]:
        if self._seen is None:
            # Bulk-loaded without a seen-set; rebuild it once on demand.
            self._seen = set(self.tuples())
        return self._seen

    def _flush(self) -> None:
        """Seal buffered rows into the column arrays."""
        if self._columns is None:
            sealed = ColumnarRelation.from_rows(
                self._schema, self._tail, dedupe=False, validate=False)
            self._columns = sealed._columns
            self._sealed_rows = len(self._tail)
            self._tail = []
            return
        if not self._tail:
            return
        fresh = ColumnarRelation.from_rows(
            self._schema, self._tail, dedupe=False, validate=False)
        merged = []
        for index, attribute in enumerate(self._schema.attributes):
            old = self._columns[index]
            new = fresh._columns[index]
            if attribute.is_numeric:
                null_codes = new.null_codes.copy()
                null_code_of = {null: code for code, null in enumerate(old.nulls)}
                nulls = list(old.nulls)
                for position, null in enumerate(new.nulls):
                    code = null_code_of.get(null)
                    if code is None:
                        code = len(nulls)
                        nulls.append(null)
                    null_codes[new.null_codes == position] = code
                merged.append(NumericColumnData(
                    values=np.concatenate([old.values, new.values]),
                    null_codes=np.concatenate([old.null_codes, null_codes]),
                    nulls=nulls))
            else:
                code_of = dict(old.code_of)
                values = list(old.values)
                remap = np.empty(len(new.values), dtype=np.int64)
                for position, value in enumerate(new.values):
                    code = code_of.get(value)
                    if code is None:
                        code = len(values)
                        code_of[value] = code
                        values.append(value)
                    remap[position] = code
                merged.append(BaseColumnData(
                    codes=np.concatenate([old.codes, remap[new.codes]]),
                    values=values, code_of=code_of))
        self._columns = merged
        self._sealed_rows += len(self._tail)
        self._tail = []


def _dedupe_columns(data: list) -> list:
    """Drop duplicate rows (first occurrence wins), fully vectorized.

    Every column reduces each row to an integer code (base columns already
    have one; numerical columns get one from ``np.unique`` over values with
    nulls offset into their own code range), so a row is a small integer
    vector and duplicate detection is ``np.unique`` over the stacked matrix.
    """
    if not data:
        return data
    length = len(data[0].codes) if isinstance(data[0], BaseColumnData) \
        else len(data[0].values)
    if length == 0:
        return data
    code_rows = []
    for column in data:
        if isinstance(column, BaseColumnData):
            code_rows.append(column.codes)
        else:
            # NaNs (null slots) all collapse to one np.unique code; shifting
            # by the null code keeps distinct nulls distinct.
            _, value_codes = np.unique(column.values, return_inverse=True)
            codes = np.where(column.null_codes >= 0,
                             value_codes.max(initial=0) + 1 + column.null_codes,
                             value_codes)
            code_rows.append(codes)
    matrix = np.stack(code_rows, axis=1)
    _, first_positions = np.unique(matrix, axis=0, return_index=True)
    if len(first_positions) == length:
        return data
    keep = np.sort(first_positions)
    deduped = []
    for column in data:
        if isinstance(column, BaseColumnData):
            deduped.append(BaseColumnData(codes=column.codes[keep],
                                          values=column.values,
                                          code_of=column.code_of))
        else:
            deduped.append(NumericColumnData(values=column.values[keep],
                                             null_codes=column.null_codes[keep],
                                             nulls=column.nulls))
    return deduped
