"""Schema-driven random data generation (the DataFiller substitute).

The paper produced its experimental data with DataFiller, a tool that fills
an SQL schema with random values and NULLs.  This module plays the same role
for our in-memory databases: a :class:`TableSpec` describes, for each column,
how to draw values and how often to leave the entry null, and
:func:`generate_database` produces a reproducible instance of any schema.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.geometry.ball import RngLike, as_generator
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.values import BaseNull, NumNull, Value

#: A value factory: receives the generator and the row index, returns a value.
ValueFactory = Callable[[np.random.Generator, int], Value]


@dataclass(frozen=True)
class ColumnSpec:
    """How to fill one column.

    Exactly one of ``choices``, ``uniform``, ``factory`` or ``serial`` should
    be provided:

    * ``choices`` -- draw uniformly from a finite pool (categorical columns);
    * ``uniform`` -- draw a float uniformly from ``(low, high)``;
    * ``factory`` -- arbitrary callable;
    * ``serial`` -- ``f"{serial}{row_index}"`` identifiers (primary keys).

    ``null_rate`` is the probability that the entry is a fresh marked null
    instead of a generated value.
    """

    choices: Optional[Sequence[Value]] = None
    uniform: Optional[tuple[float, float]] = None
    factory: Optional[ValueFactory] = None
    serial: Optional[str] = None
    null_rate: float = 0.0

    def __post_init__(self) -> None:
        provided = sum(option is not None
                       for option in (self.choices, self.uniform, self.factory, self.serial))
        if provided != 1:
            raise ValueError("exactly one of choices/uniform/factory/serial must be given")
        if not 0.0 <= self.null_rate <= 1.0:
            raise ValueError(f"null_rate must be in [0, 1], got {self.null_rate}")

    def draw(self, generator: np.random.Generator, row_index: int) -> Value:
        if self.choices is not None:
            return self.choices[int(generator.integers(0, len(self.choices)))]
        if self.uniform is not None:
            low, high = self.uniform
            return float(generator.uniform(low, high))
        if self.factory is not None:
            return self.factory(generator, row_index)
        return f"{self.serial}{row_index}"

    def draw_batch(self, generator: np.random.Generator, count: int) -> list[Value]:
        """Draw a whole column at once (the columnar generation path).

        Vectorizes the ``choices`` and ``uniform`` families; ``factory``
        columns necessarily fall back to a per-row loop.  The draw *order*
        differs from ``count`` individual :meth:`draw` calls (one stream
        consumption per column instead of per entry), so columnar-generated
        data is reproducible per backend but not bit-identical to the row
        backend's data at the same seed -- convert with
        ``Database.with_backend`` when both backends must see one instance.
        """
        if self.choices is not None:
            picks = generator.integers(0, len(self.choices), size=count)
            return [self.choices[int(index)] for index in picks]
        if self.uniform is not None:
            low, high = self.uniform
            return generator.uniform(low, high, size=count).tolist()
        if self.factory is not None:
            return [self.factory(generator, index) for index in range(count)]
        return [f"{self.serial}{index}" for index in range(count)]


@dataclass(frozen=True)
class TableSpec:
    """How to fill one table: number of rows and one :class:`ColumnSpec` per column."""

    rows: int
    columns: dict[str, ColumnSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise ValueError(f"rows must be non-negative, got {self.rows}")


def generate_database(schema: DatabaseSchema,
                      specs: dict[str, TableSpec],
                      rng: RngLike = None,
                      null_prefix: str = "g",
                      backend: str = "rows") -> Database:
    """Generate a database instance of ``schema`` according to ``specs``.

    Every generated null is a fresh marked null (``⊥``/``⊤`` depending on the
    column type), so the result is a well-formed incomplete database in the
    paper's model.  Tables of the schema without a spec are left empty.

    With ``backend="columnar"`` the generator works column-wise: null masks
    and values are drawn as whole arrays and land directly in a
    :class:`~repro.relational.columnar.ColumnarRelation` without any per-row
    ``validate_tuple`` -- the DataFiller-scale path for 10^5-10^6-row
    instances.  Both backends are reproducible at a fixed seed, but the
    column-wise draw order differs from the row-wise one, so the two
    backends generate different (same-distribution) instances at the same
    seed; use :meth:`Database.with_backend` to hand one instance to both.
    """
    generator = as_generator(rng)
    null_counter = itertools.count(1)
    if backend == "columnar":
        return _generate_columnar(schema, specs, generator, null_prefix,
                                  null_counter)
    database = Database(schema, backend=backend)
    for table_name, spec in specs.items():
        relation_schema = schema.relation(table_name)
        _check_specs(relation_schema, spec, table_name)
        for row_index in range(spec.rows):
            row: list[Value] = []
            for attribute in relation_schema.attributes:
                column_spec = spec.columns[attribute.name]
                if generator.random() < column_spec.null_rate:
                    label = f"{null_prefix}{next(null_counter)}"
                    row.append(NumNull(label) if attribute.is_numeric else BaseNull(label))
                else:
                    row.append(column_spec.draw(generator, row_index))
            database.add(table_name, row)
    return database


def _check_specs(relation_schema, spec: TableSpec, table_name: str) -> None:
    missing = [attribute.name for attribute in relation_schema.attributes
               if attribute.name not in spec.columns]
    if missing:
        raise ValueError(
            f"table {table_name!r} is missing column specs for {missing}")


def _generate_columnar(schema: DatabaseSchema, specs: dict[str, TableSpec],
                       generator: np.random.Generator, null_prefix: str,
                       null_counter) -> Database:
    """Column-wise generation straight into columnar storage."""
    from repro.relational.columnar import ColumnarRelation

    database = Database(schema, backend="columnar")
    for table_name, spec in specs.items():
        relation_schema = schema.relation(table_name)
        _check_specs(relation_schema, spec, table_name)
        columns: dict[str, list[Value]] = {}
        for attribute in relation_schema.attributes:
            column_spec = spec.columns[attribute.name]
            null_mask = generator.random(spec.rows) < column_spec.null_rate
            values = column_spec.draw_batch(generator, spec.rows)
            make_null = NumNull if attribute.is_numeric else BaseNull
            for position in np.flatnonzero(null_mask):
                values[position] = make_null(f"{null_prefix}{next(null_counter)}")
            columns[attribute.name] = values
        database.install_relation(ColumnarRelation.from_columns(
            relation_schema, columns, dedupe=True, validate=False))
    return database
