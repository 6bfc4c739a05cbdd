"""Relations: finite sets of typed tuples, possibly containing nulls."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.relational.schema import RelationSchema, SchemaError
from repro.relational.values import (
    Value,
    is_base_null,
    is_num_null,
    is_numeric_constant,
)


class Relation:
    """A finite set of tuples conforming to a :class:`RelationSchema`.

    Tuples are kept in insertion order (useful for reproducible candidate
    enumeration and ``LIMIT`` clauses) but duplicate tuples are stored only
    once, matching the set semantics of the paper's model.
    """

    def __init__(self, schema: RelationSchema,
                 tuples: Iterable[Sequence[Value]] = ()) -> None:
        self._schema = schema
        self._tuples: list[tuple[Value, ...]] = []
        self._seen: set[tuple[Value, ...]] = set()
        for values in tuples:
            self.add(values)

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
        if normalised in self._seen:
            return
        self._seen.add(normalised)
        self._tuples.append(normalised)

    def extend(self, tuples: Iterable[Sequence[Value]]) -> None:
        for values in tuples:
            self.add(values)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        return iter(self._tuples)

    def __contains__(self, values: Sequence[Value]) -> bool:
        """Whether the relation holds the tuple, under ``add``'s normalisation.

        The candidate tuple is pushed through the same
        :meth:`~repro.relational.schema.RelationSchema.validate_tuple`
        normalisation that ``add`` applies before storing, so membership
        agrees exactly with what ``add`` would dedupe; tuples that could
        never be stored (wrong arity, ill-typed values such as booleans in
        numerical columns) are simply not members rather than false hits of
        the raw-tuple lookup.
        """
        try:
            normalised = self._schema.validate_tuple(values)
        except SchemaError:
            return False
        return normalised in self._seen

    def tuples(self) -> tuple[tuple[Value, ...], ...]:
        """All tuples, in insertion order."""
        return tuple(self._tuples)

    def row(self, index: int) -> tuple[Value, ...]:
        """The tuple at position ``index`` in insertion order."""
        return self._tuples[index]

    def column(self, name: str) -> tuple[Value, ...]:
        """All values of the named column, in insertion order."""
        index = self._schema.position(name)
        return tuple(row[index] for row in self._tuples)

    def base_nulls(self) -> set:
        """Base-type nulls occurring anywhere in the relation."""
        return {value for row in self._tuples for value in row if is_base_null(value)}

    def num_nulls(self) -> set:
        """Numerical-type nulls occurring anywhere in the relation."""
        return {value for row in self._tuples for value in row if is_num_null(value)}

    def base_constants(self) -> set:
        """Base-type constants occurring anywhere in the relation."""
        positions = self._schema.base_positions()
        return {row[index] for row in self._tuples for index in positions
                if not is_base_null(row[index])}

    def num_constants(self) -> set[float]:
        """Numerical constants occurring anywhere in the relation."""
        positions = self._schema.numeric_positions()
        return {float(row[index]) for row in self._tuples for index in positions
                if is_numeric_constant(row[index])}

    def copy(self) -> "Relation":
        """A deep copy (tuples are immutable, so sharing them is safe)."""
        duplicate = Relation(self._schema)
        duplicate._tuples = list(self._tuples)
        duplicate._seen = set(self._seen)
        return duplicate

    def map_values(self, mapping) -> "Relation":
        """A new relation with every value passed through ``mapping(value)``."""
        result = Relation(self._schema)
        for row in self._tuples:
            result.add(tuple(mapping(value) for value in row))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name}, {len(self)} tuples)"
