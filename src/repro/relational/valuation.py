"""Valuations of nulls and the bijective base valuations of Proposition 5.2.

A valuation ``v = (v_base, v_num)`` interprets every base null by a base
constant and every numerical null by a real number; ``v(D)`` is the complete
database obtained by substituting accordingly.  Proposition 5.2 shows that
for the purpose of computing the measure one can fix a single *bijective*
base valuation -- one that maps the base nulls injectively to fresh constants
outside ``C_base(D)`` -- and only reason about the numerical nulls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.relational.database import Database
from repro.relational.values import (
    BaseNull,
    NumNull,
    Value,
    is_base_null,
    is_num_null,
)


@dataclass(frozen=True)
class Valuation:
    """A pair of maps interpreting base and numerical nulls by constants."""

    base_map: Mapping[BaseNull, object] = field(default_factory=dict)
    num_map: Mapping[NumNull, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_map", dict(self.base_map))
        object.__setattr__(self, "num_map",
                           {null: float(value) for null, value in self.num_map.items()})

    def value(self, item: Value) -> Value:
        """Apply the valuation to a single value.

        Constants pass through unchanged.  Nulls not covered by the valuation
        also pass through: valuations may be partial (for instance a
        bijective base valuation leaves the numerical nulls in place, to be
        handled by the constraint translation), and the downstream consumers
        that require completeness -- the query evaluator, most notably --
        check for leftover nulls themselves.
        """
        if is_base_null(item):
            return self.base_map.get(item, item)
        if is_num_null(item):
            return self.num_map.get(item, item)
        return item

    def tuple(self, values: Sequence[Value]) -> tuple[Value, ...]:
        """Apply the valuation to every component of a tuple."""
        return tuple(self.value(item) for item in values)

    def database(self, database: Database) -> Database:
        """The complete(r) database ``v(D)``."""
        return database.map_values(self.value)

    def extend(self, other: "Valuation") -> "Valuation":
        """Combine two valuations over disjoint nulls (later entries win)."""
        base_map = dict(self.base_map)
        base_map.update(other.base_map)
        num_map = dict(self.num_map)
        num_map.update(other.num_map)
        return Valuation(base_map=base_map, num_map=num_map)

    @classmethod
    def numeric(cls, assignment: Mapping[NumNull, float]) -> "Valuation":
        """A valuation that only interprets numerical nulls."""
        return cls(base_map={}, num_map=assignment)


def bijective_base_valuation(database: Database, prefix: str = "fresh") -> Valuation:
    """A bijective valuation of the base nulls (Proposition 5.2).

    Maps each base null to a fresh constant that is distinct from every base
    constant of the database and from the images of the other nulls.  Fresh
    constants are plain strings ``"<prefix>#<null name>"``; if such a string
    already occurs in the database a numeric suffix is appended.
    """
    existing = database.base_constants()
    mapping: dict[BaseNull, object] = {}
    for null in sorted(database.base_nulls(), key=lambda item: item.name):
        candidate = f"{prefix}#{null.name}"
        suffix = 0
        while candidate in existing:
            suffix += 1
            candidate = f"{prefix}#{null.name}.{suffix}"
        existing.add(candidate)
        mapping[null] = candidate
    return Valuation(base_map=mapping, num_map={})
