"""Database values: constants and marked nulls.

Following the marked (labelled) null model of the paper, a database entry is
either a constant of its column's type or a null.  Base-type nulls (written
``⊥_i`` in the paper) and numerical-type nulls (``⊤_i``) are distinct kinds
of objects; two occurrences of the same null name denote the same unknown
value, which is what makes the translation of Proposition 5.3 produce shared
variables.

Constants are ordinary Python values: any hashable non-numeric object (most
commonly a string) for base columns, and ``int``/``float`` for numerical
columns.  Booleans are rejected as numeric constants to avoid the classic
``True == 1`` mix-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Real
from typing import Hashable, Union


@dataclass(frozen=True)
class BaseNull:
    """A marked null occurring in a base-type column (``⊥_name``)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("null name must be non-empty")

    def __repr__(self) -> str:
        return f"⊥{self.name}"


@dataclass(frozen=True)
class NumNull:
    """A marked null occurring in a numerical column (``⊤_name``)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("null name must be non-empty")

    def __repr__(self) -> str:
        return f"⊤{self.name}"

    @property
    def variable(self) -> str:
        """Name of the real variable this null becomes in constraint formulae."""
        return f"z_{self.name}"


#: Any value that may appear in a base-type column.
BaseValue = Union[Hashable, BaseNull]

#: Any value that may appear in a numerical column.
NumValue = Union[int, float, NumNull]

#: Any database entry.
Value = Union[BaseValue, NumValue]


def is_base_null(value: object) -> bool:
    """Whether ``value`` is a base-type null."""
    return isinstance(value, BaseNull)


def is_num_null(value: object) -> bool:
    """Whether ``value`` is a numerical-type null."""
    return isinstance(value, NumNull)


def is_null(value: object) -> bool:
    """Whether ``value`` is a null of either type."""
    return isinstance(value, (BaseNull, NumNull))


def is_numeric_constant(value: object) -> bool:
    """Whether ``value`` is a legal numerical constant (a real, not a bool)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_base_constant(value: object) -> bool:
    """Whether ``value`` is a legal base constant (hashable, not a null, not a number)."""
    if is_null(value) or is_numeric_constant(value):
        return False
    try:
        hash(value)
    except TypeError:
        return False
    return True


class NullFactory:
    """Generates fresh, distinct marked nulls.

    Data generators and the hardness reductions need many fresh nulls; the
    factory guarantees unique names within one factory instance.
    """

    def __init__(self, prefix: str = "n") -> None:
        self._prefix = prefix
        self._counter = itertools.count(1)

    def base(self) -> BaseNull:
        """A fresh base-type null."""
        return BaseNull(name=f"{self._prefix}{next(self._counter)}")

    def num(self) -> NumNull:
        """A fresh numerical-type null."""
        return NumNull(name=f"{self._prefix}{next(self._counter)}")
