"""Typed variables and arithmetic terms of FO(+, ·, <).

Terms follow the grammar of Section 3: a base-type variable is a base term;
a numerical variable or numerical constant is a numerical term; and ``t + t'``
and ``t · t'`` are numerical terms when ``t`` and ``t'`` are.  Subtraction and
division are also allowed as term constructors (the paper notes they are
definable); division is eliminated when atomic formulae are normalised into
polynomial constraints (see :mod:`repro.constraints.translate`).

Terms support Python operator overloading so that queries can be written
naturally::

    price, discount = num_var("p"), num_var("d")
    condition = (price * discount <= num(8.0))
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from numbers import Real
from typing import Union


class Sort(enum.Enum):
    """The two sorts of the logic: base and numerical."""

    BASE = "base"
    NUM = "num"


class Term:
    """Base class of all terms.  Numerical terms support arithmetic operators."""

    @property
    def sort(self) -> Sort:
        raise NotImplementedError

    # -- arithmetic (numerical terms only; checked in TermOperation) --------

    def __add__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.ADD, self, _coerce(other))

    def __radd__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.ADD, _coerce(other), self)

    def __sub__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.SUB, self, _coerce(other))

    def __rsub__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.SUB, _coerce(other), self)

    def __mul__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.MUL, self, _coerce(other))

    def __rmul__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.MUL, _coerce(other), self)

    def __truediv__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.DIV, self, _coerce(other))

    def __rtruediv__(self, other: "TermLike") -> "Term":
        return TermOperation(TermOperator.DIV, _coerce(other), self)

    # -- comparisons build formulae; implemented in repro.logic.formulas ----

    def __lt__(self, other: "TermLike"):
        from repro.logic.formulas import Comparison, ComparisonOperator

        return Comparison(self, ComparisonOperator.LT, _coerce(other))

    def __le__(self, other: "TermLike"):
        from repro.logic.formulas import Comparison, ComparisonOperator

        return Comparison(self, ComparisonOperator.LE, _coerce(other))

    def __gt__(self, other: "TermLike"):
        from repro.logic.formulas import Comparison, ComparisonOperator

        return Comparison(self, ComparisonOperator.GT, _coerce(other))

    def __ge__(self, other: "TermLike"):
        from repro.logic.formulas import Comparison, ComparisonOperator

        return Comparison(self, ComparisonOperator.GE, _coerce(other))

    def equals(self, other: "TermLike"):
        """Equality atom (``==`` is kept for Python object identity semantics)."""
        from repro.logic.formulas import BaseEquality, Comparison, ComparisonOperator

        other = _coerce(other)
        if self.sort is Sort.BASE or other.sort is Sort.BASE:
            return BaseEquality(self, other)
        return Comparison(self, ComparisonOperator.EQ, other)


TermLike = Union[Term, int, float, str]


def _coerce(value: TermLike) -> Term:
    """Coerce Python numbers to numerical constants and strings to base constants."""
    if isinstance(value, Term):
        return value
    if isinstance(value, Real) and not isinstance(value, bool):
        return NumericConstant(float(value))
    if isinstance(value, str):
        return BaseConstant(value)
    raise TypeError(f"cannot use {value!r} as a term")


@dataclass(frozen=True, eq=True)
class Variable(Term):
    """A typed variable."""

    name: str
    variable_sort: Sort

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    @property
    def sort(self) -> Sort:
        return self.variable_sort

    def __repr__(self) -> str:
        return f"{self.name}:{self.variable_sort.value}"


@dataclass(frozen=True, eq=True)
class NumericConstant(Term):
    """A numerical constant (an element of ``C_num``)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    @property
    def sort(self) -> Sort:
        return Sort.NUM

    def __repr__(self) -> str:
        return f"{self.value:g}"


@dataclass(frozen=True, eq=True)
class BaseConstant(Term):
    """A base-type constant used directly inside a query."""

    value: object

    @property
    def sort(self) -> Sort:
        return Sort.BASE

    def __repr__(self) -> str:
        return f"{self.value!r}"


class TermOperator(enum.Enum):
    """Arithmetic operations on numerical terms."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(frozen=True, eq=True)
class TermOperation(Term):
    """An arithmetic combination of two numerical terms."""

    operator: TermOperator
    left: Term
    right: Term

    def __post_init__(self) -> None:
        for side, term in (("left", self.left), ("right", self.right)):
            if term.sort is not Sort.NUM:
                raise TypeError(
                    f"arithmetic requires numerical terms; {side} operand "
                    f"{term!r} has sort {term.sort.value}")

    @property
    def sort(self) -> Sort:
        return Sort.NUM

    def __repr__(self) -> str:
        return f"({self.left!r} {self.operator.value} {self.right!r})"


def term_variables(term: Term) -> frozenset[Variable]:
    """All variables occurring in a term."""
    if isinstance(term, Variable):
        return frozenset({term})
    if isinstance(term, TermOperation):
        return term_variables(term.left) | term_variables(term.right)
    return frozenset()


def uses_multiplication(term: Term) -> bool:
    """Whether a term uses ``·`` (or ``/``) between non-constant operands.

    Multiplication by a constant keeps a term linear, so fragment
    classification (is the query in CQ(+,<)?) must distinguish genuine
    products of variables from scalar multiples.
    """
    if not isinstance(term, TermOperation):
        return False
    if term.operator in (TermOperator.MUL, TermOperator.DIV):
        left_has_vars = bool(term_variables(term.left))
        right_has_vars = bool(term_variables(term.right))
        if term.operator is TermOperator.DIV and right_has_vars:
            return True
        if left_has_vars and right_has_vars:
            return True
    return uses_multiplication(term.left) or uses_multiplication(term.right)


def uses_addition(term: Term) -> bool:
    """Whether a term uses ``+`` or ``-`` (i.e. is not a single scaled variable)."""
    if not isinstance(term, TermOperation):
        return False
    if term.operator in (TermOperator.ADD, TermOperator.SUB):
        return True
    return uses_addition(term.left) or uses_addition(term.right)
