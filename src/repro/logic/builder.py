"""A small DSL for building FO(+, ·, <) queries in Python.

The examples and tests build queries like the paper writes them::

    s = base_var("s")
    i, ip = base_var("i"), base_var("i2")
    r, d, p = num_var("r"), num_var("d"), num_var("p")
    body = forall([i, r, d, ip, p],
                  implies(rel("Products", i, s, r, d)
                          & neg(rel("Excluded", i, s))
                          & rel("Competition", ip, s, p),
                          (r * d <= p) & (r >= 0) & (d >= 0) & (p >= 0)))
    query = Query(head=(s,), body=body, name="competitive_segments")
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.logic.formulas import (
    Exists,
    FONot,
    FOOr,
    Forall,
    Formula,
    RelationAtom,
    make_conjunction,
    make_disjunction,
)
from repro.logic.terms import (
    BaseConstant,
    NumericConstant,
    Sort,
    Term,
    Variable,
)


def base_var(name: str) -> Variable:
    """A base-type variable."""
    return Variable(name=name, variable_sort=Sort.BASE)


def num_var(name: str) -> Variable:
    """A numerical-type variable."""
    return Variable(name=name, variable_sort=Sort.NUM)


def num(value: float) -> NumericConstant:
    """A numerical constant term."""
    return NumericConstant(float(value))


def _coerce_term(value: Union[Term, int, float, str]) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not database values")
    if isinstance(value, (int, float)):
        return NumericConstant(float(value))
    return BaseConstant(value)


def rel(relation: str, *arguments: Union[Term, int, float, str]) -> RelationAtom:
    """The relation atom ``relation(arguments...)``.

    Plain Python numbers become numerical constants and strings become base
    constants, so ``rel("Products", item, "electronics", 10, d)`` works
    directly.
    """
    return RelationAtom(relation=relation, terms=tuple(_coerce_term(argument)
                                                       for argument in arguments))


def conj(*parts: Formula) -> Formula:
    """Conjunction of one or more formulae."""
    return make_conjunction(list(parts))


def disj(*parts: Formula) -> Formula:
    """Disjunction of one or more formulae."""
    return make_disjunction(list(parts))


def neg(formula: Formula) -> Formula:
    """Negation."""
    return FONot(formula)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Material implication ``antecedent -> consequent``."""
    return FOOr((FONot(antecedent), consequent))


def _quantify(kind, variables: Union[Variable, Sequence[Variable]],
              body: Formula) -> Formula:
    if isinstance(variables, Variable):
        variables = [variables]
    variables = list(variables)
    if not variables:
        return body
    result = body
    for variable in reversed(variables):
        result = kind(variable=variable, body=result)
    return result


def exists(variables: Union[Variable, Sequence[Variable]], body: Formula) -> Formula:
    """Existential quantification over one or several variables."""
    return _quantify(Exists, variables, body)


def forall(variables: Union[Variable, Sequence[Variable]], body: Formula) -> Formula:
    """Universal quantification over one or several variables."""
    return _quantify(Forall, variables, body)
