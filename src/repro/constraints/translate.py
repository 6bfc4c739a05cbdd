"""Translation of (query, database, candidate tuple) into a real constraint formula.

This implements Proposition 5.3 (together with the base-type elimination of
Proposition 5.2): for an FO(+,·,<) query ``q(x, y)``, an incomplete database
``D`` and a candidate tuple ``(a, s)``, it produces a quantifier-free formula
``phi(z_1, ..., z_k)`` over the real field -- one variable per numerical null
of ``D`` -- such that a valuation ``v`` of the numerical nulls satisfies
``phi`` exactly when ``v(a, s) ∈ q(v(D))``.  The measure of certainty is then
the asymptotic density ``nu(phi)`` (Theorem 5.4).

The translation follows the proof:

* base-type nulls are eliminated by applying a bijective valuation that sends
  them to fresh constants (Proposition 5.2);
* base-type quantifiers become explicit disjunctions/conjunctions over
  ``C_base(D)`` and numerical quantifiers over ``C_num(D) ∪ N_num(D)``
  (active-domain semantics);
* a relation atom becomes the disjunction, over the matching tuples of the
  relation, of the equalities between its numerical arguments and the tuple's
  numerical entries;
* numerical comparisons become polynomial constraints.  Division is
  eliminated by clearing denominators with an explicit case split on their
  sign, so the result is always a Boolean combination of polynomial atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.constraints.atoms import Comparison as AtomComparison
from repro.constraints.atoms import Constraint
from repro.constraints.formula import (
    And,
    Atom,
    ConstraintFormula,
    FalseFormula,
    Not,
    Or,
    TrueFormula,
    conjunction,
    disjunction,
)
from repro.constraints.polynomials import Polynomial
from repro.logic.formulas import (
    BaseEquality,
    Comparison,
    ComparisonOperator,
    Exists,
    FOAnd,
    FONot,
    FOOr,
    Forall,
    Formula,
    Query,
    RelationAtom,
)
from repro.logic.terms import (
    BaseConstant,
    NumericConstant,
    Sort,
    Term,
    TermOperation,
    TermOperator,
    Variable,
)
from repro.relational.database import Database
from repro.relational.valuation import bijective_base_valuation
from repro.relational.values import (
    NumNull,
    Value,
    is_base_null,
    is_num_null,
    is_numeric_constant,
)


class TranslationError(ValueError):
    """Raised when a query/database/candidate combination cannot be translated."""


_COMPARISON_TO_ATOM = {
    ComparisonOperator.LT: AtomComparison.LT,
    ComparisonOperator.LE: AtomComparison.LE,
    ComparisonOperator.EQ: AtomComparison.EQ,
    ComparisonOperator.NE: AtomComparison.NE,
    ComparisonOperator.GE: AtomComparison.GE,
    ComparisonOperator.GT: AtomComparison.GT,
}


@dataclass(frozen=True)
class RationalTerm:
    """A quotient of polynomials ``numerator / denominator``.

    Division inside terms is represented symbolically and eliminated when the
    enclosing comparison is normalised into polynomial constraints.
    """

    numerator: Polynomial
    denominator: Polynomial

    @classmethod
    def of(cls, polynomial: Polynomial) -> "RationalTerm":
        return cls(numerator=polynomial, denominator=Polynomial.constant(1.0))

    def __add__(self, other: "RationalTerm") -> "RationalTerm":
        return RationalTerm(
            numerator=self.numerator * other.denominator + other.numerator * self.denominator,
            denominator=self.denominator * other.denominator,
        )

    def __sub__(self, other: "RationalTerm") -> "RationalTerm":
        return RationalTerm(
            numerator=self.numerator * other.denominator - other.numerator * self.denominator,
            denominator=self.denominator * other.denominator,
        )

    def __mul__(self, other: "RationalTerm") -> "RationalTerm":
        return RationalTerm(
            numerator=self.numerator * other.numerator,
            denominator=self.denominator * other.denominator,
        )

    def divide(self, other: "RationalTerm") -> "RationalTerm":
        return RationalTerm(
            numerator=self.numerator * other.denominator,
            denominator=self.denominator * other.numerator,
        )


#: A quantifier witness or head binding: a base value or a rational term.
SemanticValue = Union[object, RationalTerm]


@dataclass(frozen=True)
class TranslationResult:
    """The formula of Proposition 5.3, with the book-keeping around it."""

    formula: ConstraintFormula
    #: Variable names for *all* numerical nulls of the database, in the
    #: canonical (sorted-by-name) order; this fixes the ambient dimension.
    all_variables: tuple[str, ...]
    #: Variable names that actually occur in the formula; sampling only these
    #: coordinates is the optimisation described in Section 9.
    relevant_variables: tuple[str, ...]
    #: Mapping from variable name back to the numerical null it stands for.
    null_by_variable: Mapping[str, NumNull]
    #: Canonical lineage digest of ``(formula, relevant_variables)`` when the
    #: producer already holds it: the estimators then compile through the
    #: kernel memo without canonicalising the formula again.
    digest: Optional[bytes] = field(default=None, compare=False)

    @property
    def dimension(self) -> int:
        """Number of numerical nulls of the database (the ``k`` of the paper)."""
        return len(self.all_variables)


def _null_variable(null: NumNull) -> str:
    return null.variable


def _value_to_rational(value: Value) -> RationalTerm:
    if is_num_null(value):
        return RationalTerm.of(Polynomial.variable(_null_variable(value)))
    if is_numeric_constant(value):
        return RationalTerm.of(Polynomial.constant(float(value)))
    raise TranslationError(f"expected a numerical value, got {value!r}")


def _comparison_formula(left: RationalTerm, op: ComparisonOperator,
                        right: RationalTerm) -> ConstraintFormula:
    """Normalise ``left op right`` into polynomial constraints.

    With ``left - right = p / q``, the comparison is rewritten with an
    explicit case split on the sign of ``q`` (a comparison whose denominator
    is zero is undefined and treated as false, matching the evaluator).
    """
    difference = left - right
    p = difference.numerator
    q = difference.denominator
    atom_op = _COMPARISON_TO_ATOM[op]
    if q.is_constant():
        constant = q.constant_term()
        if constant == 0.0:
            return FalseFormula()
        effective_op = atom_op if constant > 0 else atom_op.flip()
        return Atom(Constraint(polynomial=p, op=effective_op)).simplify()
    q_positive = Atom(Constraint(polynomial=q, op=AtomComparison.GT))
    q_negative = Atom(Constraint(polynomial=q, op=AtomComparison.LT))
    if op in (ComparisonOperator.EQ, ComparisonOperator.NE):
        q_nonzero = Or((q_positive, q_negative))
        return conjunction([q_nonzero, Atom(Constraint(polynomial=p, op=atom_op))]).simplify()
    positive_case = conjunction([q_positive, Atom(Constraint(polynomial=p, op=atom_op))])
    negative_case = conjunction([q_negative, Atom(Constraint(polynomial=p, op=atom_op.flip()))])
    return disjunction([positive_case, negative_case]).simplify()


class _Translator:
    """Carries the database, domains and environment through the recursion."""

    def __init__(self, database: Database) -> None:
        self._database = database
        base_domain = sorted(database.base_constants(), key=repr)
        self._base_domain: tuple[object, ...] = tuple(base_domain)
        numeric_domain: list[SemanticValue] = [
            RationalTerm.of(Polynomial.constant(constant))
            for constant in sorted(database.num_constants())
        ]
        numeric_domain.extend(
            RationalTerm.of(Polynomial.variable(_null_variable(null)))
            for null in database.num_nulls_ordered()
        )
        self._numeric_domain: tuple[SemanticValue, ...] = tuple(numeric_domain)

    # -- terms ---------------------------------------------------------------

    def _term_value(self, term: Term,
                    environment: Mapping[Variable, SemanticValue]) -> SemanticValue:
        if isinstance(term, Variable):
            if term not in environment:
                raise TranslationError(f"unbound variable {term!r} during translation")
            return environment[term]
        if isinstance(term, NumericConstant):
            return RationalTerm.of(Polynomial.constant(term.value))
        if isinstance(term, BaseConstant):
            return term.value
        if isinstance(term, TermOperation):
            left = self._term_value(term.left, environment)
            right = self._term_value(term.right, environment)
            if not isinstance(left, RationalTerm) or not isinstance(right, RationalTerm):
                raise TranslationError(f"arithmetic applied to base values in {term!r}")
            if term.operator is TermOperator.ADD:
                return left + right
            if term.operator is TermOperator.SUB:
                return left - right
            if term.operator is TermOperator.MUL:
                return left * right
            return left.divide(right)
        raise TranslationError(f"unknown term node: {type(term).__name__}")

    # -- formulae --------------------------------------------------------------

    def translate(self, formula: Formula,
                  environment: Mapping[Variable, SemanticValue]) -> ConstraintFormula:
        if isinstance(formula, RelationAtom):
            return self._relation_atom(formula, environment)
        if isinstance(formula, BaseEquality):
            left = self._term_value(formula.left, environment)
            right = self._term_value(formula.right, environment)
            return TrueFormula() if left == right else FalseFormula()
        if isinstance(formula, Comparison):
            left = self._term_value(formula.left, environment)
            right = self._term_value(formula.right, environment)
            if not isinstance(left, RationalTerm) or not isinstance(right, RationalTerm):
                raise TranslationError(f"numerical comparison over base values: {formula!r}")
            return _comparison_formula(left, formula.op, right)
        if isinstance(formula, FONot):
            return Not(self.translate(formula.body, environment)).simplify()
        if isinstance(formula, FOAnd):
            return conjunction(self.translate(child, environment)
                               for child in formula.conjuncts).simplify()
        if isinstance(formula, FOOr):
            return disjunction(self.translate(child, environment)
                               for child in formula.disjuncts).simplify()
        if isinstance(formula, Exists):
            return disjunction(
                self.translate(formula.body, {**environment, formula.variable: witness})
                for witness in self._domain(formula.variable.sort)
            ).simplify()
        if isinstance(formula, Forall):
            return conjunction(
                self.translate(formula.body, {**environment, formula.variable: witness})
                for witness in self._domain(formula.variable.sort)
            ).simplify()
        raise TranslationError(f"unknown formula node: {type(formula).__name__}")

    def _domain(self, sort: Sort) -> tuple[SemanticValue, ...]:
        return self._numeric_domain if sort is Sort.NUM else self._base_domain

    def _relation_atom(self, atom: RelationAtom,
                       environment: Mapping[Variable, SemanticValue]) -> ConstraintFormula:
        relation = self._database.relation(atom.relation)
        schema = relation.schema
        argument_values = [self._term_value(term, environment) for term in atom.terms]
        disjuncts: list[ConstraintFormula] = []
        for row in relation:
            conjuncts: list[ConstraintFormula] = []
            matches = True
            for attribute, argument, stored in zip(schema.attributes, argument_values, row):
                if attribute.is_numeric:
                    if not isinstance(argument, RationalTerm):
                        raise TranslationError(
                            f"base value bound to numerical position of {atom!r}")
                    conjuncts.append(_comparison_formula(
                        argument, ComparisonOperator.EQ, _value_to_rational(stored)))
                else:
                    if isinstance(argument, RationalTerm):
                        raise TranslationError(
                            f"numerical value bound to base position of {atom!r}")
                    if argument != stored:
                        matches = False
                        break
            if matches:
                disjuncts.append(conjunction(conjuncts))
        return disjunction(disjuncts).simplify()


def translate(query: Query, database: Database,
              candidate: Sequence[Value] = ()) -> TranslationResult:
    """Produce the Proposition 5.3 formula for ``candidate`` as an answer to ``query``.

    ``candidate`` must have one component per head variable, of the matching
    sort: base constants or base nulls of ``D`` for base variables, numerical
    constants or numerical nulls of ``D`` for numerical variables.
    """
    if len(candidate) != query.arity:
        raise TranslationError(
            f"candidate has {len(candidate)} components for a query of arity {query.arity}")

    base_valuation = bijective_base_valuation(database)
    valued_database = base_valuation.database(database)

    translator = _Translator(valued_database)
    environment: dict[Variable, SemanticValue] = {}
    for variable, value in zip(query.head, candidate):
        if variable.sort is Sort.NUM:
            if not (is_numeric_constant(value) or is_num_null(value)):
                raise TranslationError(
                    f"candidate value {value!r} for numerical head variable "
                    f"{variable.name!r} is not numerical")
            environment[variable] = _value_to_rational(value)
        else:
            if is_num_null(value) or is_numeric_constant(value):
                raise TranslationError(
                    f"candidate value {value!r} for base head variable "
                    f"{variable.name!r} is not base-typed")
            environment[variable] = base_valuation.value(value) if is_base_null(value) else value

    formula = translator.translate(query.body, environment).simplify()

    null_order = database.null_order()
    occurring = formula.variables()
    relevant = tuple(name for name in null_order.variables if name in occurring)
    return TranslationResult(
        formula=formula,
        all_variables=null_order.variables,
        relevant_variables=relevant,
        null_by_variable=null_order.by_variable,
    )
