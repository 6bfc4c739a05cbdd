"""Exact computation of the measure, where it is exactly computable.

Section 6 of the paper shows that exact computation is in general out of
reach (the value may be irrational, Proposition 6.1, and already for CQ(<)
queries it is FP^{#P}-hard, Proposition 6.2), but several practically useful
cases do admit exact answers and this module implements them:

* no relevant numerical nulls: the value is 0 or 1 (the zero-one law);
* at most two relevant nulls with linear constraints: the homogenised formula
  is a union of planar cones whose measure is an exact sum of arc lengths
  (this covers the introduction's example and Proposition 6.1's closed form
  ``arctan(alpha)/(2*pi) + 1/2``);
* order-style constraints (every atom compares a single null with a constant
  or two nulls with each other): the measure is a rational number obtained by
  enumerating the signed orderings of the nulls, each of which has
  probability ``1 / (2^n * j! * (n-j)!)`` -- this is the fragment Proposition
  6.2 proves hard, so the enumeration is necessarily exponential in the
  number of nulls and is guarded by ``max_order_dimension``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

import numpy as np

from repro.certainty.result import CertaintyResult
from repro.compile import compile_formula
from repro.constraints.formula import ConstraintFormula, dnf_size_bound
from repro.constraints.linear import formula_to_cones
from repro.constraints.translate import TranslationResult
from repro.geometry.union_volume import union_volume_fraction


class ExactComputationError(ValueError):
    """Raised when the measure is not (known to be) exactly computable."""


@dataclass(frozen=True)
class ExactOptions:
    """Knobs of the exact backend."""

    #: Largest number of relevant nulls for which the signed-ordering
    #: enumeration is attempted (its cost is ``(n+1)!`` formula evaluations).
    max_order_dimension: int = 7
    #: Largest DNF the planar backend is willing to build; beyond this the
    #: caller should fall back to the sampling backends.
    max_dnf_size: int = 4096


def is_order_style(formula: ConstraintFormula) -> bool:
    """Whether every atom compares a null with a constant or two nulls 1:1.

    These are exactly the constraints produced by FO(<) queries: after
    homogenisation each atom's truth along a direction depends only on the
    signs of the nulls and their relative order, so the measure is a sum of
    signed-ordering cell probabilities (and in particular rational,
    Proposition 6.2).
    """
    for constraint in formula.atoms():
        if not constraint.is_linear():
            return False
        coefficients = [value for value in
                        constraint.polynomial.linear_coefficients().values()
                        if value != 0.0]
        if len(coefficients) == 0:
            continue
        if len(coefficients) == 1:
            continue
        if len(coefficients) == 2 and abs(coefficients[0] + coefficients[1]) <= 1e-12:
            continue
        return False
    return True


def _signed_ordering_measure(formula: ConstraintFormula,
                             variables: tuple[str, ...],
                             digest: Optional[bytes] = None) -> Fraction:
    """Exact rational measure by enumerating signed orderings of the nulls.

    The representative points of all ``(n+1) * n!`` signed-ordering cells are
    stacked into one matrix and decided with a single batched Lemma 8.4
    kernel call; the cell probabilities stay exact :class:`Fraction`\\ s.  The
    representative coordinates are small integers, so the kernel's
    floating-point sums are exact and its decisions match the scalar
    :func:`asymptotic_truth` walk bit for bit.
    """
    n = len(variables)
    indices = list(range(n))
    rows: list[list[float]] = []
    probabilities: list[Fraction] = []
    for negatives_count in range(n + 1):
        cell_probability = Fraction(
            1, (2**n) * factorial(negatives_count) * factorial(n - negatives_count))
        for negative_set in itertools.combinations(indices, negatives_count):
            positive_set = [index for index in indices if index not in negative_set]
            for negative_order in itertools.permutations(negative_set):
                for positive_order in itertools.permutations(positive_set):
                    point = [0.0] * n
                    # Negatives in increasing order: most negative first.
                    for rank, index in enumerate(negative_order):
                        point[index] = float(rank - negatives_count)
                    for rank, index in enumerate(positive_order):
                        point[index] = float(rank + 1)
                    rows.append(point)
                    probabilities.append(cell_probability)
    compiled = compile_formula(formula, variables, digest=digest)
    decisions = compiled.asymptotic_truth_batch(np.asarray(rows, dtype=float))
    total = Fraction(0)
    for decision, cell_probability in zip(decisions, probabilities):
        if decision:
            total += cell_probability
    return total


def exact_order_measure(translation: TranslationResult,
                        options: ExactOptions = ExactOptions()) -> Fraction:
    """Exact rational value of the measure for order-style constraints.

    Raises :class:`ExactComputationError` if the formula is not order-style
    or has too many relevant nulls.
    """
    variables = translation.relevant_variables
    if not variables:
        return Fraction(1) if translation.formula.evaluate({}) else Fraction(0)
    if not is_order_style(translation.formula):
        raise ExactComputationError("formula is not order-style")
    if len(variables) > options.max_order_dimension:
        raise ExactComputationError(
            f"too many relevant nulls ({len(variables)}) for signed-ordering enumeration")
    return _signed_ordering_measure(translation.formula, tuple(variables),
                                    translation.digest)


def exact_measure(translation: TranslationResult,
                  options: ExactOptions = ExactOptions()) -> CertaintyResult:
    """Exact value of the measure, when one of the exact backends applies."""
    formula = translation.formula
    variables = translation.relevant_variables
    dimension = translation.dimension

    if not variables:
        value = 1.0 if formula.evaluate({}) else 0.0
        return CertaintyResult(value=value, method="exact", guarantee="exact",
                               dimension=dimension, relevant_dimension=0)

    if formula.is_linear() and len(variables) <= 2 \
            and dnf_size_bound(formula, options.max_dnf_size) < options.max_dnf_size:
        cones = formula_to_cones(formula, variables)
        estimate = union_volume_fraction(cones, method="auto")
        if estimate.method in ("exact", "degenerate"):
            return CertaintyResult(
                value=estimate.fraction, method="exact", guarantee="exact",
                dimension=dimension, relevant_dimension=len(variables),
                details={"backend": "planar-cones"})

    if is_order_style(formula) and len(variables) <= options.max_order_dimension:
        value = _signed_ordering_measure(formula, tuple(variables),
                                         translation.digest)
        return CertaintyResult(
            value=float(value), method="exact", guarantee="exact",
            dimension=dimension, relevant_dimension=len(variables),
            details={"backend": "signed-orderings",
                     "rational": (value.numerator, value.denominator)})

    raise ExactComputationError(
        "no exact backend applies; use the AFPRAS (additive) or, for CQ(+,<), "
        "the FPRAS (multiplicative)")
