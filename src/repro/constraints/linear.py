"""Linear constraints, homogenisation, and conversion to polyhedral cones.

The FPRAS of Section 7 applies to conjunctive queries with linear
constraints: the translated formula ``phi`` is a DNF whose atoms are linear,
and replacing each atom ``c . z < c'`` by its homogenised version ``c . z <
0`` turns each disjunct into a convex cone without changing the asymptotic
density ``nu(phi)`` (the paper cites its companion IJCAI'19 result for this).
This module recognises linear atoms, homogenises them, and converts DNF
disjuncts into the :class:`~repro.geometry.cones.PolyhedralCone` objects the
volume estimators consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.constraints.atoms import Comparison, Constraint
from repro.constraints.formula import ConstraintFormula
from repro.geometry.cones import PolyhedralCone


class NonLinearConstraintError(ValueError):
    """Raised when an operation that needs linear constraints meets a non-linear one."""


@dataclass(frozen=True)
class LinearAtom:
    """The linear constraint ``sum_i coefficients[v_i] * v_i + constant op 0``."""

    coefficients: Mapping[str, float]
    constant: float
    op: Comparison

    @classmethod
    def from_constraint(cls, constraint: Constraint) -> "LinearAtom":
        """Extract the linear form of a constraint; raises if it is not linear."""
        if not constraint.is_linear():
            raise NonLinearConstraintError(
                f"constraint is not linear: {constraint!r}")
        return cls(
            coefficients=dict(constraint.polynomial.linear_coefficients()),
            constant=constraint.polynomial.constant_term(),
            op=constraint.op,
        )

    def homogenise(self) -> "LinearAtom":
        """Drop the constant term (the Section 7 homogenisation step)."""
        return LinearAtom(coefficients=dict(self.coefficients), constant=0.0, op=self.op)

    def is_trivial(self) -> bool:
        """Whether no variable has a non-zero coefficient."""
        return all(value == 0.0 for value in self.coefficients.values())

    def normal_vector(self, variables: Sequence[str]) -> np.ndarray:
        """Coefficient vector in the order given by ``variables``.

        The vector is oriented so that the constraint reads ``normal . z op'
        0`` with ``op'`` one of ``<, <=, =, !=`` (``>`` and ``>=`` are flipped
        by negating the normal).
        """
        vector = np.asarray([self.coefficients.get(name, 0.0) for name in variables],
                            dtype=float)
        if self.op in (Comparison.GT, Comparison.GE):
            return -vector
        return vector

    def oriented_op(self) -> Comparison:
        """The comparison matching :meth:`normal_vector`'s orientation."""
        if self.op is Comparison.GT:
            return Comparison.LT
        if self.op is Comparison.GE:
            return Comparison.LE
        return self.op


def linearise(constraint: Constraint) -> LinearAtom:
    """Public alias of :meth:`LinearAtom.from_constraint`."""
    return LinearAtom.from_constraint(constraint)


def disjunct_to_cone(disjunct: Sequence[Constraint],
                     variables: Sequence[str]) -> PolyhedralCone | None:
    """Convert one DNF disjunct of linear atoms into its homogenised cone.

    Returns ``None`` when the disjunct is recognisably measure-zero or
    unsatisfiable after homogenisation:

    * an equality with a non-trivial normal confines the cone to a hyperplane;
    * a variable-free atom that is false kills the disjunct.

    Inequalities ``!= 0`` with a non-trivial normal only remove a hyperplane,
    which does not change the measure, so they are dropped.
    """
    strict_rows: list[np.ndarray] = []
    weak_rows: list[np.ndarray] = []
    for constraint in disjunct:
        if constraint.is_trivial():
            # Variable-free atoms keep their constant: evaluate them before
            # homogenisation so "5 < 0" kills the disjunct and "-5 < 0" is a
            # no-op.
            if not constraint.trivial_value():
                return None
            continue
        atom = LinearAtom.from_constraint(constraint).homogenise()
        if atom.is_trivial():
            # All variable coefficients vanished: the homogenised atom
            # compares 0 with 0.
            if not atom.oriented_op().holds(0.0):
                return None
            continue
        normal = atom.normal_vector(variables)
        op = atom.oriented_op()
        if op is Comparison.EQ:
            return None
        if op is Comparison.NE:
            continue
        if op is Comparison.LT:
            strict_rows.append(normal)
        else:  # LE
            weak_rows.append(normal)
    return PolyhedralCone.from_rows(
        dimension=len(variables),
        strict=strict_rows,
        weak=weak_rows,
    )


def formula_to_cones(formula: ConstraintFormula,
                     variables: Sequence[str]) -> list[PolyhedralCone]:
    """Homogenised cones of a linear formula's DNF disjuncts (Section 7).

    Raises :class:`NonLinearConstraintError` if the formula contains a
    non-linear atom; callers should fall back to the AFPRAS in that case.
    """
    if len(variables) == 0:
        raise ValueError("formula_to_cones requires at least one variable")
    cones: list[PolyhedralCone] = []
    for disjunct in formula.to_dnf():
        cone = disjunct_to_cone(disjunct, variables)
        if cone is not None:
            cones.append(cone)
    return cones
