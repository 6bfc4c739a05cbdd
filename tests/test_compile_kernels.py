"""Seeded equivalence of the compiled batch kernels and the scalar oracles.

The compiled-kernel engine (:mod:`repro.compile`) must reach exactly the
same decisions as the scalar tree walks it replaces: these tests generate
randomized formulas (linear and polynomial, all six comparison operators,
arbitrary Boolean structure including negation and constants) and assert
bit-identical decision vectors for both :meth:`CompiledFormula.evaluate_batch`
vs :meth:`ConstraintFormula.evaluate` and
:meth:`CompiledFormula.asymptotic_truth_batch` vs
:func:`repro.constraints.asymptotic.asymptotic_truth`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import CompiledFormula, LoweringError, compile_formula, lower
from repro.constraints.asymptotic import asymptotic_truth, direction_assignment
from repro.constraints.atoms import Comparison, Constraint
from repro.constraints.formula import (
    And,
    Atom,
    FalseFormula,
    Not,
    Or,
    TrueFormula,
)
from repro.constraints.polynomials import Polynomial

VARIABLES = tuple(f"z{i}" for i in range(5))


def random_polynomial(generator: np.random.Generator, max_degree: int) -> Polynomial:
    """A random sparse polynomial over :data:`VARIABLES`."""
    polynomial = Polynomial.constant(float(generator.uniform(-1.0, 1.0))) \
        if generator.random() < 0.8 else Polynomial.zero()
    for _ in range(int(generator.integers(1, 5))):
        term = Polynomial.constant(float(generator.uniform(-2.0, 2.0)))
        for _ in range(int(generator.integers(0, max_degree + 1))):
            term = term * Polynomial.variable(str(generator.choice(VARIABLES)))
        polynomial = polynomial + term
    return polynomial


def random_formula(generator: np.random.Generator, depth: int = 3,
                   max_degree: int = 3):
    """A random Boolean combination of random polynomial atoms."""
    if depth == 0 or generator.random() < 0.3:
        op = generator.choice(list(Comparison))
        return Atom(Constraint(random_polynomial(generator, max_degree), op))
    kind = int(generator.integers(0, 4))
    if kind == 0:
        return Not(random_formula(generator, depth - 1, max_degree))
    if kind == 3 and generator.random() < 0.15:
        return TrueFormula() if generator.random() < 0.5 else FalseFormula()
    children = tuple(random_formula(generator, depth - 1, max_degree)
                     for _ in range(int(generator.integers(1, 4))))
    return And(children) if kind == 1 else Or(children)


def scalar_evaluate(formula, points: np.ndarray) -> np.ndarray:
    return np.asarray([
        formula.evaluate({name: float(value)
                          for name, value in zip(VARIABLES, row)})
        for row in points
    ])


def scalar_asymptotic(formula, directions: np.ndarray) -> np.ndarray:
    return np.asarray([
        asymptotic_truth(formula, direction_assignment(VARIABLES, row))
        for row in directions
    ])


class TestEvaluateBatchEquivalence:
    @pytest.mark.parametrize("max_degree", [1, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_evaluate(self, seed: int, max_degree: int):
        generator = np.random.default_rng(1000 * max_degree + seed)
        formula = random_formula(generator, max_degree=max_degree)
        compiled = compile_formula(formula, VARIABLES)
        points = generator.uniform(-3.0, 3.0, size=(64, len(VARIABLES)))
        assert np.array_equal(compiled.evaluate_batch(points),
                              scalar_evaluate(formula, points))

    def test_linear_fast_path_is_used(self):
        formula = Atom(Constraint.compare(
            Polynomial.variable("z0") - Polynomial.variable("z1"),
            Comparison.LT, 0.5))
        compiled = compile_formula(formula, VARIABLES)
        assert compiled.table.is_linear
        points = np.random.default_rng(3).uniform(-2.0, 2.0, size=(32, 5))
        assert np.array_equal(compiled.evaluate_batch(points),
                              scalar_evaluate(formula, points))

    def test_constants_and_zero_polynomials(self):
        zero_atom = Atom(Constraint(Polynomial.zero(), Comparison.LE))
        formula = And((TrueFormula(), zero_atom,
                       Or((FalseFormula(), Not(zero_atom), zero_atom))))
        compiled = compile_formula(formula, VARIABLES)
        points = np.zeros((4, len(VARIABLES)))
        assert np.array_equal(compiled.evaluate_batch(points),
                              scalar_evaluate(formula, points))

    def test_empty_block(self):
        formula = random_formula(np.random.default_rng(5))
        compiled = compile_formula(formula, VARIABLES)
        empty = np.zeros((0, len(VARIABLES)))
        assert compiled.evaluate_batch(empty).shape == (0,)
        assert compiled.asymptotic_truth_batch(empty).shape == (0,)


class TestAsymptoticBatchEquivalence:
    @pytest.mark.parametrize("max_degree", [1, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_asymptotic_truth(self, seed: int, max_degree: int):
        generator = np.random.default_rng(2000 * max_degree + seed)
        formula = random_formula(generator, max_degree=max_degree)
        compiled = compile_formula(formula, VARIABLES)
        directions = generator.standard_normal((64, len(VARIABLES)))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        assert np.array_equal(compiled.asymptotic_truth_batch(directions),
                              scalar_asymptotic(formula, directions))

    def test_identically_zero_direction_profile(self):
        # z0 - z0 never appears (Polynomial folds it away), but a polynomial
        # can vanish along specific directions: z0 + z1 on direction (1, -1).
        polynomial = Polynomial.variable("z0") + Polynomial.variable("z1")
        directions = np.asarray([[1.0, -1.0, 0.0, 0.0, 0.0],
                                 [1.0, 1.0, 0.0, 0.0, 0.0]])
        for op in Comparison:
            formula = Atom(Constraint(polynomial, op))
            compiled = compile_formula(formula, VARIABLES)
            assert np.array_equal(compiled.asymptotic_truth_batch(directions),
                                  scalar_asymptotic(formula, directions))


class TestLowering:
    def test_unknown_variable_is_rejected(self):
        formula = Atom(Constraint(Polynomial.variable("mystery"), Comparison.LT))
        with pytest.raises(LoweringError):
            compile_formula(formula, VARIABLES)

    def test_duplicate_variables_are_rejected(self):
        formula = Atom(Constraint(Polynomial.variable("z0"), Comparison.LT))
        with pytest.raises(LoweringError):
            compile_formula(formula, ("z0", "z0"))

    def test_atoms_are_deduplicated(self):
        atom = Atom(Constraint(Polynomial.variable("z0"), Comparison.LT))
        table, _program = lower(And((atom, atom, Not(atom))), VARIABLES)
        assert table.num_atoms == 1

    def test_wrong_point_shape_is_rejected(self):
        formula = Atom(Constraint(Polynomial.variable("z0"), Comparison.LT))
        compiled = compile_formula(formula, VARIABLES)
        with pytest.raises(ValueError):
            compiled.evaluate_batch(np.zeros((4, 3)))

    def test_compile_is_cached(self):
        formula = Atom(Constraint(Polynomial.variable("z0"), Comparison.LT))
        assert compile_formula(formula, VARIABLES) is compile_formula(formula, VARIABLES)
        assert isinstance(compile_formula(formula, VARIABLES), CompiledFormula)

    def test_digest_keyed_compile_hit_skips_canonicalisation(self):
        # A caller holding the canonical digest (the service's schedule
        # groups) gets the same artefact the plain path caches.
        from repro.compile import compile_cache_stats
        from repro.service import canonicalise

        formula = Atom(Constraint(
            Polynomial.variable("memo_x") - Polynomial.constant(0.25),
            Comparison.LE))
        plain = compile_formula(formula, ("memo_x",))
        digest = canonicalise(formula, ("memo_x",)).digest
        before = compile_cache_stats()
        keyed = compile_formula(formula, ("memo_x",), digest=digest)
        after = compile_cache_stats()
        assert keyed is plain
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
