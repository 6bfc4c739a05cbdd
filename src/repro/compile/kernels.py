"""Batched NumPy kernels for compiled constraint formulae.

A :class:`CompiledFormula` replays the flat artefacts of
:mod:`repro.compile.lower` over whole blocks of points:

* :meth:`CompiledFormula.evaluate_batch` decides ``formula(point)`` for every
  row of an ``(m, n)`` block with one (or, for polynomial atoms, a handful
  of) matrix products followed by the boolean program -- the batched
  counterpart of :meth:`ConstraintFormula.evaluate`;
* :meth:`CompiledFormula.asymptotic_truth_batch` decides the Lemma 8.4
  eventual truth value along every direction of an ``(m, n)`` block -- the
  batched counterpart of :func:`repro.constraints.asymptotic.asymptotic_truth`.

Both kernels reproduce the scalar tolerance conventions bit-for-bit at the
decision level: the same ``EVALUATION_EPS`` slack on comparisons, and the
same relative ``RELATIVE_ZERO_EPS`` threshold on directional-profile
coefficients.  (Floating-point *sums* may associate differently than the
scalar dict-order accumulation, so raw polynomial values can differ by ulps;
decisions on generic points are unaffected, which the seeded equivalence
tests assert on randomized formulas.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.caching import CacheStats, LruCache
from repro.compile.lower import (
    OP_AND,
    OP_NOT,
    OP_OR,
    PUSH_ATOM,
    PUSH_FALSE,
    PUSH_TRUE,
    AtomTable,
    Instruction,
    LoweringError,
    lower,
)
from repro.constraints.asymptotic import RELATIVE_ZERO_EPS
from repro.constraints.atoms import EVALUATION_EPS, Comparison
from repro.constraints.formula import ConstraintFormula

#: Default number of points decided per kernel invocation by the blocked
#: helpers; bounds the size of the intermediate ``(m, M)`` monomial matrix.
DEFAULT_BLOCK_SIZE = 65_536

#: Atoms whose asymptotic truth is *true* when the directional polynomial is
#: identically zero (Lemma 8.4, the ``identically_zero`` branch of
#: :meth:`Comparison.holds_for_sign`).
_ZERO_TRUE_OPS = (Comparison.LE, Comparison.EQ, Comparison.GE)


@dataclass(frozen=True)
class CompiledFormula:
    """A constraint formula lowered to batched NumPy kernels.

    Instances are produced by :func:`compile_formula`; the attributes are the
    lowering artefacts plus precomputed selector matrices.
    """

    table: AtomTable
    program: tuple[Instruction, ...]
    #: ``(M, A)`` selector: column ``a`` holds the coefficients of atom
    #: ``a``'s monomials, so ``term_values @ value_selector`` sums monomial
    #: values into per-atom polynomial values.
    value_selector: np.ndarray
    #: ``(M, A * (D + 1))`` selector: column ``a * (D + 1) + d`` holds the
    #: coefficients of atom ``a``'s degree-``d`` monomials, so one matrix
    #: product yields every directional profile of Lemma 8.4 at once.
    profile_selector: np.ndarray
    #: Per-atom asymptotic decision codes: -1 needs a negative leading sign,
    #: +1 a positive one, 0 is never true (EQ), 2 is always true (NE).
    sign_codes: np.ndarray
    #: Per-atom truth value when the directional polynomial vanishes.
    zero_truth: np.ndarray
    #: Per-variable multiplication plan for :meth:`_term_values`: tuples of
    #: ``(column, degree-one monomial indices, higher-power indices, powers)``
    #: for every variable that occurs in some monomial.
    term_plan: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    #: Peephole-fused program for the common flat shapes: ``("and", cols)`` /
    #: ``("or", cols)`` for one connective over plain atoms, ``("atom",
    #: cols)`` for a single atom; ``None`` runs the general stack machine.
    fused_program: tuple[str, np.ndarray] | None

    # -- public API --------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self.table.variables

    @property
    def dimension(self) -> int:
        return len(self.table.variables)

    def evaluate_batch(self, points: np.ndarray,
                       tolerance: float = EVALUATION_EPS) -> np.ndarray:
        """Truth value of the formula at every row of ``points``.

        ``points`` has shape ``(m, n)`` with one column per compiled
        variable; the result is an ``(m,)`` boolean array.
        """
        points = self._check_points(points)
        values = self._atom_values(points)
        truths = self._apply_comparisons(values, tolerance)
        return self._run_program(truths, points.shape[0])

    def asymptotic_truth_batch(self, directions: np.ndarray) -> np.ndarray:
        """Eventual truth along every direction row of ``directions`` (Lemma 8.4)."""
        directions = self._check_points(directions)
        count = directions.shape[0]
        num_atoms = self.table.num_atoms
        if num_atoms == 0:
            return self._run_program(np.zeros((count, 0), dtype=bool), count)
        width = self.table.max_degree + 1
        if self.table.is_linear and width == 2:
            # Linear fast path: the degree-1 profile coefficient of atom
            # ``a`` along direction ``d`` is the dot product ``d . w_a``, so
            # every profile comes out of one (m, n) @ (n, A) matmul and the
            # leading-sign search collapses to a two-way select.
            degree_one = directions @ self.table.linear_matrix
            degree_zero = self.table.linear_constant
            magnitude_one = np.abs(degree_one)
            scale = np.maximum(magnitude_one, np.abs(degree_zero)[None, :])
            threshold = scale * RELATIVE_ZERO_EPS
            significant_one = magnitude_one > threshold
            significant_zero = np.abs(degree_zero)[None, :] > threshold
            identically_zero = ~significant_one & ~significant_zero
            positive = np.where(significant_one, degree_one > 0.0,
                                degree_zero[None, :] > 0.0)
        else:
            term_values = self._term_values(directions)
            profiles = (term_values @ self.profile_selector).reshape(
                count, num_atoms, width)
            magnitudes = np.abs(profiles)
            scale = magnitudes.max(axis=2)
            significant = magnitudes > (scale * RELATIVE_ZERO_EPS)[:, :, None]
            identically_zero = ~significant.any(axis=2)
            # Highest significant degree per (point, atom); rows that are
            # identically zero get an arbitrary index and are overridden below.
            leading = (width - 1) - np.argmax(significant[:, :, ::-1], axis=2)
            leading_values = np.take_along_axis(profiles, leading[:, :, None],
                                                axis=2)[:, :, 0]
            positive = leading_values > 0.0

        codes = self.sign_codes[None, :]
        truths = ((codes == -1) & ~positive) | ((codes == 1) & positive) | (codes == 2)
        truths = np.where(identically_zero, self.zero_truth[None, :], truths)
        return self._run_program(truths, count)

    # -- internals ---------------------------------------------------------

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"points must have shape (m, {self.dimension}), got {points.shape}")
        return points

    def _term_values(self, points: np.ndarray) -> np.ndarray:
        """Value of every monomial at every point, ``(m, M)``."""
        count = points.shape[0]
        values = np.ones((count, self.table.num_monomials))
        for j, linear_index, power_index, powers in self.term_plan:
            column = points[:, j]
            if linear_index.size:
                values[:, linear_index] *= column[:, None]
            if power_index.size:
                values[:, power_index] *= column[:, None] ** powers[None, :]
        return values

    def _atom_values(self, points: np.ndarray) -> np.ndarray:
        table = self.table
        if table.is_linear:
            return points @ table.linear_matrix + table.linear_constant
        return self._term_values(points) @ self.value_selector

    def _apply_comparisons(self, values: np.ndarray, tolerance: float) -> np.ndarray:
        truths = np.empty(values.shape, dtype=bool)
        for index, op in enumerate(self.table.ops):
            column = values[:, index]
            if op is Comparison.LT:
                truths[:, index] = column < -tolerance
            elif op is Comparison.LE:
                truths[:, index] = column <= tolerance
            elif op is Comparison.EQ:
                truths[:, index] = np.abs(column) <= tolerance
            elif op is Comparison.NE:
                truths[:, index] = np.abs(column) > tolerance
            elif op is Comparison.GE:
                truths[:, index] = column >= -tolerance
            else:  # GT
                truths[:, index] = column > tolerance
        return truths

    def _run_program(self, atom_truths: np.ndarray, count: int) -> np.ndarray:
        if self.fused_program is not None:
            kind, columns = self.fused_program
            if kind == "atom":
                return atom_truths[:, columns[0]]
            if kind == "and":
                return atom_truths[:, columns].all(axis=1)
            return atom_truths[:, columns].any(axis=1)
        stack: list[np.ndarray] = []
        for opcode, operand in self.program:
            if opcode == PUSH_ATOM:
                stack.append(atom_truths[:, operand])
            elif opcode == PUSH_TRUE:
                stack.append(np.ones(count, dtype=bool))
            elif opcode == PUSH_FALSE:
                stack.append(np.zeros(count, dtype=bool))
            elif opcode == OP_NOT:
                stack.append(~stack.pop())
            elif opcode == OP_AND:
                if operand == 0:
                    stack.append(np.ones(count, dtype=bool))
                else:
                    reduced = np.logical_and.reduce(stack[-operand:])
                    del stack[-operand:]
                    stack.append(reduced)
            elif opcode == OP_OR:
                if operand == 0:
                    stack.append(np.zeros(count, dtype=bool))
                else:
                    reduced = np.logical_or.reduce(stack[-operand:])
                    del stack[-operand:]
                    stack.append(reduced)
            else:  # pragma: no cover - the lowering only emits the above
                raise ValueError(f"unknown opcode {opcode}")
        if len(stack) != 1:  # pragma: no cover - structural invariant
            raise RuntimeError(f"boolean program left {len(stack)} values on the stack")
        return stack[0]


def _sign_code(op: Comparison) -> int:
    if op in (Comparison.LT, Comparison.LE):
        return -1
    if op in (Comparison.GT, Comparison.GE):
        return 1
    if op is Comparison.EQ:
        return 0
    return 2  # NE: eventually non-zero, hence eventually true.


def _fuse_program(program: tuple[Instruction, ...]) -> tuple[str, np.ndarray] | None:
    """Recognise a single connective over plain atoms (the dominant shape).

    DNF-ish translations overwhelmingly produce ``And(atoms)`` / ``Or(atoms)``
    or a bare atom; deciding those directly as ``all``/``any`` over a column
    slice skips the stack machine entirely.
    """
    if len(program) == 1 and program[0][0] == PUSH_ATOM:
        return ("atom", np.asarray([program[0][1]], dtype=np.intp))
    if len(program) < 2:
        return None
    *pushes, last = program
    if last[0] not in (OP_AND, OP_OR) or last[1] != len(pushes) or not pushes:
        return None
    if any(opcode != PUSH_ATOM for opcode, _ in pushes):
        return None
    columns = np.asarray([operand for _, operand in pushes], dtype=np.intp)
    return ("and" if last[0] == OP_AND else "or", columns)


def _build_compiled(table: AtomTable, program: tuple[Instruction, ...]) -> CompiledFormula:
    num_atoms = table.num_atoms
    num_monomials = table.num_monomials
    value_selector = np.zeros((num_monomials, num_atoms))
    if num_monomials:
        value_selector[np.arange(num_monomials), table.atom_index] = table.coefficients

    width = table.max_degree + 1
    profile_selector = np.zeros((num_monomials, num_atoms * width))
    if num_monomials:
        columns = table.atom_index * width + table.degrees
        profile_selector[np.arange(num_monomials), columns] = table.coefficients

    sign_codes = np.asarray([_sign_code(op) for op in table.ops], dtype=np.int64)
    zero_truth = np.asarray([op in _ZERO_TRUE_OPS for op in table.ops], dtype=bool)

    term_plan: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    for j in range(len(table.variables)):
        column_exponents = table.exponents[:, j]
        linear_index = np.flatnonzero(column_exponents == 1)
        power_index = np.flatnonzero(column_exponents > 1)
        if linear_index.size or power_index.size:
            term_plan.append((j, linear_index, power_index,
                              column_exponents[power_index].astype(float)))

    return CompiledFormula(
        table=table,
        program=program,
        value_selector=value_selector,
        profile_selector=profile_selector,
        sign_codes=sign_codes,
        zero_truth=zero_truth,
        term_plan=tuple(term_plan),
        fused_program=_fuse_program(program),
    )


#: Default capacity of the compilation memo.  Bounded (unlike a plain
#: ``functools.lru_cache`` left at its default in a long-lived server, whose
#: CompiledFormula values -- dense selector matrices -- would accumulate):
#: the annotation service keeps one entry per distinct canonical lineage in
#: flight, and a many-lineage request can carry several hundred distinct
#: skeletons at once -- a capacity below the working set makes the LRU
#: cycle, so every round of every request recompiles everything.
DEFAULT_COMPILE_CACHE_SIZE = 2048

_COMPILE_CACHE = LruCache(DEFAULT_COMPILE_CACHE_SIZE, name="compiled kernels")


def _canonical_key(formula: ConstraintFormula, variables: tuple[str, ...]):
    """The memo key: the canonical lineage digest where one exists.

    Keying by the null-renaming-invariant digest (instead of formula
    identity) lets renamed variants of one skeleton share a single compiled
    artefact: the canonical rename is positional and order-preserving, so
    the artefact's point columns mean the same thing for every variant.
    The import is deferred -- :mod:`repro.service.canonical` sits above this
    package, and by the first compile both packages are fully initialised.
    """
    from repro.service.canonical import CanonicalisationError, canonicalise
    try:
        canonical = canonicalise(formula, variables)
    except CanonicalisationError:
        # Formulas the canonicaliser does not cover (unknown variables or
        # node kinds) keep the identity key; ``lower`` raises its usual
        # error for the truly malformed ones.
        return (formula, variables), formula, variables
    return canonical.digest, canonical.formula, canonical.variables


def compile_formula(formula: ConstraintFormula,
                    variables: Sequence[str],
                    *, digest: Optional[bytes] = None) -> CompiledFormula:
    """Compile ``formula`` over the ordered ``variables`` tuple.

    Compilation is memoised on the *canonical lineage digest* of
    ``(formula, variables)``, so null-renamed variants of one skeleton --
    every tuple of a generated table carrying its own private nulls through
    the same arithmetic -- share one compiled artefact.  The returned kernel
    is compiled over the canonical positional names; since the rename is
    order-preserving, point columns keep their meaning for every variant.
    The memo is a bounded LRU with hit/miss counters; see
    :func:`compile_cache_stats` and :func:`configure_compile_cache`.

    Callers that already hold the canonical digest of ``(formula,
    variables)`` -- the service's schedule groups carry it -- may pass it as ``digest``: a memo hit then costs one dict lookup
    instead of a full re-canonicalisation of the lineage.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise LoweringError(f"duplicate variables in ambient tuple: {variables}")
    if digest is not None:
        def build_from_digest() -> CompiledFormula:
            # The digest already names the canonical lineage: rebuild only
            # its renamed tree, without serialising and hashing it again.
            from repro.service.canonical import CanonicalLineage
            canonical = CanonicalLineage(digest, formula, variables)
            table, program = lower(canonical.formula, canonical.variables)
            return _build_compiled(table, program)

        return _COMPILE_CACHE.get_or_compute(digest, build_from_digest)
    key, build_formula, build_variables = _canonical_key(formula, variables)

    def build() -> CompiledFormula:
        table, program = lower(build_formula, build_variables)
        return _build_compiled(table, program)

    return _COMPILE_CACHE.get_or_compute(key, build)


def compile_cache_stats() -> CacheStats:
    """Hit/miss/eviction counters of the compilation memo (service stats)."""
    return _COMPILE_CACHE.stats()


def configure_compile_cache(capacity: int | None = None,
                            clear: bool = False) -> None:
    """Resize (and optionally flush) the compilation memo.

    Long-lived services with huge distinct-formula churn can lower the
    capacity to bound memory; benchmarks flush it (``clear=True`` with no
    capacity, which leaves the configured capacity untouched) to measure
    cold paths.
    """
    if capacity is not None:
        _COMPILE_CACHE.resize(capacity)
    if clear:
        _COMPILE_CACHE.clear(reset_counters=True)
