"""The additive approximation scheme (AFPRAS) of Section 8.

For any FO(+,·,<) query the measure equals the fraction of directions of the
unit ball along which the translated formula is eventually true (Lemma 8.3).
The AFPRAS therefore samples ``m >= ln(2/delta) / (2 eps^2)`` directions
uniformly at random, decides each one symbolically (Lemma 8.4), and returns
the empirical fraction.  By Hoeffding's bound the result is within ``eps`` of
``mu`` with probability at least ``1 - delta``.

Two execution engines are provided:

* the default **batched** engine compiles the formula once
  (:mod:`repro.compile`) and decides whole ``(m, n)`` blocks of directions
  with a handful of matrix products -- this is the production hot path;
* the **scalar** engine is the original per-point tree walk
  (:func:`repro.constraints.asymptotic.asymptotic_truth`), kept as the
  reference oracle the equivalence tests compare against.

Both engines draw directions from the same generator stream (NumPy fills
Gaussian blocks sequentially), so with a fixed seed they see the *same*
directions and -- the kernels matching the scalar decisions -- return the
same estimate.

The implementation also reproduces the optimisation described in the paper's
experimental section: only the coordinates of nulls that actually occur in
the candidate's constraint formula are sampled.  Unconstrained coordinates
integrate out of the volume ratio, so this does not change the value, but it
saves most of the sampling cost when a large database has many nulls of
which only a handful are relevant to any one answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.certainty.result import CertaintyResult
from repro.compile import DEFAULT_BLOCK_SIZE, compile_formula
from repro.constraints.asymptotic import asymptotic_truth, direction_assignment
from repro.constraints.formula import ConstraintFormula
from repro.constraints.translate import TranslationResult
from repro.geometry.ball import RngLike, as_generator, sample_direction
from repro.geometry.montecarlo import (
    DEFAULT_DELTA,
    estimate_indicator_mean_batch,
    hoeffding_sample_size,
)

#: The execution engines understood by :func:`afpras_formula_measure`.
ENGINES = ("batched", "scalar")


@dataclass(frozen=True)
class AfprasOptions:
    """Tunable knobs of the AFPRAS."""

    epsilon: float = 0.05
    delta: float = DEFAULT_DELTA
    #: Sample only the coordinates of nulls occurring in the formula
    #: (the Section 9 optimisation).  Disable to benchmark its effect.
    relevant_only: bool = True
    #: ``"batched"`` (compiled NumPy kernels, the default) or ``"scalar"``
    #: (the original per-point tree walk, kept as the reference oracle).
    engine: str = "batched"
    #: Directions decided per kernel call; bounds the kernels' working set.
    block_size: int = DEFAULT_BLOCK_SIZE


def afpras_formula_measure(formula: ConstraintFormula,
                           variables: tuple[str, ...],
                           epsilon: float = 0.05,
                           delta: float = DEFAULT_DELTA,
                           rng: RngLike = None,
                           engine: str = "batched",
                           block_size: int = DEFAULT_BLOCK_SIZE,
                           digest: Optional[bytes] = None) -> tuple[float, int]:
    """Estimate ``nu(formula)`` over the listed variables by direction sampling.

    Returns ``(estimate, samples)``.  With an empty variable list the formula
    is a Boolean constant and the exact value is returned with zero samples.
    ``digest`` is the canonical lineage digest of ``(formula, variables)``
    when the caller holds it (see :func:`~repro.compile.compile_formula`).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if not variables:
        return (1.0 if formula.evaluate({}) else 0.0), 0
    generator = as_generator(rng)
    samples = hoeffding_sample_size(epsilon, delta)
    dimension = len(variables)

    if engine == "scalar":
        hits = 0
        for _ in range(samples):
            direction = sample_direction(dimension, generator)
            assignment = direction_assignment(variables, direction)
            if asymptotic_truth(formula, assignment):
                hits += 1
        return hits / samples, samples

    compiled = compile_formula(formula, variables, digest=digest)
    estimate = estimate_indicator_mean_batch(
        lambda block_generator, count: compiled.asymptotic_truth_batch(
            sample_direction(dimension, block_generator, size=count)),
        epsilon, delta, rng=generator, block_size=block_size)
    return estimate.value, estimate.samples


def afpras_measure(translation: TranslationResult,
                   options: AfprasOptions = AfprasOptions(),
                   rng: RngLike = None) -> CertaintyResult:
    """Run the AFPRAS on a translated candidate (Theorem 8.1)."""
    variables = (translation.relevant_variables if options.relevant_only
                 else translation.all_variables)
    value, samples = afpras_formula_measure(
        translation.formula, tuple(variables),
        epsilon=options.epsilon, delta=options.delta, rng=rng,
        engine=options.engine, block_size=options.block_size,
        digest=translation.digest if options.relevant_only else None)
    guarantee = "exact" if samples == 0 else "additive"
    return CertaintyResult(
        value=value,
        method="afpras",
        guarantee=guarantee,
        epsilon=None if samples == 0 else options.epsilon,
        delta=None if samples == 0 else options.delta,
        samples=samples,
        dimension=translation.dimension,
        relevant_dimension=len(translation.relevant_variables),
        details={} if samples == 0 else {"engine": options.engine},
    )
