"""Fused Monte-Carlo estimation: one kernel sweep per round for many groups.

The per-group execution path of :class:`~repro.service.service.AnnotationService`
launches one compiled-kernel estimate per skeleton group.
:func:`decide_fused_batch` is its fused twin: it compiles every group of a
batch, stacks the compiled kernels block-diagonally
(:mod:`repro.compile.fusion`), and then decides each Monte-Carlo round for
the *whole batch* with a single fused kernel pass.

Bit-identity with the per-group path is preserved end to end:

* **sampling is never fused** -- each group draws its direction blocks from
  its own stream, spawned from the request root under the group's canonical
  lineage digest (plus replica and adaptive-stage tokens), with the exact
  block schedule of :func:`~repro.geometry.montecarlo.estimate_indicator_mean_batch`;
* **deciding is fused but partitioned by kernel branch**
  (:func:`~repro.compile.fusion.fusion_mode`), so every group's decisions come
  out of the same arithmetic as its unfused kernel;
* **results are constructed field-for-field** as
  :func:`~repro.certainty.afpras.afpras_measure` (and, for adaptive ladders,
  :func:`~repro.service.adaptive.adaptive_certainty`) would construct them --
  fused execution is visible only in the service's fusion counters, never in
  an answer.

Adaptive requests fuse per rung: every stage of the epsilon ladder runs as
one fused pass over the still-active groups, each drawing from its own
stage-keyed stream.  A group retires from the batch when a stage answers it
exactly (the ladder's short-circuit) -- for sampled AFPRAS groups that never
happens, so retirement is protocol-completeness, not a hot path -- and the
batch re-fuses over the survivors.

Only groups whose resolved method is AFPRAS sampling in dimension >= 1 are
eligible (:func:`fusable_method`); everything else -- exact folds, FPRAS
fallbacks, zero-dimensional constants -- runs as a solo unit down the
per-group ladder, which tries those backends in exactly the historical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.caching import LruCache
from repro.certainty.exact import ExactComputationError, ExactOptions, exact_measure
from repro.certainty.result import CertaintyResult
from repro.compile import DEFAULT_BLOCK_SIZE, compile_formula, fuse_formulas, fusion_mode
from repro.constraints.translate import TranslationResult
from repro.geometry.ball import sample_direction
from repro.geometry.montecarlo import hoeffding_sample_size
from repro.service.adaptive import (
    AdaptiveUpdate,
    adaptive_schedule,
    intersect_intervals,
)
from repro.service.rng import spawn_stream


@dataclass(frozen=True)
class FusedTask:
    """One schedulable group in content form (picklable for process pools)."""

    translation: TranslationResult
    digest: bytes
    replica: tuple[int, ...] = ()


@dataclass
class FusionAccounting:
    """What a fused batch cost: the counters the service's stats surface."""

    kernels_launched: int = 0
    batch_sizes: list = field(default_factory=list)


#: Callback receiving ``(task position, AdaptiveUpdate)`` per fused stage.
PositionUpdateCallback = Callable[[int, AdaptiveUpdate], None]

#: Memo of fused artefacts keyed by the batch's canonical digests.  A fused
#: batch is a pure function of its member kernels, and those are themselves
#: memoised on canonical digests -- so a repeated request (or the next rung
#: of an adaptive ladder over the same survivors) reuses the block-stacked
#: artefact instead of rebuilding offset arrays and block matrices.
_FUSED_CACHE = LruCache(128, name="fused kernels")


def _fuse_cached(compiled: Sequence, digests: tuple[bytes, ...]):
    return _FUSED_CACHE.get_or_compute(
        digests, lambda: fuse_formulas(compiled))


def fusable_method(method: str, translation: TranslationResult) -> bool:
    """Whether a group with this resolved ``method`` may join a fused batch.

    ``"afpras"`` groups fuse whenever they actually sample (dimension >= 1;
    zero-dimensional formulas fold to exact constants without drawing).
    ``"auto"`` groups fuse only when the historical ladder would fall through
    to AFPRAS: the exact backend is probed first (it consumes no randomness,
    so probing is free of stream effects), and linear formulas are left to
    the per-group path where the FPRAS gets its historical attempt.
    ``"exact"``/``"fpras"`` never fuse.
    """
    if not translation.relevant_variables:
        return False
    if method == "afpras":
        return True
    if method != "auto":
        return False
    try:
        exact_measure(translation, ExactOptions())
        return False
    except ExactComputationError:
        pass
    return not translation.formula.is_linear()


def decide_fused_batch(tasks: Sequence[FusedTask],
                       *,
                       epsilon: float,
                       delta: float,
                       adaptive: bool,
                       root: np.random.SeedSequence,
                       coarse: float,
                       factor: float,
                       on_update: Optional[PositionUpdateCallback] = None,
                       block_size: int = DEFAULT_BLOCK_SIZE
                       ) -> tuple[list[CertaintyResult], FusionAccounting]:
    """Estimate every task of a batch through fused kernel launches.

    Returns results in task order (dimension metadata is the canonical
    translation's; the service patches the ambient dimension back, as it
    does on the per-group path) plus the batch's fusion accounting.
    """
    accounting = FusionAccounting()
    results: list[Optional[CertaintyResult]] = [None] * len(tasks)
    by_mode: dict[str, list[int]] = {}
    compiled = []
    for position, task in enumerate(tasks):
        kernel = compile_formula(task.translation.formula,
                                 tuple(task.translation.relevant_variables),
                                 digest=task.digest)
        compiled.append(kernel)
        by_mode.setdefault(fusion_mode(kernel), []).append(position)
    for positions in by_mode.values():
        accounting.batch_sizes.append(len(positions))
        if adaptive:
            outcomes = _fused_adaptive(
                [tasks[i] for i in positions], [compiled[i] for i in positions],
                positions, epsilon, delta, root, coarse, factor, on_update,
                accounting, block_size)
        else:
            fused = _fuse_cached([compiled[i] for i in positions],
                                 tuple(tasks[i].digest for i in positions))
            positives, samples = _fused_pass(
                fused, [tasks[i] for i in positions], epsilon, delta, root,
                (), accounting, block_size)
            outcomes = [
                _sampled_result(task, int(count) / samples, samples,
                                epsilon, delta)
                for task, count in zip([tasks[i] for i in positions], positives)]
        for position, outcome in zip(positions, outcomes):
            results[position] = outcome
    return results, accounting


def fused_payload(tasks: Sequence[FusedTask], epsilon: float, delta: float,
                  adaptive: bool, root: np.random.SeedSequence,
                  coarse: float, factor: float) -> tuple:
    """Build the picklable payload :func:`run_fused_payload` consumes."""
    return (tuple(tasks), epsilon, delta, adaptive, root, coarse, factor)


def run_fused_payload(payload: tuple,
                      on_update: Optional[PositionUpdateCallback] = None
                      ) -> tuple[list[CertaintyResult], int, list]:
    """:func:`decide_fused_batch` over a content payload (module-level, so
    it pickles): ``(results, kernels launched, batch sizes)``.

    The payload carries only content -- tasks, request parameters and the
    root seed -- so every stream is derived the same in any process.
    """
    tasks, epsilon, delta, adaptive, root, coarse, factor = payload
    results, accounting = decide_fused_batch(
        tasks, epsilon=epsilon, delta=delta, adaptive=adaptive, root=root,
        coarse=coarse, factor=factor, on_update=on_update)
    return results, accounting.kernels_launched, accounting.batch_sizes


# -- internals ---------------------------------------------------------------


def _fused_pass(fused, tasks: Sequence[FusedTask], epsilon: float,
                delta: float, root: np.random.SeedSequence,
                stage_tokens: tuple[int, ...], accounting: FusionAccounting,
                block_size: int) -> tuple[np.ndarray, int]:
    """One fused Hoeffding estimate over every task, per-group streams.

    Mirrors :func:`~repro.geometry.montecarlo.estimate_indicator_mean_batch`:
    the same sample count, split into the same blocks, each group drawing
    its block from its own spawned stream -- only the *deciding* is fused.
    """
    samples = hoeffding_sample_size(epsilon, delta)
    generators = [spawn_stream(root, task.digest, *task.replica, *stage_tokens)
                  for task in tasks]
    positives = np.zeros(len(tasks), dtype=np.int64)
    remaining = samples
    while remaining:
        count = min(remaining, block_size)
        blocks = [sample_direction(dimension, generator, size=count)
                  for dimension, generator in zip(fused.dimensions, generators)]
        decisions = fused.asymptotic_truth_batch(blocks)
        positives += np.count_nonzero(decisions, axis=0)
        remaining -= count
        accounting.kernels_launched += 1
    return positives, samples


def _sampled_result(task: FusedTask, value: float, samples: int,
                    epsilon: float, delta: float) -> CertaintyResult:
    """Field-for-field the result :func:`afpras_measure` would construct."""
    return CertaintyResult(
        value=value,
        method="afpras",
        guarantee="additive",
        epsilon=epsilon,
        delta=delta,
        samples=samples,
        dimension=task.translation.dimension,
        relevant_dimension=len(task.translation.relevant_variables),
        details={"engine": "batched"},
    )


def _fused_adaptive(tasks: Sequence[FusedTask], compiled: Sequence,
                    positions: Sequence[int], epsilon: float, delta: float,
                    root: np.random.SeedSequence, coarse: float, factor: float,
                    on_update: Optional[PositionUpdateCallback],
                    accounting: FusionAccounting,
                    block_size: int) -> list[CertaintyResult]:
    """The epsilon ladder of :func:`adaptive_certainty`, fused per rung.

    Every stage runs as one fused pass over the active groups (stage-keyed
    streams, union-bound ``delta / K`` budget, running interval
    intersection); a group whose stage answers exactly retires from the
    batch and the survivors re-fuse.
    """
    schedule = adaptive_schedule(epsilon, coarse=coarse, factor=factor)
    stages = len(schedule)
    stage_delta = delta / stages
    count = len(tasks)
    intervals: list[Optional[tuple[float, float]]] = [None] * count
    traces: list[list[dict]] = [[] for _ in range(count)]
    lasts: list[Optional[CertaintyResult]] = [None] * count
    totals = [0] * count
    active = list(range(count))
    fused = _fuse_cached(compiled, tuple(task.digest for task in tasks))
    for stage, stage_epsilon in enumerate(schedule):
        positives, samples = _fused_pass(
            fused, [tasks[i] for i in active], stage_epsilon, stage_delta,
            root, (stage,), accounting, block_size)
        retired = []
        for slot, index in enumerate(active):
            result = _sampled_result(tasks[index], int(positives[slot]) / samples,
                                     samples, stage_epsilon, stage_delta)
            exact = result.guarantee == "exact"
            final = exact or stage == stages - 1
            intervals[index] = intersect_intervals(intervals[index], result.interval())
            traces[index].append({
                "stage": stage,
                "epsilon": None if exact else stage_epsilon,
                "value": result.value,
                "interval": list(intervals[index]),
                "samples": result.samples,
            })
            totals[index] += result.samples
            lasts[index] = result
            if on_update is not None:
                on_update(positions[index], AdaptiveUpdate(
                    stage=stage, stages=stages,
                    epsilon=stage_epsilon, value=result.value,
                    interval=intervals[index], samples=result.samples,
                    final=final))
            if exact:  # pragma: no cover - sampled results are never exact
                retired.append(index)
        if retired:  # pragma: no cover - see above
            active = [index for index in active if index not in retired]
            if not active:
                break
            fused = _fuse_cached([compiled[i] for i in active],
                                 tuple(tasks[i].digest for i in active))
    outcomes = []
    for index in range(count):
        last = lasts[index]
        details = dict(last.details)
        details["adaptive"] = traces[index]
        details["interval"] = list(intervals[index])
        if last.guarantee == "exact":  # pragma: no cover - sampled, never exact
            outcomes.append(replace(last, samples=totals[index], details=details))
        else:
            outcomes.append(replace(last, samples=totals[index], delta=delta,
                                    details=details))
    return outcomes
