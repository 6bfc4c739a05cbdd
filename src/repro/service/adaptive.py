"""Adaptive precision: coarse answers first, refined toward the target ε.

The Hoeffding sample size grows as ``1/eps^2``, so an estimate at ``4 eps``
costs 1/16th of the final one.  For interactive serving that asymmetry is
worth exploiting: the service first decides a lineage at a coarse error
level and *streams* the resulting confidence interval to the caller, then
refines geometrically (halving ε each stage) until the requested precision
is reached.  Early stages let a client render answers -- or discard tuples
whose interval already pins them as certain/impossible -- long before the
expensive final stage lands; the whole schedule costs at most
``1 + 1/4 + 1/16 + ... < 4/3`` of the direct single-shot estimate.

Interval discipline: stage ``k`` runs with failure budget ``delta / K`` (a
union bound over the ``K`` stages keeps the overall failure probability at
``delta``), and the streamed interval is the running *intersection* of all
stage intervals.  Intersection makes the reported intervals monotonically
tightening by construction -- a later, sharper stage can only shrink what an
earlier stage established -- and remains valid because with probability
``1 - delta`` every stage interval contains the true measure simultaneously.

Each stage draws from its own spawned stream (stage index appended to the
task's spawn key), so adaptive runs are as order- and parallelism-independent
as single-shot ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.certainty.measure import certainty_from_translation
from repro.certainty.result import CertaintyResult
from repro.constraints.translate import TranslationResult
from repro.geometry.montecarlo import DEFAULT_DELTA

#: Coarsest error level the first stage is allowed to use.
DEFAULT_COARSE_EPSILON = 0.2

#: Geometric refinement factor between consecutive stages.
DEFAULT_REFINEMENT_FACTOR = 2.0


@dataclass(frozen=True)
class AdaptiveUpdate:
    """One streamed refinement step of an adaptive estimate."""

    stage: int
    stages: int
    epsilon: float
    value: float
    #: Running intersection of the stage intervals so far; never wider than
    #: the previous update's interval.
    interval: tuple[float, float]
    samples: int
    final: bool


#: Callback invoked after every stage with the streamed update.
UpdateCallback = Callable[[AdaptiveUpdate], None]


def adaptive_schedule(epsilon: float,
                      coarse: float = DEFAULT_COARSE_EPSILON,
                      factor: float = DEFAULT_REFINEMENT_FACTOR) -> list[float]:
    """The descending ε schedule ending exactly at the requested ``epsilon``.

    Stages run at ``epsilon * factor^k`` for the largest ``k`` keeping the
    coarsest stage at or below ``coarse``; a request at or above ``coarse``
    degenerates to a single stage.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if factor <= 1.0:
        raise ValueError(f"refinement factor must exceed 1, got {factor}")
    schedule = [epsilon]
    while schedule[-1] * factor <= coarse:
        schedule.append(schedule[-1] * factor)
    schedule.reverse()
    return schedule


def intersect_intervals(previous: Optional[tuple[float, float]],
                        interval: tuple[float, float]) -> tuple[float, float]:
    """Running intersection of stage intervals (the ladder's monotonicity)."""
    if previous is None:
        return interval
    low = max(previous[0], interval[0])
    high = min(previous[1], interval[1])
    if low > high:
        # Disjoint stage intervals can only happen on the < delta failure
        # event; collapse to the boundary midpoint so monotonicity survives.
        midpoint = (low + high) / 2.0
        return (midpoint, midpoint)
    return (low, high)


def adaptive_certainty(translation: TranslationResult,
                       epsilon: float,
                       delta: float = DEFAULT_DELTA,
                       method: str = "afpras",
                       stream_factory: Callable[[int], np.random.Generator] = None,
                       on_update: Optional[UpdateCallback] = None,
                       coarse: float = DEFAULT_COARSE_EPSILON,
                       factor: float = DEFAULT_REFINEMENT_FACTOR) -> CertaintyResult:
    """Progressively refine one lineage's certainty down to ``epsilon``.

    ``stream_factory(stage)`` must return the stage's random stream (the
    service passes a spawn keyed on the lineage digest and stage index).
    The returned result carries the final-stage estimate at the requested
    ``epsilon`` with the refinement trace under ``details["adaptive"]`` and
    the final intersected interval under ``details["interval"]``.
    """
    if stream_factory is None:
        generator = np.random.default_rng()
        stream_factory = lambda stage: generator  # noqa: E731 - trivial default
    schedule = adaptive_schedule(epsilon, coarse=coarse, factor=factor)
    stages = len(schedule)
    stage_delta = delta / stages
    interval: Optional[tuple[float, float]] = None
    trace: list[dict] = []
    result: Optional[CertaintyResult] = None
    for stage, stage_epsilon in enumerate(schedule):
        result = certainty_from_translation(
            translation, epsilon=stage_epsilon, delta=stage_delta,
            method=method, rng=stream_factory(stage))
        exact = result.guarantee == "exact"
        final = exact or stage == stages - 1
        interval = intersect_intervals(interval, result.interval())
        trace.append({
            "stage": stage,
            "epsilon": None if exact else stage_epsilon,
            "value": result.value,
            "interval": list(interval),
            "samples": result.samples,
        })
        if on_update is not None:
            on_update(AdaptiveUpdate(
                stage=stage, stages=stages,
                epsilon=stage_epsilon, value=result.value,
                interval=interval, samples=result.samples, final=final))
        if exact:
            # An exact backend answered; further sampling cannot improve it.
            break
    total_samples = sum(entry["samples"] for entry in trace)
    details = dict(result.details)
    details["adaptive"] = trace
    details["interval"] = list(interval)
    if result.guarantee == "exact":
        return replace(result, samples=total_samples, details=details)
    # The union bound over stages makes the whole trace -- in particular the
    # final stage at the requested epsilon -- valid at the requested delta.
    return replace(result, samples=total_samples, delta=delta, details=details)
