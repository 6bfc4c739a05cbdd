"""The end-to-end pipeline: SQL text in, confidence-annotated answers out.

This is the library-level equivalent of the paper's experimental setup
(Section 9): evaluate a decision-support query over an incomplete database,
and attach to every returned tuple the measure of certainty that it is really
an answer, computed with the requested backend (by default the AFPRAS of
Section 8, the algorithm the paper benchmarks).

Since the service layer landed, these functions are thin wrappers over
:class:`repro.service.AnnotationService`: each call spins up an ephemeral
service around the database and runs one request through the full lifecycle
(parse/plan caches, canonical-lineage batch scheduling, ``SeedSequence``-
spawned per-task streams, optional adaptive refinement).  Long-lived callers
that want caching *across* calls should hold an ``AnnotationService`` of
their own; the wrappers keep the original one-shot API stable for tests,
benchmarks and examples.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.engine.candidates import CandidateAnswer, enumerate_candidates
from repro.engine.sql.ast import SelectQuery
from repro.engine.sql.parser import parse_sql
from repro.geometry.ball import RngLike
from repro.geometry.montecarlo import DEFAULT_DELTA
from repro.relational.database import Database
from repro.service import AnnotatedAnswer, AnnotationService

__all__ = ["AnnotatedAnswer", "annotate", "annotate_query"]


def _root_seed(rng: RngLike):
    """Fold the legacy ``rng`` argument into a service root seed.

    Seeds and ``None`` pass through; an existing generator contributes one
    draw, so repeated calls with the same generator state stay reproducible
    without the service sharing the caller's stream.
    """
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**63))
    return rng


def annotate_query(select: SelectQuery, database: Database,
                   epsilon: float = 0.05,
                   delta: float = DEFAULT_DELTA,
                   method: str = "afpras",
                   limit: Optional[int] = None,
                   rng: RngLike = None,
                   candidates: Optional[Sequence[CandidateAnswer]] = None,
                   jobs: int = 1,
                   adaptive: bool = False) -> list[AnnotatedAnswer]:
    """Annotate the candidate answers of a parsed SELECT query with confidences.

    ``candidates`` may be supplied to reuse a previous enumeration (the
    benchmarks do this to time the Monte-Carlo phase separately from the
    join, which is how the paper reports its numbers).

    Distinct output rows frequently share a lineage formula -- ungrouped
    (bag-semantics) runs emit one row per witness, and different tuples often
    hit the same constraint pattern even after renaming their nulls.  The
    service's batch scheduler computes each distinct *canonical* lineage
    once and reuses the result, which on top of the compiled-kernel cache
    makes repeated lineages nearly free.

    ``jobs`` spreads the per-lineage estimates over that many worker
    processes; results are bit-identical to the serial run at a fixed seed.
    ``adaptive`` serves each estimate through the coarse-to-fine refinement
    schedule (the final precision still meets ``epsilon``).
    """
    service = AnnotationService(database, epsilon=epsilon, delta=delta,
                                method=method, jobs=jobs, adaptive=adaptive)
    if candidates is None:
        candidates = enumerate_candidates(select, database, limit=limit)
    response = service.submit(select, candidates=candidates,
                              seed=_root_seed(rng))
    return list(response.answers)


def annotate(sql: Union[str, SelectQuery], database: Database,
             epsilon: float = 0.05,
             delta: float = DEFAULT_DELTA,
             method: str = "afpras",
             limit: Optional[int] = None,
             rng: RngLike = None,
             group_witnesses: bool = True,
             jobs: int = 1,
             adaptive: bool = False) -> list[AnnotatedAnswer]:
    """Parse (if necessary) and annotate a SQL query over an incomplete database.

    Example
    -------
    >>> answers = annotate(
    ...     "SELECT P.seg FROM Products P, Market M "
    ...     "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25",
    ...     database, epsilon=0.05, rng=0)
    >>> [(a.as_dict(), round(a.certainty.value, 2)) for a in answers][:2]

    ``group_witnesses=False`` switches to SQL bag semantics: every join
    combination becomes its own output row with its own confidence (the mode
    the paper's experimental pipeline uses); by default rows with the same
    projected values are merged and their lineage is the disjunction over all
    witnesses.
    """
    select = parse_sql(sql) if isinstance(sql, str) else sql
    service = AnnotationService(database, epsilon=epsilon, delta=delta,
                                method=method, jobs=jobs, adaptive=adaptive)
    response = service.submit(select, limit=limit, seed=_root_seed(rng),
                              group_witnesses=group_witnesses)
    return list(response.answers)
