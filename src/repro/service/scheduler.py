"""Batch scheduler: group candidate tuples sharing a formula skeleton.

The annotate loop of PR 1 walked candidates one by one, deciding each
lineage with its own kernel invocation and deduplicating only *exact*
``(formula, variables)`` repeats.  The scheduler generalises that: it
canonicalises every candidate's lineage (:mod:`repro.service.canonical`) and
groups candidates whose canonical digests coincide, so a whole group is
decided by **one** compiled-kernel estimate.  Ungrouped (bag-semantics) runs
and generated workloads -- where every tuple owns private nulls but shares
the query's arithmetic pattern -- collapse from hundreds of estimates to a
handful of distinct skeletons.

Groups are emitted in first-member order, so downstream processing (and the
answers eventually returned) keeps the engine's first-witness order.  The
service schedules once per plan-cache fill and stores the schedule with the
candidates, so repeated requests for one plan never re-canonicalise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.service.canonical import CanonicalLineage, canonicalise_lineage

if TYPE_CHECKING:  # imported lazily to keep the service importable on its own
    from repro.engine.candidates import CandidateAnswer


@dataclass(frozen=True)
class TaskGroup:
    """One certainty computation covering every member candidate.

    ``members`` are indices into the request's candidate list; all share the
    same canonical lineage, hence the same measure of certainty.
    """

    canonical: CanonicalLineage
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def build_schedule(candidates: Sequence["CandidateAnswer"]) -> list[TaskGroup]:
    """Group candidates by canonical-lineage digest, in first-member order."""
    order: list[CanonicalLineage] = []
    members_by_digest: dict[bytes, list[int]] = {}
    for index, candidate in enumerate(candidates):
        canonical = canonicalise_lineage(candidate.lineage)
        bucket = members_by_digest.get(canonical.digest)
        if bucket is None:
            members_by_digest[canonical.digest] = [index]
            order.append(canonical)
        else:
            bucket.append(index)
    return [TaskGroup(canonical=canonical,
                      members=tuple(members_by_digest[canonical.digest]))
            for canonical in order]
