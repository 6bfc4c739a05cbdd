"""The correctness gate: replay a run in-process and compare bit-for-bit.

Every served answer is checked against an in-process
:class:`~repro.service.AnnotationService` built from the same CSV files
with the server's default options, replaying the same requests at the
same data versions.  A read compares answer values, witnesses, certainty
value, samples and interval, and the canonical-lineage digest; a write
compares its inserted/deleted counts and committed data version.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from perfbench.drive import Outcome
from perfbench.workloads import Op


def answer_fingerprint(answer) -> tuple:
    certainty = answer.certainty
    return (tuple(answer.values), answer.witnesses, repr(certainty.value),
            certainty.samples, tuple(repr(bound) for bound in certainty.interval()),
            certainty.method, answer.lineage_digest)


def read_fingerprint(answers) -> tuple:
    return tuple(answer_fingerprint(answer) for answer in answers)


def write_fingerprint(inserted: int, deleted: int, data_version: int) -> tuple:
    return (inserted, deleted, data_version)


def outcome_fingerprint(outcome: Outcome) -> tuple:
    if outcome.op.kind == "read":
        return read_fingerprint(outcome.result.answers)
    result = outcome.result
    return write_fingerprint(result.inserted, result.deleted, result.data_version)


def default_service(data_dir: Path):
    """The service ``repro server --data DIR`` builds with default flags,
    through the CLI's own argument parsing so the defaults cannot drift."""
    from repro import cli

    args = cli._build_parser().parse_args(["server", "--data", str(data_dir)])
    return cli._load_service(args)


class Reference:
    """Expected fingerprints for a sequence of operations, in order."""

    def __init__(self, service) -> None:
        self._service = service
        self._memo: dict[tuple, tuple] = {}

    def expect(self, op: Op) -> tuple:
        if op.kind == "write":
            outcome = self._service.mutate(op.sql)
            return write_fingerprint(outcome.inserted, outcome.deleted,
                                     outcome.data_version)
        # A request's answer is a function of the request and the data
        # version it ran on; repeats are served from this memo.
        key = (op.key(), self._service.database.data_version)
        if key not in self._memo:
            response = self._service.submit(op.sql, **op.request_options())
            self._memo[key] = read_fingerprint(response.answers)
        return self._memo[key]

    def matches(self, outcome: Outcome) -> bool:
        """Whether ``outcome`` succeeded and equals the replay of its op.

        A failed outcome still advances the replay (a rejected write
        changes nothing on either side, so the versions stay aligned).
        """
        try:
            expected = self.expect(outcome.op)
        except Exception:
            return False
        return outcome.error is None and outcome_fingerprint(outcome) == expected


def check(service, outcomes: Sequence[Outcome]) -> list[int]:
    """Indices of outcomes that failed or differ from the in-process replay."""
    reference = Reference(service)
    return [index for index, outcome in enumerate(outcomes)
            if not reference.matches(outcome)]
