"""Property-based differential harness: every dispatch vs the serial path.

The service's Monte-Carlo phase promises to be *scheduling-invisible*: at
a fixed seed, a request answered under any job count, executor, method
resolution, tracing, and with the adaptive epsilon ladder on or off, must
return bit-identical certainties, intervals, adaptive traces, and lineage
digests to a serial, untraced run.

This harness reuses the random (schema, data, query) generator of
tests/test_columnar_differential.py and runs every case through two
:class:`AnnotationService` instances over the same database -- one serial
reference, one with a rotating configuration -- comparing answers field
for field, and the request's work accounting (groups computed and served
from cache, certainty-cache hits and misses).  Set
``REPRO_DISPATCH_CASES`` to scale the case count.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datagen.generic import generate_database
from repro.service import AnnotationService
from test_columnar_differential import _random_case

#: Service-level submits are heavier than bare enumeration, so this
#: harness defaults lower than the columnar one; nightly scales it up.
DEFAULT_CASES = 48

CASES = int(os.environ.get("REPRO_DISPATCH_CASES", DEFAULT_CASES))

#: Rotating candidate configurations, covering every dispatch combination:
#: thread and process executors, result reuse on and off, traced and
#: untraced.  ``process`` appears sparingly: the pool is shared across
#: cases, but shipping payloads still costs more than the thread cases,
#: which run the same content-payload functions.  ``adaptive``, ``method``
#: and ``reuse_results`` apply to both sides.
CONFIGURATIONS = (
    {"jobs": 2},
    {"adaptive": True, "jobs": 3},
    {"method": "auto", "jobs": 2},
    {"jobs": 2, "executor": "process"},
    {"reuse_results": False, "jobs": 2},
    {"method": "auto", "trace": True},
    {"adaptive": True, "trace": True},
)


def _certainty_counters(service) -> tuple[int, int]:
    """Lifetime ``(hits, misses)`` of the service's certainty cache."""
    cache = next(cache for cache in service.stats().caches
                 if cache.name == "certainty")
    return cache.hits, cache.misses


def _submit_counted(service, sql, **request):
    """Submit, returning the response and the request's accounting: groups
    computed and from cache, and the certainty-cache hit/miss deltas."""
    hits, misses = _certainty_counters(service)
    response = service.submit(sql, **request)
    after_hits, after_misses = _certainty_counters(service)
    return response, (response.stats.groups_computed,
                      response.stats.groups_from_cache,
                      after_hits - hits, after_misses - misses)


def _assert_answers_identical(context: str, reference, candidate) -> None:
    assert len(reference.answers) == len(candidate.answers), context
    for expected, actual in zip(reference.answers, candidate.answers):
        assert expected.values == actual.values, context
        assert expected.columns == actual.columns, context
        assert expected.witnesses == actual.witnesses, context
        assert expected.lineage_digest == actual.lineage_digest, context
        # Full dataclass equality: value, method, guarantee, epsilon, delta,
        # samples, dimensions, and the details dict -- which carries the
        # adaptive trace (per-stage values, intervals, sample counts), so
        # the streamed ladder is covered stage by stage, not just at the
        # final value.
        assert expected.certainty == actual.certainty, context
        assert expected.certainty.interval() == actual.certainty.interval(), \
            context


class TestDispatchDifferential:
    def test_random_cases_agree(self):
        """Every dispatch answers bit-identically to serial on random cases."""
        rng = np.random.default_rng(20200807)
        for case_index in range(CASES):
            schema, specs, sql, group_witnesses = _random_case(rng)
            seed = int(rng.integers(0, 2**31))
            configuration = dict(CONFIGURATIONS[case_index % len(CONFIGURATIONS)])
            shared = {
                "adaptive": configuration.pop("adaptive", False),
                "method": configuration.pop("method", "afpras"),
                "reuse_results": configuration.pop("reuse_results", True),
            }
            database = generate_database(schema, specs, rng=seed)
            context = f"case {case_index}: {sql!r} via {configuration}"

            reference, reference_counts = _submit_counted(
                AnnotationService(database, epsilon=0.25), sql, seed=seed,
                group_witnesses=group_witnesses, **shared)
            candidate, candidate_counts = _submit_counted(
                AnnotationService(database, epsilon=0.25), sql, seed=seed,
                group_witnesses=group_witnesses, **shared, **configuration)

            _assert_answers_identical(context, reference, candidate)
            # Same work accounting: groups computed vs served from cache,
            # and exactly one counted cache probe per group either way.
            assert candidate_counts == reference_counts, context

    def test_case_count_meets_floor(self):
        """CI runs enough cases to cover every configuration several times."""
        if "REPRO_DISPATCH_CASES" in os.environ and CASES < DEFAULT_CASES:
            pytest.skip(f"case count deliberately scaled down to {CASES}")
        assert CASES >= len(CONFIGURATIONS) * 4

    def test_adaptive_traces_match_stage_by_stage(self):
        """A parallel epsilon ladder replays the serial ladder exactly.

        Beyond final-answer equality (covered above), the streamed updates
        themselves must match: same stages, same per-stage values and
        monotonically intersected intervals, in the same per-group order.
        """
        rng = np.random.default_rng(31)
        compared = 0
        for _ in range(6):
            schema, specs, sql, group_witnesses = _random_case(rng)
            seed = int(rng.integers(0, 2**31))
            database = generate_database(schema, specs, rng=seed)

            def capture(log):
                def on_update(group, update):
                    log.append((group.canonical.digest, update))
                return on_update

            serial_log, parallel_log = [], []
            AnnotationService(database, epsilon=0.3).submit(
                sql, seed=seed, adaptive=True,
                group_witnesses=group_witnesses,
                on_update=capture(serial_log))
            AnnotationService(database, epsilon=0.3).submit(
                sql, seed=seed, adaptive=True, jobs=2,
                group_witnesses=group_witnesses,
                on_update=capture(parallel_log))
            # Concurrent workers may interleave groups differently; compare
            # each group's ordered update stream, not the global order.
            def by_group(log):
                streams = {}
                for digest, update in log:
                    streams.setdefault(digest, []).append(update)
                return streams
            assert by_group(serial_log) == by_group(parallel_log), sql
            compared += len(by_group(serial_log))
        assert compared > 0
