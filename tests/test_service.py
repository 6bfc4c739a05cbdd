"""Tests for the annotation service: caching, batching, parallelism, adaptive."""

from __future__ import annotations

import pytest

from repro.compile import configure_compile_cache
from repro.datagen.experiments import EXPERIMENT_QUERIES
from repro.engine.annotate import annotate
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import NumNull
from repro.service import (
    AnnotationService,
    ServiceOptions,
    adaptive_schedule,
    build_schedule,
    canonicalise_lineage,
)


@pytest.fixture
def shop() -> Database:
    schema = DatabaseSchema.of(
        RelationSchema.of("Products", id="base", seg="base", rrp="num", dis="num"),
        RelationSchema.of("Market", seg="base", rrp="num", dis="num"),
    )
    database = Database(schema)
    database.add("Products", ("p1", "tools", 10.0, 0.5))
    database.add("Products", ("p2", "tools", NumNull("rrp2"), 0.5))
    database.add("Products", ("p3", "tools", NumNull("rrp3"), 0.5))
    database.add("Products", ("p4", "garden", 4.0, 1.0))
    database.add("Market", ("tools", 8.0, 1.0))
    database.add("Market", ("garden", 10.0, 0.5))
    return database


ADVANTAGE = ("SELECT P.id FROM Products P, Market M "
             "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis")

SIMPLE = "SELECT P.id FROM Products P WHERE P.rrp <= 12"


class TestResultCache:
    def test_warm_request_returns_identical_results(self, shop):
        service = AnnotationService(shop, epsilon=0.05)
        cold = service.submit(ADVANTAGE, seed=7)
        warm = service.submit(ADVANTAGE, seed=7)
        assert [a.certainty.value for a in cold.answers] == \
            [a.certainty.value for a in warm.answers]
        assert [a.certainty.interval() for a in cold.answers] == \
            [a.certainty.interval() for a in warm.answers]
        assert cold.stats.groups_computed > 0
        assert warm.stats.groups_computed == 0
        assert warm.stats.groups_from_cache == warm.stats.groups

    def test_whitespace_changes_hit_the_parse_cache(self, shop):
        service = AnnotationService(shop)
        service.submit(SIMPLE, seed=0)
        service.submit("SELECT   P.id  FROM Products P\n WHERE P.rrp <= 12", seed=0)
        stats = service.stats()
        parse = next(cache for cache in stats.caches if cache.name == "parsed sql")
        assert parse.hits >= 1

    def test_different_seeds_do_not_share_results(self, shop):
        service = AnnotationService(shop, epsilon=0.05)
        first = service.submit(SIMPLE, seed=1)
        second = service.submit(SIMPLE, seed=2)
        assert second.stats.groups_from_cache == 0
        # p2/p3 lineages are genuine estimates; different streams, different
        # values (with overwhelming probability at this sample size).
        uncertain_first = [a.certainty.value for a in first.answers
                           if 0.0 < a.certainty.value < 1.0]
        uncertain_second = [a.certainty.value for a in second.answers
                            if 0.0 < a.certainty.value < 1.0]
        assert uncertain_first and uncertain_first != uncertain_second

    def test_seedless_requests_share_the_cache(self, shop):
        # With no seed anywhere, the service fixes fresh entropy once at
        # construction, so repeated requests still hit the certainty cache.
        service = AnnotationService(shop)
        cold = service.submit(SIMPLE)
        warm = service.submit(SIMPLE)
        assert warm.stats.groups_from_cache == warm.stats.groups
        assert [a.certainty.value for a in cold.answers] == \
            [a.certainty.value for a in warm.answers]

    def test_spawned_seed_sequences_are_distinct_cache_keys(self, shop):
        import numpy as np
        first_child, second_child = np.random.SeedSequence(0).spawn(2)
        service = AnnotationService(shop)
        service.submit(SIMPLE, seed=first_child)
        second = service.submit(SIMPLE, seed=second_child)
        # Same entropy, different spawn keys: must not be served from the
        # first child's cached estimates.
        assert second.stats.groups_from_cache == 0

    def test_invalidate_clears_every_cache(self, shop):
        service = AnnotationService(shop)
        service.submit(SIMPLE, seed=0)
        service.invalidate()
        response = service.submit(SIMPLE, seed=0)
        assert response.stats.groups_from_cache == 0


class TestBatchScheduler:
    def test_isomorphic_lineages_share_one_group(self, shop):
        # p2 and p3 carry different nulls but the same formula skeleton
        # (z <= 16), so the scheduler folds them into one task group.
        response = AnnotationService(shop).submit(ADVANTAGE, seed=0)
        by_id = {a.values[0]: a for a in response.answers}
        assert by_id["p2"].certainty.value == by_id["p3"].certainty.value
        assert response.stats.tuples_batched >= 1
        assert response.stats.groups < response.stats.candidates

    def test_grouping_matches_canonicalisation(self, shop):
        from repro.engine.candidates import enumerate_candidates
        from repro.engine.sql.parser import parse_sql
        candidates = enumerate_candidates(parse_sql(ADVANTAGE), shop)
        schedule = build_schedule(candidates)
        assert sorted(index for group in schedule for index in group.members) == \
            list(range(len(candidates)))
        for group in schedule:
            digests = {canonicalise_lineage(candidates[index].lineage).digest
                       for index in group.members}
            assert len(digests) == 1

    def test_reuse_disabled_gives_independent_estimates(self, shop):
        service = AnnotationService(shop, epsilon=0.05)
        response = service.submit(ADVANTAGE, seed=0, reuse_results=False)
        by_id = {a.values[0]: a for a in response.answers}
        assert by_id["p2"].certainty.value != by_id["p3"].certainty.value
        assert by_id["p2"].certainty.value == pytest.approx(0.5, abs=0.1)
        assert by_id["p3"].certainty.value == pytest.approx(0.5, abs=0.1)


class TestWarmPath:
    def test_warm_requests_do_no_per_candidate_work(self, shop, monkeypatch):
        import repro.service.canonical as canonical

        calls: list[int] = []
        original = canonical.canonicalise

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(canonical, "canonicalise", counting)
        configure_compile_cache(clear=True)
        service = AnnotationService(shop, epsilon=0.05)

        def submit():
            calls.clear()
            stats = service.submit(SIMPLE, seed=3).stats
            return len(calls), (stats.candidates, stats.groups,
                                stats.groups_from_cache, stats.tuples_batched)

        # Cold: once per candidate to schedule.  The estimates compile their
        # kernels under the group digests they carry, so a compile-cache
        # miss canonicalises nothing again.
        cold_calls, cold = submit()
        assert cold_calls == cold[0] > 0
        warm_calls, warm = submit()
        assert warm_calls == 0
        assert warm[2] == warm[1] and warm[3] == cold[3]
        assert submit() == (0, warm)

        # Market is not in SIMPLE: its plan-cache key did not move.
        service.mutate("INSERT INTO Market VALUES ('toys', 3.0, 1.0)")
        assert submit() == (0, warm)

        # Products is: the next request re-plans, once per candidate.
        service.mutate("INSERT INTO Products VALUES ('p5', 'tools', 11.0, 0.5)")
        replanned_calls, replanned = submit()
        assert replanned_calls == replanned[0] == warm[0] + 1
        assert submit() == (0, replanned)
        assert submit() == (0, replanned)


class TestParallelExecution:
    @pytest.mark.parametrize("reuse", [True, False])
    def test_jobs_4_bit_identical_to_jobs_1(self, shop, reuse):
        serial = AnnotationService(shop).submit(
            ADVANTAGE, seed=11, jobs=1, reuse_results=reuse)
        parallel = AnnotationService(shop).submit(
            ADVANTAGE, seed=11, jobs=4, reuse_results=reuse)
        assert [a.certainty.value for a in serial.answers] == \
            [a.certainty.value for a in parallel.answers]
        assert [a.values for a in serial.answers] == \
            [a.values for a in parallel.answers]

    def test_annotate_wrapper_jobs_bit_identical(self, shop):
        serial = annotate(ADVANTAGE, shop, epsilon=0.05, rng=5, jobs=1)
        parallel = annotate(ADVANTAGE, shop, epsilon=0.05, rng=5, jobs=4)
        assert [a.certainty.value for a in serial] == \
            [a.certainty.value for a in parallel]

    def test_jobs_zero_uses_cpu_count(self, shop):
        response = AnnotationService(shop).submit(ADVANTAGE, seed=0, jobs=0)
        assert len(response.answers) > 0


class TestAdaptivePrecision:
    def test_schedule_descends_to_requested_epsilon(self):
        schedule = adaptive_schedule(0.02, coarse=0.2, factor=2.0)
        assert schedule[-1] == 0.02
        assert schedule == sorted(schedule, reverse=True)
        assert all(earlier == pytest.approx(2.0 * later)
                   for later, earlier in zip(schedule[1:], schedule))
        assert adaptive_schedule(0.3) == [0.3]

    def test_updates_tighten_monotonically(self, shop):
        updates = []
        service = AnnotationService(shop, epsilon=0.02, adaptive=True)
        response = service.submit(
            SIMPLE, seed=3,
            on_update=lambda group, update: updates.append((group, update)))
        sampled = [a for a in response.answers if a.certainty.samples > 0]
        assert sampled, "expected at least one Monte-Carlo-estimated answer"
        by_group: dict = {}
        for group, update in updates:
            by_group.setdefault(group.canonical.digest, []).append(update)
        multi_stage = [trace for trace in by_group.values() if len(trace) > 1]
        assert multi_stage, "expected a multi-stage refinement trace"
        for trace in multi_stage:
            widths = [update.interval[1] - update.interval[0] for update in trace]
            assert all(later <= earlier + 1e-12
                       for earlier, later in zip(widths, widths[1:]))
            assert [update.stage for update in trace] == list(range(len(trace)))
            assert trace[-1].final
            assert trace[-1].epsilon == pytest.approx(0.02)

    def test_final_result_meets_requested_epsilon(self, shop):
        response = AnnotationService(shop, adaptive=True).submit(
            SIMPLE, seed=3, epsilon=0.04)
        for answer in response.answers:
            if answer.certainty.samples > 0:
                assert answer.certainty.epsilon == pytest.approx(0.04)
                trace = answer.certainty.details["adaptive"]
                assert len(trace) >= 2
                low, high = answer.certainty.details["interval"]
                assert low <= answer.certainty.value + 0.04
                assert high >= answer.certainty.value - 0.04

    def test_adaptive_value_agrees_with_single_shot(self, shop):
        adaptive = AnnotationService(shop, adaptive=True).submit(
            SIMPLE, seed=3, epsilon=0.03)
        single = AnnotationService(shop).submit(SIMPLE, seed=3, epsilon=0.03)
        for left, right in zip(adaptive.answers, single.answers):
            assert left.certainty.value == pytest.approx(right.certainty.value,
                                                         abs=0.06)

    def test_exact_lineages_short_circuit(self, shop):
        # "P.rrp >= 0 is false only for negative halves": p1/p4 fold to
        # certainty 1 exactly; adaptive mode must not waste stages on them.
        response = AnnotationService(shop, adaptive=True).submit(ADVANTAGE, seed=0)
        by_id = {a.values[0]: a for a in response.answers}
        assert by_id["p1"].certainty.value == 1.0
        assert len(by_id["p1"].certainty.details["adaptive"]) == 1


class TestServiceStats:
    def test_report_mentions_every_cache_layer(self, shop):
        service = AnnotationService(shop)
        service.submit(SIMPLE, seed=0)
        report = service.stats().report()
        for name in ("parsed sql", "candidates", "certainty", "compiled kernels"):
            assert name in report

    def test_as_dict_round_trips_counters(self, shop):
        service = AnnotationService(shop)
        service.submit(SIMPLE, seed=0)
        service.submit(SIMPLE, seed=0)
        payload = service.stats().as_dict()
        assert payload["requests"] == 2
        assert payload["estimates_reused"] >= 1
        assert {cache["name"] for cache in payload["caches"]} >= {"certainty"}

    def test_auto_counts_one_cache_probe_per_group(
            self, tiny_sales_database):
        """Every group is probed once, whichever backend later decides it.

        With ``method="auto"`` most groups resolve to the exact backend and
        the rest sample; each must count exactly one certainty-cache miss,
        not one per dispatch layer it passes through.
        """
        service = AnnotationService(tiny_sales_database, epsilon=0.1, seed=3,
                                    method="auto")
        for sql in EXPERIMENT_QUERIES.values():
            service.submit(sql)
            service.submit(sql)
        stats = service.stats()
        certainty = next(cache for cache in stats.caches
                         if cache.name == "certainty")
        assert stats.estimates_computed > 0 and stats.estimates_reused > 0
        assert certainty.misses == stats.estimates_computed
        assert certainty.hits == stats.estimates_reused

    def test_method_validated_eagerly(self, shop):
        with pytest.raises(ValueError, match="unknown method"):
            AnnotationService(shop, options=ServiceOptions(method="bogus"))
        with pytest.raises(ValueError, match="unknown method"):
            AnnotationService(shop).submit(SIMPLE, method="simulate")

    @pytest.mark.parametrize("option", ["shards", "fusion"])
    def test_removed_options_rejected(self, shop, option):
        with pytest.raises(TypeError, match=option):
            AnnotationService(shop, **{option: 2})
        with pytest.raises(TypeError, match=option):
            AnnotationService(shop).submit(ADVANTAGE, **{option: 2})


class TestWrapperCompatibility:
    def test_annotate_matches_service_values(self, shop):
        wrapper = annotate(ADVANTAGE, shop, epsilon=0.05, rng=9)
        direct = AnnotationService(shop, epsilon=0.05).submit(ADVANTAGE, seed=9)
        assert [a.certainty.value for a in wrapper] == \
            [a.certainty.value for a in direct.answers]

    def test_exact_method_through_service(self, shop):
        response = AnnotationService(shop, method="auto").submit(ADVANTAGE, seed=0)
        assert all(0.0 <= a.certainty.value <= 1.0 for a in response.answers)
        assert any(a.certainty.method == "exact" for a in response.answers)


class TestBackendWiring:
    def test_columnar_backend_serves_identical_answers(self, shop):
        reference = AnnotationService(shop, epsilon=0.05).submit(ADVANTAGE, seed=7)
        columnar = AnnotationService(
            shop, options=ServiceOptions(epsilon=0.05, backend="columnar")
        ).submit(ADVANTAGE, seed=7)
        assert [a.values for a in reference.answers] == \
            [a.values for a in columnar.answers]
        assert [a.witnesses for a in reference.answers] == \
            [a.witnesses for a in columnar.answers]
        # Same canonical lineage + same seed => bit-identical certainties.
        assert [a.certainty.value for a in reference.answers] == \
            [a.certainty.value for a in columnar.answers]

    def test_backend_option_converts_the_snapshot_once(self, shop):
        service = AnnotationService(shop, backend="columnar")
        assert service.database.backend == "columnar"
        assert service.database is not shop
        # A matching backend leaves the snapshot alone.
        same = AnnotationService(service.database, backend="columnar")
        assert same.database is service.database

    def test_columnar_database_is_served_natively(self, shop):
        columnar = shop.with_backend("columnar")
        service = AnnotationService(columnar)
        assert service.database is columnar
        response = service.submit(ADVANTAGE, seed=3)
        assert len(response.answers) == 4
