"""Stale-cache detector: delta-driven invalidation never serves stale state.

The service keeps three mutation-sensitive caches: plan/candidate caches
(keyed by per-table versions), the frontier cache (epoch-checked), and
the certainty result cache with recorded lineage provenance (evicted
when a mutation deletes rows whose nulls the cached lineage mentions).
These property tests mutate *exactly* the rows a cached result's lineage
references and assert that

* the next identical query reflects the new data -- its answers equal a
  fresh service's answers on the same snapshot content, bit for bit;
* a query whose lineage does not touch the mutated rows stays warm
  (served from the result cache, no new estimate computed);
* the stats counters account for every eviction and retention.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.datagen.experiments import (
    NEVER_KNOWINGLY_UNDERSOLD,
    UNFAIR_DISCOUNT,
    ExperimentScale,
    generate_sales_database,
)
from repro.engine.candidates import enumerate_candidates
from repro.engine.mutate import execute_mutation
from repro.engine.sql.parser import parse_sql, parse_statement
from repro.engine.vectorized import FrontierCache
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import NumNull
from repro.service.service import AnnotationService, ServiceOptions


def _schema() -> DatabaseSchema:
    return DatabaseSchema.of(RelationSchema.of("t", key="base", x="num"),
                             RelationSchema.of("u", key="base", y="num"))


def _database(backend: str = "columnar") -> Database:
    # One null per table, so each query's lineage references exactly one
    # table's rows and cross-eviction is observable.
    return Database.from_dict(_schema(), {
        "t": [("a", 1.0), ("b", NumNull("n0")), ("c", 4.0)],
        "u": [("a", NumNull("n1")), ("b", 6.0)],
    }, backend=backend)


def _service(database: Database) -> AnnotationService:
    return AnnotationService(database, ServiceOptions(seed=7, epsilon=0.2))


Q_T = "SELECT t.key FROM t WHERE t.x > 2"
Q_U = "SELECT u.key FROM u WHERE u.y > 3"
#: Same arithmetic as ``Q_T`` over u's null: the lineages coincide.
Q_U_SHARED = "SELECT u.key FROM u WHERE u.y > 2"


def _snapshot(answers):
    return [(answer.values, answer.certainty.value, answer.witnesses,
             answer.lineage_digest) for answer in answers]


class TestDeltaDrivenInvalidation:
    @pytest.mark.parametrize("backend", ["rows", "columnar"])
    def test_mutating_referenced_rows_evicts_only_their_results(self, backend):
        service = _service(_database(backend))
        service.submit(Q_T)
        service.submit(Q_U)
        computed_before = service.stats().estimates_computed

        # Delete the row whose null Q_T's cached lineage references.
        service.mutate("DELETE FROM t WHERE key = 'b'")
        stats = service.stats()
        assert stats.results_evicted == 1
        assert stats.results_retained >= 1

        # Q_U's lineage references only u rows: served warm, no recompute.
        service.submit(Q_U)
        assert service.stats().estimates_computed == computed_before

    def test_next_query_never_replays_stale_certainty(self):
        service = _service(_database())
        before = _snapshot(service.submit(Q_T).answers)
        assert any(0.0 < certainty < 1.0
                   for _, certainty, _, _ in before), \
            "the case must have an uncertain answer to make staleness visible"

        # Pin down the null: the certainly-uncertain row becomes concrete.
        service.mutate("UPDATE t SET x = 9 WHERE key = 'b'")
        after = service.submit(Q_T).answers
        fresh = _service(_rebuild(service)).submit(Q_T)
        assert _snapshot(after) == _snapshot(fresh.answers)
        assert all(answer.certainty.value == 1.0 for answer in after), \
            "every surviving answer is now certain; stale cache would not be"

    def test_randomised_mutations_match_fresh_service(self):
        """Property form: after any script, warm service == cold service."""
        rng = np.random.default_rng(42)
        statements = (
            "INSERT INTO t VALUES ('d', 0.5)",
            "INSERT INTO t VALUES ('e', NULL)",
            "DELETE FROM t WHERE key = 'b'",
            "UPDATE t SET x = x + 1 WHERE key = 'a'",
            "DELETE FROM u WHERE y > 3",
            "UPDATE u SET y = NULL WHERE key = 'b'",
        )
        for trial in range(8):
            service = _service(_database())
            service.submit(Q_T)
            service.submit(Q_U)
            script = rng.choice(len(statements), size=3, replace=False)
            for index in script:
                try:
                    service.mutate(statements[int(index)])
                except ValueError:
                    continue  # conflicts depend on order; skipping is fine
            for sql in (Q_T, Q_U):
                warm = service.submit(sql).answers
                cold = _service(_rebuild(service)).submit(sql).answers
                assert _snapshot(warm) == _snapshot(cold), \
                    f"trial {trial}: {sql!r} after {list(script)}"

    def test_untouched_table_plans_stay_warm(self):
        service = _service(_database())
        service.submit(Q_T)
        service.submit(Q_U)
        candidates = {c.name: c for c in service.stats().caches}["candidates"]
        misses_before = candidates.misses

        service.mutate("INSERT INTO t VALUES ('z', 7)")
        service.submit(Q_U)  # untouched table: plan cache key unchanged
        candidates = {c.name: c for c in service.stats().caches}["candidates"]
        assert candidates.misses == misses_before
        service.submit(Q_T)  # touched table: version in the key moved
        candidates = {c.name: c for c in service.stats().caches}["candidates"]
        assert candidates.misses == misses_before + 1

    def test_frontier_cache_counters_track_eligibility(self):
        service = _service(_database())
        service.submit(Q_T)  # miss: cold, and version 0 admits nothing
        service.submit(Q_T)  # plan-cache hit: no enumeration
        service.mutate("INSERT INTO t VALUES ('z', 7)")
        service.submit(Q_T)  # miss: re-enumerated cold, and admitted
        service.mutate("DELETE FROM t WHERE key = 'z'")
        service.submit(Q_T)  # hit: the commit carried it past the delete
        frontier = {c.name: c for c in service.stats().caches}["frontier"]
        assert (frontier.hits, frontier.misses) == (1, 2)

    @pytest.mark.parametrize("backend", ["rows", "columnar"])
    @pytest.mark.parametrize("statement", [
        "DELETE FROM t WHERE key = 'b'",   # the row of the query that filled
        "DELETE FROM u WHERE key = 'a'",   # the row of the query that reused
    ])
    def test_provenance_accumulates_across_plans_sharing_a_lineage(
            self, backend, statement):
        # ``t.x > 2`` over n0 and ``u.y > 2`` over n1 canonicalise to the
        # same lineage, so the second query is served from the first one's
        # certainty entry and its nulls must join that entry's provenance.
        service = _service(_database(backend))
        first = service.submit(Q_T)
        second = service.submit(Q_U_SHARED)
        assert ({answer.lineage_digest for answer in first.answers}
                == {answer.lineage_digest for answer in second.answers})
        assert second.stats.groups_from_cache == second.stats.groups == 2
        assert service.stats().estimates_computed == 2

        service.mutate(statement)
        stats = service.stats()
        assert (stats.results_evicted, stats.results_retained) == (1, 1)
        for sql in (Q_T, Q_U_SHARED):
            warm = service.submit(sql).answers
            cold = _service(_rebuild(service)).submit(sql).answers
            assert _snapshot(warm) == _snapshot(cold), sql
        # The shared lineage was recomputed once and then served warm.
        assert service.stats().estimates_computed == 3

    def test_concurrent_requests_lose_no_provenance(self):
        """More threads than cores record their nulls onto one shared
        certainty entry at once; a lost update would leave some row whose
        deletion no longer evicts the entry."""
        rows = 8
        schema = DatabaseSchema.of(RelationSchema.of("t", key="base", x="num"))
        queries = [f"SELECT t.key FROM t WHERE t.key = 'r{index}' AND t.x > 2"
                   for index in range(rows)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for victim in range(rows):
                service = _service(Database.from_dict(schema, {"t": [
                    (f"r{index}", NumNull(f"n{index}"))
                    for index in range(rows)]}))
                barrier = threading.Barrier(rows)
                errors: list[Exception] = []

                def read(sql: str) -> None:
                    try:
                        barrier.wait(timeout=10)
                        assert len(service.submit(sql).answers) == 1
                    except Exception as error:  # surfaced below
                        errors.append(error)

                threads = [threading.Thread(target=read, args=(sql,))
                           for sql in queries]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert service.stats().results_retained == 1

                service.mutate(f"DELETE FROM t WHERE key = 'r{victim}'")
                assert service.stats().results_evicted == 1, victim
        finally:
            sys.setswitchinterval(interval)

    def test_the_enumerate_span_names_the_frontier_path(self):
        service = _service(_database())

        def path(statement=None):
            if statement is not None:
                service.mutate(statement)
            spans = service.submit(Q_T, trace=True).trace.spans
            (enumerate_,) = [span for span in spans
                             if span.name == "enumerate"]
            return enumerate_.attributes.get("frontier")

        assert path() == "cold"
        assert path() is None  # a plan-cache hit enumerates nothing
        assert path("INSERT INTO t VALUES ('z', 7)") == "cold"
        assert path("INSERT INTO t VALUES ('y', 8)") == "appended"
        assert path("DELETE FROM t WHERE key = 'z'") == "advanced"

    def test_a_read_only_warm_up_holds_no_frontier(self):
        service = _service(_database())
        for sql in (Q_T, Q_U, Q_T, Q_U):
            service.submit(sql)
        frontier = {c.name: c for c in service.stats().caches}["frontier"]
        assert frontier.size == 0

    def test_invalidate_clears_provenance_and_frontier(self):
        service = _service(_database())
        service.submit(Q_T)
        service.mutate("INSERT INTO t VALUES ('z', 7)")
        service.submit(Q_T)  # re-enumerated: admitted
        assert {c.name: c for c in service.stats().caches}["frontier"].size
        service.invalidate()
        stats = service.stats()
        assert stats.results_retained == 0
        frontier = {c.name: c for c in stats.caches}["frontier"]
        assert frontier.size == 0


class TestPinnedSnapshot:
    """A request keeps the snapshot it pinned at submit time -- answers and
    result metadata alike -- while a commit lands mid-request."""

    COMMIT = "UPDATE t SET x = 9 WHERE key = 'b'"

    def test_a_commit_mid_request_leaves_the_request_on_its_snapshot(self):
        service = _service(_database())
        pinned = _service(_database()).submit(Q_T).answers
        plan = service._plan

        def commit_then_plan(*args, **kwargs):
            # The request has pinned its snapshot; the next version commits
            # before it enumerates, estimates and stamps its results.
            service.mutate(self.COMMIT)
            return plan(*args, **kwargs)

        service._plan = commit_then_plan
        during = service.submit(Q_T).answers
        del service._plan
        assert service.database.data_version == 1, "the commit must land"
        assert _snapshot(during) == _snapshot(pinned)
        # The pinned version holds both nulls; the committed one only u's.
        assert [answer.certainty.dimension for answer in during] == \
            [2] * len(during)

        after = service.submit(Q_T).answers
        fresh = _service(_rebuild(service)).submit(Q_T).answers
        assert _snapshot(after) == _snapshot(fresh)
        assert all(answer.certainty.value == 1.0 for answer in after)
        assert [answer.certainty.dimension for answer in after] == \
            [1] * len(after)


    def test_a_frontier_stored_after_a_delete_never_reaches_the_older_reader(
            self):
        # The request pins version N; mid-request a DELETE commits N+1 and
        # a reader on N+1 stores its frontier for the same select (another
        # LIMIT, so a separate plan).  The pinned request then enumerates
        # on N: the stored frontier's indices are shifted for N+1.
        service = _sales_service()
        victim = service.database.relation("Orders").tuples()[0][0]
        pinned = _sales_service().submit(UNFAIR_DISCOUNT, limit=10).answers
        plan = service._plan

        def commit_read_then_plan(*args, **kwargs):
            del service._plan
            service.mutate(f"DELETE FROM Orders WHERE id = '{victim}'")
            service.submit(UNFAIR_DISCOUNT, limit=5)
            assert len(service._frontier_cache._cache) == 1
            return plan(*args, **kwargs)

        service._plan = commit_read_then_plan
        during = service.submit(UNFAIR_DISCOUNT, limit=10).answers
        assert service.database.data_version == 1, "the commit must land"
        assert _snapshot(during) == _snapshot(pinned)
        # The older reader's frontier did not replace the newer one.
        (kept,) = [service._frontier_cache._cache.peek(select)
                   for select in service._frontier_cache._cache.keys()]
        assert kept.data_version == 1


def _sales_service() -> AnnotationService:
    database = generate_sales_database(
        ExperimentScale(60, 60, 6, null_rate=0.1), rng=3)
    return AnnotationService(database, ServiceOptions(
        seed=7, epsilon=0.2, backend="columnar"))


class TestFrontierCache:
    """Engine-level contract of the frontier cache across commits."""

    @staticmethod
    def _sales(backend: str = "columnar") -> Database:
        return generate_sales_database(
            ExperimentScale(60, 60, 6, null_rate=0.1),
            rng=3).with_backend(backend)

    @staticmethod
    def _delete(database: Database, *rows: int):
        mutation = database.begin_mutation()
        for row in rows:
            mutation.delete("Orders", row)
        return mutation.commit()

    def test_a_frontier_stored_on_a_newer_version_misses_an_older_one(self):
        parent = self._sales()
        sealed, _ = self._delete(parent, 0)
        select = parse_sql(UNFAIR_DISCOUNT)
        cache = FrontierCache()
        enumerate_candidates(select, sealed, frontier_cache=cache)
        assert cache.lookup(select, sealed) is not None
        assert cache.lookup(select, parent) is None
        warm = enumerate_candidates(select, parent, frontier_cache=cache)
        _assert_same_candidates(warm, enumerate_candidates(select, parent))

    def test_a_version_zero_snapshot_is_never_admitted(self):
        database = self._sales()
        select = parse_sql(UNFAIR_DISCOUNT)
        cache = FrontierCache()
        for _ in range(2):
            enumerate_candidates(select, database, frontier_cache=cache)
        assert len(cache._cache) == 0

    def test_a_two_version_insert_chain_misses_once(self):
        # The first enumeration after a commit is admitted, so the next
        # version's enumeration appends instead of running cold again.
        select = parse_sql(UNFAIR_DISCOUNT)
        cache = FrontierCache()
        database = self._sales()
        paths = []
        for row in (("o9000", "p1", 3.0, 0.5), ("o9001", "p2", 4.0, 0.5)):
            mutation = database.begin_mutation()
            mutation.insert("Orders", row)
            database, _ = mutation.commit()
            sink: dict = {}
            enumerate_candidates(select, database, frontier_stats=sink,
                                 frontier_cache=cache)
            paths.append(sink["frontier"])
        assert paths == ["cold", "appended"]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_advance_carries_a_frontier_past_deletes_and_an_update(self):
        database, _ = self._delete(self._sales(), 0)  # a moved chain admits
        select = parse_sql(NEVER_KNOWINGLY_UNDERSOLD)
        cache = FrontierCache()
        enumerate_candidates(select, database, frontier_cache=cache)
        for statement in ("DELETE FROM Orders WHERE q > 5",
                          "UPDATE Orders SET q = 2 WHERE id = 'o6'"):
            parent = database
            database, deltas, _ = execute_mutation(
                parse_statement(statement), parent)
            assert any(delta.deleted_indices for delta in deltas.values())
            cache.advance(parent, database, deltas)
            sink: dict = {}
            warm = enumerate_candidates(select, database, frontier_stats=sink,
                                        frontier_cache=cache)
            assert sink["frontier"] == "advanced", statement
            cold = enumerate_candidates(
                select, _fresh(database, "rows"))
            _assert_same_candidates(warm, cold)

    def test_advance_drops_entries_the_parent_cannot_use(self):
        database, _ = self._delete(self._sales(), 0)
        select = parse_sql(UNFAIR_DISCOUNT)
        cache = FrontierCache()
        enumerate_candidates(select, database, frontier_cache=cache)
        assert len(cache._cache) == 1
        stranger = _fresh(database, "columnar")  # another version chain
        sealed, deltas = self._delete(stranger, 0)
        cache.advance(stranger, sealed, deltas)
        assert len(cache._cache) == 0

    def test_each_frontier_path_is_reported(self, monkeypatch):
        from repro.engine import vectorized

        database = self._sales()
        select = parse_sql(UNFAIR_DISCOUNT)
        cache = FrontierCache()

        paths: list[str] = []

        def enumerate_on(target: Database) -> None:
            sink: dict = {}
            enumerate_candidates(select, target, frontier_stats=sink,
                                 frontier_cache=cache)
            if sink["frontier"] not in paths:
                paths.append(sink["frontier"])

        enumerate_on(database)  # version 0: cold, not admitted
        for row in (("o9000", "p1", 3.0, 0.5), ("o9001", "p2", 4.0, 0.5)):
            mutation = database.begin_mutation()
            mutation.insert("Orders", row)
            grown, _ = mutation.commit()
            enumerate_on(grown)  # cold and admitted, then appended
            database = grown
        parent, (database, deltas) = grown, self._delete(grown, 0)
        cache.advance(parent, database, deltas)
        enumerate_on(database)
        monkeypatch.setattr(vectorized, "_MAX_FRONTIER_PAIRS", 1)
        cache.clear()  # a cached frontier would need no join step
        enumerate_on(database)
        assert tuple(paths) == vectorized.FRONTIER_PATHS


def _fresh(database: Database, backend: str) -> Database:
    return Database.from_dict(
        database.schema,
        {name: database.relation(name).tuples()
         for name in database.relation_names()},
        backend=backend)


def _assert_same_candidates(actual, expected) -> None:
    assert [(c.values, c.witnesses, c.lineage.formula) for c in actual] == \
        [(c.values, c.witnesses, c.lineage.formula) for c in expected]


def _rebuild(service: AnnotationService) -> Database:
    """The service's current snapshot content on a fresh, cacheless chain."""
    database = service.database
    return Database.from_dict(
        database.schema,
        {name: database.relation(name).tuples()
         for name in database.relation_names()},
        backend=database.backend)
