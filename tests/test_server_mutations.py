"""Concurrent reads and writes through the async server.

The live data plane promises MVCC semantics at the wire: writers never
block readers, readers pinned across a commit keep the snapshot they
started on, writers serialise behind the mutation gate and report
strictly advancing data versions, and drain lets an in-flight mutation
deliver its terminal event before the server goes idle.  These tests pin
each of those properties -- transport-free against :class:`ServerApp`
where determinism wants a gate, end-to-end through
:class:`EmbeddedServer` sockets for the four-reader acceptance scenario.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from dataclasses import replace

import pytest

from repro.client import ReproClient
from repro.datagen.experiments import (
    EXPERIMENT_QUERIES,
    ExperimentScale,
    generate_sales_database,
)
from repro.engine.mutate import execute_mutation
from repro.engine.sql.ast import (
    Assignment,
    ColumnExpression,
    Condition,
    NumberLiteral,
    StringLiteral,
    UpdateStatement,
)
from repro.engine.sql.parser import parse_statement
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import NumNull
from repro.server import EmbeddedServer, ServerApp
from repro.server.protocol import (
    dump_line,
    encode_answer,
    load_line,
    result_event,
)
from repro.service import AnnotationService, ServiceOptions
from repro.service.answers import AnnotatedAnswer
from repro.service.service import _answer_key


def _database() -> Database:
    schema = DatabaseSchema.of(RelationSchema.of("t", key="base", x="num"))
    # Two nulls keep every reader query uncertain, so the certainty
    # estimator (where the pinning gate sits) runs for each of them.
    return Database.from_dict(schema, {
        "t": [("a", 1.0), ("b", NumNull("n0")), ("c", 4.0),
              ("d", NumNull("n1"))],
    }, backend="columnar")


def _service(database: Database | None = None) -> AnnotationService:
    return AnnotationService(database if database is not None else _database(),
                             ServiceOptions(seed=7, epsilon=0.2))


def _rebuild(database: Database) -> Database:
    """The same content on a fresh, cacheless version chain."""
    return Database.from_dict(
        database.schema,
        {name: database.relation(name).tuples()
         for name in database.relation_names()},
        backend=database.backend)


class _Candidate:
    """The fields of a candidate answer that key its answer slot."""

    def __init__(self, values: tuple) -> None:
        self.values = values
        self.witnesses = 1


def _snapshot(answers):
    return [(answer.values, answer.certainty.value, answer.lineage_digest)
            for answer in answers]


#: Four distinct queries (distinct lineages, so neither the server's
#: single-flight nor the service's estimate sharing merges the readers).
READER_QUERIES = tuple(f"SELECT t.key FROM t WHERE t.x > {bound}"
                       for bound in (0, 1, 2, 3))

MUTATION = "INSERT INTO t VALUES ('z', 9)"


class GatedWriter:
    """Delegate to a real service, but block ``mutate`` on a test gate.

    Holds the statement *inside* the server's mutation gate, so the test
    can assert what readers and drain do while a writer is in flight.
    """

    def __init__(self, inner: AnnotationService) -> None:
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def mutate(self, statement):
        self.entered.set()
        assert self.gate.wait(30), "test gate never opened"
        return self.inner.mutate(statement)


async def _collect(app: ServerApp, message: dict) -> list[dict]:
    return [event async for event in app.query_events(message)]


class TestSnapshotIsolation:
    def test_pinned_readers_keep_their_version(self):
        """Four readers pinned across a commit answer from the old snapshot.

        The gate sits in ``_estimate``: by the time a reader blocks there
        it has pinned its snapshot and enumerated candidates from it.  The
        writer then commits *while all four are pinned* -- without waiting
        on them -- and the readers, once released, must still answer from
        version 0, bit for bit.
        """
        service = _service()
        expected_old = {
            sql: _snapshot(_service(_rebuild(service.database))
                           .submit(sql).answers)
            for sql in READER_QUERIES}

        original = AnnotationService._estimate
        started = threading.Semaphore(0)
        gate = threading.Event()

        def pinned_estimate(self, *args, **kwargs):
            started.release()
            assert gate.wait(30), "test gate never opened"
            return original(self, *args, **kwargs)

        results: dict = {}

        def read(sql: str) -> None:
            results[sql] = service.submit(sql).answers

        AnnotationService._estimate = pinned_estimate
        try:
            threads = [threading.Thread(target=read, args=(sql,))
                       for sql in READER_QUERIES]
            for thread in threads:
                thread.start()
            for _ in READER_QUERIES:
                assert started.acquire(timeout=30), \
                    "every reader must reach the estimator"

            # All four readers hold version 0.  The writer commits now;
            # returning at all proves it does not wait for the readers.
            outcome = service.mutate("DELETE FROM t WHERE key = 'b'")
            assert outcome.data_version == 1

            gate.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            AnnotationService._estimate = original

        for sql in READER_QUERIES:
            assert _snapshot(results[sql]) == expected_old[sql], \
                f"pinned reader replayed the wrong version: {sql!r}"

        # Fresh submits see version 1 -- equal to a cold service on the
        # mutated content, so nothing stale survived the commit either.
        fresh = _service(_rebuild(service.database))
        for sql in READER_QUERIES:
            assert _snapshot(service.submit(sql).answers) == \
                _snapshot(fresh.submit(sql).answers)


class TestServerAppMutations:
    def test_readers_complete_while_a_writer_is_in_flight(self):
        gated = GatedWriter(_service())
        app = ServerApp(gated, workers=6)

        async def scenario():
            writer = asyncio.ensure_future(app.mutate({"sql": MUTATION}))
            await asyncio.to_thread(gated.entered.wait, 30)
            reads = await asyncio.gather(*[
                _collect(app, {"sql": sql}) for sql in READER_QUERIES])
            assert not writer.done(), "the writer must still be in flight"
            gated.gate.set()
            return reads, await writer

        reads, event = asyncio.run(scenario())
        app.close()
        for events in reads:
            assert events[-1]["type"] == "result", \
                "readers must not block on the in-flight writer"
            assert events[-1]["answers"]
        assert event["type"] == "mutation"
        assert event["data_version"] == 1
        counters = app.stats()["server"]
        assert counters["mutations"] == 1
        assert counters["mutation_errors"] == 0

    def test_writers_serialise_and_report_monotone_versions(self):
        app = ServerApp(_service())

        async def scenario():
            return await asyncio.gather(*[
                app.mutate({"sql": f"INSERT INTO t VALUES ('z{i}', {i})"})
                for i in range(4)])

        events = asyncio.run(scenario())
        app.close()
        assert all(event["type"] == "mutation" for event in events)
        # The gate serialises the four writers: whatever order they ran
        # in, each observed its own committed version, none lost.
        assert sorted(event["data_version"] for event in events) == \
            [1, 2, 3, 4]
        assert app.stats()["service"]["data_version"] == 4

    def test_drain_waits_for_the_in_flight_mutation(self):
        gated = GatedWriter(_service())
        app = ServerApp(gated)

        async def scenario():
            writer = asyncio.ensure_future(app.mutate({"sql": MUTATION}))
            await asyncio.to_thread(gated.entered.wait, 30)
            app.begin_drain()
            # New work is refused with the typed draining error...
            refused_mutation = await app.mutate(
                {"sql": "DELETE FROM t WHERE key = 'a'"})
            refused_query = await _collect(app,
                                           {"sql": READER_QUERIES[0]})
            # ...but the in-flight statement is not abandoned: the app
            # only reports idle once its terminal event is delivered.
            assert not await app.wait_idle(timeout=0.05)
            gated.gate.set()
            event = await writer
            assert await app.wait_idle(timeout=30)
            return refused_mutation, refused_query, event

        refused_mutation, refused_query, event = asyncio.run(scenario())
        app.close()
        assert refused_mutation["code"] == "draining"
        assert refused_query[-1]["code"] == "draining"
        assert event["type"] == "mutation"
        assert event["data_version"] == 1
        assert app.stats()["server"]["mutations"] == 1


class TestWireConcurrency:
    def test_four_readers_across_a_mutation_see_whole_versions(self):
        """End-to-end: every answer matches exactly one committed version.

        Four socket clients hammer their queries while a fifth commits an
        UPDATE.  Each response must be bit-identical to a cold service on
        either the version-0 or the version-1 content -- a torn read
        (mixing versions) matches neither.
        """
        service = _service()
        statement = "UPDATE t SET x = 9 WHERE key = 'b'"
        old_content = _rebuild(service.database)
        new_content, _, _ = execute_mutation(parse_statement(statement),
                                             old_content)
        expected = {
            sql: (
                _snapshot(_service(_rebuild(old_content)).submit(sql).answers),
                _snapshot(_service(_rebuild(new_content)).submit(sql).answers),
            )
            for sql in READER_QUERIES}

        rounds = 6
        observed: dict[str, list] = {sql: [] for sql in READER_QUERIES}
        release_writer = threading.Event()
        mutated: dict = {}

        with EmbeddedServer(service, workers=8) as server:
            def read(sql: str) -> None:
                with ReproClient(server.host, server.port) as client:
                    for round_index in range(rounds):
                        observed[sql].append(
                            _snapshot(client.query(sql).answers))
                        if round_index == 1:
                            release_writer.set()

            def write() -> None:
                assert release_writer.wait(30)
                with ReproClient(server.host, server.port) as client:
                    mutated["result"] = client.mutate(statement)

            threads = [threading.Thread(target=read, args=(sql,))
                       for sql in READER_QUERIES]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()

            stats = server.app.stats()
            assert stats["server"]["mutations"] == 1
            assert stats["service"]["data_version"] == 1

        assert mutated["result"].operation == "update"
        assert mutated["result"].data_version == 1

        for sql in READER_QUERIES:
            before, after = expected[sql]
            for round_index, snapshot in enumerate(observed[sql]):
                assert snapshot in (before, after), \
                    (f"torn read: {sql!r} round {round_index} matches "
                     f"neither committed version")
            # Versions are monotone per connection: once a reader sees
            # version 1 it never slides back to version 0.
            if before != after:
                seen_new = False
                for snapshot in observed[sql]:
                    if snapshot == after:
                        seen_new = True
                    elif seen_new:
                        pytest.fail(f"reader on {sql!r} went back in time")

        # The mutation really happened while readers were mid-stream: the
        # writer waited for two rounds, and four more rounds followed it.
        assert all(len(observed[sql]) == rounds for sql in READER_QUERIES)


QUERY_NAMES = sorted(EXPERIMENT_QUERIES)


class TestAnswerMemoStaleness:
    """A warm read reuses its plan's last served answers only while every
    group's result is the same object at the same dimension: after each
    change below, the next served answers equal a fresh service's."""

    #: The Figure-1 queries, plus one over Products alone: its plan entry
    #: (and answer memo) survives Orders writes while the dimension moves.
    QUERIES = tuple(EXPERIMENT_QUERIES[name] for name in QUERY_NAMES) + (
        "SELECT P.id FROM Products P WHERE P.rrp * P.dis <= 60 LIMIT 12",)

    @staticmethod
    def _sales() -> AnnotationService:
        database = generate_sales_database(
            ExperimentScale(60, 60, 6, null_rate=0.1), rng=3)
        return _service(database.with_backend("columnar"))

    def _served(self, service: AnnotationService) -> list:
        """Each query's answers as the wire carries them, read twice (the
        second read is a memo hit) and required to agree."""
        served = []
        for sql in self.QUERIES:
            first = result_event(None, service.submit(sql))["answers"]
            again = service.submit(sql)
            assert again.stats.groups_computed == 0
            assert result_event(None, again)["answers"] == first
            served.append(list(first))
        return served

    def _fresh(self, service: AnnotationService) -> list:
        fresh = _service(_rebuild(service.database))
        return [[encode_answer(answer) for answer in fresh.submit(sql).answers]
                for sql in self.QUERIES]

    def test_writes_and_invalidate_never_serve_stale_answers(self):
        service = self._sales()
        before = self._served(service)
        assert before == self._fresh(service)
        dimension = service._snapshot.dimension
        products_only = service.submit(self.QUERIES[-1])

        # An INSERT with a NULL moves the ambient dimension: an order of
        # unknown quantity for a never_knowingly_undersold answer (the row
        # the write_mix benchmark inserts for its product p0).
        product = before[QUERY_NAMES.index("never_knowingly_undersold")][0]
        service.mutate("INSERT INTO Orders VALUES "
                       f"('o_memo', '{product['values'][0]}', NULL, 5.0)")
        assert service._snapshot.dimension == dimension + 1
        after_insert = self._served(service)
        assert after_insert == self._fresh(service)
        moved = service.submit(self.QUERIES[-1])
        assert moved.memo is not products_only.memo
        assert {answer["certainty"]["dimension"]
                for answer in after_insert[-1]} == {dimension + 1}

        # Deleting the row evicts the certainty its lineage was cached under.
        evicted = service.stats().results_evicted
        service.mutate("DELETE FROM Orders WHERE id = 'o_memo'")
        assert service.stats().results_evicted > evicted
        assert self._served(service) == self._fresh(service) == before

        warm = service.submit(self.QUERIES[0])
        assert warm.memo is not None
        service.invalidate()
        assert service.submit(self.QUERIES[0]).answers is not warm.answers
        assert self._served(service) == self._fresh(service) == before


def _plain_line(event: dict) -> bytes:
    """``event`` with its answers materialised, as ``json.dumps`` writes it."""
    plain = dict(event, answers=[dict(answer) for answer in event["answers"]])
    return (json.dumps(plain, separators=(",", ":"), ensure_ascii=False)
            + "\n").encode("utf-8")


class TestAnswerSlots:
    """Each served answer keeps its encoding across re-plans and dimension
    changes; the snapshot dimension is spliced in per response."""

    QUERIES = TestAnswerMemoStaleness.QUERIES

    def test_spliced_dimension_is_the_pinned_snapshots(self):
        service = TestAnswerMemoStaleness._sales()
        product = service.submit(
            EXPERIMENT_QUERIES["never_knowingly_undersold"]).answers[0]
        reused = rebuilt = 0
        with EmbeddedServer(service) as server, \
                ReproClient(server.host, server.port) as client:
            for cycle in range(3):
                for write in (f"INSERT INTO Orders VALUES ('o_slot{cycle}', "
                              f"'{product.values[0]}', NULL, 5.0)",
                              f"DELETE FROM Orders WHERE id = 'o_slot{cycle}'"):
                    service.mutate(write)
                    dimension = service._snapshot.dimension
                    for sql in self.QUERIES:
                        response = service.submit(sql, trace=True)
                        reused += response.trace.attribute("answers_reused")
                        rebuilt += len(response.answers) \
                            - response.trace.attribute("answers_reused")
                        assert {answer.certainty.dimension
                                for answer in response.answers} == {dimension}
                        event = result_event(None, response)
                        line = dump_line(event)
                        assert line == _plain_line(event)
                        served = load_line(line)["answers"]
                        assert {answer["certainty"]["dimension"]
                                for answer in served} == {dimension}
                        tcp = client.query(sql).raw["answers"]
                        assert tcp == served
        # Both kinds of answer were checked: ones kept from an earlier
        # serve and ones built for this one.
        assert reused and rebuilt

    def test_equal_values_of_other_types_never_share_bytes(self):
        schema = DatabaseSchema.of(
            RelationSchema.of("t", key="base", x="num", y="num"))
        database = Database.from_dict(schema, {
            "t": [("a", 1, 2.0), ("b", 0.0, 1.0)]}, backend="rows")
        service = _service(database)
        sql = "SELECT t.x FROM t WHERE t.y <= 5"
        before = service.submit(sql)
        result_event(None, service.submit(sql))  # encodes both slots
        # 1 -> 1.0 and 0.0 -> -0.0: equal values, equal hashes, the same
        # lineage and the very same cached result, yet other wire bytes.
        service.mutate("UPDATE t SET x = 1.0 WHERE key = 'a'")
        service.mutate(UpdateStatement(
            table="t", assignments=(Assignment("x", NumberLiteral(-0.0)),),
            conditions=(Condition(ColumnExpression("key"), "=",
                                  StringLiteral("b")),)))
        after = service.submit(sql, trace=True)
        assert [answer.certainty for answer in after.answers] == \
            [answer.certainty for answer in before.answers]
        assert after.trace.attribute("answers_reused") == 0
        line = dump_line(result_event(None, after))
        assert b'"values":[1.0]' in line and b'"values":[-0.0]' in line
        assert [type(value) for answer in load_line(line)["answers"]
                for value in answer["values"]] == [float, float]
        # True cannot reach a numeric column; the key tells it apart too.
        for equal in ((1, 1.0, True), (0.0, -0.0)):
            keys = {_answer_key(_Candidate((value,)), b"") for value in equal}
            assert len(keys) == len(equal)

    def test_a_replan_rebuilds_only_the_answers_a_write_changed(self):
        service = TestAnswerMemoStaleness._sales()
        sql = EXPERIMENT_QUERIES["never_knowingly_undersold"]
        before = service.submit(sql).answers
        # An order of unknown quantity joins into one uncertain answer.
        product = next(answer.values[0] for answer in before
                       if answer.certainty.value < 1)
        service.mutate("INSERT INTO Orders VALUES "
                       f"('o_replan', '{product}', NULL, 5.0)")
        after = service.submit(sql, trace=True)
        assert after.stats.groups_computed > 0

        def kept(answer) -> tuple:
            return (answer.values, answer.witnesses, answer.lineage_digest,
                    replace(answer.certainty, dimension=0))

        unchanged = [kept(answer) for answer in before]
        expected = sum(kept(answer) in unchanged for answer in after.answers)
        assert 0 < expected < len(after.answers)
        assert after.trace.attribute("answers_reused") == expected

    def test_concurrent_reads_across_writes_splice_their_own_dimension(self):
        """Four readers share slots and memos while a writer moves the
        dimension; every line carries its own response's answers."""
        service = TestAnswerMemoStaleness._sales()
        for sql in self.QUERIES:
            service.submit(sql)
        product = service.submit(
            EXPERIMENT_QUERIES["never_knowingly_undersold"]).answers[0]
        barrier = threading.Barrier(5)
        failures: list = []

        def read(worker: int) -> None:
            barrier.wait(timeout=30)
            for round_index in range(24):
                sql = self.QUERIES[(worker + round_index) % len(self.QUERIES)]
                response = service.submit(sql)
                event = result_event(None, response)
                line = dump_line(event)
                pinned = {answer.certainty.dimension
                          for answer in response.answers}
                wire = {answer["certainty"]["dimension"]
                        for answer in load_line(line)["answers"]}
                if line != _plain_line(event) or len(pinned) > 1 \
                        or wire != pinned:
                    failures.append((sql, pinned, wire))

        def write() -> None:
            barrier.wait(timeout=30)
            for cycle in range(8):
                service.mutate(f"INSERT INTO Orders VALUES ('o_race{cycle}', "
                               f"'{product.values[0]}', NULL, 5.0)")
                service.mutate(f"DELETE FROM Orders WHERE id = 'o_race{cycle}'")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(worker,))
                       for worker in range(4)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestServedReplansBuildNoAnswers:
    """On the benchmark's write instance, a re-plan served through the
    server is encoded from answer slots: no ``AnnotatedAnswer`` is built,
    one lineage is rebuilt and 24 of 25 answers keep their slot."""

    WRITES = ("INSERT INTO Orders VALUES ('wm1x0', 'p0', NULL, 5.0)",
              "DELETE FROM Orders WHERE id = 'wm1x0'")
    REPLANNED = (EXPERIMENT_QUERIES["never_knowingly_undersold"],
                 EXPERIMENT_QUERIES["unfair_discount"])

    def test_insert_and_delete_replans(self, monkeypatch):
        database = generate_sales_database(
            ExperimentScale(500, 500, 25, null_rate=0.08), rng=0)
        app = ServerApp(AnnotationService(database.with_backend("columnar"),
                                          ServiceOptions(seed=0, epsilon=0.2)))
        built = []
        init = AnnotatedAnswer.__init__

        def counted(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        async def cycle(counts: list) -> None:
            for write in self.WRITES:
                assert (await app.mutate({"sql": write}))["type"] == "mutation"
                for sql in EXPERIMENT_QUERIES.values():
                    [event] = await _collect(app, {"sql": sql})
                    assert event["type"] == "result"
                    assert load_line(dump_line(event))["answers"]
                    if sql in self.REPLANNED:
                        spans = {span["name"]: span["attributes"] for span
                                 in app.trace_payload(event["trace_id"])["spans"]}
                        counts.append((spans["enumerate"]["lineages"],
                                       spans["serialize"]["answers_reused"]))

        async def scenario() -> list:
            for sql in EXPERIMENT_QUERIES.values():
                await _collect(app, {"sql": sql})
            # The first commit admits the frontiers; the next cycle reuses.
            await cycle([])
            monkeypatch.setattr(AnnotatedAnswer, "__init__", counted)
            counts: list = []
            await cycle(counts)
            return counts

        try:
            counts = asyncio.run(scenario())
        finally:
            app.close()
        assert built == []
        assert counts == [(1, 24)] * 4
