"""The front-door contract, run against both doors.

:class:`~repro.server.app.ServerApp` (one service) and
:class:`~repro.cluster.coordinator.CoordinatorApp` (here fronting one
in-process worker) share one admission / coalescing / drain core, so the
same behaviour is pinned on both: draining refuses queries and mutations,
overload is typed, immediate and counted, a coalesced adaptive follower
receives the leader's full update history, and launches and coalesces are
counted per flight.  Each case drives the app directly on one event loop;
:class:`GatedService` makes the concurrency deterministic.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cluster import CoordinatorApp, WorkerEndpoint
from repro.datagen.experiments import ExperimentScale, generate_sales_database
from repro.server import EmbeddedServer, ServerApp
from repro.server.frontdoor import maybe_await
from repro.server.protocol import defaults_from_options
from test_server import OTHER_SQL, SQL, GatedService, make_service

ADAPTIVE = {"sql": "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
            "options": {"adaptive": True, "epsilon": 0.05}}
MUTATION = "INSERT INTO Orders VALUES ('fd-1', 'p1', 1, 0.5)"

DOORS = ("server", "coordinator")


@pytest.fixture(scope="module")
def database():
    scale = ExperimentScale(products=40, orders=40, markets=8, null_rate=0.25)
    return generate_sales_database(scale, rng=3)


class PausingService(GatedService):
    """A gated service whose adaptive computations stop after their first
    streamed update until ``resume`` is set -- so a follower can join a
    flight that already has history."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.gate.set()
        self.resume = threading.Event()

    def submit(self, *args, on_update=None, **kwargs):
        if on_update is not None:
            publish = on_update

            def on_update(group, update):
                publish(group, update)
                assert self.resume.wait(30), "test never resumed the flight"
        return super().submit(*args, on_update=on_update, **kwargs)


@contextmanager
def door(kind: str, service, *, max_pending: int = 64,
         worker_max_pending: int = 64):
    """A front door over ``service``: the service itself, or a coordinator
    whose only worker serves it over a real socket."""
    if kind == "server":
        yield ServerApp(service, max_pending=max_pending)
        return
    with EmbeddedServer(service, http=False,
                        max_pending=worker_max_pending) as worker:
        yield CoordinatorApp(
            [WorkerEndpoint("w0", worker.host, worker.port)],
            defaults=defaults_from_options(service.options),
            max_pending=max_pending, health_interval=3600.0,
            supervise=False)


def run(app, scenario):
    """Start the door, run the scenario, close the door -- all on one
    event loop (the coordinator's pooled connections belong to it)."""
    async def main():
        await app.start()
        try:
            return await scenario()
        finally:
            app.close()
    return asyncio.run(main())


async def collect(app, message: dict, first_update=None) -> list[dict]:
    events = []
    async for event in app.query_events(message):
        events.append(event)
        if first_update is not None and event["type"] == "update":
            first_update.set()
    return events


async def counters(app) -> dict:
    stats = await maybe_await(app.stats())
    return stats.get("coordinator", stats["server"])


async def _counter(app, name: str, value: int) -> bool:
    return (await counters(app))[name] == value


async def until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not await maybe_await(predicate()):
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


@pytest.mark.parametrize("kind", DOORS)
class TestFrontDoorContract:
    def test_draining_refuses_queries_and_mutations(self, kind, database):
        with door(kind, make_service(database)) as app:
            async def scenario():
                app.begin_drain()
                query = await collect(app, {"sql": SQL})
                mutation = await app.mutate({"sql": MUTATION})
                return query, mutation, await app.wait_idle(1.0), \
                    await counters(app)

            query, mutation, idle, count = run(app, scenario)
        assert [event["code"] for event in query] == ["draining"]
        assert mutation["type"] == "error" and mutation["code"] == "draining"
        assert idle, "a draining door with nothing in flight is idle"
        assert count["requests"] == 2 and count["launched"] == 0
        assert count["draining"] is True

    def test_overload_is_typed_immediate_and_counted(self, kind, database):
        gated = GatedService(make_service(database))
        with door(kind, gated, max_pending=1) as app:
            async def scenario():
                first = asyncio.ensure_future(collect(app, {"sql": SQL}))
                await until(lambda: gated.calls == 1)
                rejected = await collect(app, {"sql": OTHER_SQL})
                gated.gate.set()  # the leader was still held: immediate
                return rejected, await first, await counters(app)

            rejected, completed, count = run(app, scenario)
        assert rejected == [{"id": None, "type": "error",
                             "code": "overloaded",
                             "message": rejected[0]["message"]}]
        assert completed[-1]["type"] == "result"
        assert count["overloads"] == 1 and count["launched"] == 1
        assert gated.calls == 1, "a refused request must never compute"

    def test_follower_receives_the_leaders_update_history(self, kind,
                                                          database):
        paused = PausingService(make_service(database))
        with door(kind, paused) as app:
            async def scenario():
                first_update = asyncio.Event()
                leader = asyncio.ensure_future(
                    collect(app, ADAPTIVE, first_update))
                await asyncio.wait_for(first_update.wait(), 30)
                follower = asyncio.ensure_future(collect(app, ADAPTIVE))

                await until(lambda: _counter(app, "coalesced", 1))
                paused.resume.set()
                return await leader, await follower

            leader, follower = run(app, scenario)
        kinds = [event["type"] for event in leader]
        assert kinds.count("update") >= 2 and kinds[-1] == "result"
        assert follower == leader, \
            "a follower joining mid-stream must see the full history"
        assert paused.calls == 1

    def test_launches_and_coalesces_are_counted(self, kind, database):
        gated = GatedService(make_service(database))
        with door(kind, gated) as app:
            async def scenario():
                flights = [asyncio.ensure_future(collect(app, {"sql": sql}))
                           for sql in (SQL, SQL, SQL, OTHER_SQL)]

                await until(lambda: _counter(app, "requests", 4))
                held = await counters(app)
                gated.gate.set()
                return held, await asyncio.gather(*flights)

            held, streams = run(app, scenario)
        assert held["launched"] == 2 and held["coalesced"] == 2
        assert streams[0] == streams[1] == streams[2]
        assert streams[0][-1]["type"] == "result"
        assert gated.calls == 2


def test_an_overloaded_fleet_is_not_reported_as_a_dead_one(database):
    """Every live worker refusing is relayed as the refusal it was.

    Regression: the failover loop used to exhaust the ring on
    ``overloaded`` refusals and answer ``unavailable``, counting an
    internal error against the availability SLO (and the client raised
    a plain ``ServerError`` instead of ``OverloadedError``).
    """
    gated = GatedService(make_service(database))
    with door("coordinator", gated, worker_max_pending=1) as app:
        async def scenario():
            first = asyncio.ensure_future(collect(app, {"sql": SQL}))
            await until(lambda: gated.calls == 1)  # the worker's only slot
            refused = await collect(app, {"sql": OTHER_SQL})
            health = app.health()
            gated.gate.set()
            return refused, await first, await counters(app), health

        refused, completed, count, health = run(app, scenario)
    assert [event["code"] for event in refused] == ["overloaded"]
    assert completed[-1]["type"] == "result"
    assert count["overloads"] == 1 and count["internal_errors"] == 0
    assert health["workers_healthy"] == 1, "a busy worker is not dead"


class InProcessWorker:
    """Stands in for a spawned worker process in a rolling restart: ``stop``
    lets the held query finish and drains the server as SIGTERM would;
    ``respawn`` serves a fresh service on a new port."""

    def __init__(self, worker_id: str, service, make) -> None:
        self.worker_id = worker_id
        self.pid = None
        self._make = make
        self._server = EmbeddedServer(service, http=False).start()
        self.host, self.port = self._server.host, self._server.port
        self.service = service

    def stop(self) -> int:
        self.service.gate.set()
        return 0 if self._server.stop() else 1

    def respawn(self) -> int:
        self.service = self._make()
        self.service.gate.set()
        self._server = EmbeddedServer(self.service, http=False).start()
        self.port = self._server.port
        return self.port


class MutableGatedService(GatedService):
    def mutate(self, sql):
        return self.inner.mutate(sql)


def test_rolling_restart_under_load_rejoins_without_a_false_death(database):
    """A query in flight while its worker drains must not leave the
    worker's old connection behind for the respawned worker.

    Regression: the drained query's connection went back to the pool
    after the restart had emptied it, so the rejoin's replay took a dead
    connection, the restart failed and the worker stayed off the ring.
    """
    worker = InProcessWorker(
        "w0", MutableGatedService(make_service(database)),
        lambda: MutableGatedService(make_service(database)))
    app = CoordinatorApp(locals_=[worker],
                         defaults=defaults_from_options(
                             worker.service.options),
                         health_interval=3600.0, supervise=False)

    async def scenario():
        worker.service.gate.set()
        committed = await app.mutate({"sql": MUTATION})
        worker.service.gate.clear()
        held = asyncio.ensure_future(collect(app, {"sql": SQL}))
        await until(lambda: worker.service.calls == 1)
        restart = await app.op_event("cluster_drain", {})
        after = await collect(app, {"sql": OTHER_SQL})
        return committed, restart, await held, after, app.health(), \
            await counters(app)

    committed, restart, held, after, health, count = run(app, scenario)
    assert committed["type"] == "mutation"
    assert restart["type"] == "cluster", restart
    assert restart["restarted"] == ["w0"]
    assert held[-1]["type"] == "result", "the drain finishes the held query"
    assert after[-1]["type"] == "result"
    assert health["workers_healthy"] == 1
    assert count["worker_deaths"] == 0 and count["replayed_statements"] == 1
