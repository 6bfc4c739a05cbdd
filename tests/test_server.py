"""Tests for the asyncio network server: app logic and end-to-end serving.

The acceptance-critical properties all live here:

* concurrent clients get answers **bit-identical** to serial execution
  through :class:`AnnotationService` (values, certainties, lineage
  digests);
* duplicate in-flight queries are **coalesced** -- identical payloads,
  exactly one computation, exactly one certainty-cache fill -- and the
  ``/stats`` single-flight counters prove it;
* overload produces the **typed backpressure error** instead of hanging;
* **drain** delivers every in-flight response before shutdown.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import (
    AsyncReproClient,
    OverloadedError,
    ReproClient,
    ServerError,
)
from repro.datagen.experiments import ExperimentScale, generate_sales_database
from repro.server import EmbeddedServer, ServerApp
from repro.service import AnnotationService, ServiceOptions


@pytest.fixture(scope="module")
def database():
    scale = ExperimentScale(products=40, orders=40, markets=8, null_rate=0.25)
    return generate_sales_database(scale, rng=3)


def make_service(database, **overrides) -> AnnotationService:
    defaults = dict(epsilon=0.1, seed=5)
    defaults.update(overrides)
    return AnnotationService(database, ServiceOptions(**defaults))


class GatedService:
    """Wrap a service so ``submit`` blocks until the test opens the gate.

    Turns timing-dependent concurrency assertions into deterministic ones:
    while the gate is closed the leader computation cannot finish, so any
    request arriving meanwhile *must* coalesce (or be rejected, for the
    overload tests).
    """

    def __init__(self, inner: AnnotationService) -> None:
        self.inner = inner
        self.gate = threading.Event()
        self.calls = 0

    @property
    def options(self):
        return self.inner.options

    def submit(self, *args, **kwargs):
        self.calls += 1
        assert self.gate.wait(30), "test gate never opened"
        return self.inner.submit(*args, **kwargs)

    def stats(self):
        return self.inner.stats()


SQL = "SELECT P.id FROM Products P WHERE P.rrp * P.dis <= 20 LIMIT 8"
OTHER_SQL = "SELECT O.id FROM Orders O WHERE O.q * O.dis >= 1 LIMIT 8"


async def _collect(app: ServerApp, message: dict) -> list[dict]:
    return [event async for event in app.query_events(message)]


class TestServerApp:
    """Transport-free unit tests driving ``query_events`` directly."""

    def test_terminal_result_event(self, database):
        app = ServerApp(make_service(database))
        events = asyncio.run(_collect(app, {"sql": SQL}))
        try:
            assert events[-1]["type"] == "result"
            assert events[-1]["answers"]
            assert all(answer["lineage"] for answer in events[-1]["answers"])
        finally:
            app.close()

    def test_bad_option_is_typed_error(self, database):
        app = ServerApp(make_service(database))
        events = asyncio.run(_collect(app, {"sql": SQL,
                                            "options": {"epsilon": 5}}))
        app.close()
        assert events == [{"id": None, "type": "error", "code": "bad_request",
                           "message": events[0]["message"]}]

    def test_invalid_sql_is_typed_error(self, database):
        app = ServerApp(make_service(database))
        events = asyncio.run(_collect(app, {"sql": "SELEC nonsense"}))
        app.close()
        assert events[-1]["type"] == "error"
        assert events[-1]["code"] == "invalid_query"

    def test_internal_failure_is_typed_error(self, database):
        class Exploding(GatedService):
            def submit(self, *args, **kwargs):
                raise RuntimeError("boom")

        app = ServerApp(Exploding(make_service(database)))
        events = asyncio.run(_collect(app, {"sql": SQL}))
        app.close()
        assert events[-1]["code"] == "internal"
        assert "boom" in events[-1]["message"]

    def test_draining_rejects_new_queries(self, database):
        app = ServerApp(make_service(database))

        async def scenario():
            app.begin_drain()
            return [event async for event in app.query_events({"sql": SQL})]

        events = asyncio.run(scenario())
        app.close()
        assert events[-1]["code"] == "draining"

    def test_overload_is_typed_and_immediate(self, database):
        gated = GatedService(make_service(database))
        app = ServerApp(gated, max_pending=1)

        async def scenario():
            first = asyncio.ensure_future(_collect(app, {"sql": SQL}))
            await asyncio.sleep(0)  # let the leader register its flight
            rejected = await _collect(app, {"sql": OTHER_SQL})
            gated.gate.set()
            completed = await first
            return rejected, completed

        rejected, completed = asyncio.run(scenario())
        app.close()
        assert rejected[-1]["code"] == "overloaded"
        assert completed[-1]["type"] == "result"
        assert app.stats()["server"]["overloads"] == 1


class TestCoalescing:
    def test_duplicates_share_one_computation_and_one_cache_fill(self, database):
        """The acceptance criterion, made deterministic by the gate."""
        gated = GatedService(make_service(database))
        results: list = []
        with EmbeddedServer(gated, workers=4) as server:
            def issue():
                with ReproClient(server.host, server.port) as client:
                    results.append(client.query(SQL))

            threads = [threading.Thread(target=issue) for _ in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                counters = server.app.stats()["server"]
                if counters["requests"] >= 4:
                    break
                time.sleep(0.01)
            counters = server.app.stats()["server"]
            assert counters["launched"] == 1, counters
            assert counters["coalesced"] == 3, counters
            gated.gate.set()
            for thread in threads:
                thread.join(timeout=30)

        assert len(results) == 4
        assert gated.calls == 1, "duplicates must share one submit"
        payloads = [dict(result.raw, id=None) for result in results]
        assert all(payload == payloads[0] for payload in payloads), \
            "coalesced duplicates must receive identical payloads"

        stats = gated.inner.stats()
        groups = results[0].stats["groups"]
        assert stats.estimates_computed == groups, \
            "exactly one computation per lineage group"
        certainty = next(cache for cache in stats.caches
                         if cache.name == "certainty")
        assert certainty.misses == groups, "exactly one cache miss per group"
        assert certainty.size == groups, "exactly one cache fill per group"

    def test_distinct_queries_do_not_coalesce(self, database):
        service = make_service(database)
        with EmbeddedServer(service) as server:
            with ReproClient(server.host, server.port) as client:
                client.query(SQL)
                client.query(OTHER_SQL)
            counters = server.app.stats()["server"]
        assert counters["launched"] == 2
        assert counters["coalesced"] == 0

    def test_concurrent_submits_share_estimates_across_texts(self, database):
        """The service-level single-flight, keyed by lineage digest."""
        service = make_service(database, epsilon=0.05)
        original = AnnotationService._estimate
        first_call = threading.Event()

        def slow_estimate(self, *args, **kwargs):
            if not first_call.is_set():
                first_call.set()
                time.sleep(0.8)  # hold the first group so the peer overlaps
            return original(self, *args, **kwargs)

        barrier = threading.Barrier(2)
        responses = []

        def submit():
            barrier.wait()
            responses.append(service.submit(SQL))

        try:
            AnnotationService._estimate = slow_estimate
            threads = [threading.Thread(target=submit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            AnnotationService._estimate = original

        groups = responses[0].stats.groups
        stats = service.stats()
        # However the two submits interleaved, each canonical lineage was
        # estimated exactly once across both.
        assert stats.estimates_computed == groups
        assert stats.estimates_reused == groups
        assert stats.single_flight.joins >= 1, \
            "the overlapping group must join the in-flight estimate"
        first = [(a.values, a.certainty.value) for a in responses[0].answers]
        second = [(a.values, a.certainty.value) for a in responses[1].answers]
        assert first == second


class TestConcurrentDeterminism:
    """Satellite: interleaved concurrent serving == serial local execution."""

    def test_async_clients_match_serial_service_bit_for_bit(self, database):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        from loadgen import build_workload

        workload = build_workload(seed=11, size=24, adaptive_share=0.2)

        # Serial reference: the same seeded workload through a fresh local
        # service, one request at a time.
        reference = make_service(database)
        expected = []
        for request in workload:
            options = dict(request["options"])
            response = reference.submit(request["sql"], **options)
            expected.append([
                (answer.values, answer.certainty.value,
                 answer.certainty.epsilon, answer.certainty.samples,
                 answer.lineage_digest)
                for answer in response.answers])

        service = make_service(database)
        with EmbeddedServer(service, workers=8) as server:
            async def drive():
                clients = [await AsyncReproClient.connect(server.host,
                                                          server.port)
                           for _ in range(8)]
                # Interleave: client k takes requests k, k+8, k+16, ...
                async def run_share(client, start):
                    outcomes = []
                    for index in range(start, len(workload), len(clients)):
                        request = workload[index]
                        result = await client.query(request["sql"],
                                                    **request["options"])
                        outcomes.append((index, result))
                    return outcomes

                shares = await asyncio.gather(*[
                    run_share(client, start)
                    for start, client in enumerate(clients)])
                for client in clients:
                    await client.close()
                merged = {}
                for share in shares:
                    for index, result in share:
                        merged[index] = result
                return merged

            served = asyncio.run(drive())

        assert len(served) == len(workload)
        for index in range(len(workload)):
            got = [(answer.values, answer.certainty.value,
                    answer.certainty.epsilon, answer.certainty.samples,
                    answer.lineage_digest)
                   for answer in served[index].answers]
            assert got == expected[index], \
                f"request {index} diverged: {workload[index]['sql']}"


class TestAdaptiveStreaming:
    def test_updates_stream_before_result_and_tighten(self, database):
        service = make_service(database)
        with EmbeddedServer(service) as server:
            with ReproClient(server.host, server.port) as client:
                events = list(client.stream(
                    "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
                    epsilon=0.05, adaptive=True, seed=5))
        updates, result = events[:-1], events[-1]
        assert updates, "adaptive serving must stream refinements"
        by_lineage: dict = {}
        for update in updates:
            if update.lineage in by_lineage:
                previous = by_lineage[update.lineage]
                assert update.interval[0] >= previous.interval[0] - 1e-12
                assert update.interval[1] <= previous.interval[1] + 1e-12
                assert update.stage == previous.stage + 1
            by_lineage[update.lineage] = update
        answer_lineages = {answer.lineage_digest.hex()
                           for answer in result.answers}
        assert set(by_lineage) <= answer_lineages

    def test_followers_replay_streamed_history(self, database):
        """A coalesced follower sees the leader's updates, not a bare result."""
        gated = GatedService(make_service(database))
        sql = "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3"
        streams: list = []
        with EmbeddedServer(gated, workers=4) as server:
            def issue():
                with ReproClient(server.host, server.port) as client:
                    streams.append(list(client.stream(
                        sql, epsilon=0.05, adaptive=True)))

            threads = [threading.Thread(target=issue) for _ in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if server.app.stats()["server"]["requests"] >= 3:
                    break
                time.sleep(0.01)
            gated.gate.set()
            for thread in threads:
                thread.join(timeout=30)
        assert len(streams) == 3
        shapes = [[type(event).__name__ for event in stream]
                  for stream in streams]
        assert shapes[0] == shapes[1] == shapes[2]
        assert len(streams[0]) > 1, "streams must include update events"


class TestDrain:
    def test_drain_delivers_in_flight_responses(self, database):
        service = make_service(database)
        server = EmbeddedServer(service, workers=2).start()
        outcome: dict = {}

        def run_query():
            with ReproClient(server.host, server.port) as client:
                outcome["result"] = client.query(SQL, epsilon=0.001, seed=4)

        thread = threading.Thread(target=run_query)
        thread.start()
        time.sleep(0.15)  # give the query time to get in flight
        clean = server.stop()
        thread.join(timeout=30)
        assert clean, "drain must finish inside the timeout"
        assert outcome["result"].answers, \
            "the in-flight response must be delivered before shutdown"

    def test_drain_with_idle_connections_is_clean(self, database):
        service = make_service(database)
        server = EmbeddedServer(service).start()
        client = ReproClient(server.host, server.port)
        assert client.ping()
        assert server.stop()
        client.close()

    def test_drain_timeout_is_a_real_bound(self, database):
        """Regression: a wedged flight must not keep drain (and the
        process) alive past ``drain_timeout`` -- stuck connection handlers
        are cancelled and ``drain`` reports unclean instead of hanging."""
        from repro.server import NetworkServer
        from repro.server.protocol import dump_line

        gated = GatedService(make_service(database))

        async def scenario() -> tuple[bool, float]:
            server = NetworkServer(gated, port=0, http_port=None,
                                   drain_timeout=0.3)
            await server.start()
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            writer.write(dump_line({"op": "query", "id": 1, "sql": SQL}))
            await writer.drain()
            deadline = time.monotonic() + 10
            while server.app.stats()["server"]["active"] < 1:
                assert time.monotonic() < deadline, "flight never started"
                await asyncio.sleep(0.01)
            started = time.monotonic()
            clean = await server.drain()
            elapsed = time.monotonic() - started
            writer.close()
            # Unblock the worker and let its flight land before the loop
            # closes, so the executor thread does not outlive the test.
            gated.gate.set()
            await server.app.wait_idle(30)
            return clean, elapsed

        clean, elapsed = asyncio.run(scenario())
        assert clean is False, "a wedged flight cannot drain cleanly"
        assert elapsed < 5.0, f"drain took {elapsed:.1f}s despite the bound"


class TestHttpAdapter:
    @pytest.fixture()
    def server(self, database):
        with EmbeddedServer(make_service(database)) as server:
            yield server

    def _base(self, server) -> str:
        return f"http://{server.host}:{server.http_port}"

    def test_healthz(self, server):
        payload = json.loads(
            urllib.request.urlopen(self._base(server) + "/healthz").read())
        assert payload["status"] == "ok"
        assert payload["max_pending"] == 64

    def test_stats_exposes_single_flight_counters(self, server):
        payload = json.loads(
            urllib.request.urlopen(self._base(server) + "/stats").read())
        assert "coalesced" in payload["server"]
        assert payload["service"]["single_flight"]["name"] == "estimate flights"

    def test_post_query_result_matches_tcp(self, server):
        request = urllib.request.Request(
            self._base(server) + "/query",
            data=json.dumps({"sql": SQL}).encode(),
            headers={"Content-Type": "application/json"})
        body = json.loads(urllib.request.urlopen(request).read())
        assert body["type"] == "result"
        with ReproClient(server.host, server.port) as client:
            tcp = client.query(SQL)
        assert body["answers"] == [dict(raw) for raw in tcp.raw["answers"]]

    def test_post_query_streaming_ndjson(self, server):
        request = urllib.request.Request(
            self._base(server) + "/query",
            data=json.dumps({
                "sql": "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
                "options": {"adaptive": True, "epsilon": 0.05},
                "stream": True}).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in response.read().splitlines()]
        assert events[-1]["type"] == "result"
        assert any(event["type"] == "update" for event in events)

    def test_bad_sql_maps_to_400(self, server):
        request = urllib.request.Request(
            self._base(server) + "/query",
            data=json.dumps({"sql": "SELEC nonsense"}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["code"] == "invalid_query"

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self._base(server) + "/nope")
        assert excinfo.value.code == 404

    def test_bad_query_parameters_are_400_and_wrong_methods_405(
            self, server, monkeypatch):
        for path in ("/history?seconds=soon", "/profile?seconds=0"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(self._base(server) + path)
            assert excinfo.value.code == 400
            assert "seconds" in json.loads(excinfo.value.read())["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(urllib.request.Request(
                self._base(server) + "/stats", data=b"{}"))
        assert excinfo.value.code == 405

        def broken():
            raise ValueError("a fault inside the app")

        # A fault in the app's own report is not the client's error.
        monkeypatch.setattr(server.app, "health", broken)
        with pytest.raises(Exception) as excinfo:
            urllib.request.urlopen(self._base(server) + "/healthz")
        assert getattr(excinfo.value, "code", None) != 400

    def test_overload_maps_to_503(self, database):
        gated = GatedService(make_service(database))
        with EmbeddedServer(gated, max_pending=1, workers=1) as server:
            def leader():
                with ReproClient(server.host, server.port) as client:
                    client.query(SQL)

            thread = threading.Thread(target=leader)
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if server.app.stats()["server"]["active"] >= 1:
                    break
                time.sleep(0.01)
            request = urllib.request.Request(
                f"http://{server.host}:{server.http_port}/query",
                data=json.dumps({"sql": OTHER_SQL}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["code"] == "overloaded"
            gated.gate.set()
            thread.join(timeout=30)


class TestWireRobustness:
    def test_garbage_line_gets_error_and_connection_survives(self, database):
        service = make_service(database)
        with EmbeddedServer(service) as server:
            import socket
            with socket.create_connection((server.host, server.port),
                                          timeout=10) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"this is not json\n")
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["type"] == "error"
                assert reply["code"] == "bad_request"
                stream.write(b'{"op": "ping", "id": 1}\n')
                stream.flush()
                assert json.loads(stream.readline())["type"] == "pong"

    def test_unknown_op_is_rejected(self, database):
        service = make_service(database)
        with EmbeddedServer(service) as server:
            import socket
            with socket.create_connection((server.host, server.port),
                                          timeout=10) as sock:
                stream = sock.makefile("rwb")
                stream.write(b'{"op": "teleport", "id": 9}\n')
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply == {"id": 9, "type": "error",
                                 "code": "bad_request",
                                 "message": "unknown op 'teleport'"}

    def test_failing_auxiliary_op_is_typed_and_connection_survives(
            self, database):
        """A non-query op whose handler raises answers a typed
        ``internal`` error on both clients, and the connection serves the
        next request."""
        def broken():
            raise RuntimeError("stats backend exploded")

        service = make_service(database)
        with EmbeddedServer(service) as server:
            for op in ("stats", "metrics_text", "health"):
                setattr(server.app, op, broken)
            with ReproClient(server.host, server.port) as client:
                for probe in (client.stats, client.metrics, client.health):
                    with pytest.raises(ServerError) as excinfo:
                        probe()
                    assert excinfo.value.code == "internal"
                    assert "stats backend exploded" in excinfo.value.message
                    assert client.ping()

            async def run():
                client = await AsyncReproClient.connect(server.host,
                                                        server.port)
                codes = []
                async with client:
                    for probe in (client.stats, client.metrics,
                                  client.health):
                        with pytest.raises(ServerError) as excinfo:
                            await probe()
                        codes.append(excinfo.value.code)
                        assert await client.ping()
                return codes

            assert asyncio.run(run()) == ["internal"] * 3

    def test_typed_overload_error_reaches_sync_client(self, database):
        gated = GatedService(make_service(database))
        with EmbeddedServer(gated, max_pending=1, workers=1) as server:
            def leader():
                with ReproClient(server.host, server.port) as client:
                    client.query(SQL)

            thread = threading.Thread(target=leader)
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if server.app.stats()["server"]["active"] >= 1:
                    break
                time.sleep(0.01)
            with ReproClient(server.host, server.port) as client:
                with pytest.raises(OverloadedError):
                    client.query(OTHER_SQL)
            gated.gate.set()
            thread.join(timeout=30)

    def test_server_error_carries_code(self, database):
        service = make_service(database)
        with EmbeddedServer(service) as server:
            with ReproClient(server.host, server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query("SELECT P.bogus FROM Products P")
        assert excinfo.value.code == "invalid_query"
        assert "bogus" in excinfo.value.message
