"""Tests for the ``repro.client`` library (sync and async)."""

from __future__ import annotations

import asyncio

import pytest

from repro.client import (
    AdaptiveUpdateEvent,
    AsyncReproClient,
    ClientError,
    QueryResult,
    ReproClient,
    ServerError,
)
from repro.cluster import CoordinatorApp
from repro.datagen.experiments import ExperimentScale, generate_sales_database
from repro.server import EmbeddedServer, ServerApp
from repro.server.http import _GET_ROUTES
from repro.service import AnnotationService, ServiceOptions

SQL = "SELECT M.seg FROM Market M WHERE M.rrp >= 0 LIMIT 3"


@pytest.fixture(scope="module")
def server():
    scale = ExperimentScale(products=30, orders=30, markets=6, null_rate=0.2)
    database = generate_sales_database(scale, rng=1)
    service = AnnotationService(database, ServiceOptions(epsilon=0.1, seed=5))
    with EmbeddedServer(service) as embedded:
        yield embedded


class TestSyncClient:
    def test_connect_refused_raises_client_error(self):
        with pytest.raises(ClientError):
            ReproClient("127.0.0.1", 1)  # reserved port, nothing listens

    def test_query_decodes_answers(self, server):
        with ReproClient(server.host, server.port) as client:
            result = client.query(SQL, seed=5)
        assert isinstance(result, QueryResult)
        assert result.answers
        answer = result.answers[0]
        assert answer.columns == ("M.seg",)
        assert 0.0 <= answer.certainty.value <= 1.0
        assert answer.lineage_digest is not None
        assert result.stats["candidates"] == len(result.answers)

    def test_remote_equals_local(self, server):
        local = server.app.service.submit(SQL, seed=5)
        with ReproClient(server.host, server.port) as client:
            remote = client.query(SQL, seed=5)
        assert [a.values for a in remote.answers] == \
            [a.values for a in local.answers]
        assert [a.certainty.value for a in remote.answers] == \
            [a.certainty.value for a in local.answers]
        assert [a.lineage_digest for a in remote.answers] == \
            [a.lineage_digest for a in local.answers]

    def test_stream_yields_updates_then_result(self, server):
        with ReproClient(server.host, server.port) as client:
            events = list(client.stream(
                "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
                epsilon=0.05, adaptive=True, seed=2))
        assert isinstance(events[-1], QueryResult)
        assert all(isinstance(event, AdaptiveUpdateEvent)
                   for event in events[:-1])

    def test_query_on_update_callback(self, server):
        # A fresh seed: an identical warm request would be answered from
        # the certainty cache with nothing left to stream.
        seen: list = []
        with ReproClient(server.host, server.port) as client:
            result = client.query(
                "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
                epsilon=0.05, adaptive=True, seed=3, on_update=seen.append)
        assert result.answers
        assert seen and all(isinstance(event, AdaptiveUpdateEvent)
                            for event in seen)

    def test_abandoned_stream_does_not_poison_the_connection(self, server):
        """Regression: breaking out of ``stream`` left unread frames on the
        socket, so the next request failed with an id mismatch."""
        with ReproClient(server.host, server.port) as client:
            for event in client.stream(
                    "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
                    epsilon=0.05, adaptive=True, seed=6):
                break  # abandon mid-stream; close() must drain the rest
            result = client.query(SQL, seed=5)
        assert result.answers

    def test_server_error_code_surfaces(self, server):
        with ReproClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("SELEC nonsense")
            assert excinfo.value.code == "invalid_query"
            # The connection stays usable after a query error.
            assert client.ping()

    def test_probe_helpers(self, server):
        with ReproClient(server.host, server.port) as client:
            assert client.ping()
            health = client.health()
            assert health["status"] in ("ok", "draining")
            stats = client.stats()
            assert "server" in stats and "service" in stats


class TestAsyncClient:
    def test_connect_refused_raises_client_error(self):
        async def attempt():
            await AsyncReproClient.connect("127.0.0.1", 1)

        with pytest.raises(ClientError):
            asyncio.run(attempt())

    def test_query_matches_sync_client(self, server):
        with ReproClient(server.host, server.port) as sync_client:
            expected = sync_client.query(SQL, seed=5)

        async def run():
            client = await AsyncReproClient.connect(server.host, server.port)
            async with client:
                return await client.query(SQL, seed=5)

        result = asyncio.run(run())
        assert [a.values for a in result.answers] == \
            [a.values for a in expected.answers]
        assert [a.certainty.value for a in result.answers] == \
            [a.certainty.value for a in expected.answers]

    def test_stream_is_async_iterable(self, server):
        async def run():
            client = await AsyncReproClient.connect(server.host, server.port)
            async with client:
                return [event async for event in client.stream(
                    "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
                    epsilon=0.05, adaptive=True, seed=4)]

        events = asyncio.run(run())
        assert isinstance(events[-1], QueryResult)
        assert any(isinstance(event, AdaptiveUpdateEvent)
                   for event in events[:-1])

    def test_abandoned_stream_releases_the_request_lock(self, server):
        """Regression: an abandoned async stream held the per-connection
        lock forever, deadlocking the next request."""
        async def run():
            client = await AsyncReproClient.connect(server.host, server.port)
            async with client:
                stream = client.stream(
                    "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
                    epsilon=0.05, adaptive=True, seed=7)
                async for event in stream:
                    break
                await stream.aclose()  # drains and releases the lock
                return await client.query(SQL, seed=5)

        result = asyncio.run(run())
        assert result.answers

    def test_probe_helpers(self, server):
        async def run():
            client = await AsyncReproClient.connect(server.host, server.port)
            async with client:
                return (await client.ping(), await client.health(),
                        await client.stats())

        pong, health, stats = asyncio.run(run())
        assert pong
        assert health["status"] in ("ok", "draining")
        assert "server" in stats


class TestOpParity:
    """Every op a door answers is a method on both clients, and every HTTP
    GET route asks one of those ops."""

    def test_the_coordinator_table_extends_the_server_table(self):
        assert set(ServerApp.OPS) < set(CoordinatorApp.OPS)
        assert {"cluster", "cluster_drain", "cluster_scale"} <= \
            set(CoordinatorApp.OPS)

    @pytest.mark.parametrize("client", [ReproClient, AsyncReproClient])
    def test_every_op_has_a_client_method(self, client):
        missing = [op for op in CoordinatorApp.OPS
                   if not callable(getattr(client, op, None))]
        assert not missing, f"{client.__name__} lacks {missing}"

    def test_every_get_route_names_an_op(self):
        for path, route in _GET_ROUTES.items():
            assert route.op in CoordinatorApp.OPS, path
