"""The distributed serving tier: hash ring, coordinator, and fleet behavior.

Ring tests are pure-unit (stability is the property consistent hashing
is *for*: membership changes move only the departed worker's keys).
Coordinator tests run a real fleet through :class:`EmbeddedCluster` --
three in-process workers behind actual sockets -- and pin the routing,
cluster-wide single-flight, mutation-barrier, failover and join-replay
semantics end to end, exactly as a client sees them.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.client import AsyncReproClient, ReproClient, ServerError
from repro.cluster import EmbeddedCluster, HashRing, family_digest
from repro.datagen.experiments import ExperimentScale, generate_sales_database
from repro.obs.console import render_stats_tables
from repro.service import AnnotationService, ServiceOptions
from repro.service.service import normalise_sql

SQL = "SELECT M.seg FROM Market M WHERE M.rrp >= 0 LIMIT 3"
MUTATION = "INSERT INTO Orders VALUES ('tc-{n}', 'p1', {n}, 0.5)"

SCALE = ExperimentScale(products=30, orders=30, markets=6, null_rate=0.2)


def _database():
    return generate_sales_database(SCALE, rng=1)


def _service(database=None) -> AnnotationService:
    return AnnotationService(database if database is not None else _database(),
                             ServiceOptions(epsilon=0.1, seed=5))


# -- the hash ring ------------------------------------------------------------


class TestHashRing:
    KEYS = [family_digest(f"SELECT {i}") for i in range(400)]

    def test_route_is_deterministic(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # insertion order is irrelevant
        for key in self.KEYS:
            assert a.route(key) == b.route(key)

    def test_route_lists_every_worker_once(self):
        ring = HashRing(["w0", "w1", "w2"])
        for key in self.KEYS[:50]:
            order = ring.route(key)
            assert sorted(order) == ["w0", "w1", "w2"]

    def test_distribution_covers_all_workers(self):
        ring = HashRing(["w0", "w1", "w2"])
        owners = {ring.owner(key) for key in self.KEYS}
        assert owners == {"w0", "w1", "w2"}

    def test_remove_moves_only_the_removed_workers_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = {key: ring.owner(key) for key in self.KEYS}
        ring.remove("w1")
        for key, owner in before.items():
            if owner == "w1":
                assert ring.owner(key) in ("w0", "w2")
            else:
                assert ring.owner(key) == owner

    def test_add_moves_keys_only_to_the_new_worker(self):
        ring = HashRing(["w0", "w1"])
        before = {key: ring.owner(key) for key in self.KEYS}
        ring.add("w2")
        moved = 0
        for key, owner in before.items():
            after = ring.owner(key)
            if after != owner:
                assert after == "w2"
                moved += 1
        assert 0 < moved < len(self.KEYS)

    def test_remove_then_add_restores_ownership(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = {key: ring.owner(key) for key in self.KEYS}
        ring.remove("w2")
        ring.add("w2")
        assert {key: ring.owner(key) for key in self.KEYS} == before

    def test_empty_ring_routes_nowhere(self):
        ring = HashRing()
        assert ring.route(self.KEYS[0]) == []
        assert ring.owner(self.KEYS[0]) is None

    def test_family_digest_normalisation(self):
        spaced = "SELECT  M.seg   FROM Market M WHERE M.rrp >= 0 LIMIT 3"
        assert family_digest(normalise_sql(SQL)) == \
            family_digest(normalise_sql(spaced))


def test_coordinator_defaults_are_never_empty():
    # Subprocess-worker mode has no ServiceOptions in hand; the coordinator
    # must still resolve omitted request options to servable values, not
    # ``None`` (which would reject every request as malformed).
    from repro.cluster.coordinator import CoordinatorApp
    from repro.server.protocol import parse_query_request

    app = CoordinatorApp([], supervise=False)
    sql, options = parse_query_request({"sql": SQL}, app.request_defaults())
    assert sql == SQL
    assert options["method"] in ("auto", "exact", "afpras", "fpras")
    assert 0.0 < options["epsilon"] <= 1.0


# -- a read-only fleet --------------------------------------------------------


@pytest.fixture(scope="module")
def cluster():
    database = _database()
    services = [_service(database) for _ in range(3)]
    with EmbeddedCluster(services, http=False) as embedded:
        yield embedded


class TestClusterServing:
    def test_health_reports_the_fleet(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            health = client.health()
        assert health["role"] == "coordinator"
        assert health["status"] == "ok"
        assert health["workers"] == 3 and health["workers_healthy"] == 3

    def test_routing_is_sticky_and_caches_warm(self, cluster):
        owner = cluster.route_of(SQL)
        with ReproClient(cluster.host, cluster.port) as client:
            first = client.query(SQL, seed=5)
            again = client.query(SQL, seed=5)
        assert first.answers
        assert [a.values for a in again.answers] == \
            [a.values for a in first.answers]
        # The repeat landed on the same worker, whose caches are warm.
        assert again.stats["groups_computed"] == 0
        assert cluster.route_of(SQL) == owner

    def test_answers_match_a_single_service(self, cluster):
        reference = _service().submit(SQL, seed=5)
        with ReproClient(cluster.host, cluster.port) as client:
            remote = client.query(SQL, seed=5)
        assert [a.values for a in remote.answers] == \
            [a.values for a in reference.answers]
        assert [a.certainty.value for a in remote.answers] == \
            [a.certainty.value for a in reference.answers]
        assert [a.lineage_digest for a in remote.answers] == \
            [a.lineage_digest for a in reference.answers]

    def test_cluster_wide_single_flight(self, cluster):
        """Two concurrent identical requests launch one worker flight."""
        coordinator = cluster.coordinator
        sql = "SELECT P.id FROM Products P WHERE P.rrp <= 37 LIMIT 4"

        async def consume():
            return [event async for event in coordinator.query_events(
                {"op": "query", "id": 1, "sql": sql,
                 "options": {"seed": 11}})]

        async def race():
            launched = coordinator._launched
            coalesced = coordinator._coalesced
            first, second = await asyncio.gather(consume(), consume())
            return (coordinator._launched - launched,
                    coordinator._coalesced - coalesced, first, second)

        launched, coalesced, first, second = cluster.submit(race())
        assert launched == 1 and coalesced == 1
        assert first[-1]["type"] == "result"
        assert first[-1]["answers"] == second[-1]["answers"]

    def test_stats_aggregate_the_fleet(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            stats = client.stats()
        assert len(stats["workers"]) == 3
        assert {worker["id"] for worker in stats["workers"]} == \
            {"w0", "w1", "w2"}
        # The single-server shape survives, so repro top and --probe stats
        # read a cluster unchanged.
        assert "server" in stats and "service" in stats
        assert stats["server"]["requests"] >= 1
        coordinator = stats["coordinator"]
        assert coordinator["requests"] >= 1
        assert sum(coordinator["routed"].values()) >= 1

    def test_metrics_relabel_worker_samples(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            text = client.metrics()
        assert "repro_cluster_requests_total" in text
        assert "repro_cluster_barrier_version" in text
        for worker_id in ("w0", "w1", "w2"):
            assert f'worker="{worker_id}"' in text

    def test_cluster_status_op(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            status = client.cluster()
        assert {worker["id"] for worker in status["workers"]} == \
            {"w0", "w1", "w2"}
        assert all(worker["state"] == "healthy"
                   for worker in status["workers"])
        assert status["ring"]["workers"] == ["w0", "w1", "w2"]
        assert status["coordinator"]["barrier_version"] == 0

    def test_async_client_answers_the_cluster_ops(self, cluster):
        async def run():
            client = await AsyncReproClient.connect(cluster.host,
                                                    cluster.port)
            async with client:
                status = await client.cluster()
                with pytest.raises(ServerError) as excinfo:
                    await client.cluster_scale(0)
                return status, excinfo.value.code

        status, code = asyncio.run(run())
        assert status["ring"]["workers"] == ["w0", "w1", "w2"]
        assert code == "bad_request"

    def test_cli_cluster_status(self, cluster, capsys):
        from repro.cli import main

        code = main(["cluster", "status", "--host", cluster.host,
                     "--port", str(cluster.port), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["workers"]) == 3

    def test_console_renders_cluster_sections(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            stats = client.stats()
        text = render_stats_tables(stats)
        assert "worker" in text
        for worker_id in ("w0", "w1", "w2"):
            assert worker_id in text
        assert "barrier version" in text


# -- mutation barrier, failover, join-replay ----------------------------------


@pytest.fixture()
def fresh_cluster():
    database = _database()
    services = [_service(database) for _ in range(3)]
    with EmbeddedCluster(services, http=False) as embedded:
        yield embedded


class TestClusterMutations:
    def test_barrier_versions_are_monotone_and_converge(self, fresh_cluster):
        with ReproClient(fresh_cluster.host, fresh_cluster.port) as client:
            versions = [client.mutate(MUTATION.format(n=n)).data_version
                        for n in range(1, 4)]
            status = client.cluster()
        assert versions == [1, 2, 3]
        assert [worker["data_version"] for worker in status["workers"]] == \
            [3, 3, 3]
        assert status["coordinator"]["barrier_version"] == 3

    def test_mutations_are_visible_to_queries(self, fresh_cluster):
        probe = "SELECT O.id FROM Orders O WHERE O.q >= 900 LIMIT 40"
        with ReproClient(fresh_cluster.host, fresh_cluster.port) as client:
            before = client.query(probe, seed=5)
            client.mutate("INSERT INTO Orders VALUES ('tc-big', 'p1', "
                          "901, 0.5)")
            after = client.query(probe, seed=5)
        assert all(answer.values != ("tc-big",) for answer in before.answers)
        assert any(answer.values == ("tc-big",) for answer in after.answers)

    def test_typed_rejection_leaves_fleet_healthy(self, fresh_cluster):
        with ReproClient(fresh_cluster.host, fresh_cluster.port) as client:
            from repro.client import ServerError
            with pytest.raises(ServerError) as excinfo:
                client.mutate("INSERT INTO Orders VALUES ('only-two', 'p1')")
            assert excinfo.value.code == "validation"
            status = client.cluster()
        # A deterministic rejection is not a worker failure: nobody died,
        # the barrier did not advance.
        assert all(worker["state"] == "healthy"
                   for worker in status["workers"])
        assert status["coordinator"]["barrier_version"] == 0


class TestClusterFailover:
    def test_failover_to_live_replica_preserves_answers(self, fresh_cluster):
        reference = _service().submit(SQL, seed=5)
        owner = fresh_cluster.route_of(SQL)
        fresh_cluster.stop_worker(owner)
        with ReproClient(fresh_cluster.host, fresh_cluster.port,
                         timeout=60.0) as client:
            result = client.query(SQL, seed=5)
            status = client.cluster()
        assert [a.values for a in result.answers] == \
            [a.values for a in reference.answers]
        assert [a.certainty.value for a in result.answers] == \
            [a.certainty.value for a in reference.answers]
        assert [a.lineage_digest for a in result.answers] == \
            [a.lineage_digest for a in reference.answers]
        coordinator = status["coordinator"]
        assert coordinator["failovers"] >= 1
        assert coordinator["worker_deaths"] >= 1
        states = {worker["id"]: worker["state"]
                  for worker in status["workers"]}
        assert states[owner] == "dead"
        # The family now routes to the surviving successor, sticky again.
        survivor = fresh_cluster.route_of(SQL)
        assert survivor != owner
        assert fresh_cluster.route_of(SQL) == survivor

    def test_join_replay_brings_a_fresh_worker_to_the_barrier(
            self, fresh_cluster):
        with ReproClient(fresh_cluster.host, fresh_cluster.port,
                         timeout=60.0) as client:
            client.mutate(MUTATION.format(n=1))
            client.mutate(MUTATION.format(n=2))
            fresh_cluster.stop_worker("w2")
            client.query(SQL, seed=5)  # let the coordinator notice
            client.mutate(MUTATION.format(n=3))

            # A restart rebuilds the service from seed data; the
            # coordinator must replay it the full mutation log before it
            # serves anything.
            fresh_cluster.add_worker("w2", _service())
            status = client.cluster()
        states = {worker["id"]: (worker["state"], worker["data_version"])
                  for worker in status["workers"]}
        assert states["w2"] == ("healthy", 3)
        assert status["coordinator"]["barrier_version"] == 3
        assert status["coordinator"]["replayed_statements"] == 3
