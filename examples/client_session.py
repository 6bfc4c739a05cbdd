"""A worked network-server session: serve, query, coalesce, stream, drain.

This example runs the whole PR 5 stack inside one process:

1. it generates a small sales database and starts the network server on
   ephemeral ports (the same server ``python -m repro.cli server`` runs);
2. it queries it with the synchronous :class:`repro.client.ReproClient`
   and shows that remote answers equal a local
   :class:`~repro.service.AnnotationService` run bit for bit;
3. it floods the server with concurrent *identical* queries from async
   clients and reads the single-flight coalescing counters off ``stats``;
4. it streams an adaptive request (each tightened interval as it lands);
5. it drains the server gracefully, as SIGTERM would.

Run with::

    PYTHONPATH=src python examples/client_session.py

Equivalent shell session::

    python -m repro.cli generate --out /tmp/sales --products 120 --orders 120
    python -m repro.cli server --data /tmp/sales &
    python -m repro.cli client --port 7464 --sql "SELECT ..." --adaptive
    python -m repro.cli client --port 7464 --probe stats
    kill -TERM %1      # graceful drain, exit 0
"""

from __future__ import annotations

import asyncio

from repro.client import AsyncReproClient, ReproClient
from repro.datagen.experiments import ExperimentScale, generate_sales_database
from repro.server import EmbeddedServer
from repro.service import AnnotationService, ServiceOptions

SQL = "SELECT P.id FROM Products P WHERE P.rrp * P.dis <= 20 LIMIT 5"


def main() -> None:
    scale = ExperimentScale(products=120, orders=120, markets=12,
                            null_rate=0.15)
    database = generate_sales_database(scale, rng=7)
    service = AnnotationService(database, ServiceOptions(epsilon=0.1, seed=0))

    with EmbeddedServer(service, workers=8) as server:
        print(f"server up: tcp={server.host}:{server.port} "
              f"http={server.host}:{server.http_port}")

        # -- remote == local, bit for bit --------------------------------
        local = AnnotationService(
            database, ServiceOptions(epsilon=0.1, seed=0)).submit(SQL)
        with ReproClient(server.host, server.port) as client:
            remote = client.query(SQL)
            assert [a.values for a in remote.answers] == \
                [a.values for a in local.answers]
            assert [a.certainty.value for a in remote.answers] == \
                [a.certainty.value for a in local.answers]
            print(f"remote run equals local run on "
                  f"{len(remote.answers)} answers, e.g. "
                  f"{remote.answers[0].values} at "
                  f"mu={remote.answers[0].certainty.value:.3f}")

        # -- concurrent duplicates coalesce ------------------------------
        flood_sql = "SELECT O.id FROM Orders O WHERE O.q * O.dis >= 1 LIMIT 5"

        async def flood(copies: int) -> None:
            clients = [await AsyncReproClient.connect(server.host, server.port)
                       for _ in range(copies)]
            await asyncio.gather(*[c.query(flood_sql) for c in clients])
            for c in clients:
                await c.close()

        with ReproClient(server.host, server.port) as client:
            before = client.stats()["server"]
        asyncio.run(flood(8))
        with ReproClient(server.host, server.port) as client:
            counters = client.stats()["server"]
        print(f"flooded 8 identical queries: "
              f"{counters['launched'] - before['launched']} launched, "
              f"{counters['coalesced'] - before['coalesced']} coalesced onto "
              f"in-flight work")

        # -- adaptive streaming ------------------------------------------
        with ReproClient(server.host, server.port) as client:
            print("adaptive request, intervals as they tighten:")
            result = client.query(
                "SELECT M.seg FROM Market M WHERE M.rrp >= 20 LIMIT 4",
                epsilon=0.05, adaptive=True, seed=3,
                on_update=lambda u: print(
                    f"  lineage {u.lineage[:8]} stage {u.stage + 1}/{u.stages}"
                    f" mu={u.value:.3f} in [{u.interval[0]:.3f},"
                    f" {u.interval[1]:.3f}] ({u.samples} samples)"))
            print(f"  final: {len(result.answers)} answers")

    print("server drained cleanly")


if __name__ == "__main__":
    main()
