#!/usr/bin/env python
"""CI smoke test for the cluster tier: coordinator + 2 workers, end to end.

Spawns ``repro cluster start --workers 2`` as a real subprocess (which in
turn spawns two ``repro server`` worker subprocesses), then drives the
scripted session the acceptance criteria name:

* **TCP** -- ping/health (fleet counts), a query, the identical query
  again answered from a warm worker cache, a mutation broadcast (the
  cluster status must show every worker at the committed version), and
  aggregated ``stats`` carrying coordinator + per-worker sections;
* **HTTP** -- ``GET /healthz``, ``GET /stats``, ``GET /cluster``,
  ``POST /query``;
* **observability** -- one query must leave one stitched cross-process
  trace (coordinator + worker spans under a single propagated trace id,
  parent links intact, Chrome-loadable export), ``history`` must
  aggregate every worker's tsdb ring, and the alert report must carry
  the full SLO state table (shape only; CI hosts may burn budget);
* **failover** -- SIGKILL one worker (pid from the cluster status) and
  require queries to keep succeeding on the surviving replica, then wait
  for the supervisor to respawn the dead worker and replay it the
  mutation log back to the barrier version;
* **rolling restart** -- the ``repro cluster drain`` verb restarts every
  local worker one at a time while the fleet stays serving;
* **drain** -- SIGTERM to the coordinator must print ``drained`` and
  exit 0.

Run from the repository root::

    python benchmarks/cluster_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

SQL = "SELECT M.seg FROM Market M WHERE M.rrp >= 0 LIMIT 3"
MUTATION = "INSERT INTO Orders VALUES ('smoke-1', 'p1', 7, 0.5)"


def _env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env


def _spawn_cluster(data_dir: str) -> tuple[subprocess.Popen, int, int]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "start",
         "--data", data_dir, "--workers", "2", "--port", "0",
         "--epsilon", "0.1", "--seed", "5", "--health-interval", "0.3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env())
    announce = process.stdout.readline().strip()
    assert announce.startswith("listening tcp="), (
        f"unexpected coordinator banner: {announce!r} "
        f"(stderr: {process.stderr.read()})")
    addresses = dict(part.split("=") for part in announce.split()[1:])
    tcp_port = int(addresses["tcp"].rsplit(":", 1)[1])
    http_port = int(addresses["http"].rsplit(":", 1)[1])
    return process, tcp_port, http_port


def _tcp_session(port: int) -> None:
    from repro.client import ReproClient

    with ReproClient("127.0.0.1", port) as client:
        assert client.ping(), "ping must pong"
        health = client.health()
        assert health["status"] == "ok", health
        assert health["role"] == "coordinator", health
        assert health["workers"] == 2 and health["workers_healthy"] == 2

        first = client.query(SQL, seed=5)
        assert first.answers, "query must return answers"
        again = client.query(SQL, seed=5)
        assert [a.values for a in again.answers] == \
            [a.values for a in first.answers]
        assert again.stats["groups_computed"] == 0, \
            "repeated query must hit the owning worker's warm caches"

        outcome = client.mutate(MUTATION)
        assert outcome.data_version == 1, outcome

        status = client.cluster()
        versions = [worker["data_version"]
                    for worker in status["workers"]]
        assert versions == [1, 1], \
            f"mutation must be committed on every worker, got {versions}"
        assert status["coordinator"]["barrier_version"] == 1

        stats = client.stats()
        assert "coordinator" in stats and "workers" in stats, stats.keys()
        assert len(stats["workers"]) == 2
        assert "server" in stats and "service" in stats, \
            "aggregated stats must keep the single-server shape"

        metrics = client.metrics()
        assert "repro_cluster_requests_total" in metrics
        assert 'worker="w0"' in metrics and 'worker="w1"' in metrics
    print("tcp session ok")


def _http_session(port: int) -> None:
    base = f"http://127.0.0.1:{port}"
    health = json.loads(urllib.request.urlopen(base + "/healthz").read())
    assert health["status"] == "ok", health
    stats = json.loads(urllib.request.urlopen(base + "/stats").read())
    assert "coordinator" in stats and "workers" in stats
    cluster = json.loads(urllib.request.urlopen(base + "/cluster").read())
    assert len(cluster["workers"]) == 2, cluster

    request = urllib.request.Request(
        base + "/query",
        data=json.dumps({"sql": SQL, "options": {"seed": 5}}).encode(),
        headers={"Content-Type": "application/json"})
    body = json.loads(urllib.request.urlopen(request).read())
    assert body["type"] == "result" and body["answers"], body
    print("http session ok")


def _observability_session(port: int, http_port: int) -> None:
    from repro.client import ReproClient

    with ReproClient("127.0.0.1", port) as client:
        # One query through the coordinator must yield one stitched
        # cross-process trace: coordinator spans + the owning worker's
        # spans under a single propagated trace id, parent links intact.
        result = client.query(SQL, seed=5)
        trace_id = result.trace_id
        assert trace_id and len(trace_id) == 32, \
            f"coordinator must stamp a trace id on results, got {trace_id!r}"

        stitched = client.trace(trace_id)
        processes = stitched["processes"]
        labels = [group["process"] for group in processes]
        assert len(processes) >= 2, \
            f"trace must stitch coordinator + worker spans, got {labels}"
        assert labels[0].startswith("coordinator"), labels
        assert any(label.startswith("worker:") for label in labels), labels
        spans = {span["span_id"]
                 for group in processes for span in group["spans"]}
        for group in processes:
            for span in group["spans"]:
                parent = span["parent_id"]
                assert not parent or parent in spans, \
                    f"dangling parent link {parent} in {group['process']}"

        export = client.trace_export(trace_id)
        chrome = export["chrome"]
        assert chrome["otherData"]["trace_id"] == trace_id
        assert any(event.get("ph") == "X" for event in chrome["traceEvents"])

        # Fleet metrics history: the coordinator's own ring plus one
        # relabelled ring per worker.
        history = client.history()
        assert history["snapshots"], "coordinator tsdb must have snapshots"
        assert sorted(history["workers"]) == ["w0", "w1"], \
            f"history must aggregate every worker, got {history.keys()}"
        for payload in history["workers"].values():
            newest = payload["snapshots"][-1]["samples"]
            assert any(key.startswith("repro_server_requests_total")
                       for key in newest), newest

        # Alert probe payload structure (smoke asserts shape, not state:
        # a cold CI host can legitimately burn error budget).
        report = client.alerts()
        assert isinstance(report["firing"], bool), report
        states = {(alert["slo"], alert["severity"])
                  for alert in report["alerts"]}
        assert len(states) == len(report["alerts"]) >= 4, states

    # The same surfaces over HTTP, the way dashboards scrape them.
    base = f"http://127.0.0.1:{http_port}"
    history = json.loads(urllib.request.urlopen(base + "/history").read())
    assert history["snapshots"] and "workers" in history
    alerts = json.loads(urllib.request.urlopen(base + "/alerts").read())
    assert "firing" in alerts and "alerts" in alerts
    doc = json.loads(urllib.request.urlopen(
        base + f"/trace?id={trace_id}").read())
    assert doc["otherData"]["trace_id"] == trace_id
    print("observability ok (stitched trace, fleet history, alert probe)")


def _failover_session(port: int) -> None:
    from repro.client import ReproClient

    with ReproClient("127.0.0.1", port, timeout=120.0) as client:
        # Kill the worker that owns the smoke query's family, so the next
        # request genuinely exercises the failover path (not a worker that
        # never saw traffic).
        routed = client.stats()["coordinator"]["routed"]
        owner_id = max(routed, key=routed.get)
        status = client.cluster()
        victim = next(worker for worker in status["workers"]
                      if worker["id"] == owner_id)
        os.kill(victim["pid"], signal.SIGKILL)

        # Queries must keep succeeding throughout: the victim's families
        # fail over to the surviving replica.
        for _ in range(5):
            result = client.query(SQL, seed=5)
            assert result.answers, "queries must survive a worker kill"

        # The supervisor must respawn the victim and replay it the
        # mutation log before it rejoins at the barrier version.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status = client.cluster()
            states = {worker["id"]: (worker["state"], worker["data_version"])
                      for worker in status["workers"]}
            if status["coordinator"]["respawns"] >= 1 \
                    and states[victim["id"]] == ("healthy", 1):
                break
            time.sleep(0.3)
        else:
            raise AssertionError(
                f"worker {victim['id']} never rejoined at the barrier "
                f"version: {states}")
        assert status["coordinator"]["worker_deaths"] >= 1
        assert client.query(SQL, seed=5).answers
    print("failover ok (kill, retry, respawn, replay)")


def _rolling_restart(port: int) -> None:
    from repro.client import ReproClient

    with ReproClient("127.0.0.1", port, timeout=300.0) as client:
        payload = client.cluster_drain()
        assert sorted(payload["restarted"]) == ["w0", "w1"], payload
        assert payload["barrier_version"] == 1, payload
        status = client.cluster()
        assert all(worker["state"] == "healthy"
                   and worker["data_version"] == 1
                   for worker in status["workers"]), status
        assert client.query(SQL, seed=5).answers
    print("rolling restart ok")


def main() -> int:
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "generate", "--out", data_dir,
             "--products", "30", "--orders", "30", "--markets", "6",
             "--null-rate", "0.2", "--seed", "1"],
            check=True, env=_env(), stdout=subprocess.DEVNULL)
        process, tcp_port, http_port = _spawn_cluster(data_dir)
        try:
            _tcp_session(tcp_port)
            _http_session(http_port)
            _observability_session(tcp_port, http_port)
            _failover_session(tcp_port)
            _rolling_restart(tcp_port)
        finally:
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, \
            f"coordinator exited {process.returncode}; stderr: {stderr}"
        assert "drained" in stdout, f"no clean drain in output: {stdout!r}"
    print("cluster smoke ok: failover + rolling drain, exit 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
