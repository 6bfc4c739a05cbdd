"""Cluster-wide observability: trace propagation, history, profiles, alerts.

The acceptance-critical properties:

* one query through the coordinator produces **one** stitched trace --
  coordinator and worker spans under a single trace id, parent links
  intact across processes (and across failover attempts);
* tracing through the cluster never perturbs answers: observed and
  unobserved clusters return bit-identical certainties;
* ``GET /history``, ``profile`` and ``alerts`` aggregate the fleet
  through the coordinator; ``repro top --json`` and the alert probe
  expose them to operators and scripts.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.cli import EXIT_ALERT_FIRING, main
from repro.client import ReproClient
from repro.cluster import EmbeddedCluster
from repro.datagen.experiments import ExperimentScale, generate_sales_database
from repro.obs import (
    format_traceparent,
    new_context,
    parse_collapsed,
    snapshot_payload,
)
from repro.obs.console import fetch_sample
from repro.server import EmbeddedServer
from repro.service import AnnotationService, ServiceOptions

SQL = "SELECT M.seg FROM Market M WHERE M.rrp >= 0 LIMIT 3"
MUTATION = "INSERT INTO Orders VALUES ('obs-{n}', 'p1', {n}, 0.5)"

SCALE = ExperimentScale(products=30, orders=30, markets=6, null_rate=0.2)


def _database():
    return generate_sales_database(SCALE, rng=1)


def _service(database=None) -> AnnotationService:
    return AnnotationService(database if database is not None else _database(),
                             ServiceOptions(epsilon=0.1, seed=5))


@pytest.fixture(scope="module")
def cluster():
    database = _database()
    services = [_service(database) for _ in range(2)]
    with EmbeddedCluster(services, http=True) as embedded:
        yield embedded


def _span_index(processes):
    """{span_id: (process, span)} over a stitched trace payload."""
    index = {}
    for group in processes:
        for span in group["spans"]:
            index[span["span_id"]] = (group["process"], span)
    return index


class TestStitchedTraces:
    def test_query_result_carries_a_trace_id(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            result = client.query(SQL, seed=5)
        assert result.trace_id and len(result.trace_id) == 32
        int(result.trace_id, 16)  # 128-bit hex

    def test_one_query_exports_one_cross_process_trace(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            result = client.query(SQL, seed=5)
            payload = client.trace(result.trace_id)
        assert payload["trace_id"] == result.trace_id
        labels = [group["process"] for group in payload["processes"]]
        assert labels[0].startswith("coordinator:")
        assert any(label.startswith("worker:") for label in labels)

        index = _span_index(payload["processes"])
        coordinator_spans = [span for process, span in index.values()
                             if process.startswith("coordinator:")]
        names = {span["name"] for span in coordinator_spans}
        assert {"cluster.request", "forward"} <= names

        # Every parent link resolves inside the stitched span set: worker
        # roots parent onto the coordinator's forward span, intermediate
        # spans onto their local parents.
        roots = 0
        for process, span in index.values():
            parent = span["parent_id"]
            if parent is None or parent == 0:
                roots += 1
                assert process.startswith("coordinator:")
            else:
                assert parent in index, \
                    f"dangling parent {parent} in {process}"
        assert roots == 1, "exactly one root span per distributed trace"

    def test_chrome_export_stitches_processes_on_one_timeline(self, cluster,
                                                              tmp_path):
        with ReproClient(cluster.host, cluster.port) as client:
            result = client.query(SQL, seed=5)
            export = client.trace_export(result.trace_id)
        assert export["trace_id"] == result.trace_id
        assert export["span_count"] >= 3
        chrome = export["chrome"]
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == len(export["processes"]) >= 2
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {e["pid"] for e in meta}
        assert all(e["args"].get("trace_id") == result.trace_id
                   for e in spans)
        # the CLI writes exactly this document
        exit_code = main(["cluster", "trace", str(tmp_path / "trace.json"),
                          "--host", cluster.host,
                          "--port", str(cluster.port),
                          "--trace-id", result.trace_id])
        assert exit_code == 0
        written = json.loads((tmp_path / "trace.json").read_text())
        assert written["otherData"]["trace_id"] == result.trace_id

    def test_mutation_broadcast_traces_every_worker(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            outcome = client.mutate(MUTATION.format(n=1))
            payload = client.trace(outcome.trace_id)
        labels = [group["process"] for group in payload["processes"]]
        workers = [label for label in labels if label.startswith("worker:")]
        assert sorted(workers) == ["worker:w0", "worker:w1"]
        index = _span_index(payload["processes"])
        forwards = [span for _, span in index.values()
                    if span["name"] == "forward"]
        assert len(forwards) == 2
        # sibling fan-out spans under the one mutation root
        assert len({span["parent_id"] for span in forwards}) == 1

    def test_worker_slow_log_records_the_propagated_trace_id(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            result = client.query(SQL, seed=5)
        entries = [entry
                   for server in cluster.worker_servers.values()
                   for entry in server.app.stats()["service"]["slow_queries"]]
        assert entries, "the query must land in some worker's slow log"
        # the worker logged the coordinator's trace id, not a local one:
        # the slowlog is joinable against the distributed trace
        assert result.trace_id in [entry.get("trace_id")
                                   for entry in entries]


class TestFailoverTraces:
    def test_failover_attempts_are_siblings_in_one_trace(self):
        database = _database()
        services = [_service(database) for _ in range(2)]
        with EmbeddedCluster(services, http=False) as cluster:
            owner = cluster.route_of(SQL)
            cluster.stop_worker(owner)
            with ReproClient(cluster.host, cluster.port,
                             timeout=60.0) as client:
                result = client.query(SQL, seed=5)
                assert result.answers
                payload = client.trace(result.trace_id)
        index = _span_index(payload["processes"])
        attempts = [span for _, span in index.values()
                    if span["name"] == "forward"]
        assert len(attempts) >= 2, "the failed attempt must leave a span"
        assert len({span["parent_id"] for span in attempts}) == 1, \
            "failover attempts are siblings under one root"
        outcomes = {span["attributes"].get("worker"):
                    span["attributes"].get("outcome")
                    for span in attempts}
        assert outcomes.get(owner) == "worker_unavailable"
        survivor = next(span["attributes"]["worker"] for span in attempts
                        if span["attributes"].get("worker") != owner)
        # the surviving worker's spans are stitched under the same trace
        assert any(process == f"worker:{survivor}"
                   for process, _ in index.values())


class TestBitIdentity:
    def test_observed_cluster_answers_match_unobserved(self):
        database = _database()
        results = {}
        for observe in (False, True):
            services = [_service(database) for _ in range(2)]
            with EmbeddedCluster(services, http=False,
                                 observe=observe) as cluster:
                with ReproClient(cluster.host, cluster.port) as client:
                    results[observe] = client.query(SQL, seed=5)
        bare, observed = results[False], results[True]
        assert [a.values for a in bare.answers] == \
            [a.values for a in observed.answers]
        assert [a.certainty.value for a in bare.answers] == \
            [a.certainty.value for a in observed.answers]
        assert [a.lineage_digest for a in bare.answers] == \
            [a.lineage_digest for a in observed.answers]
        assert bare.trace_id is None
        assert observed.trace_id is not None


class TestSingleServerPropagation:
    def test_server_adopts_a_client_traceparent(self):
        context = new_context()
        header = format_traceparent(context.trace_id, 0xabc123)
        with EmbeddedServer(_service(), http=False) as server:
            with ReproClient(server.host, server.port) as client:
                result = client.query(SQL, seed=5, traceparent=header)
                payload = client.trace(context.trace_id)
        assert result.trace_id == context.trace_id
        assert payload["process"].startswith("server:")
        roots = [span for span in payload["spans"]
                 if span["parent_id"] == 0xabc123]
        assert roots, "the server's root span must parent onto the caller"

    def test_a_malformed_traceparent_still_serves(self):
        with EmbeddedServer(_service(), http=False) as server:
            with ReproClient(server.host, server.port) as client:
                result = client.query(SQL, seed=5, traceparent="garbage")
        assert result.answers
        assert result.trace_id is not None  # served, traced locally


class TestFleetHistoryAndProfiles:
    def test_history_aggregates_coordinator_and_workers(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            client.query(SQL, seed=5)
            history = client.history()
        assert history["interval_seconds"] > 0
        assert history["snapshots"], "history() samples on demand"
        newest = history["snapshots"][-1]["samples"]
        assert "repro_cluster_requests_total" in newest
        assert any(key.startswith("repro_cluster_request_seconds_bucket")
                   for key in newest)
        assert sorted(history["workers"]) == ["w0", "w1"]
        for payload in history["workers"].values():
            worker_newest = payload["snapshots"][-1]["samples"]
            assert "repro_server_requests_total" in worker_newest

    def test_profile_merges_the_fleet(self, cluster):
        with ReproClient(cluster.host, cluster.port,
                         timeout=60.0) as client:
            payload = client.profile(seconds=0.2)
        assert payload["processes"] == 3  # coordinator + two workers
        assert payload["samples"] >= 1
        assert payload["stacks"] >= 1
        lines = payload["collapsed"].splitlines()
        assert len(lines) == payload["stacks"]

    def test_alerts_report_covers_both_slos(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            client.query(SQL, seed=5)
            payload = client.alerts()
            assert not payload["firing"], "a healthy fleet never alerts"
            states = {(alert["slo"], alert["severity"])
                      for alert in payload["alerts"]}
            assert states == {("availability", "page"),
                              ("availability", "ticket"),
                              ("latency", "page"), ("latency", "ticket")}
            assert all(alert["burn_short"] >= 0.0
                       for alert in payload["alerts"])
            stats = client.stats()
        assert {(a["slo"], a["severity"]) for a in stats["alerts"]} == states


class TestNonFiniteSeconds:
    def test_nan_windows_are_refused_over_both_transports(self, cluster):
        """The coordinator validates ``seconds`` in the same op table: a
        NaN profile or history window is a bad request over TCP and a 400
        over HTTP, never a fleet-wide sampler that runs forever."""
        with socket.create_connection((cluster.host, cluster.port),
                                      timeout=5) as sock, \
                sock.makefile("rwb") as stream:
            stream.write(b'{"op":"profile","id":1,"seconds":NaN}\n')
            stream.flush()
            reply = json.loads(stream.readline())
        assert (reply["id"], reply["type"], reply["code"]) == \
            (1, "error", "bad_request")
        base = f"http://{cluster.host}:{cluster.http_port}"
        for path in ("/profile?seconds=nan", "/history?seconds=nan"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + path, timeout=5)
            with excinfo.value as error:
                assert error.code == 400, path
                assert "seconds" in json.loads(error.read())["error"]


class TestOperatorSurface:
    def test_top_json_snapshot_over_http(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            for seed in range(3):
                client.query(SQL, seed=seed)
        base = f"http://{cluster.host}:{cluster.http_port}"
        history = json.loads(urllib.request.urlopen(base + "/history").read())
        assert history["snapshots"]
        sample = fetch_sample(base)
        payload = snapshot_payload(sample)
        json.dumps(payload)  # machine-readable as-is
        assert payload["alerts"] and payload["firing"] is False
        assert [worker["id"] for worker in payload["workers"]] == ["w0", "w1"]

    def test_cli_top_json(self, cluster, capsys):
        exit_code = main(["top", "--host", cluster.host,
                          "--http-port", str(cluster.http_port), "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "qps" in payload and "alerts" in payload

    def test_cli_alert_probe_exit_codes(self, cluster, capsys, monkeypatch):
        exit_code = main(["client", "--host", cluster.host,
                          "--port", str(cluster.port), "--probe", "alerts"])
        assert exit_code == 0
        assert "availability" in capsys.readouterr().out

        monkeypatch.setattr(
            ReproClient, "alerts",
            lambda self: {"alerts": [{"slo": "availability",
                                      "severity": "page",
                                      "burn_short": 20.0, "burn_long": 18.0,
                                      "burn_threshold": 14.4,
                                      "firing": True}],
                          "firing": True})
        exit_code = main(["client", "--host", cluster.host,
                          "--port", str(cluster.port), "--probe", "alerts"])
        assert exit_code == EXIT_ALERT_FIRING
        assert "FIRING" in capsys.readouterr().out

    def test_http_observability_routes(self, cluster):
        with ReproClient(cluster.host, cluster.port) as client:
            client.query(SQL, seed=5)  # leaves a stored trace to serve
        base = f"http://{cluster.host}:{cluster.http_port}"
        alerts = json.loads(urllib.request.urlopen(base + "/alerts").read())
        assert "firing" in alerts
        trace = json.loads(urllib.request.urlopen(base + "/trace").read())
        assert trace["otherData"]["trace_id"]  # a ready-to-load Chrome doc
        collapsed = urllib.request.urlopen(
            base + "/profile?seconds=0.1").read().decode("utf-8")
        # The route serves collapsed-stack text; every line must round-trip.
        merged = parse_collapsed(collapsed)
        assert all(count >= 1 for count in merged.values())
