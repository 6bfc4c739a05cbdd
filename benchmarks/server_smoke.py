#!/usr/bin/env python
"""CI smoke test for the network server: a full scripted session, then drain.

Spawns ``repro server`` as a real subprocess on ephemeral ports, drives a
scripted client session over **both** transports, and asserts the SIGTERM
drain protocol ends the process with exit code 0:

* TCP NDJSON -- ping, a query, the identical query again (must be answered
  from the warm caches), an adaptive streaming query (update events before
  the result), a bad query (typed ``invalid_query`` error, connection
  stays usable), and a ``stats`` op whose report carries the single-flight
  counters;
* raw TCP lines -- one Figure-1 query sent three times: the warm lines
  (whose answers the server splices from their cached encoding) must
  equal the cold one byte for byte once the per-request ``id``,
  ``elapsed_seconds`` and ``trace_id`` are masked -- and, between the
  cold and a warm line, the cache counters ``groups_from_cache`` and
  ``groups_computed``, which differ by design; and a ``profile`` op with
  a NaN window, which must answer ``bad_request`` within 5 s;
* HTTP -- ``GET /healthz``, ``GET /stats``, ``POST /query`` (200 with
  answers), and a malformed query (400).

Run from the repository root::

    python benchmarks/server_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def _spawn_server(data_dir: str) -> tuple[subprocess.Popen, int, int]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "server", "--data", data_dir,
         "--port", "0", "--epsilon", "0.1", "--seed", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    announce = process.stdout.readline().strip()
    assert announce.startswith("listening tcp="), \
        f"unexpected server banner: {announce!r} (stderr: {process.stderr.read()})"
    addresses = dict(part.split("=") for part in announce.split()[1:])
    tcp_port = int(addresses["tcp"].rsplit(":", 1)[1])
    http_port = int(addresses["http"].rsplit(":", 1)[1])
    return process, tcp_port, http_port


def _tcp_session(port: int) -> None:
    from repro.client import AdaptiveUpdateEvent, ReproClient, ServerError

    sql = "SELECT M.seg FROM Market M WHERE M.rrp >= 0 LIMIT 3"
    with ReproClient("127.0.0.1", port) as client:
        assert client.ping(), "ping must pong"
        assert client.health()["status"] == "ok"

        first = client.query(sql, seed=5)
        assert first.answers, "query must return answers"
        again = client.query(sql, seed=5)
        assert [a.values for a in again.answers] == \
            [a.values for a in first.answers]
        assert again.stats["groups_computed"] == 0, \
            "repeated query must be served from the warm caches"

        updates: list = []
        adaptive = client.query(
            "SELECT P.id FROM Products P WHERE P.rrp <= 40 LIMIT 3",
            epsilon=0.05, adaptive=True, seed=5, on_update=updates.append)
        assert adaptive.answers
        assert updates and isinstance(updates[0], AdaptiveUpdateEvent), \
            "adaptive queries must stream update events"

        try:
            client.query("SELEC nonsense")
        except ServerError as error:
            assert error.code == "invalid_query", error.code
        else:
            raise AssertionError("bad SQL must raise a typed error")
        assert client.ping(), "connection must survive a query error"

        stats = client.stats()
        assert "coalesced" in stats["server"], "stats must expose coalescing"
        assert stats["service"]["single_flight"] is not None
    print("tcp session ok")


#: Per-request fields of a result line, masked before lines are compared.
_PER_REQUEST = (
    (re.compile(rb'^\{"id":-?\d+,'), b'{"id":_,'),
    (re.compile(rb'"elapsed_seconds":[^,}]+'), b'"elapsed_seconds":_'),
    (re.compile(rb',"trace_id":"[0-9a-f]+"'), b''),
)
#: What a cold request's stats say differently from a warm one's.
_CACHE_COUNTERS = re.compile(rb'"groups_(from_cache|computed)":\d+')


def _masked(line: bytes, counters: bool = False) -> bytes:
    for pattern, replacement in _PER_REQUEST:
        line, count = pattern.subn(replacement, line)
        assert count == 1, f"{pattern.pattern!r} not in {line[:120]!r}"
    if counters:
        line = _CACHE_COUNTERS.sub(rb'"groups_\1":_', line)
    return line


def _tcp_warm_lines(port: int) -> None:
    from repro.datagen.experiments import EXPERIMENT_QUERIES

    sql = EXPERIMENT_QUERIES["never_knowingly_undersold"]
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        reader = sock.makefile("rb")
        lines = []
        for request_id in (1, 2, 3):
            sock.sendall(json.dumps({"op": "query", "id": request_id,
                                     "sql": sql}).encode() + b"\n")
            lines.append(reader.readline())
    cold, warm, again = lines
    message = json.loads(cold)
    assert message["type"] == "result" and message["answers"], cold[:200]
    assert json.loads(warm)["stats"]["groups_computed"] == 0
    assert _masked(again) == _masked(warm), "warm result lines differ"
    assert _masked(warm, counters=True) == _masked(cold, counters=True), \
        "a warm result line differs from the cold one"
    print("tcp warm lines ok")


def _tcp_nan_profile(port: int) -> None:
    # A NaN window must be refused at once; it used to pin a sampler
    # thread and never answer.
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(b'{"op":"profile","id":1,"seconds":NaN}\n')
        reply = json.loads(sock.makefile("rb").readline())
    assert (reply["type"], reply["code"]) == ("error", "bad_request"), reply
    print("tcp nan profile ok")


def _http_session(port: int) -> None:
    base = f"http://127.0.0.1:{port}"
    health = json.loads(urllib.request.urlopen(base + "/healthz").read())
    assert health["status"] == "ok", health
    stats = json.loads(urllib.request.urlopen(base + "/stats").read())
    assert "server" in stats and "service" in stats

    request = urllib.request.Request(
        base + "/query",
        data=json.dumps({"sql": "SELECT M.seg FROM Market M LIMIT 2",
                         "options": {"seed": 5}}).encode(),
        headers={"Content-Type": "application/json"})
    body = json.loads(urllib.request.urlopen(request).read())
    assert body["type"] == "result" and body["answers"], body

    bad = urllib.request.Request(
        base + "/query", data=json.dumps({"sql": "SELEC nonsense"}).encode(),
        headers={"Content-Type": "application/json"})
    try:
        urllib.request.urlopen(bad)
    except urllib.error.HTTPError as error:
        assert error.code == 400, error.code
    else:
        raise AssertionError("bad SQL over HTTP must return 400")
    print("http session ok")


def main() -> int:
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "generate", "--out", data_dir,
             "--products", "30", "--orders", "30", "--markets", "6",
             "--null-rate", "0.2", "--seed", "1"],
            check=True, env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.DEVNULL)
        process, tcp_port, http_port = _spawn_server(data_dir)
        try:
            _tcp_session(tcp_port)
            _tcp_warm_lines(tcp_port)
            _tcp_nan_profile(tcp_port)
            _http_session(http_port)
        finally:
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, \
            f"server exited {process.returncode}; stderr: {stderr}"
        assert "drained" in stdout, f"no clean drain in output: {stdout!r}"
    print("server smoke ok: clean drain, exit 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
