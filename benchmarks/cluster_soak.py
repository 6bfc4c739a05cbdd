#!/usr/bin/env python
"""Nightly cluster soak: mixed traffic over 3 workers with a mid-run kill.

Spawns ``repro cluster start --workers 3`` as a subprocess and loops a
seeded **mixed** workload (reads plus a slice of INSERTs; every round
gets a fresh id tag so replays never conflict) at N concurrent
connections for ``--duration`` seconds.  Halfway through, one worker is
SIGKILLed mid-traffic -- the coordinator must fail its families over to
live replicas while the supervisor respawns it and replays the mutation
log.  The job fails if

* any request was lost or duplicated: every request must come back as
  exactly one completed response (zero protocol errors, zero
  backpressure rejections -- the coordinator absorbs worker deaths, so a
  client-visible failure is a bug);
* the killed worker was not respawned back to ``healthy`` at the fleet's
  barrier version, or the fleet's versions diverged;
* the coordinator's RSS grew past ``first_sample * 1.5 + 32 MiB`` --
  flights and the connection pools are bounded, so steady-state traffic
  must reach a memory plateau;
* SIGTERM did not produce a clean drain and exit code 0.

Usage::

    python benchmarks/cluster_soak.py --duration 60 --workers 3
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

RSS_GROWTH_FACTOR = 1.5
RSS_GROWTH_SLACK_KB = 32 * 1024


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS for pid {pid}")


def _kill_one_worker(port: int, killed: dict) -> None:
    """SIGKILL the busiest worker mid-traffic (runs on a timer thread)."""
    from repro.client import ReproClient

    try:
        with ReproClient("127.0.0.1", port, timeout=30.0) as client:
            routed = client.stats()["coordinator"]["routed"]
            owner_id = max(routed, key=routed.get)
            status = client.cluster()
            victim = next(worker for worker in status["workers"]
                          if worker["id"] == owner_id)
            os.kill(victim["pid"], signal.SIGKILL)
            killed["id"] = victim["id"]
    except Exception as error:  # surfaced as a gate failure at the end
        killed["error"] = repr(error)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--connections", type=int, default=6)
    parser.add_argument("--requests", type=int, default=120,
                        help="workload size per soak round")
    parser.add_argument("--mutation-share", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from loadgen import LoadReport, build_workload, run_load

    from repro.client import ReproClient

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        env = {**os.environ, "PYTHONPATH": SRC}
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "generate", "--out", data_dir,
             "--products", "120", "--orders", "120", "--markets", "12",
             "--null-rate", "0.15", "--seed", "7"],
            check=True, env=env, stdout=subprocess.DEVNULL)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster", "start",
             "--data", data_dir, "--workers", str(args.workers),
             "--port", "0", "--no-http", "--seed", "0",
             "--health-interval", "0.5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        announce = process.stdout.readline().strip()
        assert announce.startswith("listening tcp="), announce
        port = int(announce.split()[1].rsplit(":", 1)[1])

        killed: dict = {}
        killer = threading.Timer(args.duration / 2,
                                 _kill_one_worker, args=(port, killed))
        killer.daemon = True
        killer.start()

        total = LoadReport(connections=args.connections, requests=0,
                           wall_seconds=0.0)
        rss_samples: list[int] = []
        deadline = time.monotonic() + args.duration
        rounds = 0
        while time.monotonic() < deadline:
            workload = build_workload(args.seed, args.requests,
                                      mutation_share=args.mutation_share,
                                      tag=rounds)
            report = run_load("127.0.0.1", port, workload, args.connections)
            total.requests += report.requests
            total.wall_seconds += report.wall_seconds
            total.latencies.extend(report.latencies)
            total.rejected += report.rejected
            total.protocol_errors += report.protocol_errors
            rss_samples.append(_rss_kb(process.pid))
            rounds += 1
        killer.cancel()

        # Post-soak fleet audit: the killed worker must be back, every
        # worker at the same (barrier) data version.
        fleet: dict = {}
        try:
            with ReproClient("127.0.0.1", port, timeout=60.0) as client:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    status = client.cluster()
                    coordinator = status["coordinator"]
                    states = {worker["id"]: worker["state"]
                              for worker in status["workers"]}
                    versions = {worker["id"]: worker["data_version"]
                                for worker in status["workers"]}
                    fleet = {"states": states, "versions": versions,
                             "respawns": coordinator["respawns"],
                             "barrier_version":
                                 coordinator["barrier_version"]}
                    if all(state == "healthy" for state in states.values()) \
                            and len(set(versions.values())) == 1:
                        break
                    time.sleep(0.5)
        except Exception as error:
            fleet = {"error": repr(error)}

        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=120)

    summary = total.as_dict()
    summary.update({
        "rounds": rounds,
        "killed_worker": killed,
        "fleet": fleet,
        "rss_first_kb": rss_samples[0],
        "rss_last_kb": rss_samples[-1],
        "rss_peak_kb": max(rss_samples),
        "exit_code": process.returncode,
        "drained": "drained" in stdout,
    })
    print(json.dumps(summary, indent=2))

    failures = []
    if total.protocol_errors:
        failures.append(f"{total.protocol_errors} protocol errors")
    if total.rejected:
        failures.append(f"{total.rejected} rejected requests")
    if total.completed != total.requests:
        failures.append(f"lost/duplicated requests: {total.completed} "
                        f"completed of {total.requests}")
    if "id" not in killed:
        failures.append(f"mid-run worker kill never happened: {killed}")
    if fleet.get("error") or not fleet.get("states"):
        failures.append(f"fleet audit failed: {fleet}")
    else:
        if fleet["respawns"] < 1:
            failures.append("killed worker was never respawned")
        if any(state != "healthy" for state in fleet["states"].values()):
            failures.append(f"fleet not healthy after soak: {fleet['states']}")
        if len(set(fleet["versions"].values())) != 1:
            failures.append(f"fleet versions diverged: {fleet['versions']}")
    rss_limit = rss_samples[0] * RSS_GROWTH_FACTOR + RSS_GROWTH_SLACK_KB
    if max(rss_samples) > rss_limit:
        failures.append(f"RSS grew from {rss_samples[0]} kB to "
                        f"{max(rss_samples)} kB (limit {rss_limit:.0f} kB)")
    if process.returncode != 0 or "drained" not in stdout:
        failures.append(f"unclean shutdown (exit {process.returncode}, "
                        f"stderr: {stderr.strip()!r})")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
