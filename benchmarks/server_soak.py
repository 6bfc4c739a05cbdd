#!/usr/bin/env python
"""Nightly load soak: sustained traffic, zero protocol errors, stable RSS.

Spawns ``repro server`` as a subprocess, loops the seeded loadgen workload
at N concurrent connections for ``--duration`` seconds, samples the server
process's resident set size from ``/proc/<pid>/status`` throughout, then
drains with SIGTERM.  The job fails if

* any request died with a protocol error (transport drop, garbled frame,
  unexpected event) or was rejected under backpressure -- the soak load is
  sized well inside the admission limit, so a rejection is a bug;
* the server's RSS grew past ``first_sample * 1.5 + 32 MiB`` -- the
  caches are bounded LRUs and flights are removed when they land, so
  steady-state traffic must reach a memory plateau;
* SIGTERM did not produce a clean drain and exit code 0.

Usage::

    python benchmarks/server_soak.py --duration 60 --connections 8
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

#: Allowed RSS growth over the first sample: half again plus slack for
#: caches that legitimately fill early (compile memo, plan cache).
RSS_GROWTH_FACTOR = 1.5
RSS_GROWTH_SLACK_KB = 32 * 1024


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS for pid {pid}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--requests", type=int, default=120,
                        help="workload size per soak round")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from loadgen import LoadReport, build_workload, run_load

    workload = build_workload(args.seed, args.requests)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        env = {**os.environ, "PYTHONPATH": SRC}
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "generate", "--out", data_dir,
             "--products", "120", "--orders", "120", "--markets", "12",
             "--null-rate", "0.15", "--seed", "7"],
            check=True, env=env, stdout=subprocess.DEVNULL)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "server", "--data", data_dir,
             "--port", "0", "--no-http", "--seed", "0",
             "--workers", str(args.connections)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        announce = process.stdout.readline().strip()
        assert announce.startswith("listening tcp="), announce
        port = int(announce.split()[1].rsplit(":", 1)[1])

        total = LoadReport(connections=args.connections, requests=0,
                           wall_seconds=0.0)
        rss_samples: list[int] = []
        deadline = time.monotonic() + args.duration
        rounds = 0
        while time.monotonic() < deadline:
            report = run_load("127.0.0.1", port, workload, args.connections)
            total.requests += report.requests
            total.wall_seconds += report.wall_seconds
            total.latencies.extend(report.latencies)
            total.rejected += report.rejected
            total.protocol_errors += report.protocol_errors
            rss_samples.append(_rss_kb(process.pid))
            rounds += 1

        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)

    summary = total.as_dict()
    summary.update({
        "rounds": rounds,
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
