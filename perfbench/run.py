#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

``--trace 0`` spawns the deployment under test (``repro server`` with
default serving flags) as a subprocess, replays the workload's
seeded closed-loop sequence, checks every answer against an in-process
replay and prints the end-to-end metrics, expressed for a reference
host speed (see ``hostprobe.py``).  ``--trace 1`` runs a fixed prefix
of the same sequence in-process with span wrappers around each layer's
public functions and prints the per-layer ledger, writing a Chrome
trace beside it.  Both modes run on one CPU.  The last stdout line is
always one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
any error exits non-zero without it.  Workloads and their provenance are in
``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"


def _emit(line: str = "") -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still unwinds, so the deployment it spawned is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: the program's sources are missing ({SRC}/repro)\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import ledger, timed
    from perfbench.hostprobe import pin_to_one_cpu
    from perfbench.workloads import workload_names

    if args.workload not in workload_names():
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {workload_names()}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    pin_to_one_cpu()
    out_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if args.trace:
        report = ledger.run(args.workload, args.seed, args.seconds, out_dir)
    else:
        report = timed.run(args.workload, args.seed, args.seconds, out_dir, SRC)

    _emit(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit) in report["metrics"].items():
        _emit(f"  {name:<26} {value:>14.4f} {unit}")
    for key, value in report["context"].items():
        _emit(f"  # {key}: {value}")
    _emit(f"  attempted {report['attempted']}  failed {report['failed']}")
    _emit(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
