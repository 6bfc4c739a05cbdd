#!/usr/bin/env python
"""CI perf-regression gate: fresh bench run vs. the committed trajectory.

The ``BENCH_PR*.json`` files committed at the repository root record the
perf story each PR bought -- kernel batching (PR 1), service caching
(PR 2), the columnar join engine (PR 3), incremental mutations (PR 8).
Nothing used to *enforce* that trajectory: a PR could
quietly hand a headline win back.  This gate compares a freshly measured
bench JSON against the most recent committed baseline and fails when any
shared headline scenario regresses by more than ``--tolerance`` (20% by
default).

Headlines are compared by their **speedup ratios**, not wall-clock
seconds: a ratio divides out the machine, so a laptop, a CI runner and the
box that produced the committed baseline all gate against the same
quantity.  Entries marked ``"enforced": false`` by the bench (e.g. the
cluster headline on a host with fewer than 4 cores, where worker
processes cannot scale) are reported but never gate, on either side of
the comparison.  Only headlines present in both files are compared: a
scenario deleted from the bench together with the code it measured (the
PR 4 sharded and PR 6 fusion headlines) drops out of the gate while the
committed baselines keep recording it.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py --quick --output fresh.json
    python benchmarks/check_regression.py --fresh fresh.json
    python benchmarks/check_regression.py --fresh fresh.json \
        --baseline BENCH_PR3.json --tolerance 0.1
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Baseline keys that carry a gated scenario: ``headline`` (the PR 1
#: kernel scenario) plus every ``*_headline`` sibling later PRs added.
_HEADLINE_PATTERN = re.compile(r"^(headline|[a-z0-9_]+_headline)$")


def latest_baseline(root: Path = REPO_ROOT) -> Path:
    """The highest-numbered committed ``BENCH_PR<N>.json``."""
    candidates = []
    for path in root.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            candidates.append((int(match.group(1)), path))
    if not candidates:
        raise SystemExit(f"no BENCH_PR*.json baseline found under {root}")
    return max(candidates)[1]


def headline_speedups(baseline: dict) -> dict[str, dict]:
    """Every gated scenario of a bench JSON: ``name -> headline entry``."""
    return {
        key: value
        for key, value in baseline.items()
        if _HEADLINE_PATTERN.match(key)
        and isinstance(value, dict) and "speedup" in value
    }


def compare(fresh: dict, baseline: dict, tolerance: float) -> list[str]:
    """Human-readable failure lines; empty means the gate passes."""
    failures: list[str] = []
    fresh_headlines = headline_speedups(fresh)
    baseline_headlines = headline_speedups(baseline)
    shared = sorted(set(fresh_headlines) & set(baseline_headlines))
    if not shared:
        failures.append("no shared headline scenarios between the two runs; "
                        "the gate cannot vouch for anything")
        return failures
    for name in shared:
        fresh_entry = fresh_headlines[name]
        baseline_entry = baseline_headlines[name]
        fresh_speedup = float(fresh_entry["speedup"])
        baseline_speedup = float(baseline_entry["speedup"])
        floor = baseline_speedup * (1.0 - tolerance)
        enforced = fresh_entry.get("enforced", True) and \
            baseline_entry.get("enforced", True)
        verdict = "ok" if fresh_speedup >= floor else "REGRESSED"
        if not enforced:
            verdict = "skipped (not enforced on this host)"
        print(f"{name:<20} baseline {baseline_speedup:8.2f}x   "
              f"fresh {fresh_speedup:8.2f}x   floor {floor:8.2f}x   {verdict}")
        if enforced and fresh_speedup < floor:
            failures.append(
                f"{name}: {fresh_speedup:.2f}x is below the regression floor "
                f"{floor:.2f}x (baseline {baseline_speedup:.2f}x, "
                f"tolerance {tolerance:.0%})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", type=Path, required=True,
                        help="bench JSON produced by this run")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed baseline to gate against "
                             "(default: the latest BENCH_PR*.json)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional headline slowdown "
                             "(default 0.2 = 20%%)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        raise SystemExit(f"--tolerance must be in [0, 1), got {args.tolerance}")

    baseline_path = args.baseline if args.baseline is not None else latest_baseline()
    fresh = json.loads(args.fresh.read_text())
    baseline = json.loads(baseline_path.read_text())
    print(f"gating {args.fresh} against {baseline_path} "
          f"(tolerance {args.tolerance:.0%})")
    failures = compare(fresh, baseline, args.tolerance)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
