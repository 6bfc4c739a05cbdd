"""The untraced run: end-to-end metrics of one workload against a subprocess
deployment, with server-side accounting and the correctness gate.

Every time figure is expressed for the reference host of
:mod:`perfbench.hostprobe`: each measured block's wall time, latencies
and server CPU are divided by the host factor of the probes on either
side of it before they are summarised, and the set-up time by the
factor of every probe of the run.  The raw figures are printed beside
them as context."""

from __future__ import annotations

import gc
import math
import time
from pathlib import Path
from statistics import median
from typing import Optional

from perfbench import procstat
from perfbench.deploy import Deployment, generate_data
from perfbench.drive import Outcome, run_closed_loop
from perfbench.hostprobe import host_factor, host_probe_ms, interval_factors
from perfbench.reference import Reference, default_service
from perfbench.stats import samples_beyond, tail_percentile
from perfbench.workloads import build_plan

#: Full spawn-to-warm set-ups per run; ``setup_s`` is their median and
#: the last one serves the measured phase.
SETUPS = 3
TAIL = 0.90


def write_p50_ms(outcomes: list[Outcome]) -> Optional[float]:
    """Median mutation acknowledgement latency; ``None`` without writes."""
    writes = [outcome.seconds * 1e3 for outcome in outcomes
              if outcome.op.kind == "write" and outcome.error is None]
    return median(writes) if writes else None


class BlockPause:
    """Runs between measured blocks, outside their timing.

    It records the server's CPU over the block just finished, checks that
    block's answers against the in-process replay while the server
    idles, and times the host probe, so every block has a probe on
    either side.  Spreading the checks through the phase makes one run
    sample the host over twice the span of its measured work, at no
    extra cost.
    """

    def __init__(self, pids: list[int], reference: Reference,
                 probe_before: float) -> None:
        self.pids = pids
        self.reference = reference
        self.cpu_seconds: list[float] = []
        self.probes = [probe_before]
        self.failed: list[Outcome] = []
        self._mark = procstat.cpu_ticks(pids)

    def __call__(self, block: list[Outcome]) -> None:
        self.cpu_seconds.append(procstat.cpu_seconds_between(
            self._mark, procstat.cpu_ticks(self.pids)))
        gc.enable()
        self.failed += [outcome for outcome in block
                        if not self.reference.matches(outcome)]
        gc.collect()
        self.probes.append(host_probe_ms())
        gc.disable()  # keep client-side collector pauses out of the timings
        self._mark = procstat.cpu_ticks(self.pids)


def run(name: str, seed: int, seconds: float, out_dir: Path,
        src_dir: Path) -> dict:
    plan = build_plan(name, seed, seconds)
    data_dir = generate_data(out_dir.parent, plan.spec["scale"])
    log_path = out_dir / "server.log"

    setups: list[float] = []
    setup_probes = [host_probe_ms()]
    warmups: list[Outcome] = []
    deployment = None
    try:
        for _ in range(SETUPS):
            if deployment is not None:
                deployment.stop()
            deployment = Deployment(data_dir, src_dir, log_path)
            started = deployment.start()
            warmups += run_closed_loop(deployment.port, plan.warmup).outcomes
            setups.append(time.perf_counter() - started)
            setup_probes.append(host_probe_ms())

        reference = Reference(default_service(data_dir))
        failed = [outcome for outcome in warmups if not reference.matches(outcome)]
        pids = deployment.server_pids()
        pause = BlockPause(pids, reference, setup_probes[-1])
        gc.collect()
        gc.disable()
        try:
            measured = run_closed_loop(deployment.port, plan.measured,
                                       cycle=plan.cycle, blocks=plan.blocks,
                                       pause=pause)
        finally:
            gc.enable()
        rss_mib = procstat.peak_rss_mib(deployment.server_pids())
    finally:
        if deployment is not None:
            deployment.stop()
    failed += pause.failed

    operations = len(measured.outcomes)
    probes = setup_probes + pause.probes[1:]
    factors = interval_factors(pause.probes)
    reads = [(outcome.seconds * 1e3, factor)
             for block, factor in zip(measured.blocks, factors)
             for outcome in (measured.outcomes[index] for index in block)
             if outcome.op.kind == "read" and outcome.error is None]
    scaled_reads = [latency / factor for latency, factor in reads]
    raw_reads = [latency for latency, _ in reads]
    cpu_seconds = sum(pause.cpu_seconds)
    raw = {
        "qps": operations / measured.wall,
        "p50_ms": median(raw_reads),
        "p90_ms": tail_percentile(raw_reads, TAIL),
        "server_cpu_ms": cpu_seconds * 1e3 / operations,
        "setup_s": median(setups),
    }
    metrics = {
        "qps": (operations / sum(wall / factor for wall, factor
                                 in zip(measured.walls, factors)), "1/s"),
        "p50_ms": (median(scaled_reads), "ms"),
        "p90_ms": (tail_percentile(scaled_reads, TAIL), "ms"),
        "server_cpu_ms": (sum(cpu / factor for cpu, factor
                              in zip(pause.cpu_seconds, factors))
                          * 1e3 / operations, "ms"),
        "rss_mb": (rss_mib, "MiB"),
        "setup_s": (median(setups) / host_factor(probes), "s"),
    }
    context = {
        "raw": raw,
        "host_factor": host_factor(probes),
        "reads": len(reads),
        "reads_beyond_p90": samples_beyond(len(reads), TAIL),
        "write_p50_ms": write_p50_ms(measured.outcomes),
        "measured_ops": operations,
        "measured_wall_s": measured.wall,
        "block_qps": [round(rate, 2) for rate in measured.block_rates()],
        "server_cpu_s": cpu_seconds,
        # Each process's CPU delta per block is off by a uniform fraction
        # of a tick at either end: an rms error of tick * sqrt(n / 6) over
        # n block-process deltas.
        "cpu_tick_rms_share": math.sqrt(len(measured.blocks) * len(pids) / 6)
        / procstat.CLOCK_TICKS / cpu_seconds,
        "setups_s": setups,
        "host_probe_ms": [round(probe, 2) for probe in probes],
        "mismatches": [outcome.error or "reference mismatch"
                       for outcome in failed][:5],
    }
    return {"attempted": len(warmups) + operations, "failed": len(failed),
            "metrics": metrics, "context": context}
