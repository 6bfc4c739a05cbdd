"""Host speed: a fixed probe timed through each run, and the CPU pin.

A shared 2-vCPU virtual machine can change speed by up to 2x over
seconds to minutes, and the server's CPU per request changes with it
(guest steal time stays near zero, so the CPU itself is slower).  A run
therefore measures its host as well as the program: the client, the
server and the probe all run on one CPU (:func:`pin_to_one_cpu`), the
probe is timed at every block edge, and each block's times are
expressed for a reference host on which the probe takes
:data:`REFERENCE_PROBE_MS` (:func:`interval_factors`).

The probe is timed in thread CPU time, so a server process that keeps
the shared CPU busy between blocks cannot lengthen it: only the host's
speed can.  It corrects only part of a change of host speed: when the
probe ran a third faster, the server ran about 60% faster.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Sequence

import numpy as np

#: Probe time on the reference host, ms of thread CPU.  It only fixes the
#: scale of the reported figures (about a 2-vCPU Xeon VM in a quiet stretch).
REFERENCE_PROBE_MS = 40.0


def pin_to_one_cpu() -> int:
    """Restrict this process, and every process it spawns after this, to
    the lowest CPU of its allowed set; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_probe_ms() -> float:
    """Thread CPU milliseconds of one fixed, deterministic unit of work."""
    started = time.thread_time()
    total = 0
    for index in range(300_000):
        total += index * index % 7
    rng = np.random.default_rng(12345)
    matrix = rng.standard_normal((160, 160))
    for _ in range(20):
        matrix = np.tanh(matrix @ matrix.T / 160.0)
    samples = rng.random((100_000, 4)).sum(axis=1)
    checksum = total + float(matrix.sum()) + float((samples < 2.0).mean())
    elapsed = (time.thread_time() - started) * 1e3
    if not np.isfinite(checksum):  # keeps the work observable
        raise RuntimeError("host probe diverged")
    return elapsed


def host_factor(probes_ms: Sequence[float]) -> float:
    """How many times slower than the reference host the host was while
    these probes ran: their median over :data:`REFERENCE_PROBE_MS`."""
    return median(probes_ms) / REFERENCE_PROBE_MS


def interval_factors(probes_ms: Sequence[float]) -> list[float]:
    """The host factor of each interval between consecutive probes: the
    mean of the two probes around it over :data:`REFERENCE_PROBE_MS`."""
    return [host_factor(pair) for pair in zip(probes_ms, probes_ms[1:])]
