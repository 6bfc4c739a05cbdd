"""A dependency-free sampling profiler with collapsed-stack export.

``GET /profile?seconds=N`` answers "where is this process spending its
time *right now*" without py-spy, perf, or any native dependency: a
background thread polls :func:`sys._current_frames` every ``interval``
seconds, walks each thread's frame chain, and counts collapsed stacks --
``outer;middle;inner  count`` lines, the exact input format of Brendan
Gregg's ``flamegraph.pl`` and of speedscope's "collapsed" importer.

Safety properties (why this is fine to run against a serving process):

* **Pure observer.**  The sampler only *reads* frame objects; it never
  traces, patches, or sets ``sys.settrace`` hooks, so the profiled threads
  run at full speed minus GIL contention from the sampler's own wake-ups
  (~100 wake-ups/s at the default 10 ms interval, each microseconds long).
* **Bounded.**  ``seconds`` is clamped to :data:`MAX_SECONDS` and
  ``interval`` floored at :data:`MIN_INTERVAL`, so a fat-fingered request
  cannot pin a sampler thread forever; stack depth is capped at
  :data:`MAX_DEPTH` frames.
* **Torn stacks are acceptable.**  ``sys._current_frames`` returns a
  consistent dict, but a thread may run on while we walk its frames; the
  worst case is one slightly stale sample, which statistical profiles
  absorb by design.  Any frame-walk race that raises is swallowed and the
  sample skipped.

Frames render as ``file.py:function:line`` with spaces stripped, because
the collapsed format separates the count with the *last* space on the
line and stack entries with ``;``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Iterable, Optional

#: Hard ceiling on one profiling run (seconds).
MAX_SECONDS = 60.0

#: Floor on the sampling interval (seconds); ~200 samples/s at most.
MIN_INTERVAL = 0.005

#: Default sampling interval (seconds).
DEFAULT_INTERVAL = 0.01

#: Deepest stack recorded per sample.
MAX_DEPTH = 128


def _frame_label(frame) -> str:
    code = frame.f_code
    name = (f"{os.path.basename(code.co_filename)}:{code.co_name}:"
            f"{frame.f_lineno}")
    return name.replace(" ", "_").replace(";", "_")


def _collapse_frame_chain(frame) -> Optional[str]:
    """One thread's stack as a collapsed ``outer;...;inner`` string."""
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < MAX_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    if not labels:
        return None
    labels.reverse()
    return ";".join(labels)


def sample_stacks(skip_threads: Iterable[int] = ()) -> Counter:
    """One sample of every live thread's stack (collapsed), minus the
    thread ids in ``skip_threads`` (the sampler excludes itself)."""
    skip = set(skip_threads)
    counts: Counter = Counter()
    for thread_id, frame in sys._current_frames().items():
        if thread_id in skip:
            continue
        try:
            stack = _collapse_frame_chain(frame)
        except Exception:  # pragma: no cover - frame mutated mid-walk
            continue
        if stack:
            counts[stack] += 1
    return counts


def _clamp(seconds: float, interval: float) -> tuple[float, float]:
    """``seconds`` within ``[0, MAX_SECONDS]`` and ``interval`` at least
    :data:`MIN_INTERVAL`; a NaN takes the bound (``max``/``min`` return
    their first argument when a comparison with NaN is false)."""
    return (min(MAX_SECONDS, max(0.0, float(seconds))),
            max(MIN_INTERVAL, float(interval)))


def collect_profile(seconds: float,
                    interval: float = DEFAULT_INTERVAL) -> Counter:
    """Sample every thread's stack for ``seconds``; collapsed-stack counts.

    Blocking -- callers on an event loop run this in an executor (which is
    exactly what the ``/profile`` handlers do).
    """
    seconds, interval = _clamp(seconds, interval)
    own_thread = threading.get_ident()
    counts: Counter = Counter()
    deadline = time.monotonic() + seconds
    while True:
        counts.update(sample_stacks(skip_threads=(own_thread,)))
        if time.monotonic() >= deadline:
            return counts
        time.sleep(min(interval, max(deadline - time.monotonic(), 0.0)))


def render_collapsed(counts: Counter) -> str:
    """Counts as ``stack count`` lines, heaviest stacks first."""
    lines = [f"{stack} {count}" for stack, count in
             sorted(counts.items(), key=lambda item: (-item[1], item[0]))]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> Counter:
    """Invert :func:`render_collapsed` (lenient on malformed lines)."""
    counts: Counter = Counter()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count_part = line.rpartition(" ")
        if not stack:
            continue
        try:
            count = int(count_part)
        except ValueError:
            continue
        counts[stack] += count
    return counts


def merge_collapsed(texts: Iterable[str]) -> Counter:
    """Sum identical stacks across several collapsed exports -- how the
    coordinator aggregates one profile over the whole fleet."""
    merged: Counter = Counter()
    for text in texts:
        merged.update(parse_collapsed(text))
    return merged


def profile_payload(seconds: float,
                    interval: float = DEFAULT_INTERVAL) -> dict:
    """Run one profile and package it for the wire."""
    seconds, interval = _clamp(seconds, interval)
    counts = collect_profile(seconds, interval)
    return {
        "seconds": seconds,
        "interval_seconds": interval,
        "samples": int(sum(counts.values())),
        "stacks": len(counts),
        "collapsed": render_collapsed(counts),
    }
