"""The ring-buffered slow-query log: "why was that query slow?" after the fact.

A bounded ring of the most recent requests, snapshotted as the top-K by
latency.  Each entry keeps the normalised SQL (truncated), the request's
wall-clock latency, and the per-phase span breakdown
(:meth:`~repro.obs.trace.Trace.phase_totals`), so the answer to "where did
the time go" survives the request itself.  Because the buffer is a ring,
one historic spike ages out instead of pinning the log forever -- the log
answers for *recent* traffic, which is what an operator staring at a live
server needs.

Visible in the ``\\stats`` REPL report, ``GET /stats``, and ``repro top``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

#: Longest SQL text kept per entry (keys the log's memory bound).
MAX_SQL_CHARS = 200


@dataclass(frozen=True)
class SlowQuery:
    """One logged request with its latency breakdown."""

    sql: str
    elapsed_seconds: float
    #: Wall-clock completion time (``time.time()``).
    finished_at: float
    candidates: int = 0
    groups: int = 0
    #: Span-name -> total seconds (``Trace.phase_totals``); empty when the
    #: request ran without a trace.
    phases: dict = field(default_factory=dict)
    #: The distributed trace id this request ran under (``None`` when it
    #: ran untraced) -- the jump-off point from a slowlog line to
    #: ``repro cluster trace`` / ``GET /trace?id=...``.
    trace_id: Optional[str] = None
    #: Where a server served the request: ``"loop"`` (answered from the
    #: caches on the event loop) or ``"pool"``; ``None`` outside a server.
    path: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "sql": self.sql,
            "elapsed_seconds": self.elapsed_seconds,
            "finished_at": self.finished_at,
            "candidates": self.candidates,
            "groups": self.groups,
            "phases": {name: round(seconds, 6)
                       for name, seconds in sorted(self.phases.items())},
            "trace_id": self.trace_id,
            "path": self.path,
        }


class SlowQueryLog:
    """Thread-safe ring of recent requests, reported as top-K by latency."""

    def __init__(self, window: int = 128, top_k: int = 10) -> None:
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        self._window = window
        self._top_k = top_k
        self._ring: deque[SlowQuery] = deque(maxlen=window)
        self._lock = threading.Lock()
        self._recorded = 0

    @property
    def top_k(self) -> int:
        return self._top_k

    def record(self, sql: str, elapsed_seconds: float, *,
               candidates: int = 0, groups: int = 0,
               phases: Optional[dict] = None,
               trace_id: Optional[str] = None,
               path: Optional[str] = None) -> None:
        entry = SlowQuery(
            sql=sql[:MAX_SQL_CHARS],
            elapsed_seconds=elapsed_seconds,
            finished_at=time.time(),
            candidates=candidates,
            groups=groups,
            phases=dict(phases) if phases else {},
            trace_id=trace_id,
            path=path,
        )
        with self._lock:
            self._ring.append(entry)
            self._recorded += 1

    def snapshot(self, k: Optional[int] = None) -> tuple[SlowQuery, ...]:
        """The top-``k`` slowest requests still in the ring, slowest first."""
        if k is None:
            k = self._top_k
        with self._lock:
            entries = list(self._ring)
        entries.sort(key=lambda entry: entry.elapsed_seconds, reverse=True)
        return tuple(entries[:k])

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def recorded(self) -> int:
        """Lifetime count of recorded requests (the ring may have dropped
        older ones)."""
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
