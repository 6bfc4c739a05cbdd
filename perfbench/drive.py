"""Closed-loop client load over one connection: every request waits for
its answer before the next is sent."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from perfbench.workloads import Op


@dataclass
class Outcome:
    """One operation as the client saw it."""

    op: Op
    seconds: float
    result: Any = None
    error: Optional[str] = None


def run_op(client, op: Op) -> Outcome:
    """Send one operation and wait for its terminal event."""
    started = time.perf_counter()
    try:
        if op.kind == "read":
            result = client.query(op.sql, **op.request_options())
        else:
            result = client.mutate(op.sql)
    except Exception as error:  # typed server error or transport failure
        return Outcome(op, time.perf_counter() - started,
                       error=f"{type(error).__name__}: {error}")
    return Outcome(op, time.perf_counter() - started, result=result)


def block_ranges(length: int, cycle: int, blocks: int) -> list[range]:
    """Split ``length`` ops into at most ``blocks`` runs of whole cycles
    whose sizes differ by at most one cycle."""
    cycles = length // cycle
    blocks = max(1, min(blocks, cycles))
    edges = [index * cycles // blocks * cycle for index in range(blocks)]
    return [range(start, end) for start, end in zip(edges, edges[1:] + [length])]


@dataclass
class Phase:
    """A replayed sequence: outcomes in order, and per block its op range
    and wall time."""

    outcomes: list[Outcome]
    blocks: list[range]
    walls: list[float]

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def block_rates(self) -> list[float]:
        """Completed operations per second of each block (context: every
        block does the same work, so a slower one shows host or program
        stalls)."""
        return [len(block) / wall for block, wall in zip(self.blocks, self.walls)]


def run_closed_loop(port: int, ops: Sequence[Op], cycle: int = 1,
                    blocks: int = 1,
                    pause: Callable[[list[Outcome]], None] = lambda block: None,
                    host: str = "127.0.0.1") -> Phase:
    """Replay ``ops`` over one connection, each waiting for its answer.

    The sequence runs as consecutive blocks of whole ``cycle``-op cycles
    (see :func:`block_ranges`), each timed on its own.  ``pause(block)``
    runs after each block with its outcomes, outside the timed spans.
    """
    from repro.client import ReproClient

    chunks = block_ranges(len(ops), cycle, blocks)
    outcomes: list[Outcome] = []
    walls: list[float] = []
    client = ReproClient(host, port)
    try:
        for chunk in chunks:
            started = time.perf_counter()
            block = [run_op(client, ops[index]) for index in chunk]
            walls.append(time.perf_counter() - started)
            outcomes += block
            pause(block)
    finally:
        client.close()
    return Phase(outcomes, chunks, walls)
