"""Workload specifications and their seeded operation sequences.

``workloads.json`` beside this file is the single source of each
workload's sizes and provenance; this module turns a
workload plus ``--seed`` and ``--seconds`` into the exact list of
operations a run replays.  The same arguments always give the same list.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SPEC_PATH = Path(__file__).with_name("workloads.json")

#: Error level of every read (one of Figure 1's settings).
EPSILON = 0.05
#: The measured phase runs as up to this many blocks of whole cycles, with
#: a host probe between consecutive blocks; each block's rate is printed
#: as context.
MAX_BLOCKS = 40
#: Reads the measured phase must hold at least (p90 keeps ten beyond it).
MIN_READS = 100
#: INSERT/DELETE pairs the traced run sends after the steady prefix of a
#: read-only workload, so every ledger has mutation-layer figures.
WRITE_PROBE_PAIRS = 20


@dataclass(frozen=True)
class Op:
    """One client operation: a query (``kind == "read"``) or a mutation."""

    kind: str
    sql: str
    epsilon: Optional[float] = None
    seed: Optional[int] = None

    def request_options(self) -> dict:
        return {"epsilon": self.epsilon, "seed": self.seed}

    def key(self) -> tuple:
        return (self.kind, self.sql, self.epsilon, self.seed)


@dataclass(frozen=True)
class Plan:
    """Everything one run of a workload sends, in order."""

    name: str
    spec: dict
    warmup: tuple[Op, ...]
    measured: tuple[Op, ...]
    write_probe: tuple[Op, ...]
    cycle: int

    @property
    def blocks(self) -> int:
        return min(MAX_BLOCKS, len(self.measured) // self.cycle)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workload_names() -> list[str]:
    return list(load_spec()["workloads"])


def _queries() -> list[tuple[str, str]]:
    from repro.datagen.experiments import EXPERIMENT_QUERIES
    return sorted(EXPERIMENT_QUERIES.items())


def _write_pairs(prefix: str, count: int) -> list[tuple[Op, Op]]:
    """INSERT/DELETE pairs of an Orders row for product ``p0`` with a
    ``NULL`` quantity; only the row id (``prefix`` + index) varies.

    ``p0`` is an answer of ``never_knowingly_undersold`` on every
    instance the workloads use, so a read between the two statements puts
    the row's fresh marked null into a cached certainty result and the
    DELETE evicts it.  The row is the same apart from its id, so what a
    pair costs does not depend on the seed.
    """
    pairs = []
    for index in range(count):
        row_id = f"{prefix}{index}"
        pairs.append((
            Op("write", f"INSERT INTO Orders VALUES ('{row_id}', 'p0', NULL, 5.0)"),
            Op("write", f"DELETE FROM Orders WHERE id = '{row_id}'")))
    return pairs


def _cycles(spec: dict, seconds: float, cycle: int, reads_per_cycle: int) -> int:
    """Whole cycles sized from the nominal rate, with the p90 floor."""
    wanted = math.ceil(spec["nominal_ops_per_second"] * seconds / cycle)
    floor = math.ceil(MIN_READS / reads_per_cycle)
    return max(wanted, floor, 1)


def build_plan(name: str, seed: int, seconds: float) -> Plan:
    """The operation sequence of workload ``name`` for ``seed``/``seconds``."""
    spec = load_spec()["workloads"][name]
    request_seed = random.Random(f"perfbench/{name}/{seed}").randrange(1, 2 ** 31)
    hot = [Op("read", sql, EPSILON, request_seed) for _, sql in _queries()]
    kind = spec["kind"]
    probe = tuple(op for pair in _write_pairs(f"wp{seed}x", WRITE_PROBE_PAIRS)
                  for op in pair)

    if kind == "hot":
        cycle = len(hot)
        count = _cycles(spec, seconds, cycle, cycle)
        return Plan(name, spec, tuple(hot), tuple(hot * count), probe, cycle)

    if kind == "writes":
        # After each write the three queries are read once: the two that
        # join Orders re-plan, competitive_advantage stays warm.  Two thirds
        # of the reads re-plan, so p50 and p90 both fall inside the re-plan
        # mode, well clear of the warm one.
        reads = hot
        cycle = 2 * (1 + len(reads))
        count = _cycles(spec, seconds, cycle, 2 * len(reads))
        # One row, inserted and deleted in every cycle: the table returns
        # to the same content each time, and the DELETE evicts the results
        # the read pass cached for the row, so every cycle (and every
        # block of cycles) does the same work.
        [(insert, delete)] = _write_pairs(f"wm{seed}x", 1)
        measured = [insert, *reads, delete, *reads] * count
        return Plan(name, spec, tuple(hot), tuple(measured), (), cycle)

    raise ValueError(f"unknown workload kind {kind!r}")
