"""Server-side resource accounting from ``/proc`` (no psutil).

CPU is ``utime + stime`` from ``/proc/<pid>/stat`` (all threads of the
process, in clock ticks); peak memory is ``VmHWM`` from
``/proc/<pid>/status``.  A deployment is a root process plus every
descendant (the coordinator and its worker children), found by walking
parent pids.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

#: Clock ticks per second of the ``stat`` CPU fields (100 on Linux).
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def parse_stat(text: str) -> dict:
    """The fields of one ``/proc/<pid>/stat`` line this benchmark uses.

    The command name (field 2) sits in parentheses and may itself contain
    spaces or parentheses, so the fixed fields are split off after the
    *last* closing parenthesis.
    """
    tail = text[text.rindex(")") + 2:].split()
    # tail[0] is field 3 (state); field N lives at tail[N - 3].
    return {"state": tail[0], "ppid": int(tail[1]), "utime": int(tail[11]),
            "stime": int(tail[12])}


def parse_vmhwm_kib(text: str) -> int:
    """Peak resident set size (``VmHWM``) in KiB from a ``status`` file."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line in status text")


def _read(pid: int, name: str) -> str:
    return Path(f"/proc/{pid}/{name}").read_text()


def alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not exited, not zombie) process."""
    try:
        return parse_stat(_read(pid, "stat"))["state"] not in ("Z", "X")
    except OSError:
        return False


def descendants(root: int) -> list[int]:
    """``root`` and every live descendant process, root first."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = parse_stat(_read(int(entry), "stat"))["ppid"]
        except (OSError, ValueError, IndexError):
            continue  # exited while scanning
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [root], [root]
    while frontier:
        pid = frontier.pop()
        for child in sorted(children.get(pid, ())):
            found.append(child)
            frontier.append(child)
    return found


def cpu_ticks(pids: Iterable[int]) -> dict[int, int]:
    """``utime + stime`` per pid (processes that already exited are skipped)."""
    ticks: dict[int, int] = {}
    for pid in pids:
        try:
            fields = parse_stat(_read(pid, "stat"))
        except OSError:
            continue
        ticks[pid] = fields["utime"] + fields["stime"]
    return ticks


def cpu_seconds_between(before: dict[int, int], after: dict[int, int]) -> float:
    """CPU seconds spent between two :func:`cpu_ticks` snapshots.

    A process born in between counts from zero; one gone by ``after`` is
    a measurement error (a server process died mid-run), so it raises.
    """
    missing = set(before) - set(after)
    if missing:
        raise RuntimeError(f"server processes exited mid-run: {sorted(missing)}")
    total = sum(after[pid] - before.get(pid, 0) for pid in after)
    return total / CLOCK_TICKS


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` of ``pids`` in MiB."""
    return sum(parse_vmhwm_kib(_read(pid, "status")) for pid in pids) / 1024.0
