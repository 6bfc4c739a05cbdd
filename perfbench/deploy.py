"""Spawn and stop the deployment under test as a real subprocess tree."""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from perfbench import procstat

#: Seconds a deployment may take to print its ``listening`` line.
ANNOUNCE_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


def generate_data(cache_root: Path, scale: dict) -> Path:
    """The workload's sales instance as CSV (input preparation, untimed).

    The instance depends only on ``scale`` (sizes, null rate and
    ``instance_seed``), so it is generated once per checkout and reused.
    """
    from repro.datagen.experiments import ExperimentScale, generate_sales_database
    from repro.relational.csv_io import save_database

    sizes = {key: value for key, value in scale.items() if key != "instance_seed"}
    name = "-".join(f"{key}{value}" for key, value in sorted(scale.items()))
    directory = cache_root / f"data-{name}"
    if not directory.is_dir():
        staging = cache_root / f".staging-{name}-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        database = generate_sales_database(ExperimentScale(**sizes),
                                           rng=scale["instance_seed"])
        save_database(database, staging)
        staging.rename(directory)
    return directory


class Deployment:
    """``repro server`` with default serving flags, as a subprocess."""

    def __init__(self, data_dir: Path, src_dir: Path, log_path: Path) -> None:
        self.argv = [sys.executable, "-m", "repro.cli", "server",
                     "--data", str(data_dir), "--port", "0"]
        self._src_dir = src_dir
        self._log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.pids: list[int] = []

    def start(self) -> float:
        """Spawn and wait for the announce line; returns the spawn instant."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self._src_dir)
        started = time.perf_counter()
        with open(self._log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=log, env=env,
                start_new_session=True)
        line = self._read_announce()
        addresses = dict(part.split("=", 1) for part in line.split()[1:])
        self.port = int(addresses["tcp"].rsplit(":", 1)[1])
        return started

    def _read_announce(self) -> str:
        assert self.process is not None and self.process.stdout is not None
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise RuntimeError("deployment did not announce in time")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    self.stop()
                    raise RuntimeError(
                        f"deployment exited before announcing; see {self._log_path}")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if not line.startswith("listening tcp="):
            self.stop()
            raise RuntimeError(f"unexpected announce line {line!r}")
        return line

    def server_pids(self) -> list[int]:
        """The server process and any live descendants it spawned."""
        assert self.process is not None
        self.pids = procstat.descendants(self.process.pid)
        return self.pids

    def stop(self) -> None:
        """SIGTERM-drain, then SIGKILL whatever of the tree is left."""
        if self.process is None:
            return
        known = set(self.pids) | {self.process.pid}
        if self.process.poll() is None:
            known |= set(procstat.descendants(self.process.pid))
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in known - {self.process.pid}:
            while procstat.alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self.process = None
