"""Parallel task execution with serial-identical results.

Two pools live here, for the two shapes of parallelism the service uses:

* **threads** (:func:`run_tasks`) -- the PR 2 executor.  The service's
  Monte-Carlo work units run as closures over its shared caches; NumPy
  kernels release the GIL, so threads overlap them without any pickling.
* **processes** (:func:`process_map`) -- the same work units when the
  service is configured with ``executor="process"``.  They are CPU-bound
  Python+NumPy mixes whose Python share the GIL serialises; a
  ``ProcessPoolExecutor`` spans cores instead.  Process tasks must be
  module-level functions over picklable payloads.

Determinism is preserved by construction in both pools: every task derives
its own random stream from a content-keyed ``SeedSequence`` spawn
(:mod:`repro.service.rng`), so a task's result is independent of *which*
worker runs it and *when*, and both pools return results in task order.
``jobs=N`` is therefore bit-identical to ``jobs=1`` under either executor.

The process pool is created lazily, prefers the ``fork`` start method where
available (workers inherit the parent's imports; start-up is milliseconds,
not an interpreter boot per task wave) and is kept alive for reuse across
requests; :func:`shutdown_pools` tears it down, and ``atexit`` does so as a
backstop.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")
P = TypeVar("P")

#: Executor kinds the service accepts for its Monte-Carlo phase.
EXECUTORS = ("thread", "process")


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``sched_getaffinity`` respects container/cgroup CPU masks where
    ``os.cpu_count()`` reports the whole host -- the difference is exactly
    the 1-core-host regression BENCH_PR4 documented, so ``jobs=0`` must
    see the real budget.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return max(1, os.cpu_count() or 1)


def default_jobs() -> int:
    """A sensible worker count for ``jobs=0`` ("use all cores") requests."""
    return available_cpus()


def run_tasks(tasks: Sequence[Callable[[], T]], jobs: int = 1) -> list[T]:
    """Run ``tasks`` and return their results in task order.

    ``jobs <= 1`` runs inline (no pool, no thread switches); ``jobs == 0``
    uses one worker per CPU.  Exceptions propagate to the caller either way.
    """
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


# -- the shared process pool -------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _context():
    """The multiprocessing start method backing the pool.

    ``fork`` keeps worker start-up at COW speed and lets workers inherit
    already-imported NumPy/SciPy; where it is unavailable (Windows, or
    macOS defaults) the platform default applies and payload shipping
    simply costs a little more.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers < workers:
            if _pool is not None:
                _pool.shutdown(wait=True)
            _pool = ProcessPoolExecutor(max_workers=workers,
                                        mp_context=_context())
            _pool_workers = workers
        return _pool


def shutdown_pools() -> None:
    """Tear down the shared process pool (tests, interpreter exit)."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
            _pool_workers = 0


atexit.register(shutdown_pools)


def process_map(function: Callable[[P], T], payloads: Sequence[P],
                jobs: int = 1) -> list[T]:
    """Map a module-level ``function`` over ``payloads`` across processes.

    Results come back in payload order, so callers see serial semantics.
    ``jobs <= 1`` (or a single payload) runs inline without touching the
    pool; ``jobs == 0`` uses one worker per CPU.  Payloads are split
    evenly over the workers, one round-trip per worker.  The first worker
    exception propagates, as with the thread executor.
    """
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(payloads) <= 1:
        return [function(payload) for payload in payloads]
    workers = min(jobs, len(payloads))
    chunksize = max(1, -(-len(payloads) // workers))
    pool = _shared_pool(workers)
    try:
        return list(pool.map(function, payloads, chunksize=chunksize))
    except BrokenProcessPool:
        # A worker died (OOM kill, signal).  Drop the poisoned pool and run
        # inline: slower, deterministic, never wrong.
        shutdown_pools()
        return [function(payload) for payload in payloads]
