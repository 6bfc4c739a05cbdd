"""Query-serving subsystem: cached, parallel, adaptive-precision annotation.

The paper's end-to-end story is "SQL in, certainty-annotated answers out";
this package is the layer that makes that story *servable*.  Where the
engine's annotate loop re-parses, re-plans and re-samples every request from
scratch, :class:`AnnotationService` amortises each stage:

* :mod:`repro.service.canonical` -- null-renaming-invariant canonical forms
  of lineage formulae, the key under which work is shared;
* :mod:`repro.service.scheduler` -- batching of candidate tuples that share
  a formula skeleton into one kernel invocation;
* :mod:`repro.service.rng` -- ``SeedSequence``-spawned per-task streams
  keyed by lineage digest, making parallel runs bit-identical to serial;
* :mod:`repro.service.executor` -- the ``--jobs N`` thread pool;
* :mod:`repro.service.adaptive` -- coarse-to-fine estimation streaming
  monotonically tightening confidence intervals;
* :mod:`repro.service.service` -- the :class:`AnnotationService` façade
  tying the lifecycle together behind parse/plan/result LRU caches.

``repro.engine.annotate`` and the ``repro`` CLI (including ``repro serve``)
are thin wrappers over this package.
"""

from repro.caching import CacheStats, LruCache, SingleFlight, SingleFlightStats
from repro.service.adaptive import (
    AdaptiveUpdate,
    adaptive_certainty,
    adaptive_schedule,
    intersect_intervals,
)
from repro.service.answers import AnnotatedAnswer
from repro.service.canonical import (
    CanonicalisationError,
    CanonicalLineage,
    canonicalise,
    canonicalise_lineage,
)
from repro.service.executor import (
    EXECUTORS,
    available_cpus,
    process_map,
    run_tasks,
    shutdown_pools,
)
from repro.service.rng import root_sequence, spawn_stream
from repro.service.scheduler import TaskGroup, build_schedule
from repro.service.service import (
    SERVICE_METHODS,
    AnnotationService,
    BackendStats,
    RequestStats,
    ServiceOptions,
    ServiceResponse,
    ServiceStats,
)

__all__ = [
    "EXECUTORS",
    "SERVICE_METHODS",
    "AdaptiveUpdate",
    "AnnotatedAnswer",
    "AnnotationService",
    "BackendStats",
    "CacheStats",
    "CanonicalLineage",
    "CanonicalisationError",
    "LruCache",
    "RequestStats",
    "ServiceOptions",
    "ServiceResponse",
    "ServiceStats",
    "SingleFlight",
    "SingleFlightStats",
    "TaskGroup",
    "adaptive_certainty",
    "adaptive_schedule",
    "available_cpus",
    "build_schedule",
    "canonicalise",
    "canonicalise_lineage",
    "intersect_intervals",
    "process_map",
    "root_sequence",
    "run_tasks",
    "shutdown_pools",
    "spawn_stream",
]
