"""The distributed serving tier: a coordinator fronting N workers.

One ``repro server`` process was made fast in PR 5; this package makes
*many* of them serve as one system.  :class:`CoordinatorApp` speaks the
same app interface the network front end already serves, so the whole
fleet sits behind one TCP/HTTP door with consistent-hash cache-affine
routing, cluster-wide single-flight, barrier-ordered mutation broadcast,
health-checked failover, and rolling restarts.
"""

from repro.cluster.coordinator import (
    CoordinatorApp,
    WorkerLink,
    WorkerUnavailable,
)
from repro.cluster.embedded import EmbeddedCluster
from repro.cluster.hashring import DEFAULT_REPLICAS, HashRing, family_digest
from repro.cluster.workers import (
    LocalWorker,
    WorkerEndpoint,
    WorkerSpawnError,
    parse_worker_addr,
    worker_argv,
)
from repro.server.protocol import defaults_from_options

__all__ = [
    "CoordinatorApp",
    "DEFAULT_REPLICAS",
    "EmbeddedCluster",
    "HashRing",
    "LocalWorker",
    "WorkerEndpoint",
    "WorkerLink",
    "WorkerSpawnError",
    "WorkerUnavailable",
    "defaults_from_options",
    "family_digest",
    "parse_worker_addr",
    "worker_argv",
]
