"""Run a whole cluster inside the current process, on daemon threads.

The cluster analogue of :class:`~repro.server.embedded.EmbeddedServer`,
for tests and benchmarks that need "a real coordinator fronting real
workers on real sockets" without shelling out:

* **in-process workers** (``services=[...]``): each
  :class:`~repro.service.AnnotationService` gets its own
  :class:`EmbeddedServer` (TCP-only) on its own event-loop thread -- a
  faithful stand-in for a worker process, reachable only through the
  socket, but cheap enough that a differential test can run a 3-worker
  fleet per case.  Tests can stop one mid-run to exercise failover and
  hand the coordinator a fresh one to exercise join-replay.
* **subprocess workers** (``worker_argv=..., workers=N``): real
  ``repro server`` child processes via :class:`LocalWorker`, supervised
  and respawnable -- what the smoke/soak harnesses and the scaling bench
  drive.

Either way the coordinator itself is served by a front
:class:`EmbeddedServer` (``app=coordinator``) on a background thread, so
clients connect to ``host:port`` exactly as they would to ``repro cluster
start``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.coordinator import CoordinatorApp
from repro.cluster.workers import LocalWorker, WorkerEndpoint
from repro.server.embedded import EmbeddedServer
from repro.server.protocol import defaults_from_options


class EmbeddedCluster:
    """Coordinator + N workers, all inside this process."""

    def __init__(self, services: Sequence = (), *,
                 worker_argv: Optional[Sequence[str]] = None,
                 workers: int = 0,
                 defaults: Optional[dict] = None,
                 host: str = "127.0.0.1", http: bool = True,
                 max_pending: int = 256,
                 health_interval: float = 0.25,
                 supervise: bool = True,
                 drain_timeout: float = 30.0,
                 observe: bool = True) -> None:
        if services and worker_argv:
            raise ValueError("pass services OR worker_argv, not both")
        if not services and not worker_argv:
            raise ValueError("pass in-process services or a worker argv")
        self._services = list(services)
        self._worker_argv = list(worker_argv) if worker_argv else None
        self._worker_count = workers
        if defaults is None and self._services:
            defaults = defaults_from_options(self._services[0].options)
        self._defaults = defaults or {}
        self._host = host
        self._http = http
        self._max_pending = max_pending
        self._health_interval = health_interval
        self._supervise = supervise
        self._drain_timeout = drain_timeout
        self._observe = observe

        self.worker_servers: dict[str, EmbeddedServer] = {}
        self._locals: list[LocalWorker] = []
        self._front: Optional[EmbeddedServer] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EmbeddedCluster":
        assert self._front is None, "cluster already started"
        endpoints: list[WorkerEndpoint] = []
        if self._services:
            for index, service in enumerate(self._services):
                worker_id = f"w{index}"
                server = EmbeddedServer(service, host=self._host, http=False,
                                        observe=self._observe).start()
                self.worker_servers[worker_id] = server
                endpoints.append(WorkerEndpoint(worker_id, server.host,
                                                server.port))
        else:
            for index in range(self._worker_count):
                worker = LocalWorker(f"w{index}", list(self._worker_argv))
                worker.spawn()
                self._locals.append(worker)
        self.coordinator = CoordinatorApp(
            endpoints, locals_=self._locals,
            defaults=self._defaults,
            max_pending=self._max_pending,
            health_interval=self._health_interval,
            supervise=self._supervise,
            worker_template=self._worker_argv,
            observe=self._observe)
        self._front = EmbeddedServer(
            app=self.coordinator, host=self._host, http=self._http,
            drain_timeout=self._drain_timeout)
        try:
            self._front.start()
        except BaseException:
            self.stop_workers()
            raise
        return self

    def stop(self, timeout: float = 120.0) -> bool:
        """Drain the front door (which stops local workers), then the
        in-process worker servers."""
        clean = self._front.stop(timeout)
        self.stop_workers()
        return clean

    def stop_workers(self) -> None:
        for server in self.worker_servers.values():
            try:
                server.stop()
            except Exception:  # already stopped or never came up
                pass
        self.worker_servers.clear()
        for worker in self._locals:
            worker.kill()

    def __enter__(self) -> "EmbeddedCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addresses and test helpers ------------------------------------------

    @property
    def host(self) -> str:
        return self._front.host

    @property
    def port(self) -> int:
        return self._front.port

    @property
    def http_port(self) -> Optional[int]:
        return self._front.http_port

    def submit(self, coroutine, timeout: float = 60.0):
        """Run a coroutine on the coordinator's event loop (tests drive
        admin operations and introspection through this)."""
        return self._front.submit(coroutine, timeout)

    def route_of(self, sql: str) -> Optional[str]:
        """The worker id currently owning a query's family."""
        async def _probe():
            return self.coordinator.route_of(sql)
        return self.submit(_probe())

    def stop_worker(self, worker_id: str) -> None:
        """Take one in-process worker down (drain its embedded server);
        the coordinator notices on the next request or health tick."""
        server = self.worker_servers.pop(worker_id)
        server.stop()

    def add_worker(self, worker_id: str, service) -> None:
        """Bring up a fresh in-process worker (a restart: the service must
        be rebuilt from seed data, exactly like a real process would) and
        have the coordinator replay it the mutation log before it joins."""
        server = EmbeddedServer(service, host=self._host, http=False,
                                observe=self._observe).start()
        self.worker_servers[worker_id] = server
        self.submit(self.coordinator.add_worker(
            WorkerEndpoint(worker_id, server.host, server.port)))
