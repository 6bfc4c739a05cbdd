"""The cluster coordinator: one front door over N ``repro server`` workers.

:class:`CoordinatorApp` shares :class:`~repro.server.frontdoor.FrontDoor` with
:class:`~repro.server.app.ServerApp` -- parse, admission, coalescing,
mutation gating, drain -- so the network front end serves a whole fleet
exactly as it serves one process.  What changes is how a flight is led
and how a mutation commits:

* **cache-affine routing** -- each query is keyed by the blake2b digest
  of its normalised SQL (the *query family*) and consistently hashed onto
  the worker fleet (:mod:`repro.cluster.hashring`), so one family always
  lands on the worker whose parse/plan/certainty caches are already warm
  for it, and a worker joining or leaving only moves its own arc;
* **cluster-wide single-flight** -- concurrent identical requests anywhere
  on the front door coalesce onto one forwarded flight (the worker's own
  per-process coalescing still applies underneath for requests that reach
  it by other paths).  Flight keys include the mutation barrier version,
  so a query admitted after a commit never coalesces onto a pre-commit
  flight;
* **mutation broadcast with a monotone barrier** -- writes are serialised
  behind one gate and broadcast to every routable worker; the coordinator
  acknowledges only after every live worker has committed, records the
  statement in an ordered log, and bumps ``barrier_version``.  Reads
  admitted after the ack therefore observe the write on whichever worker
  they route to (readers in flight keep their pinned MVCC snapshots);
* **health + failover** -- workers are pinged on an interval; a worker
  that drops a connection, times out, or answers ``draining``/
  ``overloaded`` fails the request over to the next worker on the ring
  (queries are pure and seeded, so a replay is safe and bit-identical).
  When every worker tried was live and refused, the last refusal is
  relayed as it came (an overloaded fleet is not a dead one).  Locally
  spawned workers are respawned by the supervisor and **replayed**
  the mutation log before rejoining the ring, so a restarted worker
  re-converges on the barrier version instead of serving stale data;
* **fleet aggregation** -- ``stats()`` fans out to every worker and
  returns per-worker rows plus fleet-wide sums (shaped so ``repro top``
  and ``repro client --probe stats`` keep working unchanged);
  ``metrics_text()`` re-exports every worker's Prometheus samples with a
  ``worker="..."`` label plus the coordinator's own families;
* **rolling restart** -- the ``cluster_drain`` op drains local workers one
  at a time (SIGTERM -> exit 0 -> respawn -> replay -> rejoin), keeping
  the fleet serving throughout via the failover path.

The coordinator holds no database and runs no compute: every byte of an
answer is produced by a worker's :class:`~repro.service.AnnotationService`
and forwarded verbatim, which is what makes cluster answers bit-identical
to single-process ones (the differential test asserts exactly this).
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, AsyncIterator, Mapping, Optional, Sequence

from repro.cluster.hashring import DEFAULT_REPLICAS, HashRing, family_digest
from repro.cluster.workers import (
    LocalWorker,
    WorkerEndpoint,
    WorkerSpawnError,
)
from repro.obs.alerts import AlertEvaluator, cluster_slos
from repro.obs.logsetup import get_logger
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry, counters_family
from repro.obs.profiler import (
    DEFAULT_INTERVAL,
    merge_collapsed,
    profile_payload,
    render_collapsed,
)
from repro.obs.propagate import (
    TRACEPARENT_KEY,
    format_traceparent,
    new_context,
)
from repro.obs.trace import Trace, TraceStore, spans_to_chrome
from repro.obs.tsdb import TimeSeriesStore
from repro.server.frontdoor import TERMINAL, Flight, FrontDoor, reply_op
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    defaults_from_options,
    dump_line,
    load_line,
    request_key,
)
from repro.service.service import normalise_sql

logger = get_logger("cluster")

#: Worker error codes that trigger failover instead of a passthrough: the
#: request never started computing, so replaying it elsewhere is free.
_RETRIABLE_CODES = ("draining", "overloaded")

#: Idle connections kept pooled per worker.
_POOL_SIZE = 4

_PING_TIMEOUT = 5.0
_STATS_TIMEOUT = 10.0
_MUTATE_TIMEOUT = 120.0


class WorkerUnavailable(Exception):
    """Transport-level failure talking to one worker."""


class WorkerLink:
    """Coordinator-side handle of one worker: address, state, connections.

    States: ``starting`` (spawned, not yet health-checked), ``healthy``
    (routable), ``draining`` (rolling restart in progress, unroutable),
    ``restarting`` (respawn under way), ``replaying`` (mutation log catch-
    up), ``dead`` (unreachable; stays dead unless a supervisor or an
    operator brings it back).
    """

    def __init__(self, worker_id: str, host: str, port: int, *,
                 local: Optional[LocalWorker] = None) -> None:
        self.id = worker_id
        self.host = host
        self.port = port
        self.local = local
        self.state = "starting"
        self.data_version = 0
        self.last_seen = 0.0
        self._pool: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._next_id = 0

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def routable(self) -> bool:
        return self.state == "healthy"

    @property
    def pid(self) -> Optional[int]:
        return self.local.pid if self.local is not None else None

    def describe(self) -> dict:
        return {
            "id": self.id,
            "addr": self.addr,
            "state": self.state,
            "local": self.local is not None,
            "pid": self.pid,
            "data_version": self.data_version,
        }

    # -- connections ---------------------------------------------------------

    async def _acquire(self):
        if self._pool:
            return self._pool.pop()
        try:
            return await asyncio.open_connection(self.host, self.port,
                                                 limit=MAX_LINE_BYTES)
        except OSError as error:
            raise WorkerUnavailable(f"{self.id}: cannot connect: {error}")

    def _release(self, connection) -> None:
        # Only a routable worker's connections are kept: one released while
        # the worker drains or restarts points at a process about to exit.
        if self.routable and len(self._pool) < _POOL_SIZE:
            self._pool.append(connection)
        else:
            connection[1].close()

    def discard_pool(self) -> None:
        """Close every idle connection (the worker went away or moved)."""
        while self._pool:
            _, writer = self._pool.pop()
            writer.close()

    def _stamp(self, message: Mapping) -> dict:
        self._next_id += 1
        return {**message, "id": self._next_id}

    async def roundtrip(self, message: Mapping,
                        timeout: float = _PING_TIMEOUT) -> dict:
        """One request, one response event (ops with a single reply)."""
        stamped = self._stamp(message)
        connection = await self._acquire()
        reader, writer = connection
        try:
            writer.write(dump_line(stamped))
            await asyncio.wait_for(writer.drain(), timeout)
            line = await asyncio.wait_for(reader.readline(), timeout)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError) as error:
            writer.close()
            raise WorkerUnavailable(f"{self.id}: {error!r}")
        if not line:
            writer.close()
            raise WorkerUnavailable(f"{self.id}: connection closed")
        try:
            event = load_line(line)
        except ProtocolError as error:
            writer.close()
            raise WorkerUnavailable(f"{self.id}: garbled response: {error}")
        self._release(connection)
        return event

    async def events(self, message: Mapping) -> AsyncIterator[dict]:
        """Stream a forwarded request's events until its terminal one."""
        stamped = self._stamp(message)
        connection = await self._acquire()
        reader, writer = connection
        try:
            writer.write(dump_line(stamped))
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    raise WorkerUnavailable(
                        f"{self.id}: connection closed mid-request")
                event = load_line(line)
                yield event
                if event.get("type") in TERMINAL:
                    break
        except (OSError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError) as error:
            writer.close()
            raise WorkerUnavailable(f"{self.id}: {error!r}")
        except ProtocolError as error:
            writer.close()
            raise WorkerUnavailable(f"{self.id}: garbled event: {error}")
        except BaseException:
            # Generator abandoned (or cancelled) mid-stream: the connection
            # still carries unread frames, so it cannot be pooled.
            writer.close()
            raise
        else:
            self._release(connection)


class CoordinatorApp(FrontDoor):
    """Transport-independent cluster serving over a fleet of workers."""

    name = "cluster"

    def __init__(self, endpoints: Sequence[WorkerEndpoint] = (), *,
                 locals_: Sequence[LocalWorker] = (),
                 defaults: Optional[Mapping[str, Any]] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 max_pending: int = 256,
                 health_interval: float = 1.0,
                 supervise: bool = True,
                 worker_template: Optional[Sequence[str]] = None,
                 observe: bool = True) -> None:
        super().__init__(defaults or defaults_from_options(),
                         max_pending=max_pending)
        self._workers: dict[str, WorkerLink] = {}
        self._ring = HashRing(replicas=replicas)
        for local in locals_:
            link = WorkerLink(local.worker_id, local.host, local.port,
                              local=local)
            self._workers[link.id] = link
        for endpoint in endpoints:
            link = WorkerLink(endpoint.worker_id, endpoint.host, endpoint.port)
            self._workers[link.id] = link
        self._health_interval = health_interval
        self._supervise = supervise
        #: argv template for scale-up spawns (None disables ``cluster_scale``
        #: growth -- remote-only clusters have nothing to spawn from).
        self._worker_template = (list(worker_template)
                                 if worker_template else None)
        self._spawned = sum(1 for w in self._workers.values()
                            if w.local is not None)

        self._admin_gate = asyncio.Lock()
        self._log: list[str] = []
        self._barrier_version = 0
        self._closing = False
        self._health_task: Optional[asyncio.Task] = None
        self._respawn_tasks: dict[str, asyncio.Task] = {}

        # Cluster lifetime counters (event-loop only) on top of the door's.
        self._failovers = 0
        self._worker_deaths = 0
        self._respawns = 0
        self._replayed_statements = 0
        self._routed: dict[str, int] = {w: 0 for w in self._workers}
        #: SLO-relevant front-door errors; the kinds mirror what
        #: :func:`repro.obs.alerts.cluster_slos` counts as bad events.
        self._errors_by_kind = {"internal": 0, "unavailable": 0}

        # Cluster-level observability (zero-cost when off: no registry, no
        # snapshot thread, no tracing -- the forwarded messages are byte-
        # identical to the pre-observability wire shape).
        self._observe = observe
        if observe:
            self._metrics: Optional[MetricsRegistry] = MetricsRegistry()
            self._metrics.register_collector(self._metric_families)
            self._request_seconds = self._metrics.histogram(
                "repro_cluster_request_seconds",
                "Front-door query latency (admission to terminal event)",
                buckets=LATENCY_BUCKETS)
            self._tsdb = TimeSeriesStore(self._metrics)
            self._alert_evaluator = AlertEvaluator(cluster_slos())
            self._trace_store: Optional[TraceStore] = TraceStore()
        else:
            self._metrics = None
            self._request_seconds = None
            self._trace_store = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, deadline: float = 30.0) -> None:
        """Health-check every worker into the ring; start the supervisor."""
        await asyncio.gather(*(self._await_healthy(link, deadline)
                               for link in self._workers.values()))
        healthy = [w.id for w in self._workers.values() if w.routable]
        if not healthy:
            raise WorkerSpawnError("no worker became healthy")
        logger.info("cluster up", extra={
            "workers": len(self._workers), "healthy": len(healthy)})
        self._health_task = asyncio.ensure_future(self._health_loop())
        await super().start()

    async def _probe(self, link: WorkerLink, deadline: float) -> bool:
        """Poll one worker's health op until it answers or time runs out."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            try:
                event = await link.roundtrip({"op": "health"})
            except WorkerUnavailable:
                await asyncio.sleep(0.1)
                continue
            if event.get("status") == "ok":
                return True
            await asyncio.sleep(0.1)
        return False

    async def _await_healthy(self, link: WorkerLink, deadline: float) -> None:
        if await self._probe(link, deadline):
            link.state = "healthy"
            link.last_seen = time.monotonic()
            self._ring.add(link.id)
            return
        link.state = "dead"
        logger.warning("worker never became healthy",
                       extra={"worker": link.id})

    async def _health_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self._health_interval)
            links = [w for w in self._workers.values()
                     if w.state in ("healthy", "starting")]
            await asyncio.gather(*(self._check(link) for link in links),
                                 return_exceptions=True)

    async def _check(self, link: WorkerLink) -> None:
        try:
            event = await link.roundtrip({"op": "health"})
        except WorkerUnavailable:
            self._mark_unavailable(link)
            return
        link.last_seen = time.monotonic()
        if link.state == "starting" and event.get("status") == "ok":
            link.state = "healthy"
            self._ring.add(link.id)

    def _mark_unavailable(self, link: WorkerLink) -> None:
        """Take a worker out of rotation; respawn it if it is ours."""
        if link.state in ("dead", "restarting", "replaying", "draining"):
            return
        link.state = "dead"
        link.discard_pool()
        self._worker_deaths += 1
        logger.warning("worker unavailable", extra={"worker": link.id})
        if self._supervise and link.local is not None and not self._closing:
            self._schedule_respawn(link)

    def _schedule_respawn(self, link: WorkerLink) -> None:
        existing = self._respawn_tasks.get(link.id)
        if existing is not None and not existing.done():
            return
        self._respawn_tasks[link.id] = asyncio.ensure_future(
            self._respawn(link))

    async def _respawn(self, link: WorkerLink) -> None:
        link.state = "restarting"
        loop = asyncio.get_running_loop()
        for attempt in range(3):
            try:
                port = await loop.run_in_executor(None, link.local.respawn)
            except WorkerSpawnError:
                await asyncio.sleep(0.5 * (attempt + 1))
                continue
            link.port = port
            link.data_version = 0
            link.discard_pool()
            try:
                await self._rejoin(link)
            except WorkerUnavailable:
                continue
            self._respawns += 1
            logger.info("worker respawned", extra={
                "worker": link.id, "port": port,
                "replayed": self._barrier_version})
            return
        link.state = "dead"
        logger.error("worker respawn failed for good",
                     extra={"worker": link.id})

    async def _rejoin(self, link: WorkerLink) -> None:
        """Replay the mutation log, then put the worker back on the ring.

        Holds the mutation gate so no commit interleaves with the replay:
        the log the worker sees is exactly the ordered history every other
        worker committed.
        """
        async with self._mutation_gate:
            link.state = "replaying"
            for statement in self._log[link.data_version:]:
                event = await link.roundtrip({"op": "mutate",
                                              "sql": statement},
                                             timeout=_MUTATE_TIMEOUT)
                if event.get("type") != "mutation":
                    link.state = "dead"
                    raise WorkerUnavailable(
                        f"{link.id}: replay rejected: {event!r}")
                link.data_version = event["data_version"]
                self._replayed_statements += 1
            link.state = "healthy"
            link.last_seen = time.monotonic()
            self._ring.add(link.id)

    async def add_worker(self, endpoint: WorkerEndpoint, *,
                         local: Optional[LocalWorker] = None) -> WorkerLink:
        """Register a (possibly freshly spawned) worker and bring it up.

        The worker joins in state ``joining`` -- unroutable and excluded
        from mutation broadcasts -- until it has replayed the full
        mutation log, so a stale joiner can never serve a stale read or
        skip a commit.
        """
        link = WorkerLink(endpoint.worker_id, endpoint.host, endpoint.port,
                          local=local)
        link.state = "joining"
        self._workers[link.id] = link
        self._routed.setdefault(link.id, 0)
        if not await self._probe(link, deadline=30.0):
            link.state = "dead"
            raise WorkerUnavailable(f"{link.id} never became healthy")
        await self._rejoin(link)
        return link

    def close(self) -> None:
        """Stop the supervisor and the fleet (local workers drain first)."""
        self._closing = True
        super().close()
        if self._health_task is not None:
            self._health_task.cancel()
        for task in self._respawn_tasks.values():
            task.cancel()
        for link in self._workers.values():
            link.discard_pool()
            if link.local is not None:
                code = link.local.stop()
                logger.info("worker stopped", extra={
                    "worker": link.id, "exit_code": code})

    # -- the query path ------------------------------------------------------

    def route_of(self, sql: str) -> Optional[str]:
        """The worker id that currently owns a query's family (debugging,
        tests, and the ``cluster`` status op's routing preview)."""
        order = self._route_order(family_digest(normalise_sql(sql)))
        return order[0].id if order else None

    def _route_order(self, family: bytes,
                     exclude: frozenset = frozenset()) -> list[WorkerLink]:
        order = []
        for worker_id in self._ring.route(family):
            link = self._workers.get(worker_id)
            if link is not None and link.routable and link.id not in exclude:
                order.append(link)
        return order

    def _flight_key(self, sql: str, options: dict) -> tuple:
        # The barrier version keeps a query admitted after a commit from
        # coalescing onto a pre-commit flight.
        return request_key(sql, options), self._barrier_version

    def _error(self, code: str, message: str) -> dict:
        if code in self._errors_by_kind:
            self._errors_by_kind[code] += 1
        return super()._error(code, message)

    def _unavailable(self, message: str) -> dict:
        self._internal_errors += 1
        return self._error("unavailable", message)

    async def _lead(self, flight: Flight, sql: str, options: dict,
                    context) -> dict:
        """Forward the flight to its owner, failing over along the ring."""
        family = family_digest(normalise_sql(sql))
        tr = root = None
        if self._observe:
            # Every led flight gets a distributed trace.  The per-attempt
            # "forward" span's id rides the forwarded message as a
            # traceparent, so the worker's own spans parent onto it and the
            # stitched export shows the full cross-process tree -- failover
            # attempts appear as sibling forwards under one trace id.  A
            # client-sent traceparent is honored; otherwise the coordinator
            # becomes the trace origin.
            tr = Trace("request", context=context if context is not None
                       else new_context())
            flight.trace_id = tr.trace_id
            root = tr.span("cluster.request")
            root.set("family", family.hex()[:16])
        started = time.perf_counter()
        terminal = None
        try:
            terminal = await self._forward(flight, sql, options, family,
                                           tr, root)
            return terminal
        finally:
            if tr is not None:
                root.set("type", terminal["type"] if terminal else "error")
                root.__exit__(None, None, None)
                self._request_seconds.observe(time.perf_counter() - started)
                self._trace_store.put(tr)

    async def _forward(self, flight: Flight, sql: str, options: dict,
                       family: bytes, tr, root) -> dict:
        tried: set[str] = set()
        refusal: Optional[dict] = None
        unreachable = False
        while True:
            order = self._route_order(family, exclude=frozenset(tried))
            if not order:
                break
            link = order[0]
            tried.add(link.id)
            self._routed[link.id] = self._routed.get(link.id, 0) + 1
            forward = {"op": "query", "sql": sql, "options": options}
            attempt = None
            if tr is not None:
                attempt = tr.span("forward", parent=root)
                attempt.set("worker", link.id)
                attempt.set("attempt", len(tried))
                forward[TRACEPARENT_KEY] = format_traceparent(
                    tr.trace_id, attempt.span_id)
            terminal = outcome = None
            try:
                async for event in link.events(forward):
                    if event.get("type") in TERMINAL:
                        terminal = event
                    else:
                        # Adaptive updates stream through live.  On a
                        # mid-stream failover the retry re-streams from
                        # stage zero -- identical values (same seed), so
                        # subscribers see repeats, never contradictions.
                        flight.publish({**event, "id": None})
            except WorkerUnavailable:
                self._failovers += 1
                self._mark_unavailable(link)
                unreachable = True
                outcome = "worker_unavailable"
            else:
                if terminal.get("code") in _RETRIABLE_CODES:
                    # The worker refused before computing; replaying on a
                    # replica is free and keeps the front door available
                    # through rolling restarts.
                    self._failovers += 1
                    refusal = terminal
                    outcome = terminal["code"]
            if attempt is not None:
                if outcome is not None:
                    attempt.set("outcome", outcome)
                attempt.__exit__(None, None, None)
            if outcome is None:
                if terminal["type"] == "error" and \
                        terminal.get("code") != "internal":
                    self._query_errors += 1
                return {**terminal, "id": None}
        if refusal is not None and not unreachable:
            # Every worker tried was live and refused: the fleet is busy,
            # not broken -- relay the refusal so the client backs off.
            self._overloads += 1
            return {**refusal, "id": None}
        return self._unavailable("no live worker can serve this query "
                                 f"(tried {sorted(tried) or 'none'})")

    async def _commit(self, sql: str, context) -> dict:
        """Broadcast one mutation to the fleet (under the door's gate)."""
        tr = root = None
        if self._observe:
            tr = Trace("mutation",
                       context=context if context is not None
                       else new_context())
            root = tr.span("cluster.mutate")
        try:
            event = await self._broadcast_traced(sql, tr, root)
        finally:
            if tr is not None:
                root.__exit__(None, None, None)
                self._trace_store.put(tr)
        if tr is not None:
            event = dict(event)
            event["trace_id"] = tr.trace_id
        return event

    async def _broadcast_traced(self, sql: str, tr, root) -> dict:
        targets = [w for w in self._workers.values() if w.routable]
        if not targets:
            return self._unavailable("no live workers to commit the mutation")
        forwards = []
        spans = []
        for link in targets:
            forward = {"op": "mutate", "sql": sql}
            if tr is not None:
                # One "forward" span per worker, all siblings under the
                # mutate root; each worker parents its own mutation span
                # onto its forward via the injected traceparent.
                span = tr.span("forward", parent=root)
                span.set("worker", link.id)
                forward[TRACEPARENT_KEY] = format_traceparent(
                    tr.trace_id, span.span_id)
                spans.append(span)
            forwards.append(forward)
        try:
            results = await asyncio.gather(
                *(self._mutate_one(link, forward)
                  for link, forward in zip(targets, forwards)))
        finally:
            for span in spans:
                span.__exit__(None, None, None)
        survivors = [(link, event) for link, event in zip(targets, results)
                     if event is not None]
        if not survivors:
            return self._unavailable("every worker died during the mutation "
                                     "broadcast")
        canonical = dict(survivors[0][1])
        canonical["id"] = None
        if canonical.get("type") != "mutation":
            # A typed rejection (validation/conflict/invalid_query).  The
            # engine is deterministic over identical snapshots, so every
            # worker rejected identically and no snapshot moved.
            self._mutation_errors += 1
            return canonical
        version = canonical["data_version"]
        self._log.append(sql)
        self._barrier_version = version
        self._mutations += 1
        for link, event in survivors:
            if event.get("type") != "mutation" or \
                    event.get("data_version") != version:
                # A worker disagreeing with the fleet is split-brained;
                # take it out (the supervisor will rebuild it from the
                # log, which is the authoritative history).
                logger.error("worker diverged on mutation", extra={
                    "worker": link.id, "event": event})
                self._mark_unavailable(link)
            else:
                link.data_version = version
        return canonical

    async def _mutate_one(self, link: WorkerLink,
                          forward: dict) -> Optional[dict]:
        try:
            return await link.roundtrip(forward, timeout=_MUTATE_TIMEOUT)
        except WorkerUnavailable:
            # The worker missed this commit; it must not serve reads until
            # the supervisor replays it the full log.
            self._mark_unavailable(link)
            return None

    # -- observation ---------------------------------------------------------

    def health(self) -> dict:
        healthy = sum(1 for w in self._workers.values() if w.routable)
        status = "draining" if self._draining else (
            "ok" if healthy == len(self._workers) else
            ("degraded" if healthy else "down"))
        return {
            **super().health(),
            "status": status,
            "role": "coordinator",
            "workers": len(self._workers),
            "workers_healthy": healthy,
            "barrier_version": self._barrier_version,
        }

    def _coordinator_stats(self) -> dict:
        return {
            **self._counters(),
            "failovers": self._failovers,
            "worker_deaths": self._worker_deaths,
            "respawns": self._respawns,
            "replayed_statements": self._replayed_statements,
            "barrier_version": self._barrier_version,
            "workers": len(self._workers),
            "workers_healthy": sum(1 for w in self._workers.values()
                                   if w.routable),
            "routed": dict(sorted(self._routed.items())),
        }

    async def stats(self) -> dict:
        """Per-worker rows plus fleet-wide aggregates.

        The payload keeps the single-server shape (``server`` and
        ``service`` keys carry the fleet sums) so every existing consumer
        -- ``repro top``, ``--probe stats``, the smoke harness -- reads a
        cluster exactly as it reads one process, and gains ``coordinator``
        and ``workers`` sections on top.
        """
        replies = dict(await self._fan_out({"op": "stats"},
                                           timeout=_STATS_TIMEOUT))
        rows = []
        server_sum: dict[str, float] = {}
        service_sum: dict[str, float] = {}
        cache_sum: dict[str, dict] = {}
        flight_sum = {"launches": 0, "joins": 0, "failures": 0,
                      "in_flight": 0}
        have_flight = False
        for link in list(self._workers.values()):
            row = link.describe()
            row["routed"] = self._routed.get(link.id, 0)
            payload = (replies.get(link.id) or {}).get("stats")
            if payload is not None:
                server = payload.get("server", {})
                service = payload.get("service", {})
                row.update({
                    "requests": server.get("requests", 0),
                    "active": server.get("active", 0),
                    "launched": server.get("launched", 0),
                    "coalesced": server.get("coalesced", 0),
                    "mutations": server.get("mutations", 0),
                })
                for key, value in server.items():
                    if isinstance(value, bool) or \
                            not isinstance(value, (int, float)):
                        continue
                    server_sum[key] = server_sum.get(key, 0) + value
                for key, value in service.items():
                    if isinstance(value, (int, float)) and \
                            not isinstance(value, bool):
                        service_sum[key] = service_sum.get(key, 0) + value
                for cache in service.get("caches", []):
                    name = cache.get("name", "?")
                    merged = cache_sum.setdefault(
                        name, {"name": name, "capacity": 0, "size": 0,
                               "hits": 0, "misses": 0, "evictions": 0})
                    for field in ("capacity", "size", "hits", "misses",
                                  "evictions"):
                        merged[field] += cache.get(field, 0)
                flight = service.get("single_flight")
                if flight:
                    have_flight = True
                    for field in flight_sum:
                        flight_sum[field] += flight.get(field, 0)
            rows.append(row)
        service_block: dict[str, Any] = dict(service_sum)
        if cache_sum:
            service_block["caches"] = list(cache_sum.values())
        if have_flight:
            service_block["single_flight"] = {"name": "fleet", **flight_sum}
        return {
            "alerts": self.alerts_report()["alerts"],
            "coordinator": self._coordinator_stats(),
            "workers": rows,
            "server": {**server_sum, "active": len(self._flights),
                       "draining": self._draining},
            "service": service_block,
        }

    async def metrics_text(self) -> str:
        """Fleet Prometheus exposition: coordinator families plus every
        worker's samples re-labelled with ``worker="<id>"``."""
        lines: list[str] = []
        if self._metrics is not None:
            # The registry carries the request-latency histogram plus the
            # counter families below (registered as a collector).
            lines.extend(self._metrics.render().splitlines())
        else:
            for family in self._metric_families():
                lines.extend(family.render())
        replies = await self._fan_out({"op": "metrics"},
                                      timeout=_STATS_TIMEOUT)
        for worker_id, event in replies:
            if event is not None:
                lines.extend(_relabel(event.get("metrics", ""), worker_id))
        return "\n".join(lines) + "\n"

    def _metric_families(self):
        worker_rows = [({"worker": w.id, "state": w.state}, 1)
                       for w in self._workers.values()]
        routed_rows = [({"worker": worker_id}, count)
                       for worker_id, count in sorted(self._routed.items())]
        return [
            counters_family(
                "repro_cluster_requests_total",
                "Requests received at the cluster front door",
                [({}, self._requests)]),
            counters_family(
                "repro_cluster_flights_total",
                "Forwarded computations vs requests coalesced onto one",
                [({"outcome": "launched"}, self._launched),
                 ({"outcome": "coalesced"}, self._coalesced)]),
            counters_family(
                "repro_cluster_routed_total",
                "Queries routed to each worker",
                routed_rows or [({}, 0)]),
            counters_family(
                "repro_cluster_failovers_total",
                "Requests replayed on a replica after a worker failure",
                [({}, self._failovers)]),
            counters_family(
                "repro_cluster_errors_total",
                "Front-door errors by kind (the cluster SLO's bad events)",
                [({"kind": kind}, count) for kind, count
                 in sorted(self._errors_by_kind.items())]),
            counters_family(
                "repro_cluster_worker_events_total",
                "Worker lifecycle events seen by the supervisor",
                [({"event": "death"}, self._worker_deaths),
                 ({"event": "respawn"}, self._respawns)]),
            counters_family(
                "repro_cluster_mutations_total",
                "Mutation statements committed fleet-wide",
                [({}, self._mutations)]),
            counters_family(
                "repro_cluster_barrier_version",
                "Data version every routable worker has committed",
                [({}, self._barrier_version)], kind="gauge"),
            counters_family(
                "repro_cluster_workers",
                "Workers by state",
                worker_rows or [({}, 0)], kind="gauge"),
            counters_family(
                "repro_cluster_active_flights",
                "Flights currently forwarded",
                [({}, len(self._flights))], kind="gauge"),
        ]

    # -- cluster-wide observability (history, profiles, traces, alerts) ------

    async def history(self, seconds: Optional[float] = None) -> dict:
        """The coordinator's tsdb window plus every worker's, fanned out.

        Shaped like the single-server payload (``repro top`` reads the
        top-level snapshots the same way) with a ``workers`` mapping on
        top: per-worker windows for the fleet trend panes.
        """
        own = super().history(seconds)
        message: dict[str, Any] = {"op": "history"}
        if seconds is not None:
            message["seconds"] = seconds
        replies = await self._fan_out(message, timeout=_STATS_TIMEOUT)
        workers = {}
        for worker_id, event in replies:
            if event is None or event.get("type") != "history":
                continue
            workers[worker_id] = {key: value for key, value in event.items()
                                  if key not in ("id", "type")}
        return {**own, "workers": workers}

    async def profile(self, seconds: float = 1.0,
                      interval: Optional[float] = None) -> dict:
        """One fleet-wide profile: sample the coordinator and every worker
        concurrently for the same window, merge the collapsed stacks."""
        interval = interval if interval is not None else DEFAULT_INTERVAL
        loop = asyncio.get_running_loop()
        own_future = loop.run_in_executor(None, profile_payload,
                                          float(seconds), interval)
        replies = await self._fan_out({"op": "profile", "seconds": seconds},
                                      timeout=float(seconds) + _STATS_TIMEOUT)
        own = await own_future
        texts = [own["collapsed"]]
        processes = 1
        samples = own["samples"]
        for _worker_id, event in replies:
            if event is None or event.get("type") != "profile":
                continue
            texts.append(event.get("collapsed", ""))
            samples += event.get("samples", 0)
            processes += 1
        merged = merge_collapsed(texts)
        return {
            "seconds": own["seconds"],
            "interval_seconds": own["interval_seconds"],
            "processes": processes,
            "samples": samples,
            "stacks": len(merged),
            "collapsed": render_collapsed(merged),
        }

    async def trace_payload(self, trace_id: Optional[str] = None) \
            -> Optional[dict]:
        """One distributed trace as per-process span groups (raw form)."""
        stitched = await self._collect_trace(trace_id)
        if stitched is None:
            return None
        tid, name, groups = stitched
        return {
            "trace_id": tid,
            "name": name,
            "processes": [{"process": label, "spans": spans}
                          for label, spans in groups],
            "span_count": sum(len(spans) for _, spans in groups),
        }

    async def trace_export(self, trace_id: Optional[str] = None) \
            -> Optional[dict]:
        """One distributed trace stitched into a Chrome trace-event doc."""
        stitched = await self._collect_trace(trace_id)
        if stitched is None:
            return None
        tid, _name, groups = stitched
        return {
            "trace_id": tid,
            "processes": [label for label, _ in groups],
            "span_count": sum(len(spans) for _, spans in groups),
            "chrome": spans_to_chrome(tid, groups),
        }

    async def _collect_trace(self, trace_id: Optional[str]):
        """The coordinator's stored trace plus every worker's spans for the
        same trace id (workers that restarted since simply contribute
        nothing -- parent links still stitch through the spans that
        remain, because ids live in the spans, not the processes)."""
        if self._trace_store is None:
            return None
        trace = (self._trace_store.get(trace_id) if trace_id
                 else self._trace_store.latest())
        if trace is None:
            return None
        tid = trace.trace_id
        groups: list[tuple[str, list[dict]]] = [
            (f"coordinator:{os.getpid()}", trace.span_dicts())]
        replies = await self._fan_out({"op": "trace", "trace_id": tid},
                                      timeout=_STATS_TIMEOUT)
        for worker_id, event in replies:
            if event is None or event.get("type") != "trace" or \
                    event.get("trace_id") != tid:
                continue
            groups.append((f"worker:{worker_id}",
                           list(event.get("spans", ()))))
        return tid, trace.name, groups

    async def _fan_out(self, message: Mapping, *,
                       timeout: float) -> list[tuple[str, Optional[dict]]]:
        """One roundtrip to every routable worker, concurrently; a worker
        failing the roundtrip is marked unavailable and reported ``None``."""
        links = [w for w in self._workers.values() if w.routable]

        async def one(link: WorkerLink) -> tuple[str, Optional[dict]]:
            try:
                return link.id, await link.roundtrip(message, timeout=timeout)
            except WorkerUnavailable:
                self._mark_unavailable(link)
                return link.id, None

        return list(await asyncio.gather(*(one(link) for link in links)))

    # -- admin ops (rolling restart, scale, status) --------------------------

    OPS = {
        **FrontDoor.OPS,
        "cluster": reply_op("cluster",
                            lambda door, message: door._cluster_status()),
        "cluster_drain": reply_op(
            "cluster", lambda door, message: door._rolling_restart()),
        "cluster_scale": reply_op(
            "cluster", lambda door, message: door._scale(
                message.get("workers"))),
    }

    def _cluster_status(self) -> dict:
        return {
            "coordinator": self._coordinator_stats(),
            "workers": [link.describe() for link in self._workers.values()],
            "ring": {"replicas": self._ring.replicas,
                     "workers": sorted(self._ring.workers)},
        }

    async def _rolling_restart(self) -> dict:
        """Drain and respawn local workers one at a time.

        Each worker leaves the ring first (its families fail over to the
        ring successor), receives SIGTERM, must drain cleanly and exit 0,
        is respawned, replays the mutation log, and rejoins before the
        next worker starts -- the fleet never has more than one member
        down on purpose.
        """
        async with self._admin_gate:
            restarted: list[str] = []
            skipped: list[str] = []
            failures: list[str] = []
            loop = asyncio.get_running_loop()
            for link in list(self._workers.values()):
                if link.local is None:
                    skipped.append(link.id)
                    continue
                link.state = "draining"
                self._ring.remove(link.id)
                link.discard_pool()
                code = await loop.run_in_executor(None, link.local.stop)
                if code != 0:
                    failures.append(f"{link.id} exited {code}")
                link.state = "restarting"
                try:
                    port = await loop.run_in_executor(None,
                                                      link.local.respawn)
                except WorkerSpawnError as error:
                    link.state = "dead"
                    failures.append(f"{link.id}: {error}")
                    continue
                link.port = port
                link.data_version = 0
                link.discard_pool()
                try:
                    await self._rejoin(link)
                except WorkerUnavailable as error:
                    failures.append(f"{link.id}: {error}")
                    continue
                restarted.append(link.id)
            if failures:
                raise ProtocolError("internal", "rolling restart incomplete: "
                                    + "; ".join(failures))
            return {"action": "rolling_restart",
                    "restarted": restarted, "skipped": skipped,
                    "barrier_version": self._barrier_version}

    async def _scale(self, target) -> dict:
        """Grow or shrink the local worker pool to ``target`` members."""
        if not isinstance(target, int) or isinstance(target, bool) \
                or target < 1:
            raise ProtocolError("bad_request",
                                f"cluster_scale needs a positive integer "
                                f"'workers', got {target!r}")
        async with self._admin_gate:
            local_links = [w for w in self._workers.values()
                           if w.local is not None]
            remote = len(self._workers) - len(local_links)
            added: list[str] = []
            removed: list[str] = []
            loop = asyncio.get_running_loop()
            while len(local_links) + remote < target:
                if self._worker_template is None:
                    raise ProtocolError(
                        "bad_request",
                        "cannot scale up: the coordinator was started "
                        "without local workers to clone")
                worker = LocalWorker(f"w{self._spawned}",
                                     list(self._worker_template))
                self._spawned += 1
                try:
                    await loop.run_in_executor(None, worker.spawn)
                except WorkerSpawnError as error:
                    raise ProtocolError("internal", str(error)) from None
                try:
                    link = await self.add_worker(
                        WorkerEndpoint(worker.worker_id, worker.host,
                                       worker.port),
                        local=worker)
                except WorkerUnavailable as error:
                    worker.kill()
                    raise ProtocolError("internal", str(error)) from None
                local_links.append(link)
                added.append(link.id)
            while len(local_links) + remote > target and local_links:
                link = local_links.pop()
                link.state = "draining"
                self._ring.remove(link.id)
                link.discard_pool()
                await loop.run_in_executor(None, link.local.stop)
                del self._workers[link.id]
                self._routed.pop(link.id, None)
                removed.append(link.id)
            return {"action": "scale",
                    "workers": len(self._workers),
                    "added": added, "removed": removed}


def _relabel(text: str, worker_id: str) -> list[str]:
    """Inject ``worker="<id>"`` into every sample of an exposition text.

    Comment lines are dropped (the coordinator's own families carry HELP
    text; per-worker duplicates would be noise), sample lines gain the
    label first so fleet dashboards can aggregate or fan out on it.
    """
    label = f'worker="{worker_id}"'
    out: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name_part, _, value = stripped.rpartition(" ")
        if not name_part:
            continue
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            out.append(f"{name}{{{label},{rest} {value}")
        else:
            out.append(f"{name_part}{{{label}}} {value}")
    return out
