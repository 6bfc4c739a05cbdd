"""The front door both serving apps share: admission, coalescing, drain.

:class:`FrontDoor` is the transport-independent request loop behind
:class:`~repro.server.app.ServerApp` (one annotation service) and
:class:`~repro.cluster.coordinator.CoordinatorApp` (a fleet of workers).
Both transports reduce a query to "iterate :meth:`FrontDoor.query_events`"
and a mutation to "await :meth:`FrontDoor.mutate`"; everything between the
wire and the computation lives here once:

* **admission control** -- at most ``max_pending`` flights may be queued or
  running; request ``max_pending + 1`` is rejected immediately with the
  typed ``overloaded`` error instead of joining an unbounded queue;
* **single-flight coalescing** -- requests are keyed by :meth:`_flight_key`
  *before* any work happens; arrivals matching an in-flight key subscribe to
  the leader's :class:`Flight` and receive replayed history plus live
  events, so N concurrent identical queries cost one computation;
* **answering without a flight** -- an admitted request that starts no
  flight of its own is first offered to :meth:`_answer_now`; a door that
  can answer it without computing (a server whose caches hold the whole
  answer) returns the terminal event there and then, on the event loop,
  with no :class:`Flight`, queue or leader task.  It still counts as
  launched;
* **mutations** -- writers are serialised behind one gate and counted as
  in-flight work, while readers keep streaming (no reader/writer blocking);
* **drain** -- :meth:`begin_drain` stops admitting, :meth:`wait_idle`
  resolves once every flight and mutation has delivered its terminal event.

Every other op (``ping``, ``health``, ``stats``, ``metrics``, ``history``,
``profile``, ``alerts``, ``trace``, ``trace_export``, ``mutate``) is one
entry of :attr:`FrontDoor.OPS`, answered by :meth:`FrontDoor.op_event`: the
TCP transport, every HTTP ``GET`` route and the coordinator's own
``cluster*`` ops all go through that one table.

A subclass supplies only what differs between the doors: the flight key,
which requests it answers at once (:meth:`_answer_now`; none by default),
how a flight is led (:meth:`_lead` returns the terminal event, publishing
any streamed updates on the way), how a mutation commits (:meth:`_commit`),
its own ``stats``/``health``/metrics payloads, and any ops it adds.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import time
from typing import Any, AsyncIterator, Callable, Hashable, Mapping, Optional

from repro import package_version
from repro.obs.alerts import disabled_report
from repro.obs.logsetup import get_logger
from repro.obs.propagate import extract_context
from repro.server.protocol import (
    OverloadError,
    ProtocolError,
    error_event,
    parse_mutation_request,
    parse_query_request,
    request_key,
)

#: Terminal event types: after one of these, a flight is over.
TERMINAL = ("result", "error")

logger = get_logger("server")


async def maybe_await(value):
    """Resolve an app payload: sync for :class:`ServerApp`, async for the
    cluster coordinator aggregating over its fleet."""
    if inspect.isawaitable(value):
        return await value
    return value


def reply_op(kind: str, fetch: Callable, field: Optional[str] = None):
    """An op whose reply is ``{"type": kind}`` plus the payload of
    ``fetch(door, message)`` (sync or async): under ``field``, or spread
    into the reply when ``field`` is None."""
    async def op(door, message: Mapping) -> dict:
        payload = await maybe_await(fetch(door, message))
        if field is not None:
            return {"type": kind, field: payload}
        return {"type": kind, **payload}
    return op


def _seconds(message: Mapping, *, positive: bool) -> Optional[float]:
    """The ``seconds`` parameter: a finite number -- for the profiler a
    positive one, 1 when omitted; the history window may omit it."""
    seconds = message.get("seconds", 1.0 if positive else None)
    if seconds is None and not positive:
        return None
    # The chained comparison is false for NaN and for either infinity.
    low = 0 if positive else -math.inf
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) \
            or not low < seconds < math.inf:
        raise ProtocolError("bad_request", "'seconds' must be a "
                            + ("positive " if positive else "")
                            + "finite number")
    return seconds


def _trace(method: str) -> Callable:
    """Fetch one stored trace through ``door.<method>(trace_id)``."""
    async def fetch(door, message: Mapping) -> dict:
        trace_id = message.get("trace_id")
        payload = await maybe_await(getattr(door, method)(
            trace_id if isinstance(trace_id, str) else None))
        if payload is None:
            detail = f" {trace_id!r}" if trace_id else ""
            raise ProtocolError("bad_request", f"no stored trace{detail}")
        return payload
    return fetch


class Flight:
    """One in-flight computation with its subscribers.

    ``history`` keeps every event already broadcast so a follower that
    coalesces onto the flight mid-stream sees the full sequence -- replayed
    history first, then live events, in the order the leader produced them.
    Events are stored without a request id; each subscriber stamps its own.
    A leader that traces the flight sets ``trace_id``; the terminal event
    carries it back to every subscriber.
    """

    __slots__ = ("key", "history", "queues", "trace_id")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.history: list[dict] = []
        self.queues: list[asyncio.Queue] = []
        self.trace_id: Optional[str] = None

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.history:
            queue.put_nowait(event)
        self.queues.append(queue)
        return queue

    def publish(self, event: dict) -> None:
        self.history.append(event)
        for queue in self.queues:
            queue.put_nowait(event)


class FrontDoor:
    """Admission, coalescing, mutation gating and drain over one backend.

    ``name`` opens the free-text messages of the door's own refusals
    (``"server is draining; ..."``).
    """

    name = "server"

    #: Every non-query op: name -> ``handler(door, message)``, awaited for
    #: the reply event.  A handler raises :class:`ProtocolError` to refuse
    #: the request; a subclass extends the table with its own ops.
    OPS: dict[str, Callable] = {
        "ping": reply_op("pong", lambda door, message: {}),
        "health": reply_op("health", lambda door, message: door.health()),
        "stats": reply_op("stats", lambda door, message: door.stats(),
                          "stats"),
        "metrics": reply_op("metrics",
                            lambda door, message: door.metrics_text(),
                            "metrics"),
        "history": reply_op("history", lambda door, message: door.history(
            _seconds(message, positive=False))),
        "profile": reply_op("profile", lambda door, message: door.profile(
            seconds=float(_seconds(message, positive=True)))),
        "alerts": reply_op("alerts",
                           lambda door, message: door.alerts_report()),
        "trace": reply_op("trace", _trace("trace_payload")),
        "trace_export": reply_op("trace_export", _trace("trace_export")),
        "mutate": lambda door, message: door.mutate(message),
    }

    def __init__(self, defaults: Mapping[str, Any], *,
                 max_pending: int) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {max_pending}")
        self._defaults = dict(defaults)
        self._max_pending = max_pending
        self._flights: dict[Hashable, Flight] = {}
        #: Strong references to leader tasks -- the loop only keeps weak
        #: ones, and a leader suspended on a read is an unreachable cycle
        #: the GC may destroy mid-flight, stranding every subscriber.
        self._flight_tasks: set[asyncio.Future] = set()
        self._started = time.monotonic()
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # Writers apply strictly one at a time; readers never wait on this
        # (MVCC snapshots -- a query pins whatever version is current when
        # its computation starts).
        self._mutation_gate = asyncio.Lock()
        self._mutations_inflight = 0
        # Lifetime counters, all mutated on the event loop only.
        self._requests = 0
        self._launched = 0
        self._coalesced = 0
        self._overloads = 0
        self._query_errors = 0
        self._internal_errors = 0
        self._mutations = 0
        self._mutation_errors = 0
        # Metrics history and SLO alert evaluation: a door that observes
        # sets both (a TimeSeriesStore and an AlertEvaluator).
        self._tsdb = None
        self._alert_evaluator = None

    @property
    def draining(self) -> bool:
        return self._draining

    def request_defaults(self) -> dict[str, Any]:
        """The option values a request inherits when it omits them."""
        return dict(self._defaults)

    # -- what a subclass decides ---------------------------------------------

    def _flight_key(self, sql: str, options: dict) -> Hashable:
        return request_key(sql, options)

    def _answer_now(self, sql: str, options: dict, context) -> Optional[dict]:
        """The terminal event of a request answerable without computing,
        produced right here on the event loop; ``None`` launches a flight.

        Called where a new flight would be created: after the drain and
        admission checks, and only when no identical flight is in the air.
        """
        return None

    async def _lead(self, flight: Flight, sql: str, options: dict,
                    context) -> dict:
        """Compute the flight; publish updates; return the terminal event."""
        raise NotImplementedError

    async def _commit(self, sql: str, context) -> dict:
        """Apply one mutation statement; return its terminal event."""
        raise NotImplementedError

    def _error(self, code: str, message: str) -> dict:
        """An error terminal the door itself produced (a subclass may
        count it, e.g. against an availability SLO)."""
        return error_event(None, code, message)

    def _internal(self, error: Exception) -> dict:
        """Report an unexpected failure as a typed ``internal`` error."""
        logger.error("internal error", exc_info=error)
        self._internal_errors += 1
        return self._error("internal", f"{type(error).__name__}: {error}")

    # -- the query path ------------------------------------------------------

    async def query_events(self, message: dict) -> AsyncIterator[dict]:
        """Serve one query message as a stream of wire events.

        Always yields at least one event and always ends with a terminal
        one (``result`` or ``error``); protocol violations, overload and
        backend errors all surface as typed error events rather than
        exceptions, so transports can forward events verbatim.
        """
        self._requests += 1
        try:
            sql, options = parse_query_request(message, self._defaults)
        except ProtocolError as error:
            self._query_errors += 1
            yield error.as_event()
            return
        if self._draining:
            yield error_event(None, "draining", f"{self.name} is draining; "
                              "not accepting new queries")
            return

        key = self._flight_key(sql, options)
        flight = self._flights.get(key)
        if flight is None:
            if len(self._flights) >= self._max_pending:
                self._overloads += 1
                yield OverloadError(
                    f"{self.name} is at its admission limit "
                    f"({self._max_pending} pending flights); retry later"
                ).as_event()
                return
            context = extract_context(message)
            self._launched += 1
            try:
                terminal = self._answer_now(sql, options, context)
            except Exception as error:  # noqa: BLE001 - reported, not hidden
                terminal = self._internal(error)
            if terminal is not None:
                yield terminal
                return
            flight = Flight(key)
            self._flights[key] = flight
            self._idle.clear()
            # The leader's trace context wins: coalesced followers share
            # the leader's flight, computation, and therefore trace id.
            task = asyncio.ensure_future(self._fly(
                flight, sql, options, context))
            self._flight_tasks.add(task)
            task.add_done_callback(self._flight_tasks.discard)
        else:
            self._coalesced += 1

        queue = flight.subscribe()
        while True:
            event = await queue.get()
            yield event
            if event.get("type") in TERMINAL:
                return

    async def _fly(self, flight: Flight, sql: str, options: dict,
                   context) -> None:
        """Lead one flight and broadcast its terminal event, whatever
        happens -- a subscriber never waits on a flight that is gone."""
        terminal = None
        try:
            terminal = await self._lead(flight, sql, options, context)
        except Exception as error:  # noqa: BLE001 - reported, not hidden
            terminal = self._internal(error)
        finally:
            # Cancellation (shutdown) skips the clauses above; subscribers
            # still see a terminal event and the exception keeps propagating.
            if terminal is None:
                terminal = self._error("unavailable",
                                       f"{self.name} stopped mid-flight")
            if flight.trace_id is not None:
                terminal["trace_id"] = flight.trace_id
            del self._flights[flight.key]
            self._maybe_idle()
            flight.publish(terminal)

    def _maybe_idle(self) -> None:
        if not self._flights and self._mutations_inflight == 0:
            self._idle.set()

    # -- the mutation path ---------------------------------------------------

    async def mutate(self, message: dict) -> dict:
        """Apply one mutation statement; returns its terminal event.

        Writers are serialised behind a single gate and counted as
        in-flight work, so a drain waits for a mutation that is mid-commit
        exactly as it waits for queries.
        """
        self._requests += 1
        try:
            sql = parse_mutation_request(message)
        except ProtocolError as error:
            self._mutation_errors += 1
            return error.as_event()
        if self._draining:
            return error_event(None, "draining", f"{self.name} is draining; "
                               "not accepting mutations")
        self._mutations_inflight += 1
        self._idle.clear()
        try:
            async with self._mutation_gate:
                return await self._commit(sql, extract_context(message))
        except Exception as error:  # noqa: BLE001 - reported, not hidden
            return self._internal(error)
        finally:
            self._mutations_inflight -= 1
            self._maybe_idle()

    # -- every other op ------------------------------------------------------

    async def op_event(self, op: Any, message: Mapping) -> dict:
        """The one reply event of a non-query op, without its ``id``.

        A refused request becomes its typed error event; a handler that
        raises anything else becomes a typed ``internal`` error.
        """
        try:
            handler = self.OPS.get(op) if isinstance(op, str) else None
            if handler is None:
                raise ProtocolError("bad_request", f"unknown op {op!r}")
            return await handler(self, message)
        except ProtocolError as error:
            return error.as_event()
        except Exception as error:  # noqa: BLE001 - reported, not hidden
            return self._internal(error)

    # -- reports and lifecycle -----------------------------------------------

    def _counters(self) -> dict:
        """The door's lifetime counters and admission state."""
        return {
            "requests": self._requests,
            "launched": self._launched,
            "coalesced": self._coalesced,
            "overloads": self._overloads,
            "query_errors": self._query_errors,
            "mutations": self._mutations,
            "mutation_errors": self._mutation_errors,
            "internal_errors": self._internal_errors,
            "active": len(self._flights),
            "max_pending": self._max_pending,
            "draining": self._draining,
        }

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "active": len(self._flights),
            "max_pending": self._max_pending,
            "uptime_seconds": time.monotonic() - self._started,
            "version": package_version(),
        }

    def history(self, seconds: Optional[float] = None) -> dict:
        """This process's tsdb window for ``GET /history`` / the TCP
        ``history`` op (empty when not observing)."""
        if self._tsdb is None:
            return {"interval_seconds": None, "capacity": 0,
                    "retention_seconds": 0.0, "snapshots": []}
        return self._tsdb.history(seconds)

    def alerts_report(self) -> dict:
        """SLO burn-rate alert states evaluated over the tsdb window."""
        # The tsdb and the evaluator exist together (observing doors).
        if self._alert_evaluator is None:
            return disabled_report()
        window = self._alert_evaluator.max_window_seconds
        return self._alert_evaluator.report(
            self._tsdb.history(window)["snapshots"])

    async def start(self) -> None:
        """Start background observability (the tsdb sampler thread).

        Called by :meth:`NetworkServer.start`; doors driven directly in
        tests never need it -- ``history()`` samples on demand.
        """
        if self._tsdb is not None:
            self._tsdb.start()

    def close(self) -> None:
        """Stop the sampler thread (after draining)."""
        if self._tsdb is not None:
            self._tsdb.stop()

    def begin_drain(self) -> None:
        """Stop admitting queries and mutations; in-flight ones finish."""
        self._draining = True

    async def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Resolve once every flight and mutation has delivered its
        terminal event; ``False`` if ``timeout`` passes first."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False
