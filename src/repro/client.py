"""Python client for the repro network server (sync and async).

Both clients speak the TCP NDJSON protocol of :mod:`repro.server.protocol`
and decode wire payloads back into the same objects the in-process service
returns -- :class:`~repro.service.answers.AnnotatedAnswer` with a full
:class:`~repro.certainty.result.CertaintyResult` and the canonical-lineage
digest -- so remote answers are drop-in (and, by construction of the
protocol, bit-identical) replacements for local ones.

Synchronous usage::

    from repro.client import ReproClient

    with ReproClient("127.0.0.1", 7464) as client:
        result = client.query("SELECT P.id FROM Products P WHERE P.rrp <= 40")
        for answer in result.answers:
            print(answer.values, answer.certainty.value)

Streaming an adaptive request (each tightened interval as it lands)::

    for event in client.stream("SELECT ...", adaptive=True):
        if isinstance(event, AdaptiveUpdateEvent):
            print(event.lineage, event.interval)
        else:                       # the terminal QueryResult
            result = event

Mutations travel the same connection -- ``client.mutate("INSERT INTO
...")`` returns a :class:`MutationResult` with the committed
``data_version``; typed rejections (``validation``, ``conflict``) raise
:class:`ServerError` with that code.

Asynchronous usage mirrors it one-to-one (``AsyncReproClient``, ``await
client.query(...)``, ``async for event in client.stream(...)``).  One
client drives one connection and one request at a time; open more clients
for concurrency -- the server coalesces duplicate in-flight queries across
connections on its own.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass
from typing import Any, AsyncIterator, Iterator, Optional, Union

from repro.server.protocol import (
    MAX_LINE_BYTES,
    TRACEPARENT_KEY,
    ProtocolError,
    decode_answer,
    dump_line,
    load_line,
)
from repro.service.answers import AnnotatedAnswer


class ClientError(Exception):
    """Transport-level failure: connection refused, dropped, or garbled."""


class ServerError(ClientError):
    """A typed error event reported by the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class OverloadedError(ServerError):
    """The server rejected the request under admission control."""


def _server_error(event: dict) -> ServerError:
    code = event.get("code", "internal")
    message = event.get("message", "")
    if code in ("overloaded", "draining"):
        return OverloadedError(code, message)
    return ServerError(code, message)


@dataclass(frozen=True)
class AdaptiveUpdateEvent:
    """One streamed refinement of one lineage group, as received."""

    lineage: str
    stage: int
    stages: int
    epsilon: Optional[float]
    value: float
    interval: tuple[float, float]
    samples: int
    final: bool


@dataclass(frozen=True)
class QueryResult:
    """Decoded terminal response of one query."""

    answers: tuple[AnnotatedAnswer, ...]
    stats: dict
    raw: dict

    @property
    def trace_id(self) -> Optional[str]:
        """The distributed trace id this query ran under (observing
        servers stamp it on the terminal event; fetch the stitched span
        tree with :meth:`ReproClient.trace_export`)."""
        return self.raw.get("trace_id")


@dataclass(frozen=True)
class MutationResult:
    """Decoded terminal response of one committed mutation statement."""

    operation: str
    table: str
    inserted: int
    deleted: int
    #: The snapshot version the statement committed; queries answered
    #: afterwards see at least this version.
    data_version: int
    raw: dict

    @property
    def trace_id(self) -> Optional[str]:
        return self.raw.get("trace_id")


#: What :meth:`stream` yields: updates while refining, the result last.
StreamEvent = Union[AdaptiveUpdateEvent, QueryResult]


def _decode_update(event: dict) -> AdaptiveUpdateEvent:
    low, high = event["interval"]
    return AdaptiveUpdateEvent(
        lineage=event["lineage"], stage=event["stage"], stages=event["stages"],
        epsilon=event.get("epsilon"), value=event["value"],
        interval=(low, high), samples=event["samples"], final=event["final"])


def _decode_result(event: dict) -> QueryResult:
    return QueryResult(
        answers=tuple(decode_answer(payload) for payload in event["answers"]),
        stats=dict(event.get("stats", {})),
        raw=event)


def _query_message(request_id: Any, sql: str, options: dict,
                   traceparent: Optional[str] = None) -> dict:
    supplied = {key: value for key, value in options.items()
                if value is not None}
    message = {"op": "query", "id": request_id, "sql": sql,
               "options": supplied}
    if traceparent is not None:
        # Trace context rides outside ``options`` on purpose: it must not
        # change the request's coalescing identity.
        message[TRACEPARENT_KEY] = traceparent
    return message


def _decode_mutation(event: dict) -> MutationResult:
    return MutationResult(
        operation=event["operation"], table=event["table"],
        inserted=event["inserted"], deleted=event["deleted"],
        data_version=event["data_version"], raw=event)


class ReproClient:
    """Blocking client over one TCP connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7464,
                 timeout: Optional[float] = 60.0) -> None:
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise ClientError(f"cannot connect to {host}:{port}: {error}")
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- plumbing ------------------------------------------------------------

    def _roundtrip_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _send(self, message: dict) -> None:
        try:
            self._file.write(dump_line(message))
            self._file.flush()
        except OSError as error:
            raise ClientError(f"connection lost while sending: {error}")

    def _recv(self, expect_id: Any) -> dict:
        try:
            line = self._file.readline(MAX_LINE_BYTES)
        except OSError as error:
            raise ClientError(f"connection lost while receiving: {error}")
        if not line:
            raise ClientError("server closed the connection")
        try:
            event = load_line(line)
        except ProtocolError as error:
            raise ClientError(f"garbled response: {error}")
        if event.get("id") != expect_id:
            raise ClientError(
                f"response id {event.get('id')!r} does not match "
                f"request id {expect_id!r}")
        return event

    # -- queries -------------------------------------------------------------

    def _drain_request(self, request_id: Any) -> None:
        """Eat a request's remaining events so the connection stays usable.

        Runs when a caller abandons :meth:`stream` before the terminal
        event: the server keeps sending for the old request id, and the
        leftover frames would otherwise surface as id-mismatch errors on
        the next request.  Blocks until the server finishes that request.
        """
        try:
            for _ in range(100_000):  # bounded paranoia, not a real limit
                if self._recv(request_id).get("type") in ("result", "error"):
                    return
        except ClientError:
            pass  # connection already gone; nothing left to protect

    def stream(self, sql: str, *, epsilon: Optional[float] = None,
               delta: Optional[float] = None, method: Optional[str] = None,
               limit: Optional[int] = None, seed: Optional[int] = None,
               adaptive: Optional[bool] = None,
               traceparent: Optional[str] = None) -> Iterator[StreamEvent]:
        """Yield adaptive updates as they land, then the final result.

        Abandoning the iterator early (``break``) drains the request's
        remaining events on close, blocking until the server finishes it.
        """
        request_id = self._roundtrip_id()
        terminal = False
        try:
            self._send(_query_message(request_id, sql, dict(
                epsilon=epsilon, delta=delta, method=method, limit=limit,
                seed=seed, adaptive=adaptive),
                traceparent=traceparent))
            while True:
                event = self._recv(request_id)
                kind = event.get("type")
                if kind == "update":
                    yield _decode_update(event)
                elif kind == "result":
                    terminal = True
                    yield _decode_result(event)
                    return
                elif kind == "error":
                    terminal = True
                    raise _server_error(event)
                else:
                    raise ClientError(f"unexpected event type {kind!r}")
        finally:
            if not terminal:
                self._drain_request(request_id)

    def query(self, sql: str, on_update=None, **options) -> QueryResult:
        """Run one query to completion (``on_update`` sees streamed stages)."""
        for event in self.stream(sql, **options):
            if isinstance(event, QueryResult):
                return event
            if on_update is not None:
                on_update(event)
        raise ClientError("stream ended without a result")  # pragma: no cover

    def mutate(self, sql: str) -> MutationResult:
        """Apply one INSERT/DELETE/UPDATE statement on the server.

        Raises :class:`ServerError` with the server's typed code
        (``validation``, ``conflict``, ``invalid_query``) when the
        statement is rejected; the server's snapshot is untouched then.
        """
        request_id = self._roundtrip_id()
        self._send({"op": "mutate", "id": request_id, "sql": sql})
        event = self._recv(request_id)
        kind = event.get("type")
        if kind == "mutation":
            return _decode_mutation(event)
        if kind == "error":
            raise _server_error(event)
        raise ClientError(f"unexpected event type {kind!r}")

    # -- auxiliary ops -------------------------------------------------------

    def stats(self) -> dict:
        request_id = self._roundtrip_id()
        self._send({"op": "stats", "id": request_id})
        return self._recv(request_id)["stats"]

    def metrics(self) -> str:
        """The server's Prometheus text exposition (the ``metrics`` op)."""
        request_id = self._roundtrip_id()
        self._send({"op": "metrics", "id": request_id})
        return self._recv(request_id)["metrics"]

    def health(self) -> dict:
        request_id = self._roundtrip_id()
        self._send({"op": "health", "id": request_id})
        event = self._recv(request_id)
        return {key: value for key, value in event.items()
                if key not in ("id", "type")}

    def ping(self) -> bool:
        request_id = self._roundtrip_id()
        self._send({"op": "ping", "id": request_id})
        return self._recv(request_id).get("type") == "pong"

    # -- observability ops ---------------------------------------------------

    def _typed_op(self, message: dict, expect: str) -> dict:
        request_id = self._roundtrip_id()
        self._send({**message, "id": request_id})
        event = self._recv(request_id)
        kind = event.get("type")
        if kind == "error":
            raise _server_error(event)
        if kind != expect:
            raise ClientError(f"unexpected event type {kind!r}")
        return {key: value for key, value in event.items()
                if key not in ("id", "type")}

    def history(self, seconds: Optional[float] = None) -> dict:
        """The server-side metrics history window (tsdb snapshots)."""
        message: dict = {"op": "history"}
        if seconds is not None:
            message["seconds"] = seconds
        return self._typed_op(message, "history")

    def profile(self, seconds: float = 1.0) -> dict:
        """Sample the server (fleet-wide through a coordinator) for
        ``seconds``; the payload carries flamegraph-ready collapsed stacks."""
        return self._typed_op({"op": "profile", "seconds": seconds},
                              "profile")

    def alerts(self) -> dict:
        """SLO burn-rate alert states plus the rolled-up ``firing`` flag."""
        return self._typed_op({"op": "alerts"}, "alerts")

    def trace(self, trace_id: Optional[str] = None) -> dict:
        """One stored trace's raw spans (the latest without an id)."""
        message: dict = {"op": "trace"}
        if trace_id is not None:
            message["trace_id"] = trace_id
        return self._typed_op(message, "trace")

    def trace_export(self, trace_id: Optional[str] = None) -> dict:
        """One stored trace as a Chrome/Perfetto trace-event document
        (stitched across the whole fleet when answered by a coordinator)."""
        message: dict = {"op": "trace_export"}
        if trace_id is not None:
            message["trace_id"] = trace_id
        return self._typed_op(message, "trace_export")

    # -- cluster admin ops (answered by a coordinator front door) ------------

    def _cluster_op(self, message: dict) -> dict:
        request_id = self._roundtrip_id()
        self._send({**message, "id": request_id})
        event = self._recv(request_id)
        if event.get("type") == "error":
            raise _server_error(event)
        if event.get("type") != "cluster":
            raise ClientError(f"unexpected event type {event.get('type')!r}")
        return {key: value for key, value in event.items()
                if key not in ("id", "type")}

    def cluster(self) -> dict:
        """Cluster status: coordinator counters, per-worker states, ring."""
        return self._cluster_op({"op": "cluster"})

    def cluster_drain(self) -> dict:
        """Rolling restart of the coordinator's local workers.

        Blocks until every worker has drained, respawned and replayed the
        mutation log -- give the client a generous timeout.
        """
        return self._cluster_op({"op": "cluster_drain"})

    def cluster_scale(self, workers: int) -> dict:
        """Grow or shrink the local worker pool to ``workers`` members."""
        return self._cluster_op({"op": "cluster_scale", "workers": workers})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncReproClient:
    """Asyncio client over one TCP connection; mirror of :class:`ReproClient`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 7464) -> "AsyncReproClient":
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES)
        except OSError as error:
            raise ClientError(f"cannot connect to {host}:{port}: {error}")
        return cls(reader, writer)

    async def _send(self, message: dict) -> None:
        try:
            self._writer.write(dump_line(message))
            await self._writer.drain()
        except OSError as error:
            raise ClientError(f"connection lost while sending: {error}")

    async def _recv(self, expect_id: Any) -> dict:
        try:
            line = await self._reader.readline()
        except OSError as error:
            raise ClientError(f"connection lost while receiving: {error}")
        if not line:
            raise ClientError("server closed the connection")
        try:
            event = load_line(line)
        except ProtocolError as error:
            raise ClientError(f"garbled response: {error}")
        if event.get("id") != expect_id:
            raise ClientError(
                f"response id {event.get('id')!r} does not match "
                f"request id {expect_id!r}")
        return event

    async def _drain_request(self, request_id: Any) -> None:
        """Async twin of :meth:`ReproClient._drain_request`."""
        try:
            for _ in range(100_000):  # bounded paranoia, not a real limit
                event = await self._recv(request_id)
                if event.get("type") in ("result", "error"):
                    return
        except ClientError:
            pass  # connection already gone; nothing left to protect

    async def stream(self, sql: str, *, epsilon: Optional[float] = None,
                     delta: Optional[float] = None,
                     method: Optional[str] = None,
                     limit: Optional[int] = None, seed: Optional[int] = None,
                     adaptive: Optional[bool] = None,
                     traceparent: Optional[str] = None
                     ) -> AsyncIterator[StreamEvent]:
        """Async iterator of adaptive updates, then the final result.

        An abandoned iterator drains its remaining events (and releases
        the per-connection request lock) when the generator is finalised.
        """
        await self._lock.acquire()  # one request at a time per connection
        self._next_id += 1
        request_id = self._next_id
        terminal = False
        try:
            await self._send(_query_message(request_id, sql, dict(
                epsilon=epsilon, delta=delta, method=method, limit=limit,
                seed=seed, adaptive=adaptive),
                traceparent=traceparent))
            while True:
                event = await self._recv(request_id)
                kind = event.get("type")
                if kind == "update":
                    yield _decode_update(event)
                elif kind == "result":
                    terminal = True
                    yield _decode_result(event)
                    return
                elif kind == "error":
                    terminal = True
                    raise _server_error(event)
                else:
                    raise ClientError(f"unexpected event type {kind!r}")
        finally:
            try:
                if not terminal:
                    await self._drain_request(request_id)
            finally:
                self._lock.release()

    async def query(self, sql: str, on_update=None, **options) -> QueryResult:
        async for event in self.stream(sql, **options):
            if isinstance(event, QueryResult):
                return event
            if on_update is not None:
                on_update(event)
        raise ClientError("stream ended without a result")  # pragma: no cover

    async def mutate(self, sql: str) -> MutationResult:
        """Async twin of :meth:`ReproClient.mutate`."""
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            await self._send({"op": "mutate", "id": request_id, "sql": sql})
            event = await self._recv(request_id)
        kind = event.get("type")
        if kind == "mutation":
            return _decode_mutation(event)
        if kind == "error":
            raise _server_error(event)
        raise ClientError(f"unexpected event type {kind!r}")

    async def stats(self) -> dict:
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            await self._send({"op": "stats", "id": request_id})
            return (await self._recv(request_id))["stats"]

    async def metrics(self) -> str:
        """The server's Prometheus text exposition (the ``metrics`` op)."""
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            await self._send({"op": "metrics", "id": request_id})
            return (await self._recv(request_id))["metrics"]

    async def health(self) -> dict:
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            await self._send({"op": "health", "id": request_id})
            event = await self._recv(request_id)
            return {key: value for key, value in event.items()
                    if key not in ("id", "type")}

    async def ping(self) -> bool:
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            await self._send({"op": "ping", "id": request_id})
            return (await self._recv(request_id)).get("type") == "pong"

    # -- observability ops ---------------------------------------------------

    async def _typed_op(self, message: dict, expect: str) -> dict:
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            await self._send({**message, "id": request_id})
            event = await self._recv(request_id)
        kind = event.get("type")
        if kind == "error":
            raise _server_error(event)
        if kind != expect:
            raise ClientError(f"unexpected event type {kind!r}")
        return {key: value for key, value in event.items()
                if key not in ("id", "type")}

    async def history(self, seconds: Optional[float] = None) -> dict:
        """Async twin of :meth:`ReproClient.history`."""
        message: dict = {"op": "history"}
        if seconds is not None:
            message["seconds"] = seconds
        return await self._typed_op(message, "history")

    async def profile(self, seconds: float = 1.0) -> dict:
        """Async twin of :meth:`ReproClient.profile`."""
        return await self._typed_op({"op": "profile", "seconds": seconds},
                                    "profile")

    async def alerts(self) -> dict:
        """Async twin of :meth:`ReproClient.alerts`."""
        return await self._typed_op({"op": "alerts"}, "alerts")

    async def trace(self, trace_id: Optional[str] = None) -> dict:
        """Async twin of :meth:`ReproClient.trace`."""
        message: dict = {"op": "trace"}
        if trace_id is not None:
            message["trace_id"] = trace_id
        return await self._typed_op(message, "trace")

    async def trace_export(self, trace_id: Optional[str] = None) -> dict:
        """Async twin of :meth:`ReproClient.trace_export`."""
        message: dict = {"op": "trace_export"}
        if trace_id is not None:
            message["trace_id"] = trace_id
        return await self._typed_op(message, "trace_export")

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "AsyncReproClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
