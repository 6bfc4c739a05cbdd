"""The network front end: TCP NDJSON listener, HTTP adapter, drain protocol.

:class:`NetworkServer` owns the asyncio listeners and the connection
lifecycle around one :class:`~repro.server.app.ServerApp`:

* the **TCP transport** speaks newline-delimited JSON -- one request object
  per line in, one or more response objects per request out, every
  response stamped with the request's ``id`` so clients can correlate.
  ``op`` ``query`` (the default) streams through the app's
  ``query_events``; every other op is answered by the app's op table
  (:meth:`~repro.server.frontdoor.FrontDoor.op_event`);
* the **HTTP transport** (:mod:`repro.server.http`) shares the app and the
  drain machinery;
* the **drain protocol** implements graceful SIGTERM shutdown: stop
  accepting connections, refuse new queries with the typed ``draining``
  error, wait for every in-flight flight to deliver its terminal event and
  every connection handler to flush it, then close sockets and exit 0.

Connections are served concurrently; *within* one connection requests are
processed in arrival order (a client that wants parallelism opens more
connections, which is what the load generator and the acceptance tests do).
"""

from __future__ import annotations

import asyncio
import signal
from functools import partial
from typing import Optional

from repro.obs.logsetup import get_logger
from repro.server.app import ServerApp
from repro.server.http import handle_http_connection
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    dump_line,
    error_event,
    load_line,
)

#: Default ports: TCP wire protocol and the HTTP adapter next to it.
DEFAULT_PORT = 7464
DEFAULT_HTTP_PORT = 7465

logger = get_logger("server")


class NetworkServer:
    """TCP + HTTP listeners around one app.

    The app is either a :class:`ServerApp` built from a ``service`` (the
    single-process shape) or any object implementing the same interface
    passed via ``app=`` -- the cluster coordinator is served this way.
    """

    def __init__(self, service=None, *, app=None,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 http_port: Optional[int] = DEFAULT_HTTP_PORT,
                 max_pending: int = 64, workers: int = 4,
                 drain_timeout: float = 30.0, observe: bool = True) -> None:
        if app is not None:
            self.app = app
        elif service is not None:
            self.app = ServerApp(service, max_pending=max_pending,
                                 workers=workers, observe=observe)
        else:
            raise ValueError("NetworkServer needs a service or an app")
        self._host = host
        self._port = port
        self._http_port = http_port
        self._drain_timeout = drain_timeout
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._connection_tasks: set[asyncio.Task] = set()
        self._serving = 0
        self._flushed = asyncio.Event()
        self._flushed.set()

    # -- addresses -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the ephemeral choice)."""
        assert self._tcp_server is not None, "server not started"
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> Optional[int]:
        if self._http_server is None:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        # Apps with their own bring-up (the cluster coordinator health-
        # checking its workers) finish it before the listeners open.
        starter = getattr(self.app, "start", None)
        if starter is not None:
            await starter()
        self._tcp_server = await asyncio.start_server(
            self._tracked(self._serve_tcp), self._host, self._port,
            limit=MAX_LINE_BYTES)
        if self._http_port is not None:
            self._http_server = await asyncio.start_server(
                self._tracked(partial(handle_http_connection, self)),
                self._host, self._http_port, limit=MAX_LINE_BYTES)

    async def drain(self) -> bool:
        """Graceful shutdown; returns whether everything finished in time.

        Order matters: stop accepting first (no new connections), then
        refuse new queries on existing connections, then wait for in-flight
        computations *and* for their terminal events to be flushed to the
        clients that asked, and only then tear the sockets down.  A drain
        that blows ``drain_timeout`` gives up for real: connection handlers
        still waiting on a wedged flight are cancelled, so the process can
        exit instead of hanging on ``wait_closed``.
        """
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        self.app.begin_drain()
        clean = await self.app.wait_idle(self._drain_timeout)
        try:
            await asyncio.wait_for(self._flushed.wait(), self._drain_timeout)
        except asyncio.TimeoutError:
            clean = False
        if not clean:
            for task in tuple(self._connection_tasks):
                task.cancel()
        for writer in tuple(self._connections):
            writer.close()
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                try:
                    await asyncio.wait_for(server.wait_closed(), 5.0)
                except asyncio.TimeoutError:  # pragma: no cover - wedged
                    clean = False
        self.app.close()
        return clean

    def _enter_request(self) -> None:
        self._serving += 1
        self._flushed.clear()

    def _exit_request(self) -> None:
        self._serving -= 1
        if self._serving == 0:
            self._flushed.set()

    def _tracked(self, serve):
        """A connection callback for either transport: the connection is
        registered for drain (its writer closed, its task cancelled when a
        drain times out) for as long as ``serve`` runs."""
        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            task = asyncio.current_task()
            if task is not None:
                self._connection_tasks.add(task)
            self._connections.add(writer)
            try:
                await serve(reader, writer)
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass
            finally:
                if task is not None:
                    self._connection_tasks.discard(task)
                self._connections.discard(writer)
                writer.close()
        return handle

    # -- the TCP wire protocol -----------------------------------------------

    async def _serve_tcp(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await self._send(writer, error_event(
                    None, "bad_request",
                    f"request line exceeds {MAX_LINE_BYTES} bytes"))
                break
            if not line:
                break
            if not line.strip():
                continue
            self._enter_request()
            try:
                await self._dispatch(writer, line)
            finally:
                self._exit_request()

    async def _dispatch(self, writer: asyncio.StreamWriter, line: bytes) -> None:
        try:
            message = load_line(line)
        except ProtocolError as error:
            await self._send(writer, error.as_event())
            return
        request_id = message.get("id")
        op = message.get("op", "query")
        if op == "query":
            async for event in self.app.query_events(message):
                await self._send(writer, {**event, "id": request_id})
            return
        event = await self.app.op_event(op, message)
        await self._send(writer, {**event, "id": request_id})

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(dump_line(message))
        await writer.drain()


async def _run_until_signalled(server: NetworkServer,
                               announce: bool = True) -> bool:
    await server.start()
    if announce:
        http = server.http_port
        suffix = f" http={server.host}:{http}" if http is not None else ""
        # The stdout announce line is part of the CLI contract: the smoke
        # harness and the tests parse the bound ports from it.
        print(f"listening tcp={server.host}:{server.port}{suffix}",  # noqa: T201
              flush=True)
        logger.info("listening", extra={"tcp_port": server.port,
                                        "http_port": http})
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            registered.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix platforms: Ctrl-C surfaces as KeyboardInterrupt
    try:
        await stop.wait()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
    clean = await server.drain()
    if announce:
        # Also parsed by the graceful-shutdown tests; keep as stdout.
        print("drained" if clean else "drain timed out", flush=True)  # noqa: T201
    return clean


def serve(service=None, *, app=None, host: str = "127.0.0.1",
          port: int = DEFAULT_PORT,
          http_port: Optional[int] = DEFAULT_HTTP_PORT, max_pending: int = 64,
          workers: int = 4, drain_timeout: float = 30.0,
          announce: bool = True, observe: bool = True) -> int:
    """Run the server until SIGTERM/SIGINT; returns a process exit code."""
    server = NetworkServer(service, app=app, host=host, port=port,
                           http_port=http_port,
                           max_pending=max_pending, workers=workers,
                           drain_timeout=drain_timeout, observe=observe)
    try:
        clean = asyncio.run(_run_until_signalled(server, announce=announce))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 0
    if not clean:
        logger.warning("drain timed out with requests still in flight")
    return 0
