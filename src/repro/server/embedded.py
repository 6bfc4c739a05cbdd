"""Run the network server inside the current process, on a daemon thread.

Tests, benchmarks and the load generator all need "a real server on a real
socket" without spawning a subprocess: the event loop runs on a background
thread, listeners bind ephemeral ports, and :meth:`EmbeddedServer.stop`
performs the same graceful drain SIGTERM would.  Because the server's
:class:`~repro.service.AnnotationService` lives in this process, a test can
also reach through :attr:`EmbeddedServer.app` and assert on coalescing and
admission counters directly.  Passing ``app=`` serves any front door
instead -- :class:`~repro.cluster.EmbeddedCluster` runs its coordinator
this way.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.server.netserver import NetworkServer


class EmbeddedServer:
    """A :class:`NetworkServer` on a background event-loop thread."""

    def __init__(self, service=None, *, app=None, host: str = "127.0.0.1",
                 max_pending: int = 64, workers: int = 4,
                 http: bool = True, drain_timeout: float = 30.0,
                 observe: bool = True) -> None:
        self._server = NetworkServer(
            service, app=app, host=host, port=0,
            http_port=0 if http else None,
            max_pending=max_pending, workers=workers,
            drain_timeout=drain_timeout, observe=observe)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EmbeddedServer":
        assert self._thread is None, "server already started"
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-embedded-server")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            # NetworkServer.start() awaits the app's own bring-up (a
            # coordinator health-checks its workers) before listening.
            loop.run_until_complete(self._server.start())
        except BaseException as error:  # bind or bring-up failures
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def stop(self, timeout: float = 60.0) -> bool:
        """Drain gracefully and stop the loop; returns drain cleanliness."""
        assert self._loop is not None and self._thread is not None
        future = asyncio.run_coroutine_threadsafe(self._server.drain(),
                                                  self._loop)
        clean = future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        return clean

    def submit(self, coroutine, timeout: float = 60.0):
        """Run a coroutine on the server's event loop and wait for it."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    def __enter__(self) -> "EmbeddedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addresses and introspection -----------------------------------------

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def http_port(self) -> Optional[int]:
        return self._server.http_port

    @property
    def app(self):
        return self._server.app
