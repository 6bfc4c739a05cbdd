"""A minimal HTTP/1.1 adapter over the server app (no dependencies).

The routes mirror the TCP wire protocol one-to-one:

``GET /healthz``
    Liveness: ``200`` with the app's health object (status turns
    ``draining`` during shutdown).
``GET /stats``
    The server/service counter report as JSON -- the same payload as the
    TCP ``stats`` op, including the single-flight coalescing counters the
    acceptance criteria audit.
``GET /metrics``
    Prometheus text exposition (version 0.0.4): request/phase latency
    histograms plus scrape-time exports of every server and service
    lifetime counter.  Rendering happens only when scraped; the query hot
    path pays nothing for it.
``GET /history?seconds=N``
    The tsdb window: periodic metrics snapshots kept server-side, the
    data ``repro top`` renders sparklines and windowed quantiles from.
``GET /profile?seconds=N``
    Runs the sampling profiler for N seconds (default 1, capped at 60)
    and answers ``text/plain`` collapsed stacks -- pipe straight into
    ``flamegraph.pl`` or speedscope.
``GET /trace?id=TRACE_ID``
    One stored trace as a Chrome trace-event JSON document (the latest
    trace when ``id`` is omitted); 404 when nothing is stored.
``GET /alerts``
    SLO burn-rate alert states plus a rolled-up ``firing`` flag.
``POST /mutate``
    Body is a TCP mutation message (``{"sql": "INSERT ..."}``).  The
    response is the terminal ``mutation`` event (with the committed
    ``data_version``) or a typed ``error`` event with its code mapped
    onto a status (``validation`` -> 400, ``conflict`` -> 409).
``POST /query``
    Body is a TCP query message (``{"sql": ..., "options": {...}}``).  The
    default response is one JSON object -- the terminal ``result`` or
    ``error`` event, with ``error`` codes mapped onto status codes
    (``bad_request``/``invalid_query`` -> 400, ``overloaded``/``draining``
    -> 503, ``internal`` -> 500).  With ``"stream": true`` in the body the
    response is ``application/x-ndjson``: every adaptive update event as
    its own line, terminal event last, connection closed at the end
    (HTTP/1.1 EOF-delimited body).

Connections are single-request: the adapter always answers with
``Connection: close``.  This keeps the parser ~80 lines and is exactly
what health probes, curl and the benchmark harness need; long-lived
multiplexed traffic belongs on the TCP protocol.
"""

from __future__ import annotations

import asyncio
import inspect
import json
from urllib.parse import parse_qsl

from repro.server.protocol import MAX_LINE_BYTES, dump_line

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Wire error codes -> HTTP status.
_ERROR_STATUS = {"bad_request": 400, "invalid_query": 400,
                 "validation": 400, "conflict": 409,
                 "overloaded": 503, "draining": 503,
                 "unavailable": 503, "internal": 500}


async def maybe_await(value):
    """Resolve an app payload: sync for :class:`ServerApp`, async for the
    cluster coordinator aggregating over its fleet."""
    if inspect.isawaitable(value):
        return await value
    return value


def _response(status: int, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def _json_response(status: int, payload: dict) -> bytes:
    return _response(status, json.dumps(payload).encode("utf-8"))


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request; returns ``(method, target, body)`` or ``None``."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError("malformed request line")
    method, target, _version = parts
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise ValueError("malformed Content-Length")
    if content_length > MAX_LINE_BYTES:
        raise ValueError("payload too large")
    body = await reader.readexactly(content_length) if content_length else b""
    path, _, query_string = target.partition("?")
    params = dict(parse_qsl(query_string)) if query_string else {}
    return method, path, params, body


class _BadParameter(ValueError):
    """A malformed query-string parameter: the client's error (400)."""


def _float_param(params: dict, key: str, default=None):
    """A numeric query parameter, or raise :class:`_BadParameter`."""
    raw = params.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise _BadParameter(f"'{key}' must be a number, got {raw!r}") \
            from None


def _text(payload: str, content_type: str) -> bytes:
    return _response(200, payload.encode("utf-8"), content_type=content_type)


async def _get_history(app, params: dict) -> bytes:
    seconds = _float_param(params, "seconds")
    return _json_response(200, await maybe_await(app.history(seconds)))


async def _get_profile(app, params: dict) -> bytes:
    seconds = _float_param(params, "seconds", 1.0)
    if seconds is None or seconds <= 0:
        raise _BadParameter("'seconds' must be positive")
    payload = await maybe_await(app.profile(seconds=seconds))
    return _text(payload["collapsed"], "text/plain; charset=utf-8")


async def _get_trace(app, params: dict) -> bytes:
    payload = await maybe_await(app.trace_export(params.get("id")))
    if payload is None:
        return _json_response(404, {"error": "no stored trace"})
    return _json_response(200, payload["chrome"])


async def _get_metrics(app, params: dict) -> bytes:
    return _text(await maybe_await(app.metrics_text()),
                 "text/plain; version=0.0.4; charset=utf-8")


async def _json_report(report) -> bytes:
    return _json_response(200, await maybe_await(report))


#: Read-only routes: path -> ``handler(app, params)``, awaited for the
#: response bytes.  A malformed parameter (:class:`_BadParameter`) answers
#: 400; any other exception is a server fault, never the client's error,
#: and answers 500 with a typed ``internal`` error event.
_GET_ROUTES = {
    "/healthz": lambda app, params: _json_report(app.health()),
    "/stats": lambda app, params: _json_report(app.stats()),
    "/metrics": _get_metrics,
    "/history": _get_history,
    "/profile": _get_profile,
    "/trace": _get_trace,
    "/alerts": lambda app, params: _json_report(app.alerts_report()),
}


def _app_route(app, target: str):
    """An app-specific read-only JSON route (the coordinator's
    ``/cluster``) as a table handler; built-in routes win on a clash."""
    handler = getattr(app, "http_routes", {}).get(target)
    if handler is None:
        return None
    return lambda app, params: _json_report(handler(params))


async def handle_http_connection(server, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
    """Serve one HTTP request on a fresh connection, then close."""
    try:
        request = await _read_request(reader)
    except (ValueError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        writer.write(_json_response(400, {"error": "malformed HTTP request"}))
        await writer.drain()
        return
    if request is None:
        return
    method, target, params, body = request
    app = server.app
    get = _GET_ROUTES.get(target) or _app_route(app, target)
    if get is not None:
        if method != "GET":
            writer.write(_json_response(405, {"error": "use GET"}))
        else:
            try:
                writer.write(await get(app, params))
            except _BadParameter as error:
                writer.write(_json_response(400, {"error": str(error)}))
            except Exception as error:  # noqa: BLE001 - reported, not hidden
                writer.write(_json_response(500, app._internal(error)))
    elif target in _POST_ROUTES:
        if method != "POST":
            writer.write(_json_response(405, {"error": "use POST"}))
        else:
            server._enter_request()
            try:
                await _POST_ROUTES[target](app, body, writer)
            finally:
                server._exit_request()
    else:
        writer.write(_json_response(404, {"error": f"no route {target}"}))
    await writer.drain()


async def _handle_query(app, body: bytes, writer: asyncio.StreamWriter) -> None:
    try:
        message = json.loads(body)
        if not isinstance(message, dict):
            raise ValueError("body must be a JSON object")
    except (ValueError, UnicodeDecodeError) as error:
        writer.write(_json_response(400, {"error": f"malformed body: {error}"}))
        return
    streaming = bool(message.get("stream"))
    if streaming:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        async for event in app.query_events(message):
            writer.write(dump_line(event))
            await writer.drain()
        return
    terminal = None
    async for event in app.query_events(message):
        terminal = event  # non-streaming: only the terminal event is sent
    status = 200
    if terminal.get("type") == "error":
        status = _ERROR_STATUS.get(terminal.get("code"), 500)
    writer.write(_json_response(status, terminal))


async def _handle_mutate(app, body: bytes,
                         writer: asyncio.StreamWriter) -> None:
    try:
        message = json.loads(body)
        if not isinstance(message, dict):
            raise ValueError("body must be a JSON object")
    except (ValueError, UnicodeDecodeError) as error:
        writer.write(_json_response(400, {"error": f"malformed body: {error}"}))
        return
    event = await app.mutate(message)
    status = 200
    if event.get("type") == "error":
        status = _ERROR_STATUS.get(event.get("code"), 500)
    writer.write(_json_response(status, event))


#: Write routes: path -> ``handler(app, body, writer)``; counted as
#: in-flight requests so a drain waits for their responses.
_POST_ROUTES = {"/query": _handle_query, "/mutate": _handle_mutate}
