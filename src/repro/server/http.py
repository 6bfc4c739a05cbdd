"""A minimal HTTP/1.1 adapter over the server app (no dependencies).

Every ``GET`` route is one row of :data:`_GET_ROUTES`: the TCP op it asks
the app's op table (:meth:`~repro.server.frontdoor.FrontDoor.op_event`),
the query parameters it forwards, and the reply field that forms the body.
The op validates its parameters as it does over TCP; a refusal answers
400 with ``{"error": ...}`` and a server fault answers 500 with the typed
``internal`` error event.

==================  ================  ==========================================
route               op                body
==================  ================  ==========================================
``/healthz``        ``health``        the health object (``status`` turns
                                      ``draining`` during shutdown)
``/stats``          ``stats``         the counter report, including the
                                      single-flight coalescing counters
``/metrics``        ``metrics``       Prometheus text exposition (0.0.4),
                                      rendered only when scraped
``/history``        ``history``       the tsdb window (``?seconds=N``), the
                                      data ``repro top`` renders from
``/profile``        ``profile``       ``text/plain`` collapsed stacks after
                                      sampling for ``?seconds=N`` (default
                                      1, capped at 60) -- flamegraph-ready
``/trace``          ``trace_export``  one stored trace (``?id=TRACE_ID``,
                                      else the latest) as a Chrome
                                      trace-event document; 404 when none
``/alerts``         ``alerts``        SLO burn-rate alert states plus a
                                      rolled-up ``firing`` flag
``/cluster``        ``cluster``       the coordinator's fleet status (a
                                      door without the op answers 404)
==================  ================  ==========================================

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
import json
from typing import Callable, Mapping, NamedTuple, Optional
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


def _response(status: int, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def _json_response(status: int, payload: dict) -> bytes:
    # The wire encoder: a result body splices its cached answers too.
    return _response(status, dump_line(payload))


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request; ``(method, path, params, body)`` or ``None``."""
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


def _number(raw: str):
    """A numeric query parameter as a float; anything else is passed on
    as text for the op to refuse."""
    try:
        return float(raw)
    except ValueError:
        return raw


class _Route(NamedTuple):
    """A read-only route answered by one op of the app's op table."""

    op: str
    #: query parameter -> (message key, decoder of its text)
    params: Mapping[str, tuple[str, Callable]] = {}
    #: the reply field that is the body; None: the reply minus its type
    field: Optional[str] = None
    content_type: str = "application/json"
    #: the status of a ``bad_request`` reply
    refused: int = 400


_SECONDS = {"seconds": ("seconds", _number)}

#: Read-only routes: path -> the op that answers it.
_GET_ROUTES = {
    "/healthz": _Route("health"),
    "/stats": _Route("stats", field="stats"),
    "/metrics": _Route("metrics", field="metrics",
                       content_type="text/plain; version=0.0.4; "
                                    "charset=utf-8"),
    "/history": _Route("history", _SECONDS),
    "/profile": _Route("profile", _SECONDS, "collapsed",
                       "text/plain; charset=utf-8"),
    # The op refuses only when no trace is stored.
    "/trace": _Route("trace_export", {"id": ("trace_id", str)}, "chrome",
                     refused=404),
    "/alerts": _Route("alerts"),
    "/cluster": _Route("cluster"),
}


async def _get(app, route: _Route, params: dict) -> bytes:
    """Answer one read-only route with its op's reply."""
    message = {key: decode(params[name])
               for name, (key, decode) in route.params.items()
               if name in params}
    reply = await app.op_event(route.op, message)
    if reply["type"] == "error":
        code = reply["code"]
        status = (route.refused if code == "bad_request"
                  else _ERROR_STATUS.get(code, 500))
        return _json_response(status, reply if status >= 500
                              else {"error": reply["message"]})
    if route.field is None:
        body = {key: value for key, value in reply.items() if key != "type"}
    else:
        body = reply[route.field]
    data = body.encode("utf-8") if isinstance(body, str) else dump_line(body)
    return _response(200, data, route.content_type)


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
    route = _GET_ROUTES.get(target)
    if route is not None and route.op in app.OPS:
        if method != "GET":
            writer.write(_json_response(405, {"error": "use GET"}))
        else:
            writer.write(await _get(app, route, params))
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
