"""Async network serving for the annotation service.

The compute stack (kernels -> columnar engine ->
:class:`~repro.service.AnnotationService`) answered queries fast but only
for callers inside the process; this package is the network layer on top:

* :mod:`repro.server.protocol` -- the NDJSON wire protocol: request
  validation, typed error taxonomy, bit-exact answer serialisation, the
  single-flight request key;
* :mod:`repro.server.frontdoor` -- the request loop every front door
  shares (this server and the cluster coordinator): bounded admission with
  typed backpressure, cross-connection single-flight coalescing with
  streamed-update replay, the mutation gate, drain;
* :mod:`repro.server.app` -- that front door over one service: warm
  reads answered on the event loop, everything that computes on a thread
  pool, adaptive streaming, MVCC mutations;
* :mod:`repro.server.netserver` -- the asyncio TCP listener, the SIGTERM
  drain protocol and the blocking :func:`~repro.server.netserver.serve`
  entry point the CLI uses;
* :mod:`repro.server.http` -- a dependency-free HTTP/1.1 adapter
  (``POST /query``, ``POST /mutate``, ``GET /healthz``, ``GET /stats``);
* :mod:`repro.server.embedded` -- the same server on a background thread,
  for tests, benchmarks and the load generator.

The compute layers are untouched underneath: requests run through the
ordinary ``AnnotationService.submit`` (on a thread pool whenever they
compute anything), so ``jobs``, ``adaptive`` and ``seed`` behave exactly
as they do in-process, and served answers are bit-identical to local
ones.
"""

from repro.server.app import ServerApp
from repro.server.embedded import EmbeddedServer
from repro.server.netserver import (
    DEFAULT_HTTP_PORT,
    DEFAULT_PORT,
    NetworkServer,
    serve,
)
from repro.server.protocol import (
    MAX_LINE_BYTES,
    OverloadError,
    ProtocolError,
    decode_answer,
    decode_value,
    encode_answer,
    encode_value,
    request_key,
)

__all__ = [
    "DEFAULT_HTTP_PORT",
    "DEFAULT_PORT",
    "EmbeddedServer",
    "MAX_LINE_BYTES",
    "NetworkServer",
    "OverloadError",
    "ProtocolError",
    "ServerApp",
    "decode_answer",
    "decode_value",
    "encode_answer",
    "encode_value",
    "request_key",
    "serve",
]
