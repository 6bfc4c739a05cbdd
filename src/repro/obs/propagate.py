"""W3C-traceparent-style trace context propagation over the wire protocol.

One request that fans coordinator -> worker -> (failover) worker should
produce *one* span tree, not three disconnected per-process traces.  The
glue is a single optional top-level field on NDJSON wire messages::

    {"op": "query", "sql": "...", "traceparent": "00-<32 hex>-<16 hex>-01"}

following the `W3C Trace Context <https://www.w3.org/TR/trace-context/>`_
``traceparent`` header layout: ``version "00"``, a 128-bit ``trace_id``
naming the whole distributed request, the 64-bit span id of the *sender's*
span (the receiver's root spans parent onto it), and the sampled flag.

Deliberate choices:

* The field rides **outside** ``options``: option keys feed
  :func:`~repro.server.protocol.request_key`, and trace context must never
  change coalescing identity -- a traced and an untraced copy of the same
  query must still share one flight (and therefore one computation).
* Ids come from :func:`os.urandom`, never from the seeded NumPy streams the
  estimators consume, so propagation cannot perturb answers -- the same
  bit-identity contract as the rest of :mod:`repro.obs`.
* Parsing is lenient: a malformed ``traceparent`` yields ``None`` and the
  request simply runs untraced, mirroring how real tracing systems treat
  broken inbound headers (drop the context, never the request).
"""

from __future__ import annotations

import os
import string
from dataclasses import dataclass
from typing import Any, Mapping, Optional

#: The top-level wire-message key carrying the context.
TRACEPARENT_KEY = "traceparent"

#: The only version this implementation emits (and the only one it parses).
TRACEPARENT_VERSION = "00"

_HEX = set(string.hexdigits.lower())


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def format_traceparent(trace_id: str, span_id: int) -> str:
    """Render ``00-<trace_id>-<span_id>-01`` for one outbound hop."""
    return f"{TRACEPARENT_VERSION}-{trace_id}-{span_id & (2 ** 64 - 1):016x}-01"


@dataclass(frozen=True)
class TraceContext:
    """A parsed inbound context: which trace, and which remote parent span.

    ``parent_id == 0`` means "trace id assigned, but no parent span yet" --
    the shape a front door uses when it mints a trace id without having
    opened a span of its own.
    """

    trace_id: str
    parent_id: int = 0

    def traceparent(self, span_id: Optional[int] = None) -> str:
        """The outbound header for a child hop (``span_id`` becomes the
        receiver's remote parent; defaults to this context's parent)."""
        return format_traceparent(
            self.trace_id, span_id if span_id is not None else self.parent_id)


def new_context() -> TraceContext:
    """A root context: fresh trace id, no remote parent."""
    return TraceContext(trace_id=new_trace_id(), parent_id=0)


def _is_hex(text: str) -> bool:
    return bool(text) and all(char in _HEX for char in text)


def parse_traceparent(value: Any) -> Optional[TraceContext]:
    """Parse a ``traceparent`` string; ``None`` on anything malformed."""
    if not isinstance(value, str):
        return None
    parts = value.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, parent_hex, flags = parts
    if version != TRACEPARENT_VERSION:
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if trace_id == "0" * 32:
        return None
    if len(parent_hex) != 16 or not _is_hex(parent_hex):
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    return TraceContext(trace_id=trace_id, parent_id=int(parent_hex, 16))


def extract_context(message: Mapping[str, Any]) -> Optional[TraceContext]:
    """The trace context carried by one wire message, if any (and valid)."""
    return parse_traceparent(message.get(TRACEPARENT_KEY))


def inject_context(message: dict, trace_id: str, span_id: int) -> dict:
    """Return ``message`` with a ``traceparent`` naming ``span_id`` as the
    receiver's parent (mutates and returns the dict, matching how forward
    messages are built in one expression)."""
    message[TRACEPARENT_KEY] = format_traceparent(trace_id, span_id)
    return message
