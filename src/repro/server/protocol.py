"""The wire protocol of the repro network server.

One framing, two transports.  Every message is a single JSON object; the
TCP transport delimits messages with newlines (NDJSON), the HTTP adapter
carries the same objects as request/response bodies (and as an NDJSON
stream for adaptive responses).  This module owns everything both sides
must agree on:

* **requests** -- :func:`parse_query_request` validates a client message
  against the option schema and resolves request defaults, so malformed
  input dies at the protocol boundary with a typed error instead of
  surfacing as a traceback from deep inside the engine;
* **values** -- database constants travel as themselves, marked nulls as
  the same ``⊤:name`` / ``⊥:name`` strings the CSV layer uses
  (:func:`encode_value` / :func:`decode_value`);
* **answers** -- :func:`encode_answer` / :func:`decode_answer` round-trip
  an :class:`~repro.service.answers.AnnotatedAnswer` including its full
  :class:`~repro.certainty.result.CertaintyResult` and canonical-lineage
  digest, bit-exactly: floats are serialised by ``json`` via ``repr``
  (shortest round-trip form), so a decoded certainty equals the served one.
  A served answer is encoded once per service answer slot, as the two
  byte runs either side of its snapshot ``dimension``
  (:class:`EncodedAnswers`); every line that carries it splices those
  runs around the dimension its response pinned;
* **coalescing keys** -- :func:`request_key` is the tuple under which the
  server single-flights concurrent identical requests;
* **trace context** -- query and mutation messages may carry an optional
  top-level ``traceparent`` field (:data:`TRACEPARENT_KEY`, W3C
  ``00-<trace_id>-<parent_span_id>-01`` layout; see
  :mod:`repro.obs.propagate`).  It rides *outside* ``options`` on purpose:
  options feed :func:`request_key`, and trace context must never change
  coalescing identity -- a traced and an untraced copy of the same query
  share one flight.  Result and mutation terminals from an observing
  server carry the request's ``trace_id`` back to the client.

Error taxonomy (the ``code`` field of ``type: "error"`` messages):

``bad_request``
    The message is not valid JSON, not an object, or violates the option
    schema.
``invalid_query``
    The SQL failed to parse/translate, or referenced unknown tables or
    columns.
``validation``
    A mutation statement failed validation: unknown table or column,
    wrong VALUES arity, a type mismatch, or arithmetic over a marked
    null.  The snapshot is untouched.
``conflict``
    A mutation would have produced a duplicate row under the engine's
    set semantics.  The snapshot is untouched.
``overloaded``
    Admission control rejected the request: the server already has
    ``max_pending`` computations queued or running.  Back off and retry.
``draining``
    The server received SIGTERM and is finishing in-flight requests; it
    will not accept new ones.
``internal``
    Anything else -- a bug, reported with the exception's message.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import Any, Mapping, Optional

from repro.certainty.result import CertaintyResult
# Redundant alias = explicit re-export: transports import the trace-context
# field name from the protocol module they already depend on.
from repro.obs.propagate import TRACEPARENT_KEY as TRACEPARENT_KEY
from repro.service.answers import AnnotatedAnswer
from repro.service.service import (
    SERVICE_METHODS,
    QueryText,
    ServiceOptions,
    normalise_sql,
)
from repro.relational.values import BaseNull, NumNull

#: Prefixes marked nulls travel under (the CSV layer's convention).
_NUM_NULL_PREFIX = "⊤:"
_BASE_NULL_PREFIX = "⊥:"

#: Option keys a query request may carry, with their validators.
_OPTION_SCHEMA = ("epsilon", "delta", "method", "limit", "seed", "adaptive")

#: Longest accepted wire line (requests and responses), 16 MiB.  Bounds the
#: per-connection buffer so one client cannot balloon the server's memory.
MAX_LINE_BYTES = 16 * 1024 * 1024


class ProtocolError(Exception):
    """A request the server refuses, carrying its wire-level error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code

    def as_event(self, request_id: Any = None) -> dict:
        return error_event(request_id, self.code, str(self))


class OverloadError(ProtocolError):
    """Typed backpressure rejection: the admission queue is full."""

    def __init__(self, message: str) -> None:
        super().__init__("overloaded", message)


def error_event(request_id: Any, code: str, message: str) -> dict:
    return {"id": request_id, "type": "error", "code": code,
            "message": message}


def mutation_event(request_id: Any, outcome) -> dict:
    """The terminal message of a successful mutation statement.

    Carries the :class:`~repro.engine.mutate.MutationOutcome` fields --
    including ``data_version``, the version the statement committed, so a
    client can correlate later query results with the data they saw.
    """
    return {"id": request_id, "type": "mutation", **outcome.as_dict()}


def parse_mutation_request(message: Mapping) -> str:
    """Validate a mutation message; returns the statement's SQL text."""
    sql = message.get("sql", message.get("statement"))
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError("bad_request",
                            "mutation requests need a non-empty 'sql' string")
    return sql


# -- requests ----------------------------------------------------------------


def defaults_from_options(options: Optional[ServiceOptions] = None) \
        -> dict[str, Any]:
    """The option values a request inherits when it omits them.

    Resolved from a service's :class:`ServiceOptions`; with none, the
    library defaults apply -- a front door must never start with an empty
    defaults mapping, or resolution fills ``method`` et al. with ``None``
    and every request is rejected as malformed.
    """
    if options is None:
        options = ServiceOptions()
    seed = options.seed
    return {
        "epsilon": options.epsilon,
        "delta": options.delta,
        "method": options.method,
        "limit": None,
        "seed": seed if isinstance(seed, int) else None,
        "adaptive": options.adaptive,
    }


def parse_query_request(message: Mapping,
                        defaults: Mapping[str, Any]) -> tuple[str, dict]:
    """Validate a query message and resolve its options against defaults.

    Returns ``(sql, options)`` where ``options`` has every key of
    ``defaults`` filled in -- resolution happens *before* coalescing, so a
    request that spells out the default epsilon and one that omits it share
    a single-flight key -- and ``sql`` is a :class:`QueryText`, normalised
    here once for the whole request.
    """
    sql = message.get("sql", message.get("query"))
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError("bad_request",
                            "query requests need a non-empty 'sql' string")
    supplied = message.get("options", {})
    if not isinstance(supplied, Mapping):
        raise ProtocolError("bad_request", "'options' must be an object")
    unknown = sorted(set(supplied) - set(_OPTION_SCHEMA))
    if unknown:
        raise ProtocolError(
            "bad_request",
            f"unknown option(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(_OPTION_SCHEMA)}")
    options = dict(defaults)
    options.update({key: supplied[key] for key in _OPTION_SCHEMA
                    if key in supplied})
    _validate_options(options)
    return QueryText(sql), options


def _validate_options(options: Mapping[str, Any]) -> None:
    epsilon = options.get("epsilon")
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool) \
            or not 0.0 < float(epsilon) <= 1.0:
        raise ProtocolError("bad_request",
                            f"epsilon must be in (0, 1], got {epsilon!r}")
    delta = options.get("delta")
    if delta is not None and (not isinstance(delta, (int, float))
                              or isinstance(delta, bool)
                              or not 0.0 < float(delta) < 1.0):
        raise ProtocolError("bad_request",
                            f"delta must be in (0, 1), got {delta!r}")
    method = options.get("method")
    if method not in SERVICE_METHODS:
        raise ProtocolError(
            "bad_request",
            f"method must be one of {', '.join(SERVICE_METHODS)}, "
            f"got {method!r}")
    limit = options.get("limit")
    if limit is not None and (not isinstance(limit, int)
                              or isinstance(limit, bool) or limit < 0):
        raise ProtocolError("bad_request",
                            f"limit must be a non-negative integer, got {limit!r}")
    seed = options.get("seed")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool) or seed < 0):
        raise ProtocolError("bad_request",
                            f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(options.get("adaptive"), bool):
        raise ProtocolError("bad_request", "adaptive must be a boolean")


def request_key(sql: str, options: Mapping[str, Any]) -> tuple:
    """The single-flight coalescing key of one fully-resolved request.

    A plain tuple: the normalised SQL (whitespace collapsed outside string
    literals only -- the service's cache-key normalisation, so literal
    contents can never make two different queries coalesce), then each
    resolved option in :data:`_OPTION_SCHEMA` order with its type, since
    ``1`` and ``1.0`` (or ``True``) are equal in Python but different
    requests on the wire.  Computed synchronously in the event loop --
    before parsing or planning -- so a burst of identical requests
    coalesces before any of them costs anything.  Structural sharing
    *across* different query texts happens one layer down, where the
    service single-flights estimates on the canonical lineage digest.
    """
    return (normalise_sql(sql),) + tuple(
        (type(value), value) for value in map(options.get, _OPTION_SCHEMA))


# -- values and answers ------------------------------------------------------


def encode_value(value: Any) -> Any:
    """A database value as it travels on the wire."""
    if isinstance(value, NumNull):
        return _NUM_NULL_PREFIX + value.name
    if isinstance(value, BaseNull):
        return _BASE_NULL_PREFIX + value.name
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    return str(value)


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (nulls come back as marked-null objects)."""
    if isinstance(value, str):
        if value.startswith(_NUM_NULL_PREFIX):
            return NumNull(value[len(_NUM_NULL_PREFIX):])
        if value.startswith(_BASE_NULL_PREFIX):
            return BaseNull(value[len(_BASE_NULL_PREFIX):])
    return value


def sanitize(value: Any) -> Any:
    """Best-effort JSON-safe projection of arbitrary detail payloads.

    Certainty details may carry NumPy scalars, arrays, or nested traces;
    everything JSON cannot carry natively is converted (scalars to Python
    numbers, arrays to lists, bytes to hex, unknown objects to ``str``).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    # NumPy scalars and arrays, without importing numpy here.
    item = getattr(value, "item", None)
    if callable(item) and not getattr(value, "shape", ()):
        try:
            return sanitize(item())
        except (TypeError, ValueError):  # pragma: no cover - defensive
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        try:
            return sanitize(tolist())
        except (TypeError, ValueError):  # pragma: no cover - defensive
            pass
    return str(value)


def encode_certainty(certainty: CertaintyResult) -> dict:
    low, high = certainty.interval()
    return {
        "value": certainty.value,
        "method": certainty.method,
        "guarantee": certainty.guarantee,
        "epsilon": certainty.epsilon,
        "delta": certainty.delta,
        "samples": certainty.samples,
        "dimension": certainty.dimension,
        "relevant_dimension": certainty.relevant_dimension,
        "interval": [low, high],
        "details": sanitize(certainty.details),
    }


def decode_certainty(payload: Mapping) -> CertaintyResult:
    """Invert :func:`encode_certainty`: its fields minus the derived
    ``interval`` (``CertaintyResult.interval()`` recomputes it).  A key
    the encoder does not write is refused (``TypeError``)."""
    fields = dict(payload)
    fields.pop("interval", None)
    fields["details"] = dict(fields["details"] or {})
    return CertaintyResult.from_fields(fields)


def encode_answer(answer: AnnotatedAnswer) -> dict:
    return _answer_payload(answer, answer.certainty, answer.lineage_digest)


def _answer_payload(row, certainty: CertaintyResult,
                    digest: Optional[bytes]) -> dict:
    """An answer's wire object: ``row``'s values, columns and witnesses
    (an answer's or a candidate's), with ``certainty`` and ``digest``."""
    return {
        "values": [encode_value(value) for value in row.values],
        "columns": list(row.columns),
        "witnesses": row.witnesses,
        "certainty": encode_certainty(certainty),
        "lineage": digest.hex() if digest is not None else None,
    }


def decode_answer(payload: Mapping) -> AnnotatedAnswer:
    lineage = payload.get("lineage")
    return AnnotatedAnswer(
        values=tuple(decode_value(value) for value in payload["values"]),
        columns=tuple(payload["columns"]),
        certainty=decode_certainty(payload["certainty"]),
        witnesses=payload["witnesses"],
        lineage_digest=bytes.fromhex(lineage) if lineage else None,
    )


class EncodedAnswers(Sequence):
    """A result event's ``answers``: a response's served answers with
    their wire encoding, which :func:`dump_line` splices into the line.

    ``pairs[i]`` is the JSON of answer ``i`` either side of its
    certainty's ``dimension`` value; the line joins each pair around the
    memo's dimension, the response's pinned snapshot.  Reading the
    sequence materialises the answer dicts (:func:`encode_answer`'s) from
    the memo's candidates and slots, for in-process readers; the wire
    reads only the pairs, so a served line never builds an answer.  The
    memo itself is not held: it holds this instance.

    One instance is shared by every event served from one answer memo --
    coalesced followers and later warm requests alike -- so it must be
    treated as read-only: ``wire`` caches the list's JSON as first
    written and would not follow a mutation.
    """

    __slots__ = ("candidates", "slots", "dimension", "pairs", "wire")

    def __init__(self, memo, pairs) -> None:
        self.candidates = memo.candidates
        self.slots = memo.slots
        self.dimension = memo.dimension
        self.pairs = pairs
        #: UTF-8 JSON of the list, filled by the first :func:`dump_line`.
        self.wire: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index: int) -> dict:
        slot = self.slots[index]
        payload = _answer_payload(self.candidates[index], slot.result,
                                  slot.digest)
        payload["certainty"]["dimension"] = self.dimension
        return payload

    def __eq__(self, other) -> bool:
        if isinstance(other, EncodedAnswers):
            other = list(other)
        return isinstance(other, list) and list(self) == other

    def splice(self) -> bytes:
        """The list's JSON: each pair joined around the memo's dimension."""
        dimension = _encode_json(self.dimension).encode("utf-8")
        return b"[" + b",".join(head + dimension + tail
                                for head, tail in self.pairs) + b"]"


def _answer_runs(candidate, slot) -> tuple[bytes, bytes]:
    """:func:`encode_answer`'s JSON of ``candidate`` annotated from its
    answer ``slot``, either side of its certainty's dimension value.

    The first ``,"dimension":`` is the certainty's key: every string
    before it is JSON-escaped, so none holds a bare quote, and the
    integer value after it ends at the next key.
    """
    head, _, tail = _encode_json(_answer_payload(
        candidate, slot.result, slot.digest)).partition(',"dimension":')
    return ((head + ',"dimension":').encode("utf-8"),
            tail[tail.index(',"relevant_dimension":'):].encode("utf-8"))


# -- framing -----------------------------------------------------------------

#: The wire's JSON encoder (compact separators, UTF-8 rather than escapes).
_encode_json = json.JSONEncoder(separators=(",", ":"),
                                ensure_ascii=False).encode


def dump_line(message: Mapping) -> bytes:
    """One wire message as an NDJSON line (UTF-8, trailing newline).

    Byte-identical to ``json.dumps(message, separators=(",", ":"),
    ensure_ascii=False)`` plus a newline, with any :class:`EncodedAnswers`
    materialised.  Their JSON is spliced in between the per-request
    fields (wire messages have string keys, written in order) instead of
    being encoded again.
    """
    answers = message.get("answers")
    if type(answers) is not EncodedAnswers:
        return (_encode_json(message) + "\n").encode("utf-8")
    wire = answers.wire
    if wire is None:
        wire = answers.wire = answers.splice()
    fields = [_encode_json(key).encode("utf-8") + b":"
              + (wire if value is answers
                 else _encode_json(value).encode("utf-8"))
              for key, value in message.items()]
    return b"{" + b",".join(fields) + b"}\n"


def load_line(line: bytes) -> dict:
    """Parse one NDJSON line into a message object, or raise ProtocolError."""
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ProtocolError("bad_request", f"malformed JSON: {error}")
    if not isinstance(message, dict):
        raise ProtocolError("bad_request",
                            "wire messages must be JSON objects")
    return message


def update_event(request_id: Any, lineage_hex: str, update) -> dict:
    """An adaptive refinement streamed mid-request."""
    low, high = update.interval
    return {"id": request_id, "type": "update", "lineage": lineage_hex,
            "stage": update.stage, "stages": update.stages,
            "epsilon": update.epsilon, "value": update.value,
            "interval": [low, high], "samples": update.samples,
            "final": update.final}


def result_event(request_id: Any, response) -> dict:
    """The terminal message of a successful query.

    Coalesced followers receive the leader's event verbatim (only the
    ``id`` is rewritten per subscriber), so duplicate in-flight requests
    observe byte-identical payloads -- including ``elapsed_seconds``, which
    is the one computation's cost, not the follower's wait.  ``answers``
    is the :class:`EncodedAnswers` of the response's answer memo, built by
    the first event from that memo and shared read-only after; only the
    answers none of the memo's slots has encoded yet are encoded.
    """
    stats = response.stats
    return {
        "id": request_id,
        "type": "result",
        "answers": _encoded_answers(response),
        "stats": {
            "candidates": stats.candidates,
            "groups": stats.groups,
            "groups_from_cache": stats.groups_from_cache,
            "groups_computed": stats.groups_computed,
            "tuples_batched": stats.tuples_batched,
            "elapsed_seconds": stats.elapsed_seconds,
        },
    }


def _encoded_answers(response) -> EncodedAnswers | list:
    """The encoded answers of ``response``, from its served memo's
    candidates and slots: cached on the memo, with each answer's runs
    cached on its slot, when the response reuses the memo; else encoded
    afresh.  A response built around answers of its own encodes them."""
    if response.given_answers is not None:
        return [encode_answer(answer) for answer in response.given_answers]
    memo = response.served
    if response.memo is None:
        return EncodedAnswers(memo, list(map(_answer_runs, memo.candidates,
                                             memo.slots)))
    if memo.encoded is None:
        slots = memo.slots
        for candidate, slot in zip(memo.candidates, slots):
            if slot.encoded is None:
                slot.encoded = _answer_runs(candidate, slot)
        memo.encoded = EncodedAnswers(memo, [slot.encoded for slot in slots])
    return memo.encoded
