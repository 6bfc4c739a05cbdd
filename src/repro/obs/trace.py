"""Per-request span tracing with Chrome trace-event export.

A :class:`Trace` is one request's span tree: ``parse -> enumerate ->
schedule -> estimate (per group / per adaptive rung) -> serialize``.
Spans are created with explicit parents (the service passes its
request-root span into worker closures, so spans recorded on executor
threads still attach to the right tree -- no context-variable propagation
to get wrong), carry a small attribute map (plan-cache misses, frontier
path, sample counts), and record wall-clock anchored ``perf_counter``
timestamps.

Export is the Chrome trace-event JSON format (``chrome://tracing`` /
Perfetto "complete" events, ``ph: "X"``): every span becomes one event
with microsecond ``ts``/``dur``, the recording thread as ``tid``, and the
attributes under ``args``.  ``repro query --trace out.json`` writes exactly
this.

Since the distributed tier, a trace can also be one *hop* of a cross-process
request: constructing a :class:`Trace` with a
:class:`~repro.obs.propagate.TraceContext` adopts the sender's 128-bit
``trace_id``, parents local root spans onto the sender's span id, and
offsets local span ids by a random 64-bit base so ids stay unique across
processes.  :func:`spans_to_chrome` stitches per-process span exports
(:meth:`Trace.span_dicts`, wall-clock anchored) back into one Chrome trace,
and :class:`TraceStore` keeps a bounded ring of finished traces per process
so ``repro cluster trace`` can fetch them after the fact.

The zero-cost-when-disabled contract is the :data:`NULL_TRACE` singleton:
its ``span()`` hands back a shared no-op context manager, so instrumented
code paths run with no allocation and no branching beyond one attribute
lookup.  Tracing never touches random streams, so traced runs are
bit-identical to untraced ones by construction.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.obs.propagate import TraceContext


class SpanRecord:
    """One finished span, as kept in the trace's buffer.

    A plain ``__slots__`` class rather than a dataclass: records are
    allocated on the request hot path (one per span), and the frozen
    dataclass ``__init__`` costs several times more per instance.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "thread",
                 "attributes")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 start: float, end: float, thread: int,
                 attributes: Optional[dict] = None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        #: ``start``/``end`` are seconds on the trace's perf_counter clock.
        self.start = start
        self.end = end
        self.thread = thread
        self.attributes = attributes if attributes is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecord(name={self.name!r}, span_id={self.span_id}, "
                f"parent_id={self.parent_id}, duration={self.duration:.6f})")


class Span:
    """A live span handle; a context manager that records itself on exit."""

    __slots__ = ("_trace", "name", "span_id", "parent_id", "attributes",
                 "_start")

    def __init__(self, trace: "Trace", name: str,
                 parent: Optional[Union["Span", int]] = None,
                 **attributes: Any) -> None:
        self._trace = trace
        self.name = name
        self.span_id = trace._next_id()
        if isinstance(parent, Span):
            self.parent_id = parent.span_id
        elif parent is None:
            # Root spans of a propagated hop attach to the sender's span.
            self.parent_id = trace._remote_parent
        else:
            self.parent_id = parent
        # The ``**attributes`` dict is freshly built per call and owned by
        # this span; copying it again would just double the allocation on
        # the request hot path.
        self.attributes = attributes
        self._start = time.perf_counter()

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (shows up under ``args`` on export)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._trace._record(SpanRecord(
            self.name, self.span_id, self.parent_id, self._start,
            time.perf_counter(), threading.get_ident(), self.attributes))


class Trace:
    """One request's spans, appended concurrently from worker threads."""

    def __init__(self, name: str = "request", *,
                 context: Optional[TraceContext] = None) -> None:
        self.name = name
        #: Wall-clock anchor for export: ``epoch + (start - origin)`` maps a
        #: perf_counter timestamp back onto real time.
        self.origin = time.perf_counter()
        self.epoch = time.time()
        #: The distributed trace id (32 hex chars) when this trace is one
        #: hop of a propagated request; ``None`` for purely local traces.
        self.trace_id = context.trace_id if context is not None else None
        self._remote_parent: Optional[int] = \
            (context.parent_id or None) if context is not None else None
        # Propagated hops draw span ids from a random 64-bit base so ids
        # from different processes never collide when traces are stitched;
        # local traces keep small ids (1, 2, 3 ...) for readability.
        base = (int.from_bytes(os.urandom(6), "big") << 16) \
            if context is not None else 0
        self._ids = itertools.count(base + 1)
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []

    # -- recording ---------------------------------------------------------

    def _next_id(self) -> int:
        return next(self._ids)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def span(self, name: str, parent: Optional[Union[Span, int]] = None,
             **attributes: Any) -> Span:
        """Open a span; use as a context manager (records on ``__exit__``)."""
        return Span(self, name, parent=parent, **attributes)

    def record(self, name: str, start: float, end: float,
               parent: Optional[Union[Span, int]] = None,
               **attributes: Any) -> None:
        """Record an already-timed interval (adaptive rungs are timed by
        their completion callbacks, after the fact)."""
        if isinstance(parent, Span):
            parent_id = parent.span_id
        elif parent is None:
            parent_id = self._remote_parent
        else:
            parent_id = parent
        self._record(SpanRecord(
            name, self._next_id(), parent_id, start, end,
            threading.get_ident(), dict(attributes) if attributes else {}))

    # -- introspection -----------------------------------------------------

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    def phase_totals(self) -> dict[str, float]:
        """Total seconds per span name (the slow-query-log breakdown).

        Span names double as phase labels; repeated spans of one name (per
        group, per rung) accumulate.
        """
        totals: dict[str, float] = {}
        for record in self.spans:
            totals[record.name] = totals.get(record.name, 0.0) \
                + record.duration
        return totals

    # -- export ------------------------------------------------------------

    def span_dicts(self) -> list[dict]:
        """Finished spans as JSON-safe dicts with wall-clock ``start``/``end``
        (seconds since the epoch), the shape the coordinator collects from
        workers to stitch one cross-process trace."""
        spans: list[dict] = []
        for record in self.spans:
            spans.append({
                "name": record.name,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "start": self.epoch + (record.start - self.origin),
                "end": self.epoch + (record.end - self.origin),
                "thread": record.thread,
                "attributes": {
                    key: value if isinstance(value, (str, int, float, bool))
                    or value is None else str(value)
                    for key, value in record.attributes.items()},
            })
        return spans

    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        pid = os.getpid()
        events = [{
            "name": self.name,
            "ph": "M",  # metadata: names the process in the viewer
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "cat": "__metadata",
            "args": {"name": f"repro {self.name}",
                     **({"trace_id": self.trace_id}
                        if self.trace_id else {})},
        }]
        for record in self.spans:
            events.append({
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "pid": pid,
                "tid": record.thread,
                "ts": round((self.epoch + (record.start - self.origin)) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "args": {
                    "span_id": record.span_id,
                    **({"parent_id": record.parent_id}
                       if record.parent_id is not None else {}),
                    **record.attributes,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Union[str, Path]) -> Path:
        """Write the Chrome trace-event file ``repro query --trace`` asks for."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=1,
                                   default=str) + "\n")
        return path


def spans_to_chrome(trace_id: Optional[str],
                    groups: Iterable[tuple[str, Iterable[dict]]]) -> dict:
    """Stitch per-process span exports into one Chrome trace-event document.

    ``groups`` is ``(process_label, span_dicts)`` pairs -- typically the
    coordinator's own spans plus one group per worker that contributed to
    the trace.  Each group gets its own ``pid`` (named via a metadata
    event); span timestamps are already wall-clock anchored by
    :meth:`Trace.span_dicts`, so events from different processes land on a
    shared timeline and parent links stitch across ``pid`` boundaries
    through the ``span_id``/``parent_id`` args.
    """
    events: list[dict] = []
    for pid, (label, spans) in enumerate(groups, start=1):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "cat": "__metadata",
            "args": {"name": label},
        })
        for span in spans:
            start = float(span.get("start", 0.0))
            end = float(span.get("end", start))
            parent_id = span.get("parent_id")
            events.append({
                "name": span.get("name", "span"),
                "cat": "repro",
                "ph": "X",
                "pid": pid,
                "tid": span.get("thread", 0),
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {
                    **({"trace_id": trace_id} if trace_id else {}),
                    "span_id": span.get("span_id"),
                    **({"parent_id": parent_id}
                       if parent_id is not None else {}),
                    **(span.get("attributes") or {}),
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"trace_id": trace_id or ""}}


class TraceStore:
    """A bounded ring of finished traces, keyed by trace id.

    Every serving process keeps one so a distributed trace can be fetched
    *after* the request finished (``repro cluster trace``, ``GET /trace``).
    Bounded so an unscraped server never grows without limit; old traces
    age out in insertion order.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, Trace] = OrderedDict()

    def put(self, trace: "Trace") -> None:
        """Keep one finished trace (ignored when it has no trace id)."""
        trace_id = getattr(trace, "trace_id", None)
        if not trace_id:
            return
        with self._lock:
            self._traces.pop(trace_id, None)
            self._traces[trace_id] = trace
            while len(self._traces) > self._capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional["Trace"]:
        with self._lock:
            return self._traces.get(trace_id)

    def latest(self) -> Optional["Trace"]:
        """The most recently stored trace (what ``repro cluster trace``
        exports when no explicit id is given)."""
        with self._lock:
            if not self._traces:
                return None
            return next(reversed(self._traces.values()))

    def ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class _NullSpan:
    """The shared no-op span: enter/exit/set all do nothing."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = "null"

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTrace:
    """The disabled recorder's trace: every operation is a no-op."""

    name = "null"
    spans: tuple = ()
    trace_id = None

    def span(self, name: str, parent: Any = None, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, start: float, end: float,
               parent: Any = None, **attributes: Any) -> None:
        pass

    def phase_totals(self) -> dict[str, float]:
        return {}

    def span_dicts(self) -> list[dict]:
        return []

    def to_chrome(self) -> dict:  # pragma: no cover - never exported
        return {"traceEvents": []}


#: The shared disabled trace; ``trace is NULL_TRACE`` is the off switch.
NULL_TRACE = NullTrace()

#: Union accepted wherever instrumented code takes "a trace".
AnyTrace = Union[Trace, NullTrace]
