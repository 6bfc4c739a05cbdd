"""The single-process server application: one front door, one service.

:class:`ServerApp` is the transport-independent middle of the network
server.  Admission control, single-flight coalescing, mutation gating and
drain come from :class:`~repro.server.frontdoor.FrontDoor`; what this
class adds is how a flight is led and how a mutation commits over one
:class:`~repro.service.AnnotationService`:

* **leading a flight** -- ``submit`` runs on a dedicated thread pool via
  ``run_in_executor``; the service's own ``jobs``/``executor``
  options apply unchanged inside each call.  (The service additionally
  single-flights *estimates* on the canonical lineage digest, which
  coalesces structurally identical work across different query texts.)
* **streaming** -- ``adaptive`` requests push every tightened interval to
  every subscriber as it lands: the service's ``on_update`` callback fires
  on a worker thread and is marshalled onto the event loop with
  ``call_soon_threadsafe``, which preserves per-lineage monotonic order;
* **mutations** -- INSERT/DELETE/UPDATE statements go through the
  service's MVCC commit path while readers keep streaming from the
  snapshot they pinned.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.engine.sql.lexer import SqlSyntaxError
from repro.engine.translate_sql import SqlTranslationError
from repro.obs.alerts import AlertEvaluator, server_slos
from repro.obs.metrics import counters_family
from repro.obs.profiler import DEFAULT_INTERVAL, profile_payload
from repro.obs.recorder import (
    NULL_RECORDER,
    Recorder,
    process_collector,
    service_stats_collector,
)
from repro.obs.trace import spans_to_chrome
from repro.obs.tsdb import TimeSeriesStore
from repro.relational.mutation import MutationError
from repro.relational.schema import SchemaError
from repro.server.frontdoor import Flight, FrontDoor
from repro.server.protocol import (
    defaults_from_options,
    error_event,
    mutation_event,
    result_event,
    update_event,
)

#: Exceptions that indicate a problem with the query, not with the server.
_QUERY_ERRORS = (SqlSyntaxError, SqlTranslationError, SchemaError, ValueError)


class ServerApp(FrontDoor):
    """Transport-independent query serving over one annotation service."""

    def __init__(self, service, *, max_pending: int = 64,
                 workers: int = 4, recorder: Optional[Recorder] = None,
                 observe: bool = True) -> None:
        super().__init__(defaults_from_options(service.options),
                         max_pending=max_pending)
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self._service = service
        if observe:
            # Serving observes by default: reuse the service's live recorder
            # if one is attached, otherwise create one and attach it, so
            # request latency histograms and the slow-query log are
            # populated without any extra configuration.  Scrape-time
            # collectors export the service's and the server's lifetime
            # counters with zero cost on the request hot path.
            existing = getattr(service, "recorder", None)
            if recorder is None:
                recorder = (existing
                            if existing is not None and existing.enabled
                            else Recorder())
            self._recorder = recorder
            if existing is not recorder and hasattr(service, "use_recorder"):
                service.use_recorder(recorder)
            recorder.metrics.register_collector(
                service_stats_collector(service))
            recorder.metrics.register_collector(process_collector())
            recorder.metrics.register_collector(self._server_collector)
            # Periodic registry snapshots feed ``/history`` and the SLO
            # burn-rate evaluation; the sampler thread starts with the
            # server (NetworkServer.start calls ``app.start``).
            self._tsdb = TimeSeriesStore(recorder.metrics)
            self._alert_evaluator = AlertEvaluator(server_slos())
        else:
            # ``observe=False`` is the bare half of the overhead benchmark:
            # no recorder, no collectors, no sampler thread, no tracing.
            self._recorder = NULL_RECORDER
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-server")

    @property
    def service(self):
        return self._service

    # -- leading a flight and committing a mutation --------------------------

    async def _lead(self, flight: Flight, sql: str, options: dict,
                    context) -> dict:
        """Run the flight's one computation on the compute pool."""
        loop = asyncio.get_running_loop()
        # A live recorder traces every request (that is what feeds phase
        # histograms and the slow log); an inbound ``traceparent`` makes
        # this trace one hop of a distributed one -- same trace id, local
        # root spans parented onto the sender's span.
        tr = (self._recorder.start_trace(context=context)
              if self._recorder.enabled else None)
        if tr is not None:
            flight.trace_id = tr.trace_id

        def on_update(group, update) -> None:
            # Fires on a service worker thread mid-submit; marshal onto the
            # loop.  call_soon_threadsafe is FIFO, so updates always land
            # before the executor future's completion callback below.
            loop.call_soon_threadsafe(
                flight.publish,
                update_event(None, group.canonical.digest.hex(), update))

        def submit():
            return self._service.submit(
                sql,
                epsilon=options["epsilon"], delta=options["delta"],
                method=options["method"], limit=options["limit"],
                seed=options["seed"], adaptive=options["adaptive"], trace=tr,
                on_update=on_update if options["adaptive"] else None)

        try:
            response = await loop.run_in_executor(self._executor, submit)
        except _QUERY_ERRORS as error:
            self._query_errors += 1
            return error_event(None, "invalid_query", str(error))
        return result_event(None, response)

    async def _commit(self, sql: str, context) -> dict:
        """Apply one statement through the service's MVCC commit path;
        the commit swaps the service's database reference atomically."""
        # Honor a propagated trace context (the coordinator injects one on
        # broadcast mutations); purely local mutations stay untraced.
        tr = (self._recorder.start_trace("mutation", context=context)
              if self._recorder.enabled and context is not None else None)
        span = tr.span("mutate") if tr is not None else None
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                self._executor, self._service.mutate, sql)
        except MutationError as error:
            # Typed statement failures: "validation" and "conflict" --
            # checked before _QUERY_ERRORS since MutationError is a
            # ValueError too.
            self._mutation_errors += 1
            event = error_event(None, error.code, str(error))
        except _QUERY_ERRORS as error:
            self._mutation_errors += 1
            event = error_event(None, "invalid_query", str(error))
        except Exception as error:  # noqa: BLE001 - reported, not hidden
            event = self._internal(error)
        else:
            self._mutations += 1
            event = mutation_event(None, outcome)
        if tr is not None:
            if event.get("type") == "error":
                span.set("error", event.get("code", "error"))
            span.__exit__(None, None, None)
            self._recorder.trace_store.put(tr)
            event["trace_id"] = tr.trace_id
        return event

    # -- auxiliary operations ------------------------------------------------

    @property
    def recorder(self) -> Recorder:
        return self._recorder

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics`` / the TCP
        ``metrics`` op: live instruments plus every registered collector."""
        if self._recorder.metrics is None:
            return "# observability disabled\n"
        return self._recorder.metrics.render()

    async def profile(self, seconds: float = 1.0,
                      interval: Optional[float] = None) -> dict:
        """Run the sampling profiler for ``seconds``; collapsed stacks.

        Blocking sampling runs on the default executor, never on the
        bounded compute pool -- a profile must not occupy a slot the
        queries it is observing are waiting for.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, profile_payload, float(seconds),
            float(interval) if interval else DEFAULT_INTERVAL)

    def trace_payload(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One stored trace's spans (latest when ``trace_id`` is None)."""
        store = getattr(self._recorder, "trace_store", None)
        if store is None:
            return None
        trace = store.get(trace_id) if trace_id else store.latest()
        if trace is None:
            return None
        return {
            "trace_id": trace.trace_id,
            "name": trace.name,
            "process": f"server:{os.getpid()}",
            "spans": trace.span_dicts(),
        }

    def trace_export(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One stored trace as a ready-to-write Chrome trace document."""
        payload = self.trace_payload(trace_id)
        if payload is None:
            return None
        chrome = spans_to_chrome(payload["trace_id"],
                                 [(payload["process"], payload["spans"])])
        return {
            "trace_id": payload["trace_id"],
            "processes": [payload["process"]],
            "span_count": len(payload["spans"]),
            "chrome": chrome,
        }

    def _server_collector(self):
        """Scrape-time export of the app's own event-loop counters."""
        return [
            counters_family(
                "repro_server_requests_total",
                "Query requests received (before admission/coalescing)",
                [({}, self._requests)]),
            counters_family(
                "repro_server_flights_total",
                "Computations launched vs. requests coalesced onto one",
                [({"outcome": "launched"}, self._launched),
                 ({"outcome": "coalesced"}, self._coalesced)]),
            counters_family(
                "repro_server_overloads_total",
                "Requests rejected at the admission limit",
                [({}, self._overloads)]),
            counters_family(
                "repro_server_errors_total",
                "Terminal error events by kind",
                [({"kind": "query"}, self._query_errors),
                 ({"kind": "mutation"}, self._mutation_errors),
                 ({"kind": "internal"}, self._internal_errors)]),
            counters_family(
                "repro_server_mutations_total",
                "Mutation statements committed",
                [({}, self._mutations)]),
            counters_family(
                "repro_server_data_version",
                "Data version of the service's current snapshot",
                [({}, getattr(getattr(self._service, "database", None),
                              "data_version", 0))],
                kind="gauge"),
            counters_family(
                "repro_server_active_flights",
                "Computations currently in flight",
                [({}, len(self._flights))], kind="gauge"),
            counters_family(
                "repro_server_uptime_seconds",
                "Seconds since the server app started",
                [({}, time.monotonic() - self._started)], kind="gauge"),
        ]

    def stats(self) -> dict:
        """The ``/stats`` payload: server counters, the service report, and
        current SLO alert states."""
        return {
            "alerts": self.alerts_report()["alerts"],
            "server": self._counters(),
            "service": self._service.stats().as_dict(),
        }

    def close(self) -> None:
        """Release the compute pool and sampler thread (after draining)."""
        super().close()
        self._executor.shutdown(wait=False, cancel_futures=True)
