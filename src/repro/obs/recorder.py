"""The recorder facade: what instrumented layers talk to.

A :class:`Recorder` bundles the three observability sinks -- a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.slowlog.SlowQueryLog` and a
:class:`~repro.obs.trace.TraceStore` of finished traces --
behind the two calls the service makes per request: :meth:`start_trace`
before work begins and :meth:`observe_request` after it ends.  The
:data:`NULL_RECORDER` singleton is the disabled twin: ``enabled`` is
false, ``start_trace`` returns :data:`~repro.obs.trace.NULL_TRACE`, and
``observe_request`` is a no-op -- an uninstrumented
:class:`~repro.service.AnnotationService` pays one attribute check per
request and nothing else, which is what keeps the differential suites'
disabled path byte-identical to the pre-observability code.

The recorder also owns the scrape-side glue:
:func:`service_stats_collector` turns a service's existing lifetime
counters (requests, cache hits, single-flight) into
Prometheus metric families *at scrape time*, so ``GET /metrics`` adds zero
cost to the request hot path.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    Sample,
)
from repro.obs.propagate import TraceContext, new_context
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import NULL_TRACE, AnyTrace, Trace, TraceStore


class Recorder:
    """Live observability sinks plus the per-request recording protocol."""

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog()
        #: Finished traces by trace id (``repro cluster trace`` fetches
        #: from here after the request is gone).
        self.trace_store = TraceStore()
        self._request_seconds = self.metrics.histogram(
            "repro_request_seconds",
            "End-to-end latency of AnnotationService.submit",
            buckets=LATENCY_BUCKETS)
        self._phase_seconds = self.metrics.histogram(
            "repro_phase_seconds",
            "Per-phase time within one request (parse/enumerate/"
            "schedule/estimate/serialize)",
            labelnames=("phase",), buckets=LATENCY_BUCKETS)
        # Children are created once and live forever, and phase names are a
        # small code-defined set -- memoising them here skips the labelled
        # lookup (tuple build + registry lock) on every finished request.
        self._phase_children: dict = {}

    # -- the per-request protocol -----------------------------------------

    def start_trace(self, name: str = "request",
                    context: Optional[TraceContext] = None) -> AnyTrace:
        """A fresh trace for one request (always real on a live recorder:
        phase histograms and the slow log are fed from its spans even when
        Chrome export was not requested).  Every trace gets a distributed
        trace id -- a propagated inbound ``context`` supplies it, otherwise
        a fresh one is minted -- so slowlog entries and result events can
        always name the trace they belong to."""
        return Trace(name, context=context if context is not None
                     else new_context())

    def observe_request(self, sql: str, elapsed_seconds: float, *,
                        trace: AnyTrace = NULL_TRACE,
                        candidates: int = 0, groups: int = 0) -> None:
        """Fold one finished request into histograms, the slow log, and
        the trace store."""
        phases = trace.phase_totals()
        self._request_seconds.observe(elapsed_seconds)
        for phase, seconds in phases.items():
            child = self._phase_children.get(phase)
            if child is None:
                child = self._phase_children[phase] = \
                    self._phase_seconds.labels(phase=phase)
            child.observe(seconds)
        self.slow_log.record(sql, elapsed_seconds, candidates=candidates,
                             groups=groups, phases=phases,
                             trace_id=trace.trace_id,
                             path=trace.attribute("path"))
        if trace.trace_id is not None:
            self.trace_store.put(trace)


class NullRecorder:
    """The disabled recorder: every operation is free and does nothing."""

    enabled = False
    metrics = None
    slow_log = None
    trace_store = None

    def start_trace(self, name: str = "request",
                    context: Optional[TraceContext] = None) -> AnyTrace:
        return NULL_TRACE

    def observe_request(self, sql: str, elapsed_seconds: float, *,
                        trace: AnyTrace = NULL_TRACE,
                        candidates: int = 0, groups: int = 0) -> None:
        pass


#: The shared disabled recorder (the default for bare services).
NULL_RECORDER = NullRecorder()


# -- scrape-time collectors ---------------------------------------------------


def service_stats_collector(service) -> "callable":
    """A registry collector exporting a service's lifetime counters.

    Reads :meth:`AnnotationService.stats` at scrape time and renders the
    existing counter structures -- requests, caches, single-flight --
    as Prometheus families.  Nothing is
    double-counted on the hot path; the source of truth stays the service's
    ``_counters_lock``-guarded integers.
    """

    def collect() -> Iterable[MetricFamily]:
        stats = service.stats()
        families = [
            _family("repro_service_requests_total", "counter",
                    "Requests served by the annotation service",
                    [({}, stats.requests)]),
            _family("repro_service_answers_total", "counter",
                    "Candidate answers annotated",
                    [({}, stats.answers_served)]),
            _family("repro_service_estimates_computed_total", "counter",
                    "Certainty estimates actually computed",
                    [({}, stats.estimates_computed)]),
            _family("repro_service_estimates_reused_total", "counter",
                    "Certainty estimates served from cache or joined flights",
                    [({}, stats.estimates_reused)]),
            _family("repro_service_tuples_batched_total", "counter",
                    "Tuples that shared another tuple's estimate",
                    [({}, stats.tuples_batched)]),
        ]
        cache_rows = {"hits": [], "misses": [], "evictions": [], "size": []}
        for cache in stats.caches:
            labels = {"cache": cache.name}
            cache_rows["hits"].append((labels, cache.hits))
            cache_rows["misses"].append((labels, cache.misses))
            cache_rows["evictions"].append((labels, cache.evictions))
            cache_rows["size"].append((labels, cache.size))
        families.extend([
            _family("repro_cache_hits_total", "counter",
                    "Cache hits per cache layer", cache_rows["hits"]),
            _family("repro_cache_misses_total", "counter",
                    "Cache misses per cache layer", cache_rows["misses"]),
            _family("repro_cache_evictions_total", "counter",
                    "Cache evictions per cache layer", cache_rows["evictions"]),
            _family("repro_cache_size", "gauge",
                    "Entries currently held per cache layer",
                    cache_rows["size"]),
        ])
        if stats.single_flight is not None:
            flight = stats.single_flight
            families.append(_family(
                "repro_estimate_flights_total", "counter",
                "Estimate single-flight outcomes",
                [({"outcome": "launched"}, flight.launches),
                 ({"outcome": "joined"}, flight.joins),
                 ({"outcome": "failed"}, flight.failures)]))
            families.append(_family(
                "repro_estimate_flights_in_flight", "gauge",
                "Estimate computations currently in flight",
                [({}, flight.in_flight)]))
        return families

    return collect


def process_collector() -> "callable":
    """Process-level basics: uptime and (where available) RSS."""
    started = time.time()

    def collect() -> Iterable[MetricFamily]:
        families = [_family(
            "repro_process_uptime_seconds", "gauge",
            "Seconds since the recorder was created",
            [({}, time.time() - started)])]
        try:
            import resource
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            families.append(_family(
                "repro_process_max_rss_bytes", "gauge",
                "Peak resident set size", [({}, rss_kb * 1024)]))
        except (ImportError, OSError):  # pragma: no cover - non-Unix
            pass
        return families

    return collect


def _family(name: str, kind: str, help: str, rows) -> MetricFamily:
    return MetricFamily(
        name=name, kind=kind, help=help,
        samples=tuple(Sample(name, dict(labels), float(value))
                      for labels, value in rows))
