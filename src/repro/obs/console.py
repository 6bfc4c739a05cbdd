"""The live operator console behind ``repro top``.

Polls a running server's ``GET /metrics``, ``GET /stats`` and
``GET /history`` endpoints and renders a refreshing terminal dashboard:
request throughput with a qps sparkline, windowed latency quantiles, SLO
burn-rate alert states, cache hit rates, single-flight coalescing,
per-worker trends (cluster front doors), and the slow-query log.

Quantiles come from *subtracting histogram snapshots* bucket-for-bucket
and running :func:`~repro.obs.metrics.histogram_quantile` on the delta --
the fixed log-spaced buckets make the subtraction well-defined.  When the
server exports ``/history`` (the in-process tsdb), the window is computed
server-side from its snapshot ring, so even the *first* frame shows
windowed numbers and sparklines; without it the console falls back to
diffing its own consecutive scrapes.

The fetching side is a plain injectable callable so the console is testable
without sockets, and ``count=`` bounds the number of frames so tests (and
``repro top --count 1``) terminate.  ``repro top --json`` emits one
:func:`snapshot_payload` instead of a dashboard -- the machine-readable
form for scripts and check runners.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TextIO

from repro.obs.metrics import histogram_quantile, parse_exposition

#: ANSI: clear screen + home the cursor (used between frames on a tty).
_CLEAR = "\x1b[2J\x1b[H"

MetricsMap = dict


@dataclass
class ConsoleSample:
    """One poll: wall-clock time plus the endpoint payloads."""

    time: float
    stats: dict
    metrics: MetricsMap = field(default_factory=dict)
    #: The ``/history`` payload (tsdb snapshots); empty when the server
    #: does not export one (observability off, or a pre-tsdb server).
    history: dict = field(default_factory=dict)


def fetch_sample(base_url: str, timeout: float = 5.0) -> ConsoleSample:
    """Poll ``/stats``, ``/metrics`` and ``/history`` over HTTP."""
    base = base_url.rstrip("/")
    with urllib.request.urlopen(f"{base}/stats", timeout=timeout) as response:
        stats = json.loads(response.read().decode("utf-8"))
    metrics: MetricsMap = {}
    try:
        with urllib.request.urlopen(f"{base}/metrics",
                                    timeout=timeout) as response:
            metrics = parse_exposition(response.read().decode("utf-8"))
    except urllib.error.HTTPError:
        # An older server without /metrics still gets a /stats-only console.
        metrics = {}
    history: dict = {}
    try:
        with urllib.request.urlopen(f"{base}/history",
                                    timeout=timeout) as response:
            history = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError:
        history = {}
    return ConsoleSample(time=time.time(), stats=stats, metrics=metrics,
                         history=history)


# -- derived numbers ----------------------------------------------------------


def _metric(metrics: MetricsMap, name: str, **labels: str) -> Optional[float]:
    exact = metrics.get((name, tuple(sorted(labels.items()))))
    if exact is not None:
        return exact
    # A cluster coordinator re-exports every worker's samples with an extra
    # ``worker`` label; the fleet-wide value is their sum.
    total: Optional[float] = None
    for (metric_name, label_items), value in metrics.items():
        if metric_name != name:
            continue
        label_map = dict(label_items)
        if "worker" not in label_map:
            continue
        label_map.pop("worker")
        if label_map == labels:
            total = value if total is None else total + value
    return total


def _histogram_buckets(metrics: MetricsMap, name: str,
                       **labels: str) -> list[tuple[float, float]]:
    """Cumulative ``(le, count)`` pairs of one histogram child.

    Worker-labelled children (a cluster exposition) are summed per bound,
    so quantiles aggregate over the fleet.
    """
    totals: dict[float, float] = {}
    for (metric_name, label_items), value in metrics.items():
        if metric_name != f"{name}_bucket":
            continue
        label_map = dict(label_items)
        bound_text = label_map.pop("le", None)
        label_map.pop("worker", None)
        if bound_text is None or label_map != labels:
            continue
        bound = float("inf") if bound_text == "+Inf" else float(bound_text)
        totals[bound] = totals.get(bound, 0.0) + value
    return sorted(totals.items())


def _bucket_delta(current: Sequence[tuple[float, float]],
                  previous: Sequence[tuple[float, float]],
                  ) -> list[tuple[float, float]]:
    earlier = dict(previous)
    return [(bound, max(0.0, count - earlier.get(bound, 0.0)))
            for bound, count in current]


def window_quantiles(current: ConsoleSample,
                     previous: Optional[ConsoleSample],
                     name: str = "repro_request_seconds",
                     quantiles: Sequence[float] = (0.5, 0.99),
                     ) -> list[Optional[float]]:
    """Latency quantiles over the window between two polls.

    Falls back to lifetime quantiles on the first frame (no previous
    sample to subtract).
    """
    buckets = _histogram_buckets(current.metrics, name)
    if previous is not None:
        buckets = _bucket_delta(
            buckets, _histogram_buckets(previous.metrics, name))
    return [histogram_quantile(buckets, quantile) for quantile in quantiles]


def _rate(current: ConsoleSample, previous: Optional[ConsoleSample],
          name: str, **labels: str) -> Optional[float]:
    """Per-second increase of a counter between two polls."""
    if previous is None:
        return None
    now = _metric(current.metrics, name, **labels)
    then = _metric(previous.metrics, name, **labels)
    elapsed = current.time - previous.time
    if now is None or then is None or elapsed <= 0:
        return None
    return max(0.0, now - then) / elapsed


# -- server-side history (the tsdb window) ------------------------------------

_SPARK_GLYPHS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """A Unicode sparkline of the last ``width`` values (peak-scaled)."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    peak = max(tail)
    if peak <= 0:
        return _SPARK_GLYPHS[0] * len(tail)
    top = len(_SPARK_GLYPHS) - 1
    return "".join(
        _SPARK_GLYPHS[min(top, int(round(value / peak * top)))]
        for value in tail)


def counter_rate_series(snapshots: Sequence[dict],
                        key: str) -> list[float]:
    """Per-second deltas of one tsdb counter series (one rate per pair of
    consecutive snapshots) -- the data behind the qps sparklines.

    ``key`` is the exposition-line prefix the tsdb snapshots by, e.g.
    ``repro_server_requests_total`` or a labelled child.
    """
    rates: list[float] = []
    for earlier, later in zip(snapshots, snapshots[1:]):
        elapsed = later.get("time", 0.0) - earlier.get("time", 0.0)
        if elapsed <= 0:
            continue
        delta = later.get("samples", {}).get(key, 0.0) \
            - earlier.get("samples", {}).get(key, 0.0)
        rates.append(max(0.0, delta) / elapsed)
    return rates


def _history_buckets(start: dict, end: dict,
                     name: str) -> list[tuple[float, float]]:
    """Cumulative bucket deltas of one histogram between two snapshots."""
    prefix = f"{name}_bucket{{"
    buckets: list[tuple[float, float]] = []
    for key, value in end.get("samples", {}).items():
        if not key.startswith(prefix):
            continue
        marker = key.find('le="')
        if marker < 0:
            continue
        closing = key.find('"', marker + 4)
        if closing < 0:
            continue
        bound_text = key[marker + 4:closing]
        bound = float("inf") if bound_text == "+Inf" else float(bound_text)
        delta = max(0.0, value - start.get("samples", {}).get(key, 0.0))
        buckets.append((bound, delta))
    return sorted(buckets)


def history_quantiles(snapshots: Sequence[dict],
                      name: str = "repro_request_seconds",
                      quantiles: Sequence[float] = (0.5, 0.99),
                      ) -> list[Optional[float]]:
    """Latency quantiles over a tsdb window (oldest to newest snapshot)."""
    if len(snapshots) < 2:
        return [None for _ in quantiles]
    buckets = _history_buckets(snapshots[0], snapshots[-1], name)
    return [histogram_quantile(buckets, quantile) for quantile in quantiles]


def history_window_seconds(snapshots: Sequence[dict]) -> Optional[float]:
    if len(snapshots) < 2:
        return None
    return snapshots[-1].get("time", 0.0) - snapshots[0].get("time", 0.0)


#: Request counters in preference order -- a coordinator's history carries
#: the cluster family, a worker's its server family.
_QPS_COUNTERS = ("repro_cluster_requests_total",
                 "repro_server_requests_total",
                 "repro_service_requests_total")

#: Request-latency histograms, same preference order.
_LATENCY_HISTOGRAMS = ("repro_cluster_request_seconds",
                       "repro_request_seconds")


def qps_series(snapshots: Sequence[dict]) -> list[float]:
    """The request-rate series of whichever request counter the history
    carries (cluster front door or single server)."""
    if not snapshots:
        return []
    values = snapshots[-1].get("samples", {})
    for name in _QPS_COUNTERS:
        if name in values:
            return counter_rate_series(snapshots, name)
    return []


def history_latency(snapshots: Sequence[dict],
                    quantiles: Sequence[float] = (0.5, 0.99),
                    ) -> list[Optional[float]]:
    """Windowed latency quantiles from whichever request histogram the
    history carries."""
    if snapshots:
        values = snapshots[-1].get("samples", {})
        for name in _LATENCY_HISTOGRAMS:
            if any(key.startswith(f"{name}_bucket{{") for key in values):
                return history_quantiles(snapshots, name,
                                         quantiles=quantiles)
    return [None for _ in quantiles]


# -- formatting ---------------------------------------------------------------


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}/s"


def _fmt_ratio(hits: float, misses: float) -> str:
    total = hits + misses
    if total <= 0:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 ) -> list[str]:
    """Plain aligned columns; first column left-, the rest right-aligned."""
    if not rows:
        rows = []
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts.extend(cell.rjust(width)
                     for cell, width in zip(cells[1:], widths[1:]))
        return "  ".join(parts).rstrip()
    lines = [line(headers), line(["-" * width for width in widths])]
    lines.extend(line(row) for row in rows)
    return lines


def _alerts_section(stats: dict) -> list[str]:
    """The SLO burn-rate pane (only when the server reports alerts)."""
    alerts = stats.get("alerts") or []
    if not alerts:
        return []
    rows = [(f"{alert.get('slo', '?')}/{alert.get('severity', '?')}",
             f"{alert.get('burn_short', 0.0):.2f}",
             f"{alert.get('burn_long', 0.0):.2f}",
             f"{alert.get('burn_threshold', 0.0):.1f}",
             "FIRING" if alert.get("firing") else "ok")
            for alert in alerts]
    return ["", *render_table(
        ("slo alert", "burn short", "burn long", "threshold", "state"),
        rows)]


def _worker_trends_section(history: dict) -> list[str]:
    """Per-worker qps sparklines (cluster ``/history`` payloads only)."""
    workers = history.get("workers") or {}
    rows = []
    for worker_id in sorted(workers):
        snapshots = workers[worker_id].get("snapshots", [])
        series = qps_series(snapshots)
        if not series:
            continue
        rows.append((worker_id, sparkline(series),
                     _fmt_rate(series[-1] if series else None)))
    if not rows:
        return []
    return ["", *render_table(("worker trend", "qps history", "qps"), rows)]


def _cluster_sections(stats: dict) -> list[str]:
    """Per-worker rows and coordinator counters (cluster payloads only)."""
    out: list[str] = []
    workers = stats.get("workers")
    if workers:
        rows = [(worker.get("id", "?"), worker.get("state", "?"),
                 str(worker.get("data_version", 0)),
                 str(worker.get("routed", 0)),
                 str(worker.get("requests", 0)),
                 str(worker.get("coalesced", 0)),
                 str(worker.get("active", 0)))
                for worker in workers]
        out.append("")
        out.extend(render_table(
            ("worker", "state", "version", "routed", "requests",
             "coalesced", "active"), rows))
    coordinator = stats.get("coordinator")
    if coordinator:
        out.append("")
        out.extend(render_table(
            ("coordinator", "value"),
            [("launched", str(coordinator.get("launched", 0))),
             ("coalesced", str(coordinator.get("coalesced", 0))),
             ("failovers", str(coordinator.get("failovers", 0))),
             ("worker deaths", str(coordinator.get("worker_deaths", 0))),
             ("respawns", str(coordinator.get("respawns", 0))),
             ("mutations", str(coordinator.get("mutations", 0))),
             ("barrier version",
              str(coordinator.get("barrier_version", 0)))]))
    return out


def render_frame(current: ConsoleSample,
                 previous: Optional[ConsoleSample]) -> str:
    """One full dashboard frame as text."""
    server = current.stats.get("server", {})
    service = current.stats.get("service", {})
    out: list[str] = []

    snapshots = current.history.get("snapshots", [])
    rates = qps_series(snapshots)
    if len(snapshots) >= 2:
        # Server-side window: the tsdb ring, independent of our poll cadence.
        qps: Optional[float] = rates[-1] if rates else None
        p50, p99 = history_latency(snapshots)
        span = history_window_seconds(snapshots) or 0.0
        window = f"{span:.0f}s server-side window"
    else:
        qps = _rate(current, previous, "repro_service_requests_total")
        p50, p99 = window_quantiles(current, previous)
        window = "lifetime" if previous is None \
            else f"{current.time - previous.time:.1f}s window"
    throughput_rows = [
        ("requests total", str(server.get("requests",
                                          service.get("requests", 0)))),
        ("qps", _fmt_rate(qps))]
    if rates:
        throughput_rows.append(("qps history", sparkline(rates)))
    throughput_rows.extend([
        ("p50 latency", _fmt_seconds(p50)),
        ("p99 latency", _fmt_seconds(p99)),
        ("active flights", str(server.get("active", "-"))),
        ("overloads", str(server.get("overloads", 0))),
        ("query errors", str(server.get("query_errors", 0)))])
    out.append(f"repro top  -  {time.strftime('%H:%M:%S', time.localtime(current.time))}"
               f"  ({window})")
    out.append("")
    out.extend(render_table(("throughput", "value"), throughput_rows))

    out.extend(_alerts_section(current.stats))

    launched = server.get("launched", 0)
    coalesced = server.get("coalesced", 0)
    coalescing_rows = [("server flights", str(launched), str(coalesced),
                        _fmt_ratio(coalesced, launched))]
    coordinator = current.stats.get("coordinator")
    if coordinator:
        coalescing_rows.insert(0, (
            "cluster flights", str(coordinator.get("launched", 0)),
            str(coordinator.get("coalesced", 0)),
            _fmt_ratio(coordinator.get("coalesced", 0),
                       coordinator.get("launched", 0))))
    out.append("")
    out.extend(render_table(
        ("coalescing", "launched", "joined", "join rate"), coalescing_rows))

    out.extend(_cluster_sections(current.stats))
    out.extend(_worker_trends_section(current.history))

    caches = service.get("caches", [])
    if caches:
        rows = []
        for cache in caches:
            hits = cache.get("hits", 0)
            misses = cache.get("misses", 0)
            rows.append((cache.get("name", "?"), str(cache.get("size", 0)),
                         str(hits), str(misses), _fmt_ratio(hits, misses)))
        out.append("")
        out.extend(render_table(
            ("cache", "size", "hits", "misses", "hit rate"), rows))


    slow = service.get("slow_queries", [])
    if slow:
        rows = []
        for entry in slow[:5]:
            phases = entry.get("phases", {})
            top_phase = max(phases.items(), key=lambda item: item[1])[0] \
                if phases else "-"
            trace_id = entry.get("trace_id") or "-"
            rows.append((entry.get("sql", "?")[:48],
                         _fmt_seconds(entry.get("elapsed_seconds")),
                         str(entry.get("candidates", 0)), top_phase,
                         trace_id[:12]))
        out.append("")
        out.extend(render_table(
            ("slow query", "elapsed", "candidates", "hottest phase",
             "trace"), rows))

    return "\n".join(out) + "\n"


def snapshot_payload(sample: ConsoleSample) -> dict:
    """One machine-readable console snapshot (``repro top --json``).

    The fleet rows, alert states and windowed latency/throughput numbers
    of one poll, shaped for scripts: everything the dashboard renders,
    none of the formatting.
    """
    snapshots = sample.history.get("snapshots", [])
    rates = qps_series(snapshots)
    p50, p99 = history_latency(snapshots)
    workers_history = sample.history.get("workers") or {}
    worker_rates = {
        worker_id: series[-1]
        for worker_id, payload in sorted(workers_history.items())
        if (series := qps_series(payload.get("snapshots", [])))}
    return {
        "time": sample.time,
        "window_seconds": history_window_seconds(snapshots),
        "qps": rates[-1] if rates else None,
        "qps_series": rates,
        "p50_seconds": p50,
        "p99_seconds": p99,
        "alerts": sample.stats.get("alerts", []),
        "firing": any(alert.get("firing")
                      for alert in sample.stats.get("alerts", [])),
        "workers": sample.stats.get("workers", []),
        "worker_qps": worker_rates,
        "server": sample.stats.get("server", {}),
        "coordinator": sample.stats.get("coordinator"),
        "service": sample.stats.get("service", {}),
    }


def render_stats_tables(stats: dict) -> str:
    """A ``/stats`` payload as aligned tables (``repro client --probe
    stats`` without ``--json``)."""
    out: list[str] = []
    server = stats.get("server", {})
    if server:
        out.extend(render_table(
            ("server", "value"),
            [(key, str(value)) for key, value in server.items()]))
    cluster = _cluster_sections(stats)
    if cluster:
        out.extend(cluster if out else cluster[1:])
    service = stats.get("service", {})
    scalar_keys = ("requests", "answers_served", "estimates_computed",
                   "estimates_reused", "tuples_batched")
    scalars = [(key, str(service[key])) for key in scalar_keys
               if key in service]
    if scalars:
        out.append("")
        out.extend(render_table(("service", "value"), scalars))
    caches = service.get("caches", [])
    if caches:
        out.append("")
        out.extend(render_table(
            ("cache", "cap", "size", "hits", "misses", "evictions"),
            [(cache.get("name", "?"), str(cache.get("capacity", 0)),
              str(cache.get("size", 0)), str(cache.get("hits", 0)),
              str(cache.get("misses", 0)), str(cache.get("evictions", 0)))
             for cache in caches]))
    backends = service.get("backends", [])
    if backends:
        out.append("")
        out.extend(render_table(
            ("backend", "requests", "plan hits", "plan misses"),
            [(backend.get("backend", "?"), str(backend.get("requests", 0)),
              str(backend.get("plan_hits", 0)),
              str(backend.get("plan_misses", 0)))
             for backend in backends]))
    flight = service.get("single_flight")
    if flight:
        out.append("")
        out.extend(render_table(
            ("single flight", "launched", "joined", "failed", "in flight"),
            [(flight.get("name", "flights"), str(flight.get("launches", 0)),
              str(flight.get("joins", 0)), str(flight.get("failures", 0)),
              str(flight.get("in_flight", 0)))]))
    slow = service.get("slow_queries", [])
    if slow:
        out.append("")
        out.extend(render_table(
            ("slow query", "elapsed", "candidates"),
            [(entry.get("sql", "?")[:60],
              _fmt_seconds(entry.get("elapsed_seconds")),
              str(entry.get("candidates", 0))) for entry in slow]))
    return "\n".join(out)


def run_top(base_url: str, *, interval: float = 2.0,
            count: Optional[int] = None, stream: Optional[TextIO] = None,
            clear: Optional[bool] = None,
            fetch: Optional[Callable[[str], ConsoleSample]] = None) -> int:
    """Poll and render until interrupted (or ``count`` frames).

    Returns the number of frames rendered.  ``fetch`` is injectable so
    tests can drive the console from canned samples.
    """
    stream = stream if stream is not None else sys.stdout
    fetch = fetch if fetch is not None else fetch_sample
    if clear is None:
        clear = getattr(stream, "isatty", lambda: False)()
    previous: Optional[ConsoleSample] = None
    frames = 0
    try:
        while count is None or frames < count:
            if frames > 0:
                time.sleep(interval)
            current = fetch(base_url)
            if clear:
                stream.write(_CLEAR)
            stream.write(render_frame(current, previous))
            stream.flush()
            previous = current
            frames += 1
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return frames
