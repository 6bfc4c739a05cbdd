"""Tests for the observability layer: metrics, tracing, slow log, console.

The acceptance-critical properties:

* the metrics registry renders valid Prometheus text exposition that its
  own parser (used by ``repro top``) reads back losslessly;
* request tracing never perturbs answers -- traced runs are **bit
  identical** to untraced runs on the plain and adaptive paths;
* concurrent submits never expose torn or decreasing counters to a
  stats/metrics poller;
* the operator console renders frames and windowed quantiles from canned
  samples (no sockets involved).
"""

from __future__ import annotations

import io
import json
import logging
import threading
import urllib.request

import pytest

from repro.obs import (
    DEFAULT_WINDOWS,
    LATENCY_BUCKETS,
    NULL_RECORDER,
    NULL_TRACE,
    SLO,
    AlertEvaluator,
    ConsoleSample,
    JsonFormatter,
    MetricsRegistry,
    Recorder,
    SlowQueryLog,
    TimeSeriesStore,
    Trace,
    TraceContext,
    TraceStore,
    collect_profile,
    configure_logging,
    disabled_report,
    extract_context,
    format_traceparent,
    get_logger,
    histogram_quantile,
    history_quantiles,
    inject_context,
    merge_collapsed,
    new_context,
    parse_collapsed,
    parse_exposition,
    parse_traceparent,
    profile_payload,
    qps_series,
    render_collapsed,
    render_frame,
    render_stats_tables,
    run_top,
    server_slos,
    snapshot_payload,
    spans_to_chrome,
    sparkline,
    window_quantiles,
)
from repro.obs.console import counter_rate_series
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import NumNull
from repro.server import EmbeddedServer
from repro.service import AnnotationService, ServiceOptions


@pytest.fixture
def shop() -> Database:
    schema = DatabaseSchema.of(
        RelationSchema.of("Products", id="base", seg="base", rrp="num", dis="num"),
        RelationSchema.of("Market", seg="base", rrp="num", dis="num"),
    )
    database = Database(schema)
    database.add("Products", ("p1", "tools", 10.0, 0.5))
    database.add("Products", ("p2", "tools", NumNull("rrp2"), 0.5))
    database.add("Products", ("p3", "tools", NumNull("rrp3"), 0.5))
    database.add("Products", ("p4", "garden", 4.0, 1.0))
    database.add("Market", ("tools", 8.0, 1.0))
    database.add("Market", ("garden", 10.0, 0.5))
    return database


ADVANTAGE = ("SELECT P.id FROM Products P, Market M "
             "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis")

SIMPLE = "SELECT P.id FROM Products P WHERE P.rrp <= 12"


def _certainties(response) -> list[float]:
    return [answer.certainty.value for answer in response.answers]


class TestMetricsRegistry:
    def test_counter_roundtrips_through_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_widgets_total", "widgets").inc()
        registry.counter("repro_widgets_total", "widgets").inc(2.0)
        text = registry.render()
        assert "# TYPE repro_widgets_total counter" in text
        assert "# HELP repro_widgets_total widgets" in text
        parsed = parse_exposition(text)
        assert parsed[("repro_widgets_total", ())] == 3.0

    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_ops_total", "ops", labelnames=("op",))
        counter.labels(op="read").inc(5)
        counter.labels(op="write").inc()
        parsed = parse_exposition(registry.render())
        assert parsed[("repro_ops_total", (("op", "read"),))] == 5.0
        assert parsed[("repro_ops_total", (("op", "write"),))] == 1.0

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.gauge("repro_depth", "queue depth")
        second = registry.gauge("repro_depth", "queue depth")
        assert first is second
        with pytest.raises(ValueError):
            registry.counter("repro_depth", "now a counter")

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_lat_seconds", "latency")
        histogram.observe(0.0005)
        histogram.observe(0.0005)
        histogram.observe(1e9)  # beyond the largest finite bucket
        parsed = parse_exposition(registry.render())
        assert parsed[("repro_lat_seconds_count", ())] == 3.0
        assert parsed[("repro_lat_seconds_bucket", (("le", "+Inf"),))] == 3.0
        # cumulative: every bound >= 0.0008 already holds both fast samples
        finite = [(float(labels[0][1]), value)
                  for (name, labels), value in parsed.items()
                  if name == "repro_lat_seconds_bucket"
                  and labels[0][1] != "+Inf"]
        assert all(value >= 2.0 for bound, value in finite if bound >= 0.0008)

    def test_histogram_quantile_interpolates(self):
        # 100 samples uniform in the (0.1, 0.2] bucket: the median must
        # land inside that bucket, between the bounds.
        buckets = [(0.1, 0.0), (0.2, 100.0), (float("inf"), 100.0)]
        median = histogram_quantile(buckets, 0.5)
        assert 0.1 < median <= 0.2

    def test_quantile_of_empty_histogram_is_none(self):
        assert histogram_quantile([(0.1, 0.0), (float("inf"), 0.0)], 0.5) is None

    def test_latency_buckets_are_log_spaced_and_sorted(self):
        assert LATENCY_BUCKETS == tuple(sorted(LATENCY_BUCKETS))
        ratios = {round(b / a, 6) for a, b in zip(LATENCY_BUCKETS,
                                                  LATENCY_BUCKETS[1:])}
        assert ratios == {2.0}

    def test_collectors_run_at_scrape_time_only(self):
        registry = MetricsRegistry()
        calls = []

        def collector():
            calls.append(1)
            from repro.obs.metrics import counters_family
            return [counters_family("repro_lazy_total", "lazy", [({}, 7.0)])]

        registry.register_collector(collector)
        assert calls == []
        parsed = parse_exposition(registry.render())
        assert parsed[("repro_lazy_total", ())] == 7.0
        assert calls == [1]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_q_total", "q", labelnames=("sql",))
        counter.labels(sql='say "hi"\nplease\\now').inc()
        text = registry.render()
        parsed = parse_exposition(text)
        (key,) = [k for k in parsed if k[0] == "repro_q_total"]
        assert dict(key[1])["sql"] == 'say "hi"\nplease\\now'


class TestTrace:
    def test_spans_nest_and_total_by_name(self):
        trace = Trace()
        with trace.span("plan") as plan:
            with trace.span("estimate", parent=plan, lineage="abc"):
                pass
            with trace.span("estimate", parent=plan):
                pass
        names = [span.name for span in trace.spans]
        assert names.count("estimate") == 2 and "plan" in names
        totals = trace.phase_totals()
        assert set(totals) == {"plan", "estimate"}
        assert all(seconds >= 0.0 for seconds in totals.values())

    def test_chrome_export_shape(self, tmp_path):
        trace = Trace("request")
        with trace.span("parse", sql="SELECT 1"):
            pass
        path = trace.write_chrome(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and complete[0]["name"] == "parse"
        assert complete[0]["dur"] >= 0
        assert complete[0]["args"]["sql"] == "SELECT 1"
        assert any(e["ph"] == "M" for e in events)  # process-name metadata

    def test_exceptions_still_record_the_span(self):
        trace = Trace()
        with pytest.raises(RuntimeError):
            with trace.span("estimate"):
                raise RuntimeError("boom")
        (span,) = trace.spans
        assert span.attributes.get("error") == "RuntimeError"

    def test_record_after_the_fact(self):
        trace = Trace()
        trace.record("rung", 0.25, 0.5, None, stage=1)
        (span,) = trace.spans
        assert span.name == "rung"
        assert span.duration == pytest.approx(0.25)

    def test_null_trace_is_inert(self):
        with NULL_TRACE.span("anything", key="value") as span:
            span.set("more", 1)
        assert NULL_TRACE.phase_totals() == {}


class TestSlowQueryLog:
    def test_snapshot_is_slowest_first_topk(self):
        log = SlowQueryLog(window=16, top_k=2)
        for index, elapsed in enumerate([0.01, 0.5, 0.03, 0.2]):
            log.record(f"q{index}", elapsed)
        top = log.snapshot()
        assert [entry.sql for entry in top] == ["q1", "q3"]
        assert log.recorded == 4

    def test_ring_drops_oldest_beyond_window(self):
        log = SlowQueryLog(window=3, top_k=10)
        for index in range(10):
            log.record(f"q{index}", float(index))
        assert len(log) == 3
        assert log.recorded == 10
        assert [entry.sql for entry in log.snapshot()] == ["q9", "q8", "q7"]

    def test_sql_text_is_truncated(self):
        log = SlowQueryLog()
        log.record("x" * 1000, 0.1)
        (entry,) = log.snapshot()
        assert len(entry.sql) == 200


class TestRecorder:
    def test_observe_request_feeds_histograms_and_slow_log(self):
        recorder = Recorder()
        trace = recorder.start_trace()
        with trace.span("estimate"):
            pass
        recorder.observe_request(SIMPLE, 0.05, trace=trace,
                                 candidates=3, groups=2)
        parsed = parse_exposition(recorder.metrics.render())
        assert parsed[("repro_request_seconds_count", ())] == 1.0
        assert parsed[("repro_phase_seconds_count",
                       (("phase", "estimate"),))] == 1.0
        (entry,) = recorder.slow_log.snapshot()
        assert entry.candidates == 3 and "estimate" in entry.phases

    def test_null_recorder_is_disabled_and_free(self):
        assert not NULL_RECORDER.enabled
        assert NULL_RECORDER.start_trace() is NULL_TRACE
        NULL_RECORDER.observe_request(SIMPLE, 0.1)  # must not raise


class TestServiceTracing:
    def test_submit_returns_a_trace_with_the_pipeline_phases(self, shop):
        service = AnnotationService(shop, epsilon=0.1)
        response = service.submit(ADVANTAGE, seed=3, trace=True)
        assert response.trace is not None
        names = {span.name for span in response.trace.spans}
        assert {"parse", "enumerate", "schedule", "estimate",
                "serialize"} <= names
        estimate = [span for span in response.trace.spans
                    if span.name == "estimate"]
        assert any("lineage" in span.attributes for span in estimate)

    def test_untraced_submit_returns_no_trace(self, shop):
        service = AnnotationService(shop, epsilon=0.1)
        assert service.submit(SIMPLE, seed=3).trace is None

    @pytest.mark.parametrize("overrides", [
        {}, {"adaptive": True}, {"jobs": 2}, {"jobs": 2, "adaptive": True},
    ])
    def test_tracing_never_perturbs_answers(self, shop, overrides):
        baseline = AnnotationService(
            shop, ServiceOptions(epsilon=0.05, seed=11, **overrides))
        traced = AnnotationService(
            shop, ServiceOptions(epsilon=0.05, seed=11, **overrides))
        plain = baseline.submit(ADVANTAGE)
        with_trace = traced.submit(ADVANTAGE, trace=True)
        assert _certainties(plain) == _certainties(with_trace)
        assert [a.values for a in plain.answers] == \
            [a.values for a in with_trace.answers]
        assert with_trace.trace is not None and with_trace.trace.spans

    def test_adaptive_trace_records_rung_spans(self, shop):
        service = AnnotationService(
            shop, ServiceOptions(epsilon=0.05, seed=11, adaptive=True))
        response = service.submit(ADVANTAGE, trace=True)
        rungs = [span for span in response.trace.spans if span.name == "rung"]
        assert rungs
        assert all("epsilon" in span.attributes for span in rungs)
        assert any(span.attributes.get("final") for span in rungs)

    def test_recorder_collects_without_explicit_trace_flag(self, shop):
        service = AnnotationService(shop, epsilon=0.1, recorder=Recorder())
        service.submit(ADVANTAGE, seed=3)
        service.submit(SIMPLE, seed=3)
        parsed = parse_exposition(service.recorder.metrics.render())
        assert parsed[("repro_request_seconds_count", ())] == 2.0
        stats = service.stats()
        assert len(stats.slow_queries) == 2
        assert "slow queries" in stats.report()
        assert len(stats.as_dict()["slow_queries"]) == 2
        # responses themselves stay trace-free: tracing fed the recorder only
        assert service.submit(SIMPLE, seed=4).trace is None


class TestConcurrentConsistency:
    def test_pollers_never_observe_torn_or_decreasing_counters(self, shop):
        """Counters read under concurrent submits are monotone and sane."""
        recorder = Recorder()
        service = AnnotationService(shop, epsilon=0.2, recorder=recorder)
        queries = [SIMPLE, ADVANTAGE,
                   "SELECT P.id FROM Products P WHERE P.rrp <= 6"]
        stop = threading.Event()
        failures: list[str] = []

        def submitter(offset: int) -> None:
            for round_number in range(6):
                service.submit(queries[(offset + round_number) % len(queries)],
                               seed=offset * 10 + round_number)

        def poller() -> None:
            last_requests = 0.0
            last_stat_requests = 0
            while not stop.is_set():
                parsed = parse_exposition(recorder.metrics.render())
                requests = parsed.get(("repro_request_seconds_count", ()), 0.0)
                total = parsed.get(("repro_request_seconds_sum", ()), 0.0)
                if requests < last_requests:
                    failures.append(f"metric went backwards: {requests}")
                if requests == 0 and total > 0:
                    failures.append("sum without count: torn histogram")
                last_requests = requests
                stats = service.stats()
                if stats.requests < last_stat_requests:
                    failures.append("service requests went backwards")
                if stats.answers_served < 0 or stats.requests < 0:
                    failures.append("negative counter")
                last_stat_requests = stats.requests

        threads = [threading.Thread(target=submitter, args=(index,))
                   for index in range(4)]
        watcher = threading.Thread(target=poller)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        watcher.join()
        assert not failures
        parsed = parse_exposition(recorder.metrics.render())
        assert parsed[("repro_request_seconds_count", ())] == 24.0
        assert service.stats().requests == 24


class TestConsole:
    def _sample(self, at: float, requests: float,
                fast: float, slow: float) -> ConsoleSample:
        """A canned poll: `fast` requests under 100ms, `slow` under 1.6s."""
        metrics = {
            ("repro_service_requests_total", ()): requests,
            ("repro_request_seconds_bucket", (("le", "0.1024"),)): fast,
            ("repro_request_seconds_bucket", (("le", "1.6384"),)): fast + slow,
            ("repro_request_seconds_bucket", (("le", "+Inf"),)): fast + slow,
            ("repro_request_seconds_count", ()): fast + slow,
        }
        stats = {"server": {"requests": int(requests), "launched": int(requests),
                            "coalesced": 2, "overloads": 0, "query_errors": 0,
                            "active": 1},
                 "service": {"requests": int(requests),
                             "caches": [{"name": "parsed sql", "capacity": 256,
                                         "size": 3, "hits": 7, "misses": 3,
                                         "evictions": 0}],
                             "slow_queries": [{"sql": "SELECT 1",
                                               "elapsed_seconds": 0.5,
                                               "candidates": 4,
                                               "phases": {"estimate": 0.4}}]}}
        return ConsoleSample(time=at, stats=stats, metrics=metrics)

    def test_window_quantiles_subtract_snapshots(self):
        previous = self._sample(at=100.0, requests=10, fast=10, slow=0)
        # the window added 10 slow requests and nothing fast
        current = self._sample(at=110.0, requests=20, fast=10, slow=10)
        p50, p99 = window_quantiles(current, previous)
        assert p50 is not None and 0.1024 < p50 <= 1.6384
        lifetime_p50, _ = window_quantiles(current, None)
        assert lifetime_p50 <= 1.6384

    def test_render_frame_contains_the_dashboard_tables(self):
        previous = self._sample(at=100.0, requests=10, fast=10, slow=0)
        current = self._sample(at=110.0, requests=30, fast=25, slow=5)
        frame = render_frame(current, previous)
        assert "qps" in frame and "2.0/s" in frame
        assert "p99 latency" in frame
        assert "join rate" in frame
        assert "parsed sql" in frame and "70.0%" in frame
        assert "SELECT 1" in frame and "estimate" in frame

    def test_run_top_with_injected_fetch(self):
        samples = [self._sample(at=100.0, requests=5, fast=5, slow=0),
                   self._sample(at=101.0, requests=9, fast=8, slow=1)]
        calls = iter(samples)
        out = io.StringIO()
        frames = run_top("http://ignored", interval=0.0, count=2,
                         stream=out, clear=False, fetch=lambda _: next(calls))
        assert frames == 2
        text = out.getvalue()
        assert text.count("repro top") == 2
        assert "lifetime" in text and "window" in text

    def test_render_stats_tables_is_aligned_text(self):
        stats = self._sample(at=0.0, requests=4, fast=4, slow=0).stats
        text = render_stats_tables(stats)
        assert "server" in text and "requests" in text
        assert "cache" in text and "parsed sql" in text
        assert "{" not in text  # tables, not JSON


class TestLogging:
    def test_json_formatter_emits_parseable_records(self):
        formatter = JsonFormatter()
        record = logging.LogRecord("repro.server", logging.INFO, __file__, 1,
                                   "listening", None, None)
        record.tcp_port = 7464
        payload = json.loads(formatter.format(record))
        assert payload["message"] == "listening"
        assert payload["level"] == "info"
        assert payload["tcp_port"] == 7464

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        configure_logging(level="debug", format="json", stream=stream)
        configure_logging(level="debug", format="json", stream=stream)
        logger = get_logger("test")
        root = logging.getLogger("repro")
        try:
            logger.info("hello", extra={"n": 1})
            lines = [line for line in stream.getvalue().splitlines() if line]
            assert len(lines) == 1  # one handler, not two
            assert json.loads(lines[0])["n"] == 1
        finally:
            for handler in list(root.handlers):
                root.removeHandler(handler)

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")


class TestServerObservability:
    def test_metrics_endpoint_and_op(self, shop):
        service = AnnotationService(shop, epsilon=0.2)
        with EmbeddedServer(service) as server:
            from repro.client import ReproClient
            with ReproClient(server.host, server.port) as client:
                client.query(SIMPLE, seed=1)
                text = client.metrics()
            assert "# TYPE repro_request_seconds histogram" in text
            parsed = parse_exposition(text)
            assert parsed[("repro_request_seconds_count", ())] >= 1.0
            assert parsed[("repro_server_requests_total", ())] >= 1.0
            assert parsed[("repro_service_requests_total", ())] >= 1.0
            assert ("repro_process_uptime_seconds", ()) in parsed

            base = f"http://{server.host}:{server.http_port}"
            response = urllib.request.urlopen(base + "/metrics")
            assert response.headers["Content-Type"].startswith("text/plain")
            http_text = response.read().decode("utf-8")
            assert parse_exposition(http_text) is not None
            assert "repro_server_uptime_seconds" in http_text

    def test_healthz_reports_uptime_and_version(self, shop):
        from repro import package_version
        service = AnnotationService(shop, epsilon=0.2)
        with EmbeddedServer(service) as server:
            base = f"http://{server.host}:{server.http_port}"
            payload = json.loads(urllib.request.urlopen(base + "/healthz").read())
        assert payload["version"] == package_version()
        assert payload["uptime_seconds"] >= 0.0

    def test_server_stats_include_slow_queries(self, shop):
        service = AnnotationService(shop, epsilon=0.2)
        with EmbeddedServer(service) as server:
            from repro.client import ReproClient
            with ReproClient(server.host, server.port) as client:
                client.query(ADVANTAGE, seed=1)
                stats = client.stats()
        slow = stats["service"]["slow_queries"]
        assert slow and slow[0]["sql"].startswith("SELECT P.id")
        assert slow[0]["elapsed_seconds"] > 0.0


class TestExpositionEdgeCases:
    """The parsing helpers the console and alert evaluator lean on."""

    def test_empty_histogram_round_trips_and_has_no_quantile(self):
        registry = MetricsRegistry()
        registry.histogram("repro_idle_seconds", "never observed")
        parsed = parse_exposition(registry.render())
        assert parsed[("repro_idle_seconds_count", ())] == 0.0
        assert parsed[("repro_idle_seconds_sum", ())] == 0.0
        buckets = [(float("inf") if labels[0][1] == "+Inf"
                    else float(labels[0][1]), value)
                   for (name, labels), value in parsed.items()
                   if name == "repro_idle_seconds_bucket"]
        assert buckets and all(value == 0.0 for _, value in buckets)
        assert histogram_quantile(buckets, 0.99) is None

    def test_quantile_with_only_an_inf_bucket(self):
        # Degenerate but legal: every observation beyond the largest finite
        # bound.  The estimate clamps to the previous bound (0.0), never
        # returning inf or raising.
        assert histogram_quantile([(float("inf"), 5.0)], 0.5) == 0.0

    def test_coordinator_relabelled_metrics_round_trip(self):
        from repro.cluster.coordinator import _relabel

        registry = MetricsRegistry()
        registry.counter("repro_server_requests_total", "reqs").inc(3)
        histogram = registry.histogram("repro_request_seconds", "lat")
        histogram.observe(0.01)
        lines = _relabel(registry.render(), "w7")
        parsed = parse_exposition("\n".join(lines) + "\n")
        assert parsed[("repro_server_requests_total",
                       (("worker", "w7"),))] == 3.0
        # histogram children keep their own labels after the worker label
        bucket_keys = [key for key in parsed
                       if key[0] == "repro_request_seconds_bucket"]
        assert bucket_keys
        for _, labels in bucket_keys:
            labelmap = dict(labels)
            assert labelmap["worker"] == "w7" and "le" in labelmap
        assert parsed[("repro_request_seconds_count",
                       (("worker", "w7"),))] == 1.0


class TestTimeSeriesStore:
    def _store(self, capacity=4):
        registry = MetricsRegistry()
        counter = registry.counter("repro_ticks_total", "ticks")
        clock = {"now": 100.0}
        store = TimeSeriesStore(registry, interval=1.0, capacity=capacity,
                                clock=lambda: clock["now"])
        return store, counter, clock

    def test_ring_wraparound_keeps_newest(self):
        store, counter, clock = self._store(capacity=4)
        for tick in range(10):
            counter.inc()
            clock["now"] = 100.0 + tick
            store.sample()
        assert len(store) == 4
        history = store.history(sample_now=False)
        assert history["capacity"] == 4
        assert history["retention_seconds"] == 4.0
        times = [snap["time"] for snap in history["snapshots"]]
        assert times == [106.0, 107.0, 108.0, 109.0]
        values = [snap["samples"]["repro_ticks_total"]
                  for snap in history["snapshots"]]
        assert values == [7.0, 8.0, 9.0, 10.0]

    def test_stepped_back_clock_is_clamped_monotone(self):
        store, _, clock = self._store()
        store.sample()
        clock["now"] = 50.0  # wall clock stepped backwards
        snap = store.sample()
        assert snap["time"] == 100.0  # clamped to the previous snapshot

    def test_window_filter_trims_old_snapshots(self):
        store, _, clock = self._store(capacity=64)
        for tick in range(20):
            clock["now"] = 100.0 + tick
            store.sample()
        history = store.history(5.0, sample_now=False)
        assert [snap["time"] for snap in history["snapshots"]] == \
            [114.0, 115.0, 116.0, 117.0, 118.0, 119.0]

    def test_concurrent_scrapes_stay_monotone(self):
        """Snapshot times never decrease even when many threads sample
        around a jittery clock (the /history handler races the sampler)."""
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        lock = threading.Lock()

        def jittery_clock():
            with lock:
                clock["now"] += 0.001
                # a misbehaving clock that occasionally steps back
                return clock["now"] - (0.01 if int(clock["now"] * 1000) % 7 == 0
                                       else 0.0)

        store = TimeSeriesStore(registry, interval=1.0, capacity=128,
                                clock=jittery_clock)

        def scraper():
            for _ in range(50):
                store.sample()

        threads = [threading.Thread(target=scraper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        times = [snap["time"]
                 for snap in store.history(sample_now=False)["snapshots"]]
        assert times == sorted(times)
        assert len(store) == 128  # 200 samples through a 128-slot ring

    def test_history_samples_on_demand(self):
        store, counter, _ = self._store()
        counter.inc(5)
        history = store.history()
        assert history["snapshots"][-1]["samples"]["repro_ticks_total"] == 5.0

    def test_rejects_bad_parameters(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            TimeSeriesStore(registry, interval=0.0)
        with pytest.raises(ValueError):
            TimeSeriesStore(registry, capacity=1)


class TestTracePropagation:
    def test_round_trip(self):
        context = new_context()
        header = format_traceparent(context.trace_id, 0xdeadbeef)
        parsed = parse_traceparent(header)
        assert parsed == TraceContext(trace_id=context.trace_id,
                                      parent_id=0xdeadbeef)

    @pytest.mark.parametrize("value", [
        None, 7, "", "00-short-0011223344556677-01",
        "99-" + "a" * 32 + "-" + "b" * 16 + "-01",     # unknown version
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",     # all-zero trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",     # short parent
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",     # non-hex
        "00-" + "a" * 32 + "-" + "b" * 16,             # missing flags
    ])
    def test_malformed_traceparents_yield_none(self, value):
        assert parse_traceparent(value) is None

    def test_extract_and_inject_ride_outside_options(self):
        message = {"op": "query", "sql": "SELECT 1", "options": {"seed": 3}}
        context = new_context()
        inject_context(message, context.trace_id, 42)
        assert message["options"] == {"seed": 3}  # coalescing identity intact
        extracted = extract_context(message)
        assert extracted.trace_id == context.trace_id
        assert extracted.parent_id == 42
        assert extract_context({"op": "query", "sql": "SELECT 1"}) is None

    def test_trace_adopts_propagated_context(self):
        context = new_context()
        trace = Trace("request", context=context)
        with trace.span("cluster.request"):
            pass
        assert trace.trace_id == context.trace_id
        (span,) = trace.span_dicts()
        # remote hop: span ids are drawn from os.urandom, not 1,2,3...
        assert span["span_id"] > 2 ** 15


class TestProfiler:
    """The sampler excludes its own (calling) thread, so every test spins
    a busy worker thread with a recognizable frame to be sampled."""

    @staticmethod
    def _busy_thread(stop: threading.Event) -> threading.Thread:
        def profiler_test_burn() -> None:
            while not stop.is_set():
                sum(range(200))

        thread = threading.Thread(target=profiler_test_burn, daemon=True)
        thread.start()
        return thread

    def test_collect_and_render_round_trip(self):
        stop = threading.Event()
        thread = self._busy_thread(stop)
        try:
            counts = collect_profile(seconds=0.1, interval=0.01)
        finally:
            stop.set()
            thread.join()
        assert counts and all(isinstance(stack, str) and count >= 1
                              for stack, count in counts.items())
        assert any("profiler_test_burn" in stack for stack in counts)
        text = render_collapsed(counts)
        assert parse_collapsed(text) == counts

    def test_merge_collapsed_sums_counts(self):
        merged = merge_collapsed(["a;b 3\na 1\n", "a;b 2\nc 4\n"])
        assert merged == {"a;b": 5, "a": 1, "c": 4}

    def test_profile_payload_shape_and_clamping(self):
        stop = threading.Event()
        thread = self._busy_thread(stop)
        try:
            payload = profile_payload(0.1, 0.01)
        finally:
            stop.set()
            thread.join()
        assert payload["seconds"] == 0.1
        assert payload["samples"] >= 1
        assert payload["stacks"] == len(parse_collapsed(payload["collapsed"]))
        # the bounds that make /profile safe to expose: a fat-fingered
        # request clamps instead of pinning a sampler thread
        instant = profile_payload(-5.0, 0.0001)
        assert instant["seconds"] == 0.0
        assert instant["interval_seconds"] >= 0.005


class TestAlerts:
    @staticmethod
    def _snapshots(errors_by_time: dict[float, float],
                   requests_per_tick: float = 100.0) -> list[dict]:
        """Synthetic tsdb history: one snapshot per second with cumulative
        request/error counters."""
        snapshots = []
        requests = errors = 0.0
        for tick in sorted(errors_by_time):
            requests += requests_per_tick
            errors += errors_by_time[tick]
            snapshots.append({"time": tick, "samples": {
                "repro_server_requests_total": requests,
                'repro_server_errors_total{kind="internal"}': errors,
                "repro_server_overloads_total": 0.0,
            }})
        return snapshots

    def test_sustained_errors_fire_the_page_alert(self):
        # 10% internal errors over 6 minutes: burn 100x against a 99.9%
        # objective, far over both page windows.
        snapshots = self._snapshots({float(t): 10.0 for t in range(0, 360, 1)})
        evaluator = AlertEvaluator(server_slos())
        report = evaluator.report(snapshots)
        assert report["firing"]
        page = next(a for a in report["alerts"]
                    if a["slo"] == "availability" and a["severity"] == "page")
        assert page["firing"] and page["burn_short"] > 14.4

    def test_recovered_errors_reset_the_short_window(self):
        # Errors stopped 2 minutes ago: the long window still burns, the
        # 1-minute short window is clean, so the page alert is quiet.
        errors = {float(t): (10.0 if t < 240 else 0.0) for t in range(0, 360)}
        evaluator = AlertEvaluator(server_slos())
        report = evaluator.report(self._snapshots(errors))
        page = next(a for a in report["alerts"]
                    if a["slo"] == "availability" and a["severity"] == "page")
        assert not page["firing"]
        assert page["burn_long"] > page["burn_short"]

    def test_idle_history_never_fires(self):
        snapshots = [{"time": float(t), "samples": {
            "repro_server_requests_total": 50.0,
            'repro_server_errors_total{kind="internal"}': 50.0,
        }} for t in range(0, 360)]
        report = AlertEvaluator(server_slos()).report(snapshots)
        assert not report["firing"]  # no new traffic means no burn

    def test_latency_threshold_quantizes_to_a_bucket(self):
        # 40% of requests slower than the 0.1s threshold against a 95%
        # objective: burn 8, over the ticket threshold but not page's.
        slo = SLO(name="latency", objective=0.95,
                  total="repro_request_seconds_count",
                  latency_histogram="repro_request_seconds",
                  threshold_seconds=0.1)
        snapshots = []
        count = fast = 0.0
        for tick in range(0, 1900, 2):
            count += 10.0
            fast += 6.0
            snapshots.append({"time": float(tick), "samples": {
                "repro_request_seconds_count": count,
                'repro_request_seconds_bucket{le="0.1024"}': fast,
                'repro_request_seconds_bucket{le="+Inf"}': count,
            }})
        report = AlertEvaluator((slo,)).report(snapshots)
        by_severity = {a["severity"]: a for a in report["alerts"]}
        assert not by_severity["page"]["firing"]
        assert by_severity["ticket"]["firing"]
        assert by_severity["ticket"]["burn_long"] == pytest.approx(8.0,
                                                                   rel=0.05)

    def test_young_history_degrades_to_not_firing(self):
        evaluator = AlertEvaluator(server_slos())
        assert not evaluator.report([])["firing"]
        assert not evaluator.report(self._snapshots({0.0: 99.0}))["firing"]

    def test_disabled_report_shape(self):
        assert disabled_report() == {"alerts": [], "firing": False}

    def test_max_window_matches_defaults(self):
        evaluator = AlertEvaluator(server_slos(), DEFAULT_WINDOWS)
        assert evaluator.max_window_seconds == 1800.0


class TestTraceStore:
    def test_put_get_latest_and_eviction(self):
        store = TraceStore(capacity=2)
        traces = []
        for _ in range(3):
            trace = Trace("request", context=new_context())
            with trace.span("work"):
                pass
            store.put(trace)
            traces.append(trace)
        assert store.get(traces[0].trace_id) is None  # aged out
        assert store.get(traces[2].trace_id) is traces[2]
        assert store.latest() is traces[2]

    def test_ignores_traces_without_an_id(self):
        store = TraceStore()
        store.put(Trace("request"))  # local-only trace: no trace id
        assert store.latest() is None

    def test_spans_to_chrome_stitches_processes(self):
        coordinator = Trace("request", context=new_context())
        with coordinator.span("cluster.request") as root:
            forward = coordinator.span("forward", parent=root)
            forward.__exit__(None, None, None)
        forward_id = coordinator.span_dicts()[0]["span_id"]
        worker = Trace("request", context=TraceContext(
            trace_id=coordinator.trace_id, parent_id=forward_id))
        with worker.span("request"):
            pass
        chrome = spans_to_chrome(coordinator.trace_id, [
            ("coordinator:1", coordinator.span_dicts()),
            ("worker:w0", worker.span_dicts()),
        ])
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert [e["args"]["name"] for e in meta] == \
            ["coordinator:1", "worker:w0"]
        assert {e["pid"] for e in meta} == {1, 2}
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        ids = {e["args"]["span_id"] for e in spans}
        worker_spans = [e for e in spans if e["pid"] == 2]
        assert worker_spans and all(
            e["args"]["parent_id"] in ids or e["args"]["parent_id"] == forward_id
            for e in worker_spans)
        assert chrome["otherData"]["trace_id"] == coordinator.trace_id


class TestConsoleHistory:
    @staticmethod
    def _snapshots():
        snapshots = []
        for tick, (requests, fast, slow) in enumerate(
                [(10, 8, 2), (20, 16, 4), (40, 30, 10), (50, 40, 10)]):
            snapshots.append({"time": 100.0 + tick * 2.0, "samples": {
                "repro_server_requests_total": float(requests),
                "repro_request_seconds_count": float(fast + slow),
                'repro_request_seconds_bucket{le="0.1024"}': float(fast),
                'repro_request_seconds_bucket{le="1.6384"}': float(fast + slow),
                'repro_request_seconds_bucket{le="+Inf"}': float(fast + slow),
            }})
        return snapshots

    def test_sparkline_is_peak_scaled(self):
        line = sparkline([0.0, 1.0, 2.0, 4.0])
        assert len(line) == 4
        assert line[-1] == "█" and line[0] == " "
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "  "

    def test_counter_rate_series_clamps_resets(self):
        snapshots = [
            {"time": 0.0, "samples": {"repro_server_requests_total": 10.0}},
            {"time": 2.0, "samples": {"repro_server_requests_total": 30.0}},
            {"time": 4.0, "samples": {"repro_server_requests_total": 5.0}},
        ]
        rates = counter_rate_series(snapshots, "repro_server_requests_total")
        assert rates == [10.0, 0.0]  # restart shows as zero, not negative

    def test_qps_series_prefers_the_cluster_counter(self):
        snapshots = self._snapshots()
        for snap in snapshots:
            snap["samples"]["repro_cluster_requests_total"] = \
                snap["samples"]["repro_server_requests_total"] * 2
        rates = qps_series(snapshots)
        assert rates == counter_rate_series(snapshots,
                                            "repro_cluster_requests_total")

    def test_history_quantiles_diff_the_window_edges(self):
        p50, p99 = history_quantiles(self._snapshots())
        assert p50 is not None and p50 <= 0.1024
        assert p99 is not None and 0.1024 < p99 <= 1.6384
        assert history_quantiles(self._snapshots()[:1]) == [None, None]

    def test_snapshot_payload_is_json_ready(self):
        sample = ConsoleSample(
            time=123.0,
            stats={"alerts": [{"slo": "availability", "severity": "page",
                               "firing": False}],
                   "workers": [{"id": "w0", "state": "healthy"}],
                   "coordinator": {"requests": 25}},
            metrics={},
            history={"snapshots": self._snapshots(),
                     "workers": {"w0": {"snapshots": self._snapshots()}}})
        payload = snapshot_payload(sample)
        json.dumps(payload)  # must be serializable as-is
        assert payload["qps"] > 0.0
        assert payload["p99_seconds"] is not None
        assert payload["firing"] is False
        assert payload["worker_qps"]["w0"] == payload["qps_series"][-1]
        assert payload["workers"][0]["id"] == "w0"
