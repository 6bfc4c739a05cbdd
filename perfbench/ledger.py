"""The traced run: a per-layer ledger timed from outside the program.

The whole deployment runs in this process -- one
:class:`~repro.service.AnnotationService` with the server's default
options behind an in-process server, fronted for the hop probe by a
one-worker coordinator (:class:`~repro.cluster.EmbeddedCluster`) -- and
the public function of
each layer is wrapped so every call records a span into one
:class:`~repro.obs.trace.Trace`.  No program file changes: the wrappers
replace module attributes for the duration of the run only.

The run replays the warm-up, then a fixed prefix of the workload's
measured sequence over one connection (alternate cycles traced and
untraced, so the tracing overhead is measured on the same work), then
the write probe, and finally a few paired side probes for the costs that
are differences of two round trips (coordinator hop, observability,
server overhead).  Every answer passes the same correctness gate as the
timed run.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from perfbench.deploy import generate_data
from perfbench.drive import Outcome, run_op
from perfbench.reference import check, default_service
from perfbench.workloads import Plan, build_plan

#: Measured-sequence cycles replayed by the traced run, per workload kind.
PREFIX_CYCLES = {"hot": 40, "writes": 8}
#: Repeats of each paired side probe.
PROBE_REPEATS = 40

#: (module, attribute, span name) of every wrapped public function.
WRAPPED_FUNCTIONS = (
    ("repro.engine.sql.parser", "parse_sql", "sql.parse"),
    ("repro.engine.candidates", "enumerate_candidates", "enumerate"),
    ("repro.service.service", "build_schedule", "schedule"),
    ("repro.service.service", "certainty_from_translation", "estimate"),
    ("repro.server.app", "result_event", "server.encode"),
    ("repro.client", "load_line", "client.decode"),
    ("repro.client", "decode_answer", "client.decode"),
)
#: (class path, method, span name) of every wrapped method.
WRAPPED_METHODS = (
    ("repro.service.service", "AnnotationService", "submit", "service.submit"),
    ("repro.service.service", "AnnotationService", "mutate", "mutate"),
)


class SpanRecorder:
    """Routes wrapped calls into the trace of the request in flight.

    One request is in flight at a time (the traced phases use a single
    connection), so ``current`` is simply the open request's root span.
    Parents within a thread follow a thread-local stack; a call with no
    enclosing wrapped call on its thread hangs off the request root.
    """

    def __init__(self) -> None:
        from repro.obs.trace import Trace

        self.trace = Trace("perfbench")
        self.current = None
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable,
             annotate: Optional[Callable] = None,
             when: Optional[Callable] = None) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            root = recorder.current
            if root is None or (when is not None and not when(*args, **kwargs)):
                return function(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else root
            with recorder.trace.span(name, parent=parent,
                                     request=root.span_id) as span:
                stack.append(span)
                try:
                    result = function(*args, **kwargs)
                finally:
                    stack.pop()
                if annotate is not None:
                    annotate(span, result, args, kwargs)
                return result

        wrapper.__wrapped__ = function
        return wrapper

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def install(self) -> None:
        import importlib

        import repro.server.netserver as netserver

        annotations = {
            "enumerate": lambda span, result, a, k: span.set("candidates", len(result)),
            "schedule": lambda span, result, a, k: span.set("groups", len(result)),
            "estimate": lambda span, result, a, k: span.set("samples", result.samples),
        }
        for module_name, attribute, name in WRAPPED_FUNCTIONS:
            self.patch(importlib.import_module(module_name), attribute, name,
                       annotate=annotations.get(name))
        for module_name, class_name, method, name in WRAPPED_METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self.patch(owner, method, name)

        def result_bytes(span, result, args, kwargs):
            span.set("bytes", len(result))

        def result_line(message, *args, **kwargs) -> bool:
            # The terminal result line is the response's encode cost.
            return message.get("type") == "result"

        self.patch(netserver, "dump_line", "server.encode",
                   annotate=result_bytes, when=result_line)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def request(self, traced: bool):
        """Open one request's root span (or run it untraced)."""
        if not traced:
            yield None
            return
        with self.trace.span("request") as root:
            self.current = root
            try:
                yield root
            finally:
                self.current = None


def _spans_by_request(trace) -> tuple[dict, dict]:
    """Root spans by id, and each root's spans (excluding the root)."""
    roots, members = {}, {}
    for span in trace.spans:
        if span.name == "request":
            roots[span.span_id] = span
        else:
            members.setdefault(span.attributes.get("request"), []).append(span)
    return roots, members


def _self_seconds(span, spans) -> float:
    children = sum(other.duration for other in spans
                   if other.parent_id == span.span_id)
    return span.duration - children


def _paired_difference_ms(first: Callable[[], float],
                          second: Callable[[], float]) -> float:
    """Median of ``first() - second()`` over interleaved repeats, in ms."""
    differences = []
    for repeat in range(PROBE_REPEATS):
        if repeat % 2:
            b, a = second(), first()
        else:
            a, b = first(), second()
        differences.append((a - b) * 1e3)
    return median(differences)


def _rtt(client, op) -> float:
    outcome = run_op(client, op)
    if outcome.error is not None:
        raise RuntimeError(f"side probe failed: {outcome.error}")
    return outcome.seconds


def run(name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    from repro.client import ReproClient
    from repro.cluster import EmbeddedCluster
    from repro.obs.recorder import NULL_RECORDER
    from repro.obs.trace import spans_to_chrome
    from repro.server import EmbeddedServer

    plan: Plan = build_plan(name, seed, seconds)
    data_dir = generate_data(out_dir.parent, plan.spec["scale"])
    prefix = plan.measured[:PREFIX_CYCLES[plan.spec["kind"]] * plan.cycle]
    service = default_service(data_dir)
    recorder = SpanRecorder()
    recorder.install()
    cluster = EmbeddedCluster([service], http=False, observe=False,
                              health_interval=3600.0, supervise=False).start()
    try:
        worker_port = cluster.worker_servers["w0"].port
        client = ReproClient("127.0.0.1", worker_port)
        outcomes: list[Outcome] = []
        steady: list[tuple[Outcome, Optional[int]]] = []

        def send(op, traced: bool) -> tuple[Outcome, Optional[int]]:
            with recorder.request(traced) as root:
                outcome = run_op(client, op)
            outcomes.append(outcome)
            return outcome, None if root is None else root.span_id

        for op in plan.warmup:
            send(op, traced=True)
        before = service.stats()
        overloads_before = client.stats()["server"]["overloads"]
        for index, op in enumerate(prefix):
            steady.append(send(op, traced=(index // plan.cycle) % 2 == 1))
        after = service.stats()
        overloads = client.stats()["server"]["overloads"] - overloads_before
        for op in plan.write_probe:
            send(op, traced=True)
        evicted = service.stats().results_evicted - before.results_evicted

        # Side probes on warm requests (re-warmed after any writes).
        warm = plan.warmup[0]
        for op in plan.warmup:
            run_op(client, op)
        front = ReproClient("127.0.0.1", cluster.port)
        hop_ms = _paired_difference_ms(lambda: _rtt(front, warm),
                                       lambda: _rtt(client, warm))
        ping_ms = median([_timed(client.ping) * 1e3 for _ in range(PROBE_REPEATS)])

        def in_process() -> float:
            started = time.perf_counter()
            service.submit(warm.sql, **warm.request_options())
            return time.perf_counter() - started

        overhead_ms = _paired_difference_ms(lambda: _rtt(client, warm), in_process)
        observed = EmbeddedServer(service, http=False, observe=True).start()
        observed_recorder = service.recorder
        service.use_recorder(NULL_RECORDER)
        watched = ReproClient("127.0.0.1", observed.port)

        def lit() -> float:
            service.use_recorder(observed_recorder)
            try:
                return _rtt(watched, warm)
            finally:
                service.use_recorder(NULL_RECORDER)

        obs_ms = _paired_difference_ms(lit, lambda: _rtt(client, warm))
        for probe_client in (client, front, watched):
            probe_client.close()
        observed.stop()
    finally:
        recorder.uninstall()
        cluster.stop()

    bad = check(default_service(data_dir), outcomes)
    trace_path = out_dir / "trace.json"
    document = spans_to_chrome(None, [(f"perfbench {name}",
                                       recorder.trace.span_dicts())])
    trace_path.write_text(json.dumps(document) + "\n")

    metrics = _ledger(recorder.trace, steady, before, after, overloads,
                      evicted, service.stats().results_retained)
    metrics.update({
        "server.ping_ms": (ping_ms, "ms"),
        "server.overhead_ms": (overhead_ms, "ms"),
        "cluster.hop_ms": (hop_ms, "ms"),
        "obs.overhead_ms": (obs_ms, "ms"),
    })
    context = {"trace_file": str(trace_path),
               "spans": len(recorder.trace.spans),
               "steady_requests": len(steady),
               "mismatches": [outcomes[index].error or "reference mismatch"
                              for index in bad][:5]}
    return {"attempted": len(outcomes), "failed": len(bad),
            "metrics": metrics, "context": context}


def _timed(function: Callable) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _cache_delta(before, after, name: str) -> tuple[int, int]:
    def find(stats):
        return next(cache for cache in stats.caches if cache.name == name)
    first, last = find(before), find(after)
    return last.hits - first.hits, last.misses - first.misses


def _ledger(trace, steady, before, after, overloads: int, evicted: int,
            retained: int) -> dict:
    spans = trace.spans
    roots, members = _spans_by_request(trace)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def median_ms(span_name: str) -> float:
        values = [span.duration * 1e3 for span in by_name.get(span_name, ())]
        return median(values) if values else 0.0

    estimates = by_name.get("estimate", [])
    samples = sum(span.attributes.get("samples", 0) for span in estimates)
    estimate_seconds = sum(span.duration for span in estimates)
    submits = by_name.get("service.submit", [])
    submit_self = [_self_seconds(span, members.get(span.attributes["request"], ()))
                   * 1e3 for span in submits]

    # Per traced steady read: the round trip, what the wrapped layers
    # account for (the root's direct children; nested spans are inside
    # them), and the rest.
    traced_rtts, untraced_rtts, rtts = [], [], []
    encode, decode, sizes, unattributed = [], [], [], []
    for outcome, root_id in steady:
        if outcome.op.kind != "read" or outcome.error is not None:
            continue
        if root_id is None:
            untraced_rtts.append(outcome.seconds * 1e3)
            continue
        traced_rtts.append(outcome.seconds * 1e3)
        root, spans_of = roots[root_id], members.get(root_id, [])
        rtt = root.duration * 1e3
        rtts.append(rtt)
        top = sum(span.duration for span in spans_of
                  if span.parent_id == root_id) * 1e3
        unattributed.append(rtt - top)
        encode.append(sum(span.duration for span in spans_of
                          if span.name == "server.encode") * 1e3)
        decode.append(sum(span.duration for span in spans_of
                          if span.name == "client.decode") * 1e3)
        sizes.append(sum(span.attributes.get("bytes", 0) for span in spans_of))

    result_hits, result_misses = _cache_delta(before, after, "certainty")
    plan_hits, plan_misses = _cache_delta(before, after, "candidates")
    return {
        "sql.parse_ms": (median_ms("sql.parse"), "ms"),
        "enumerate.ms": (median_ms("enumerate"), "ms"),
        "enumerate.candidates": (sum(span.attributes.get("candidates", 0)
                                     for span in by_name.get("enumerate", ())), "count"),
        "schedule.ms": (median_ms("schedule"), "ms"),
        "schedule.groups": (sum(span.attributes.get("groups", 0)
                                for span in by_name.get("schedule", ())), "count"),
        "estimate.ms": (median_ms("estimate"), "ms"),
        "estimate.groups": (len(estimates), "count"),
        "estimate.samples": (samples, "count"),
        "estimate.us_per_sample": (estimate_seconds * 1e6 / samples if samples else 0.0, "us"),
        "service.submit_ms": (median_ms("service.submit"), "ms"),
        "service.self_ms": (median(submit_self) if submit_self else 0.0, "ms"),
        "service.result_hit_ratio": (_ratio(result_hits, result_misses), "ratio"),
        "service.plan_hit_ratio": (_ratio(plan_hits, plan_misses), "ratio"),
        "mutate.ms": (median_ms("mutate"), "ms"),
        "mutate.evicted": (evicted, "count"),
        "mutate.retained": (retained, "count"),
        "server.encode_ms": (median(encode), "ms"),
        "server.bytes": (median(sizes), "bytes"),
        "client.decode_ms": (median(decode), "ms"),
        "server.overloads": (overloads, "count"),
        "ledger.rtt_ms": (median(rtts), "ms"),
        "ledger.unattributed_ms": (median(unattributed), "ms"),
        "trace.overhead_ms": (median(traced_rtts) - median(untraced_rtts), "ms"),
    }
