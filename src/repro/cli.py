"""Command-line interface: generate workloads, annotate SQL answers, serve.

Three subcommands cover the end-to-end workflow of the paper's experiments
without writing any Python:

``python -m repro.cli generate --out data/ --products 2000 --orders 2000``
    Generate the Section 9 sales database and write it as CSV files
    (marked nulls are encoded as ``⊤:name`` / ``⊥:name``).

``python -m repro.cli annotate --data data/ --sql "SELECT ..." --epsilon 0.05``
    Load the CSV database, run the query through the annotation service and
    print every candidate answer with its measure of certainty.
    ``--query-name`` can be used instead of ``--sql`` to run one of the
    paper's three decision-support queries by name; ``--jobs N`` spreads the
    Monte-Carlo estimates over worker processes (bit-identical to serial at
    a fixed ``--seed``), and ``--adaptive`` streams coarse estimates first.

``python -m repro.cli serve --data data/``
    Start a long-lived annotation service and read queries from stdin (a
    REPL on a terminal, plain line protocol when piped).  Repeated and
    structurally similar queries are answered from the service's caches;
    ``INSERT``/``DELETE``/``UPDATE`` statements commit a new MVCC snapshot
    version (reported on the result line and in ``\\stats``);
    ``\\stats`` prints the cache/amortisation report, ``\\quit`` exits.
    EOF and Ctrl-C both end the session cleanly (exit 0) and print the
    ``\\stats`` summary on the way out.

``python -m repro.cli server --data data/ --port 7464``
    The same service behind the network front end: a TCP listener speaking
    newline-delimited JSON plus an HTTP adapter (``POST /query``,
    ``GET /healthz``, ``GET /stats``), with bounded admission control,
    cross-connection single-flight coalescing, streamed ``--adaptive``
    refinements, and graceful drain on SIGTERM.  ``--port 0`` binds an
    ephemeral port (printed on startup), ``--no-http`` disables the HTTP
    adapter.

``python -m repro.cli client --sql "SELECT ..." --port 7464``
    Query a running server over TCP and print the same table ``annotate``
    prints.  ``--sql "INSERT INTO ..."`` (or DELETE/UPDATE) routes to the
    server's mutation op and prints the committed data version; typed
    rejections (validation, conflict) exit 2 like any other bad input.
    ``--probe OP`` runs any read-only op of the client instead:
    ``stats``, ``health`` and ``alerts`` print aligned tables
    (``--json`` for the raw payload), ``metrics`` dumps the Prometheus
    exposition, and the others (``history``, ``trace``, ...) print JSON.

``python -m repro.cli top --http-port 7465``
    Live operator console: polls a running server's ``/metrics``,
    ``/stats`` and ``/history`` and renders refreshing tables of
    throughput (with qps sparklines from the server-side history ring),
    windowed p50/p99 latency, SLO burn-rate alerts, cache hit rates and
    coalescing counters.  Pointed at a
    cluster coordinator it additionally renders per-worker rows, trends
    and routing/failover counters.  ``--json`` emits one machine-readable
    snapshot and exits.

``python -m repro.cli profile --port 7464 --seconds 5``
    Sample a running server's stacks (every worker plus the coordinator
    when pointed at a cluster front door) and print collapsed stacks --
    pipe into ``flamegraph.pl`` or load in speedscope.

``python -m repro.cli cluster trace out.json``
    Export one distributed trace -- coordinator and worker spans stitched
    under a single trace id -- as a Chrome/Perfetto trace-event file.
    Trace ids are printed on query results and recorded in the slow-query
    log.

``python -m repro.cli cluster start --data data/ --workers 3``
    The distributed serving tier: spawn N ``repro server`` worker
    subprocesses (plus any ``--worker-addr host:port`` remotes) behind a
    coordinator that consistent-hash-routes query families onto warm
    worker caches, coalesces duplicate requests fleet-wide, broadcasts
    mutations to every worker behind a monotone version barrier, fails
    requests over to a live replica, and supervises/respawns dead local
    workers.  ``repro cluster status|drain|scale`` talk to a running
    coordinator: ``status`` prints per-worker states, ``drain`` performs
    a rolling SIGTERM restart of the local fleet (always serving), and
    ``scale --workers N`` grows/shrinks the local worker pool.

``annotate`` is also available as ``query``; ``repro query --trace
out.json`` additionally writes the request's span tree as a Chrome
trace-event file (load it in ``chrome://tracing`` or Perfetto).

Errors in user input (SQL syntax, unknown tables/columns, missing data
directories) terminate with exit code 2 and a one-line message on stderr --
never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import package_version
from repro.datagen.experiments import (
    EXPERIMENT_QUERIES,
    ExperimentScale,
    generate_sales_database,
    sales_schema,
)
from repro.engine.sql.lexer import SqlSyntaxError
from repro.obs.logsetup import LOG_FORMATS, LOG_LEVELS, configure_logging
from repro.engine.translate_sql import SqlTranslationError
from repro.relational.csv_io import load_database, save_database
from repro.relational.schema import SchemaError
from repro.service import SERVICE_METHODS, AnnotationService, ServiceOptions

#: Exit code when the data directory holds no tuples (kept at 1 for
#: backwards compatibility with pre-service scripts).
EXIT_NO_DATA = 1

#: Exit code for malformed user input (bad SQL, unknown columns, bad data).
EXIT_USAGE = 2

#: Exit code of ``repro client --probe alerts`` when any SLO alert fires
#: (distinct from usage errors so scripts can branch on it).
EXIT_ALERT_FIRING = 3

#: Exceptions that indicate a problem with the user's input, not a bug.
#: MutationError (validation/conflict) subclasses ValueError, so rejected
#: mutation statements exit 2 through the same path as bad SQL.
_USER_ERRORS = (SqlSyntaxError, SqlTranslationError, SchemaError, ValueError)

#: Leading keywords that route a statement to the mutation path.
_MUTATION_KEYWORDS = ("INSERT", "DELETE", "UPDATE")


def _is_mutation(sql: str) -> bool:
    head = sql.lstrip().split(None, 1)
    return bool(head) and head[0].upper() in _MUTATION_KEYWORDS


class _EmptyDataError(RuntimeError):
    """Raised when the requested data directory contains no tuples."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Measures of certainty for queries with arithmetic on "
                    "incomplete databases (PODS 2020 reproduction).")
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate the sales workload and write it as CSV files")
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--products", type=int, default=2000)
    generate.add_argument("--orders", type=int, default=2000)
    generate.add_argument("--markets", type=int, default=100)
    generate.add_argument("--null-rate", type=float, default=0.08)
    generate.add_argument("--seed", type=int, default=0)

    def add_serving_arguments(subparser: argparse.ArgumentParser, *,
                              data_required: bool = True) -> None:
        subparser.add_argument("--data", required=data_required,
                               help="directory of CSV files")
        subparser.add_argument("--epsilon", type=float, default=0.05,
                               help="additive error of the estimates (default 0.05)")
        subparser.add_argument("--method", default="afpras",
                               choices=SERVICE_METHODS)
        subparser.add_argument("--limit", type=int, default=None)
        subparser.add_argument("--seed", type=int, default=0,
                               help="root seed; fixed seeds make runs "
                                    "(including --jobs N) reproducible")
        subparser.add_argument("--jobs", type=int, default=1,
                               help="worker processes for the Monte-Carlo "
                                    "phase (0 = one per CPU; requests that "
                                    "stream --adaptive refinements run "
                                    "inline; results are identical to "
                                    "--jobs 1 at a fixed seed)")
        subparser.add_argument("--adaptive", action="store_true",
                               help="serve coarse estimates first and refine "
                                    "toward --epsilon; refinement stages "
                                    "stream on stderr, the final table gains "
                                    "an interval column")

    annotate_parser = subparsers.add_parser(
        "annotate", aliases=["query"],
        help="run a SQL query over a CSV database and print confidences")
    source = annotate_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--sql", help="SQL text of the query")
    source.add_argument("--query-name", choices=sorted(EXPERIMENT_QUERIES),
                        help="one of the paper's decision-support queries")
    add_serving_arguments(annotate_parser)
    annotate_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the request's span tree (parse/enumerate/schedule/"
             "estimate/serialize) as a Chrome trace-event JSON file")

    serve_parser = subparsers.add_parser(
        "serve", help="start an annotation service reading queries from stdin")
    add_serving_arguments(serve_parser)

    server_parser = subparsers.add_parser(
        "server", help="serve the annotation service over TCP (NDJSON) and HTTP")
    add_serving_arguments(server_parser)
    server_parser.add_argument("--host", default="127.0.0.1",
                               help="interface to bind (default 127.0.0.1)")
    server_parser.add_argument("--port", type=int, default=None,
                               help="TCP wire-protocol port (default 7464; "
                                    "0 picks an ephemeral port, printed on "
                                    "startup)")
    server_parser.add_argument("--http-port", type=int, default=None,
                               help="HTTP adapter port (default: TCP port + 1; "
                                    "0 picks an ephemeral port)")
    server_parser.add_argument("--no-http", action="store_true",
                               help="disable the HTTP adapter")
    server_parser.add_argument("--max-pending", type=int, default=64,
                               help="admission limit: computations queued or "
                                    "running before new queries are rejected "
                                    "with the typed 'overloaded' error "
                                    "(default 64)")
    server_parser.add_argument("--workers", type=int, default=4,
                               help="compute threads serving requests "
                                    "(default 4); each request may fan out "
                                    "further via --jobs")
    server_parser.add_argument("--drain-timeout", type=float, default=30.0,
                               help="seconds SIGTERM waits for in-flight "
                                    "requests before giving up (default 30)")
    server_parser.add_argument("--log-level", default="info",
                               choices=LOG_LEVELS,
                               help="verbosity of the structured server log "
                                    "on stderr (default info)")
    server_parser.add_argument("--log-format", default="text",
                               choices=LOG_FORMATS,
                               help="'text' for classic operator lines, "
                                    "'json' for one JSON object per line")

    client_parser = subparsers.add_parser(
        "client", help="query a running repro server over the TCP protocol")
    client_parser.add_argument("--host", default="127.0.0.1")
    client_parser.add_argument("--port", type=int, default=7464)
    client_source = client_parser.add_mutually_exclusive_group(required=True)
    client_source.add_argument("--sql", help="SQL text of the query")
    client_source.add_argument("--query-name",
                               choices=sorted(EXPERIMENT_QUERIES),
                               help="one of the paper's decision-support queries")
    client_source.add_argument("--probe", type=_probe_op, metavar="OP",
                               help="run one read-only op of the client "
                                    "instead of querying: ping, stats, "
                                    "health, metrics and alerts print "
                                    "their reports, the others (history, "
                                    "profile, trace, ...) print JSON; "
                                    "'alerts' exits 3 when any SLO "
                                    "burn-rate alert is firing")
    client_parser.add_argument("--json", action="store_true",
                               help="print probe reports as raw JSON instead "
                                    "of aligned tables")
    client_parser.add_argument("--epsilon", type=float, default=None)
    client_parser.add_argument("--delta", type=float, default=None)
    client_parser.add_argument("--method", default=None,
                               choices=SERVICE_METHODS)
    client_parser.add_argument("--limit", type=int, default=None)
    client_parser.add_argument("--seed", type=int, default=None)
    client_parser.add_argument("--adaptive", action="store_true",
                               help="stream refinement stages (on stderr) "
                                    "while the final table builds")

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="distributed serving tier: coordinator + N repro server workers")
    cluster_sub = cluster_parser.add_subparsers(dest="cluster_command",
                                                required=True)

    cluster_start = cluster_sub.add_parser(
        "start", help="spawn local workers (and/or front remote ones) "
                      "behind a coordinator")
    add_serving_arguments(cluster_start, data_required=False)
    cluster_start.add_argument("--workers", type=int, default=2,
                               help="local worker subprocesses to spawn "
                                    "(default 2; 0 with --worker-addr fronts "
                                    "only remote workers)")
    cluster_start.add_argument("--worker-addr", action="append", default=[],
                               metavar="HOST:PORT",
                               help="front an already-running repro server "
                                    "(repeatable); remote workers are health-"
                                    "checked and routed but not respawned")
    cluster_start.add_argument("--host", default="127.0.0.1",
                               help="interface to bind (default 127.0.0.1)")
    cluster_start.add_argument("--port", type=int, default=None,
                               help="coordinator TCP port (default 7464; "
                                    "0 picks an ephemeral port)")
    cluster_start.add_argument("--http-port", type=int, default=None,
                               help="coordinator HTTP port (default: TCP "
                                    "port + 1; 0 picks an ephemeral port)")
    cluster_start.add_argument("--no-http", action="store_true",
                               help="disable the HTTP adapter")
    cluster_start.add_argument("--max-pending", type=int, default=256,
                               help="coordinator admission limit on "
                                    "concurrently forwarded flights "
                                    "(default 256)")
    cluster_start.add_argument("--health-interval", type=float, default=1.0,
                               help="seconds between worker health checks "
                                    "(default 1)")
    cluster_start.add_argument("--no-supervise", action="store_true",
                               help="do not respawn dead local workers")
    cluster_start.add_argument("--drain-timeout", type=float, default=60.0,
                               help="seconds SIGTERM waits for in-flight "
                                    "requests before giving up (default 60)")
    cluster_start.add_argument("--log-level", default="info",
                               choices=LOG_LEVELS)
    cluster_start.add_argument("--log-format", default="text",
                               choices=LOG_FORMATS)

    for verb, description in (
            ("status", "per-worker states and coordinator counters"),
            ("drain", "rolling restart of the local workers (fleet keeps "
                      "serving via failover)"),
            ("scale", "grow/shrink the local worker pool")):
        verb_parser = cluster_sub.add_parser(verb, help=description)
        verb_parser.add_argument("--host", default="127.0.0.1")
        verb_parser.add_argument("--port", type=int, default=7464,
                                 help="the coordinator's TCP port")
        verb_parser.add_argument("--json", action="store_true",
                                 help="print the raw JSON payload")
        if verb == "scale":
            verb_parser.add_argument("--workers", type=int, required=True,
                                     help="target worker count")

    cluster_trace = cluster_sub.add_parser(
        "trace", help="export one distributed trace (coordinator + worker "
                      "spans stitched under a single trace id) as a Chrome/"
                      "Perfetto trace-event file")
    cluster_trace.add_argument("out", metavar="OUT",
                               help="path of the trace-event JSON file to "
                                    "write")
    cluster_trace.add_argument("--host", default="127.0.0.1")
    cluster_trace.add_argument("--port", type=int, default=7464,
                               help="the coordinator's (or server's) TCP "
                                    "port")
    cluster_trace.add_argument("--trace-id", default=None,
                               help="the 32-hex-char trace id (default: the "
                                    "most recent stored trace)")

    top_parser = subparsers.add_parser(
        "top", help="live operator console over a running server's HTTP port")
    top_parser.add_argument("--host", default="127.0.0.1")
    top_parser.add_argument("--http-port", type=int, default=7465,
                            help="the server's HTTP adapter port "
                                 "(default 7465)")
    top_parser.add_argument("--interval", type=float, default=2.0,
                            help="seconds between polls (default 2)")
    top_parser.add_argument("--count", type=int, default=None,
                            help="render this many frames then exit "
                                 "(default: run until Ctrl-C)")
    top_parser.add_argument("--json", action="store_true",
                            help="print one machine-readable snapshot "
                                 "(fleet rows, alerts, windowed latency) "
                                 "and exit")

    profile_parser = subparsers.add_parser(
        "profile", help="sample a running server's stacks (fleet-wide "
                        "through a coordinator) and print collapsed stacks "
                        "ready for flamegraph.pl or speedscope")
    profile_parser.add_argument("--host", default="127.0.0.1")
    profile_parser.add_argument("--port", type=int, default=7464,
                                help="the server's (or coordinator's) TCP "
                                     "port")
    profile_parser.add_argument("--seconds", type=float, default=1.0,
                                help="sampling window (default 1, capped "
                                     "server-side at 60)")
    profile_parser.add_argument("--out", default=None,
                                help="write the collapsed stacks here "
                                     "instead of stdout")

    return parser


def _run_generate(args: argparse.Namespace) -> int:
    scale = ExperimentScale(products=args.products, orders=args.orders,
                            markets=args.markets, null_rate=args.null_rate)
    database = generate_sales_database(scale, rng=args.seed)
    save_database(database, Path(args.out))
    print(f"wrote {database.total_tuples()} tuples "
          f"({len(database.num_nulls())} numerical nulls, "
          f"{len(database.base_nulls())} base nulls) to {args.out}")
    return 0


def _load_service(args: argparse.Namespace) -> AnnotationService:
    """The service every serving verb runs, over the columnar layout."""
    database = load_database(sales_schema(), Path(args.data))
    if database.total_tuples() == 0:
        raise _EmptyDataError(f"no data found in {args.data}")
    options = ServiceOptions(epsilon=args.epsilon, method=args.method,
                             jobs=args.jobs, adaptive=args.adaptive,
                             seed=args.seed)
    return AnnotationService(database.with_backend("columnar"), options)


def _print_answers(answers: Sequence, adaptive: bool) -> None:
    if not answers:
        print("no candidate answers")
        return
    header = " | ".join(answers[0].columns)
    print(f"{header} | confidence | witnesses")
    for answer in answers:
        values = " | ".join(str(value) for value in answer.values)
        line = f"{values} | {answer.certainty.value:.3f} | {answer.witnesses}"
        if adaptive:
            low, high = answer.certainty.details.get(
                "interval", answer.certainty.interval())
            line += f" | [{low:.3f}, {high:.3f}]"
        print(line)


def _show_update(lineage: str, update) -> None:
    """One streamed refinement line on stderr (stdout stays a clean table)."""
    if update.samples == 0:
        return  # exact lineages answer at stage 0 with nothing to refine
    low, high = update.interval
    marker = "  <- final" if update.final else ""
    print(f".. lineage {lineage} "
          f"stage {update.stage + 1}/{update.stages}: "
          f"mu={update.value:.3f} in [{low:.3f}, {high:.3f}] "
          f"(eps={update.epsilon:.3f}, {update.samples} samples){marker}",
          file=sys.stderr, flush=True)


def _adaptive_printer():
    """Adapter for the service's ``on_update`` callback shape.

    With ``--jobs N`` the stages of different lineage groups interleave;
    each line is self-identifying via the canonical-lineage digest prefix.
    """
    def show(group, update) -> None:
        _show_update(group.canonical.short, update)
    return show


def _run_annotate(args: argparse.Namespace) -> int:
    service = _load_service(args)
    sql = args.sql if args.sql is not None else EXPERIMENT_QUERIES[args.query_name]
    trace_path = getattr(args, "trace", None)
    response = service.submit(
        sql, limit=args.limit, trace=bool(trace_path),
        on_update=_adaptive_printer() if args.adaptive else None)
    _print_answers(response.answers, args.adaptive)
    if trace_path:
        path = response.trace.write_chrome(trace_path)
        print(f"-- wrote {len(response.trace.spans)} spans to {path}",
              file=sys.stderr)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Line-oriented serving loop: one SQL query per line, ``\\``-commands.

    On a terminal this is a small REPL; piped input makes it a batch
    protocol, so scripted clients (and the worked example under
    ``examples/``) drive it the same way.  The session always ends cleanly:
    EOF and Ctrl-C (even mid-request) exit 0 and print the ``\\stats``
    summary, so an interrupted session still reports what it amortised.
    """
    from repro.obs import Recorder

    service = _load_service(args)
    # A recorder makes the interactive ``\stats`` report include latency
    # quantiles-to-be and the slow-query ring at zero extra flags.
    service.use_recorder(Recorder())
    interactive = sys.stdin.isatty()
    if interactive:
        print(f"repro serve: {service.database.total_tuples()} tuples, "
              f"method={args.method}, epsilon={args.epsilon}, jobs={args.jobs}; "
              "\\stats for the cache report, \\quit to exit")
    try:
        while True:
            if interactive:
                print("repro> ", end="", flush=True)
            line = sys.stdin.readline()
            if not line:
                break
            line = line.strip()
            if not line or line.startswith("--") or line.startswith("#"):
                continue
            if line in ("\\quit", "\\q", "exit", "quit"):
                break
            if line in ("\\stats", "\\s"):
                print(service.stats().report())
                continue
            if _is_mutation(line):
                try:
                    outcome = service.mutate(line)
                except _USER_ERRORS as error:
                    print(f"error: {error}", file=sys.stderr)
                    continue
                print(f"-- {outcome.operation} on {outcome.table}: "
                      f"+{outcome.inserted}/-{outcome.deleted} rows, "
                      f"data version {outcome.data_version}")
                continue
            try:
                response = service.submit(
                    line, limit=args.limit,
                    on_update=_adaptive_printer() if args.adaptive else None)
            except _USER_ERRORS as error:
                print(f"error: {error}", file=sys.stderr)
                continue
            _print_answers(response.answers, args.adaptive)
            stats = response.stats
            print(f"-- {stats.candidates} answers in {stats.elapsed_seconds*1e3:.1f} ms "
                  f"({stats.groups} lineage groups: {stats.groups_computed} computed, "
                  f"{stats.groups_from_cache} cached; {stats.tuples_batched} tuples batched)")
    except KeyboardInterrupt:
        # Ctrl-C mid-request is a normal way to leave the REPL, not a crash.
        pass
    if interactive:
        print()
    print("-- session stats --")
    print(service.stats().report())
    return 0


def _serving_ports(args: argparse.Namespace) -> tuple[int, Optional[int]]:
    """The TCP port and the HTTP port (None without HTTP) to listen on."""
    from repro.server import DEFAULT_PORT

    port = DEFAULT_PORT if args.port is None else args.port
    if args.no_http:
        return port, None
    if args.http_port is not None:
        return port, args.http_port
    # Ephemeral TCP ports take an ephemeral HTTP port alongside.
    return port, port + 1 if port else 0


def _run_server(args: argparse.Namespace) -> int:
    """The network front end: TCP NDJSON + HTTP around one service."""
    from repro.server import serve

    configure_logging(level=args.log_level, format=args.log_format)
    if args.max_pending < 1:
        raise ValueError(f"--max-pending must be at least 1, got {args.max_pending}")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    service = _load_service(args)
    port, http_port = _serving_ports(args)
    return serve(service, host=args.host, port=port, http_port=http_port,
                 max_pending=args.max_pending, workers=args.workers,
                 drain_timeout=args.drain_timeout)


def _worker_serving_flags(args: argparse.Namespace) -> list[str]:
    """The serving flags ``repro cluster start`` forwards to each worker."""
    flags = ["--epsilon", str(args.epsilon), "--method", args.method,
             "--seed", str(args.seed), "--jobs", str(args.jobs)]
    if args.limit is not None:
        flags += ["--limit", str(args.limit)]
    if args.adaptive:
        flags.append("--adaptive")
    return flags


def _run_cluster_start(args: argparse.Namespace) -> int:
    """The coordinator front door over local and/or remote workers."""
    from repro.cluster import (
        CoordinatorApp,
        LocalWorker,
        WorkerEndpoint,
        WorkerSpawnError,
        parse_worker_addr,
        worker_argv,
    )
    from repro.server import serve

    configure_logging(level=args.log_level, format=args.log_format)
    if args.workers < 0:
        raise ValueError(f"--workers must be non-negative, got {args.workers}")
    if args.workers == 0 and not args.worker_addr:
        raise ValueError("nothing to front: pass --workers N and/or "
                         "--worker-addr host:port")
    if args.workers > 0 and not args.data:
        raise ValueError("--data is required to spawn local workers")
    endpoints = []
    for index, value in enumerate(args.worker_addr):
        host, port = parse_worker_addr(value)
        endpoints.append(WorkerEndpoint(f"r{index}", host, port))
    template = None
    locals_: list[LocalWorker] = []
    if args.workers > 0:
        template = worker_argv(args.data, _worker_serving_flags(args))
        try:
            for index in range(args.workers):
                worker = LocalWorker(f"w{index}", list(template))
                worker.spawn()
                locals_.append(worker)
        except WorkerSpawnError as error:
            for worker in locals_:
                worker.kill()
            print(f"error: {error}", file=sys.stderr)
            return 1
    defaults = {"epsilon": args.epsilon, "delta": None,
                "method": args.method, "limit": args.limit,
                "seed": args.seed, "adaptive": args.adaptive}
    app = CoordinatorApp(endpoints, locals_=locals_, defaults=defaults,
                         max_pending=args.max_pending,
                         health_interval=args.health_interval,
                         supervise=not args.no_supervise,
                         worker_template=template)
    port, http_port = _serving_ports(args)
    try:
        return serve(app=app, host=args.host, port=port, http_port=http_port,
                     drain_timeout=args.drain_timeout)
    except WorkerSpawnError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _print_cluster_status(payload: dict) -> None:
    from repro.obs.console import render_table

    rows = [(worker["id"], worker["addr"], worker["state"],
             str(worker.get("pid") or "-"), str(worker["data_version"]))
            for worker in payload.get("workers", [])]
    print("\n".join(render_table(
        ("worker", "addr", "state", "pid", "version"), rows)))
    coordinator = payload.get("coordinator", {})
    keys = ("requests", "launched", "coalesced", "failovers", "respawns",
            "mutations", "barrier_version", "workers_healthy")
    print("\n".join(render_table(
        ("coordinator", "value"),
        [(key, str(coordinator.get(key, 0))) for key in keys])))


def _run_cluster_trace(args: argparse.Namespace) -> int:
    """Fetch one stitched distributed trace and write the Chrome file."""
    import json

    from repro.client import ClientError, ReproClient, ServerError

    try:
        with ReproClient(args.host, args.port) as client:
            payload = client.trace_export(args.trace_id)
    except ServerError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE if error.code == "bad_request" else 1
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    path = Path(args.out)
    path.write_text(json.dumps(payload["chrome"], indent=1) + "\n")
    print(f"wrote trace {payload.get('trace_id', '?')} "
          f"({payload.get('span_count', 0)} spans over "
          f"{len(payload.get('processes', []))} processes) to {path}")
    return 0


def _run_cluster(args: argparse.Namespace) -> int:
    if args.cluster_command == "start":
        return _run_cluster_start(args)
    if args.cluster_command == "trace":
        return _run_cluster_trace(args)
    import json

    from repro.client import ClientError, ReproClient, ServerError

    # Rolling restarts drain worker-by-worker; give them real time.
    timeout = 600.0 if args.cluster_command == "drain" else 60.0
    try:
        with ReproClient(args.host, args.port, timeout=timeout) as client:
            if args.cluster_command == "status":
                payload = client.cluster()
            elif args.cluster_command == "drain":
                payload = client.cluster_drain()
            else:
                payload = client.cluster_scale(args.workers)
    except ServerError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE if error.code == "bad_request" else 1
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    elif args.cluster_command == "status":
        _print_cluster_status(payload)
    elif args.cluster_command == "drain":
        print(f"rolling restart done: restarted "
              f"{', '.join(payload.get('restarted', [])) or 'none'} "
              f"(barrier version {payload.get('barrier_version', 0)})")
    else:
        print(f"scaled to {payload.get('workers')} workers "
              f"(+{len(payload.get('added', []))}/"
              f"-{len(payload.get('removed', []))})")
    return 0


def _probe_ops() -> tuple[str, ...]:
    """The ``--probe`` choices: every op of the client's op layer that
    changes nothing on the server (all of them run without arguments)."""
    from repro.client import _Ops

    changes_state = ("mutate", "cluster_drain", "cluster_scale")
    return tuple(sorted(name for name in vars(_Ops)
                        if not name.startswith("_")
                        and name not in changes_state))


def _probe_op(name: str) -> str:
    """``--probe``'s argument type, checked against :func:`_probe_ops`
    only when the option is given: building the parser must not import
    the client, which every other command would then pay for."""
    choices = _probe_ops()
    if name not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(choices)})")
    return name


def _print_probe(op: str, payload, as_json: bool) -> int:
    """Print one ``--probe`` reply: a report for the ops that have one,
    JSON for the rest (and for every op under ``--json``)."""
    import json

    from repro.obs.console import render_stats_tables, render_table

    if op == "ping":
        print("pong")
    elif op == "metrics":
        print(payload, end="")
    elif as_json or op not in ("stats", "health", "alerts"):
        print(json.dumps(payload, indent=2))
    elif op == "stats":
        print(render_stats_tables(payload))
    elif op == "health":
        print("\n".join(render_table(
            ("health", "value"),
            [(key, str(value)) for key, value in payload.items()])))
    else:
        rows = [(f"{alert.get('slo', '?')}/{alert.get('severity', '?')}",
                 f"{alert.get('burn_short', 0.0):.2f}",
                 f"{alert.get('burn_long', 0.0):.2f}",
                 f"{alert.get('burn_threshold', 0.0):.1f}",
                 "FIRING" if alert.get("firing") else "ok")
                for alert in payload.get("alerts", [])]
        print("\n".join(render_table(
            ("slo alert", "burn short", "burn long", "threshold", "state"),
            rows)))
    # Scripts branch on the alert probe's exit code: 0 = healthy, 3 = paging.
    if op == "alerts" and payload.get("firing"):
        return EXIT_ALERT_FIRING
    return 0


def _run_client(args: argparse.Namespace) -> int:
    """One scripted interaction with a running server, annotate-style output."""
    from repro.client import ClientError, ReproClient, ServerError

    try:
        with ReproClient(args.host, args.port) as client:
            if args.probe is not None:
                return _print_probe(args.probe,
                                    getattr(client, args.probe)(), args.json)
            sql = args.sql if args.sql is not None \
                else EXPERIMENT_QUERIES[args.query_name]
            if _is_mutation(sql):
                outcome = client.mutate(sql)
                print(f"{outcome.operation} on {outcome.table}: "
                      f"+{outcome.inserted}/-{outcome.deleted} rows, "
                      f"data version {outcome.data_version}")
                return 0
            on_update = (lambda event: _show_update(event.lineage[:8], event)) \
                if args.adaptive else None
            result = client.query(
                sql, epsilon=args.epsilon, delta=args.delta,
                method=args.method, limit=args.limit, seed=args.seed,
                adaptive=args.adaptive or None, on_update=on_update)
    except ServerError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE if error.code in (
            "bad_request", "invalid_query", "validation", "conflict") else 1
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_answers(result.answers, args.adaptive)
    stats = result.stats
    print(f"-- {stats.get('candidates', len(result.answers))} answers in "
          f"{stats.get('elapsed_seconds', 0.0)*1e3:.1f} ms "
          f"({stats.get('groups', 0)} lineage groups: "
          f"{stats.get('groups_computed', 0)} computed, "
          f"{stats.get('groups_from_cache', 0)} cached)")
    return 0


def _run_top(args: argparse.Namespace) -> int:
    """Live operator console over a running server's HTTP adapter."""
    import json

    from urllib.error import URLError

    from repro.obs.console import fetch_sample, run_top, snapshot_payload

    base_url = f"http://{args.host}:{args.http_port}"
    try:
        if args.json:
            # One machine-readable snapshot, no dashboard: what check
            # runners and cron scripts consume.
            print(json.dumps(snapshot_payload(fetch_sample(base_url)),
                             indent=2))
            return 0
        frames = run_top(base_url, interval=args.interval, count=args.count)
    except (URLError, OSError) as error:
        print(f"error: cannot reach {base_url}: {error}", file=sys.stderr)
        return 1
    return 0 if frames else 1


def _run_profile(args: argparse.Namespace) -> int:
    """One profiling run against a running server (or whole fleet)."""
    from repro.client import ClientError, ReproClient, ServerError

    try:
        with ReproClient(args.host, args.port,
                         timeout=args.seconds + 60.0) as client:
            payload = client.profile(seconds=args.seconds)
    except ServerError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE if error.code == "bad_request" else 1
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    collapsed = payload.get("collapsed", "")
    if args.out:
        Path(args.out).write_text(collapsed)
        processes = payload.get("processes", 1)
        print(f"wrote {payload.get('stacks', 0)} stacks "
              f"({payload.get('samples', 0)} samples over {processes} "
              f"process{'es' if processes != 1 else ''}) to {args.out}")
    else:
        print(collapsed, end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (used both by ``python -m repro.cli`` and the tests)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _run_generate(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "server":
            return _run_server(args)
        if args.command == "cluster":
            return _run_cluster(args)
        if args.command == "client":
            return _run_client(args)
        if args.command == "top":
            return _run_top(args)
        if args.command == "profile":
            return _run_profile(args)
        return _run_annotate(args)
    except _EmptyDataError as error:
        print(str(error), file=sys.stderr)
        return EXIT_NO_DATA
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except _USER_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
