"""The annotation service: cached, parallel, adaptive-precision query serving.

:class:`AnnotationService` owns the full request lifecycle that the PR 1
pipeline re-ran from scratch on every ``annotate_query`` call:

1. **parse** -- SQL text is canonicalised (whitespace-collapsed) and parsed
   once per distinct query text (parse cache);
2. **plan** -- candidate enumeration with lineage extraction runs once per
   ``(query, limit, semantics)`` against the service's database snapshot
   (plan cache);
3. **schedule** -- candidates are grouped by the null-renaming-invariant
   canonical form of their lineage (:mod:`repro.service.scheduler`), so one
   compiled-kernel estimate decides a whole group.  The schedule and each
   group's lineage nulls (its provenance) are built with the candidates
   and stored in the same plan-cache entry, so a warm request does no
   per-candidate work before assembling its answers;
4. **execute** -- one pipeline under every configuration: each group is
   probed once in the certainty cache, keyed by
   ``(lineage digest, ε, δ, method, adaptive, seed)``, so structurally
   repeated requests skip the Monte-Carlo phase entirely; each miss is
   estimated as one task, and one executor call runs the tasks over
   ``jobs`` threads or processes.  Every task draws from streams spawned
   off the request's ``SeedSequence`` under a key derived from the
   lineage digest (:mod:`repro.service.rng`), which makes parallel runs
   bit-identical to serial ones;
5. **estimate** -- either single-shot at the requested ε, or adaptively
   (coarse first, streamed refinement; :mod:`repro.service.adaptive`);
   fresh results land in the certainty cache.

The compiled-kernel memo of :mod:`repro.compile` sits underneath all of
this; its hit/miss counters are surfaced in :meth:`AnnotationService.stats`
alongside the service's own caches.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.caching import CacheStats, LruCache, SingleFlight, SingleFlightStats
from repro.certainty.measure import certainty_from_translation
from repro.certainty.result import CertaintyResult
from repro.compile import compile_cache_stats
from repro.constraints.translate import TranslationResult
from repro.geometry.montecarlo import DEFAULT_DELTA
from repro.service.adaptive import (
    DEFAULT_COARSE_EPSILON,
    DEFAULT_REFINEMENT_FACTOR,
    AdaptiveUpdate,
    adaptive_certainty,
)
from repro.service.answers import AnnotatedAnswer
from repro.service.executor import EXECUTORS, process_map, run_tasks
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACE, Trace
from repro.service.rng import SeedLike, root_sequence, spawn_stream
from repro.service.scheduler import TaskGroup, build_schedule

#: Methods the service can dispatch on a pre-translated lineage.
SERVICE_METHODS = ("auto", "exact", "afpras", "fpras")

#: Callback receiving streamed adaptive refinements: ``(group, update)``.
GroupUpdateCallback = Callable[[TaskGroup, AdaptiveUpdate], None]


@dataclass(frozen=True)
class ServiceOptions:
    """Request defaults and cache sizing of an :class:`AnnotationService`."""

    epsilon: float = 0.05
    delta: float = DEFAULT_DELTA
    method: str = "afpras"
    #: Workers per request; 1 = serial, 0 = one per CPU.
    jobs: int = 1
    #: What ``jobs`` spans: ``"thread"`` workers share the process (the
    #: PR 2 executor; caches shared, zero shipping cost), ``"process"``
    #: workers span cores for the CPU-bound Monte-Carlo phase.  Results are
    #: bit-identical either way -- streams are content-keyed, not
    #: scheduling-keyed.
    executor: str = "thread"
    #: Serve coarse estimates first and refine toward the requested epsilon.
    adaptive: bool = False
    adaptive_coarse: float = DEFAULT_COARSE_EPSILON
    adaptive_factor: float = DEFAULT_REFINEMENT_FACTOR
    #: Root seed used when a request does not carry its own.
    seed: SeedLike = None
    #: Storage/execution backend for candidate enumeration: ``"rows"``
    #: (row-at-a-time reference engine), ``"columnar"`` (vectorized engine
    #: over NumPy column arrays), or ``None`` to follow the database's own
    #: backend.  The service converts its database snapshot once at
    #: construction, so every request runs on the chosen layout.
    backend: Optional[str] = None
    #: Reuse certainty results across tuples and requests with the same
    #: canonical lineage (the PR 1 ad-hoc annotate-loop reuse, generalised).
    reuse_results: bool = True
    parse_cache_size: int = 256
    plan_cache_size: int = 128
    result_cache_size: int = 4096


@dataclass(frozen=True)
class RequestStats:
    """What one request cost and how much of it was amortised."""

    candidates: int
    #: Distinct canonical lineages scheduled.
    groups: int
    #: Groups answered straight from the certainty cache.
    groups_from_cache: int
    #: Groups actually estimated (kernel invocations) this request.
    groups_computed: int
    #: Tuples that shared another tuple's estimate (batching win).
    tuples_batched: int
    elapsed_seconds: float
    seed_entropy: int


@dataclass(frozen=True)
class ServiceResponse:
    """Annotated answers plus the request's amortisation accounting."""

    answers: tuple[AnnotatedAnswer, ...]
    stats: RequestStats
    #: The request's span tree, populated only when the caller asked for
    #: tracing (``submit(..., trace=True)`` or by passing a ``Trace``).
    trace: Optional[Trace] = None


@dataclass(frozen=True)
class BackendStats:
    """Request and plan-cache counters attributed to one execution backend."""

    backend: str
    requests: int
    plan_hits: int
    plan_misses: int


@dataclass(frozen=True)
class ServiceStats:
    """Lifetime counters and per-cache snapshots for the stats report."""

    requests: int
    answers_served: int
    estimates_computed: int
    estimates_reused: int
    tuples_batched: int
    caches: tuple[CacheStats, ...] = field(default_factory=tuple)
    backends: tuple[BackendStats, ...] = field(default_factory=tuple)
    #: Cross-request estimate coalescing (concurrent identical lineages
    #: joining one computation); ``None`` on snapshots predating the server.
    single_flight: Optional[SingleFlightStats] = None
    #: Top-K slow queries (dicts from :meth:`SlowQuery.as_dict`); empty
    #: when the service runs without a recorder.
    slow_queries: tuple = ()
    #: MVCC version of the database snapshot currently served (0 until the
    #: first committed mutation).
    data_version: int = 0
    #: Committed mutation statements over the service's lifetime.
    mutations_applied: int = 0
    #: Certainty results dropped by delta-driven invalidation (their
    #: recorded lineage touched mutated rows) vs. kept warm across
    #: versions.
    results_evicted: int = 0
    results_retained: int = 0

    def report(self) -> str:
        """Human-readable multi-line report (the ``serve`` REPL's ``\\stats``)."""
        lines = [
            f"requests            {self.requests}",
            f"answers served      {self.answers_served}",
            f"estimates computed  {self.estimates_computed}",
            f"estimates reused    {self.estimates_reused}",
            f"tuples batched      {self.tuples_batched}",
            f"data version        {self.data_version} "
            f"({self.mutations_applied} mutations, "
            f"{self.results_evicted} results evicted, "
            f"{self.results_retained} retained)",
        ]
        if self.single_flight is not None:
            lines.append(
                f"estimate flights    {self.single_flight.launches} launched, "
                f"{self.single_flight.joins} joined, "
                f"{self.single_flight.in_flight} in flight")
        lines.append(
            "cache               cap    size   hits  misses  evict  hit-rate")
        for cache in self.caches:
            lines.append(
                f"{cache.name:<18} {cache.capacity:>5} {cache.size:>7} "
                f"{cache.hits:>6} {cache.misses:>7} {cache.evictions:>6} "
                f"{cache.hit_rate:>9.1%}")
        lines.append("backend            requests   plan-hits  plan-misses")
        for backend in self.backends:
            lines.append(
                f"{backend.backend:<18} {backend.requests:>8} "
                f"{backend.plan_hits:>11} {backend.plan_misses:>12}")
        if self.slow_queries:
            lines.append("slow queries        elapsed  hottest-phase  sql")
            for entry in self.slow_queries:
                phases = entry.get("phases", {})
                hottest = (max(phases.items(), key=lambda item: item[1])[0]
                           if phases else "-")
                sql = entry.get("sql", "?").replace("\x00", " ")
                lines.append(
                    f"  {entry.get('elapsed_seconds', 0.0):>16.4f}s "
                    f"{hottest:>13}  {sql[:60]}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "answers_served": self.answers_served,
            "estimates_computed": self.estimates_computed,
            "estimates_reused": self.estimates_reused,
            "tuples_batched": self.tuples_batched,
            "caches": [cache.as_dict() for cache in self.caches],
            "backends": [
                {"backend": backend.backend, "requests": backend.requests,
                 "plan_hits": backend.plan_hits,
                 "plan_misses": backend.plan_misses}
                for backend in self.backends],
            "single_flight": (None if self.single_flight is None
                              else self.single_flight.as_dict()),
            "slow_queries": [dict(entry) for entry in self.slow_queries],
            "data_version": self.data_version,
            "mutations_applied": self.mutations_applied,
            "results_evicted": self.results_evicted,
            "results_retained": self.results_retained,
        }


#: A single-quoted SQL string literal (``''`` escapes a quote), matching
#: the lexer's own token shape.
_SQL_LITERAL = re.compile(r"'(?:[^']|'')*'")


def normalise_sql(sql: str) -> str:
    """Whitespace-insensitive cache/coalescing key for SQL text.

    Whitespace is collapsed only *outside* single-quoted string literals:
    ``WHERE seg = 'a  b'`` and ``WHERE seg = 'a b'`` are different queries
    and must never share a parse-cache entry or a coalescing flight, while
    the same query reformatted across lines must.  Chunks are rejoined
    around the verbatim literals with a NUL separator so a key is
    unambiguous; it is a key, not re-parseable SQL.
    """
    parts: list[str] = []
    last = 0
    for match in _SQL_LITERAL.finditer(sql):
        parts.append(" ".join(sql[last:match.start()].split()))
        parts.append(match.group(0))
        last = match.end()
    parts.append(" ".join(sql[last:].split()))
    if len(parts) == 1:
        return parts[0]
    return "\x00".join(parts)


def _validate(method: str, executor: str) -> None:
    """Reject unknown options, as service defaults or per-request overrides."""
    if method not in SERVICE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {SERVICE_METHODS}")
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")


def _seed_token(root: np.random.SeedSequence) -> tuple:
    """Hashable identity of a root sequence for the certainty-cache key.

    Both the entropy *and* the spawn key matter: two children of the same
    parent (``SeedSequence(0).spawn(2)``) share entropy but draw different
    streams, so collapsing them onto one cache slot would serve an estimate
    computed under a different stream than a cold run would use.
    """
    entropy = root.entropy
    if isinstance(entropy, (list, tuple, np.ndarray)):
        entropy = tuple(int(word) for word in entropy)
    return (entropy, tuple(int(word) for word in root.spawn_key))


@dataclass(frozen=True)
class _Snapshot:
    """A database version with its ambient null count.

    :meth:`AnnotationService.mutate` swaps both in one reference
    assignment, so a request that pins the snapshot stamps its results
    with the dimension of the version it ran on, never a later one.
    """

    database: object
    dimension: int


@dataclass(frozen=True)
class _PlanEntry:
    """A planned query: its candidates and what every request derives from
    them, built once per plan-cache fill by :func:`_plan_entry`.

    ``provenance[i]`` names the marked nulls the lineages of
    ``schedule[i]``'s members mention: the rows whose deletion could, as a
    matter of provenance policy, affect that group's certainty entry.
    """

    candidates: tuple
    schedule: tuple[TaskGroup, ...]
    provenance: tuple[frozenset[str], ...]


def _plan_entry(candidates: Sequence) -> _PlanEntry:
    """The plan entry of ``candidates``: the one caller of
    :func:`build_schedule`, for cached and uncached plans alike."""
    candidates = tuple(candidates)
    schedule = tuple(build_schedule(candidates))
    provenance = tuple(
        frozenset(candidates[member].lineage.null_by_variable[variable].name
                  for member in group.members
                  for variable in candidates[member].lineage.relevant_variables)
        for group in schedule)
    return _PlanEntry(candidates, schedule, provenance)


class AnnotationService:
    """Serve certainty-annotated answers for SQL queries over one database.

    The service holds an immutable database *snapshot* and serves every
    request against the snapshot current at submit time (MVCC: a request
    pins its snapshot for its whole lifecycle, so a concurrent
    :meth:`mutate` never tears a running request).  Mutations are
    serialised by a writer lock, commit a new snapshot version, and drive
    *delta* invalidation: plan-cache keys carry per-table versions (stale
    plans become unreachable, untouched tables stay warm), certainty
    results are evicted only when their recorded lineage nulls intersect
    the mutation's deleted/updated rows, and the join-frontier cache
    carries its frontiers past deletes and delta-joins appended rows
    instead of re-enumerating.  The wholesale :meth:`invalidate` remains
    for out-of-band database edits.
    """

    def __init__(self, database, options: Optional[ServiceOptions] = None,
                 recorder=None, **overrides) -> None:
        if options is None:
            options = ServiceOptions()
        if overrides:
            options = replace(options, **overrides)
        _validate(options.method, options.executor)
        if options.backend is not None:
            # One conversion at construction; the snapshot then serves every
            # request under the requested layout.
            database = database.with_backend(options.backend)
        self._snapshot = _Snapshot(database,
                                   len(database.num_nulls_ordered()))
        self._options = options
        # The fallback root for requests without their own seed is drawn
        # once per service: with ``options.seed=None`` this fixes fresh OS
        # entropy at construction, so repeated seedless requests still share
        # the certainty cache (a per-request fresh root would make every
        # cache key unique and silently disable cross-request reuse).
        self._default_root = root_sequence(options.seed)
        self._parse_cache = LruCache(options.parse_cache_size, name="parsed sql")
        self._plan_cache = LruCache(options.plan_cache_size, name="candidates")
        self._result_cache = LruCache(options.result_cache_size, name="certainty")
        # Incremental join-frontier maintenance for the columnar path: a
        # commit carries cached frontiers past its deletes, and
        # re-enumeration delta-joins only the appended rows (see
        # FrontierCache in engine.vectorized).
        from repro.engine.vectorized import FrontierCache
        self._frontier_cache = FrontierCache()
        # Delta-driven invalidation bookkeeping: result-cache key -> names
        # of the marked nulls its served lineages actually touched.  A
        # mutation evicts exactly the keys whose nulls it deleted/updated.
        self._result_provenance: dict[tuple, frozenset[str]] = {}
        self._provenance_lock = threading.Lock()
        # Writers are serialised; readers never take this lock.
        self._mutation_lock = threading.Lock()
        self._mutations_applied = 0
        self._results_evicted = 0
        # Concurrent requests (the network server runs submits on worker
        # threads) racing on a cold canonical lineage join one estimate
        # instead of computing it twice: one computation, one cache fill.
        self._estimate_flights = SingleFlight(name="estimate flights")
        self._requests = 0
        self._answers_served = 0
        self._estimates_computed = 0
        self._estimates_reused = 0
        self._tuples_batched = 0
        # The network server calls ``submit`` from worker threads; unlocked
        # read-modify-write would drop increments and skew the very
        # counters the coalescing audit relies on.
        self._counters_lock = threading.Lock()
        # The disabled recorder costs one attribute check per request; the
        # server attaches a live one via ``use_recorder``.
        self._recorder = recorder if recorder is not None else NULL_RECORDER

    @property
    def recorder(self):
        return self._recorder

    def use_recorder(self, recorder) -> None:
        """Attach a live :class:`~repro.obs.recorder.Recorder` (or swap the
        null one back in with :data:`~repro.obs.recorder.NULL_RECORDER`)."""
        self._recorder = recorder if recorder is not None else NULL_RECORDER

    # -- public API --------------------------------------------------------

    @property
    def database(self):
        return self._snapshot.database

    @property
    def options(self) -> ServiceOptions:
        return self._options

    def annotate(self, query, **request) -> list[AnnotatedAnswer]:
        """Annotate and return just the answers (see :meth:`submit`)."""
        return list(self.submit(query, **request).answers)

    def submit(self, query, *,
               candidates: Optional[Sequence] = None,
               epsilon: Optional[float] = None,
               delta: Optional[float] = None,
               method: Optional[str] = None,
               limit: Optional[int] = None,
               seed: SeedLike = None,
               jobs: Optional[int] = None,
               executor: Optional[str] = None,
               adaptive: Optional[bool] = None,
               group_witnesses: bool = True,
               reuse_results: Optional[bool] = None,
               trace: Union[bool, Trace, None] = None,
               on_update: Optional[GroupUpdateCallback] = None) -> ServiceResponse:
        """Run one annotation request through the full service lifecycle.

        ``query`` is SQL text or a parsed ``SelectQuery``; ``candidates``
        may carry a pre-enumerated candidate list (the benchmarks use this
        to time the Monte-Carlo phase separately from the join).  Request
        parameters default to the service's :class:`ServiceOptions`.

        ``trace=True`` (or a caller-supplied :class:`~repro.obs.trace.Trace`)
        records the request's span tree and returns it on
        :attr:`ServiceResponse.trace`.  Tracing never touches random
        streams, so traced answers are bit-identical to untraced ones.
        """
        started = time.perf_counter()
        options = self._options
        epsilon = options.epsilon if epsilon is None else epsilon
        delta = options.delta if delta is None else delta
        method = options.method if method is None else method
        jobs = options.jobs if jobs is None else jobs
        executor = options.executor if executor is None else executor
        adaptive = options.adaptive if adaptive is None else adaptive
        reuse = options.reuse_results if reuse_results is None else reuse_results
        _validate(method, executor)
        root = self._default_root if seed is None else root_sequence(seed)
        seed_token = _seed_token(root)

        # Three tracing tiers: a caller-requested trace is returned on the
        # response; a live recorder gets an internal trace (phase histograms
        # and the slow log are fed from its spans); otherwise the shared
        # no-op trace keeps the hot path exactly as fast as before.
        return_trace = bool(trace)
        if isinstance(trace, Trace):
            tr = trace
        elif trace:
            tr = Trace()
        elif self._recorder.enabled:
            tr = self._recorder.start_trace()
        else:
            tr = NULL_TRACE

        with tr.span("parse"):
            select = self._parse(query)
        # Pin the snapshot once: a concurrent mutate() swaps in the next
        # version, but this request keeps the version it started on end to
        # end, its dimension included (MVCC snapshot isolation).
        snapshot = self._snapshot
        dimension = snapshot.dimension
        if candidates is None:
            with tr.span("enumerate") as enumerate_span:
                entry = self._plan(query, select, limit, group_witnesses,
                                   snapshot.database, span=enumerate_span)
                enumerate_span.set("candidates", len(entry.candidates))
        else:
            # Caller-supplied candidates are not cached; the entry is built
            # exactly as a plan-cache fill would build it.
            entry = _plan_entry(candidates)
        candidates = entry.candidates

        with tr.span("schedule") as schedule_span:
            if reuse:
                schedule = entry.schedule
            else:
                # Independent estimates per tuple: one single-member group per
                # candidate, each with a distinct replica token in its stream.
                schedule = [TaskGroup(canonical=group.canonical,
                                      members=(index,))
                            for group in entry.schedule
                            for index in group.members]
            schedule_span.set("groups", len(schedule))

        keys: list[Optional[tuple]] = [None] * len(schedule)
        if reuse:
            keys = [(group.canonical.digest, epsilon, delta, method, adaptive,
                     seed_token) for group in schedule]
            # Record which marked nulls each group's lineages touch, so a
            # later mutation can evict exactly the affected cache entries.
            self._record_provenance(keys, entry.provenance)

        # The Monte-Carlo phase is one pipeline under every configuration.
        # 1. Probe: one counted certainty-cache get per group; hits are
        #    resolved here and never become work.
        outcomes: list = [None] * len(schedule)
        misses: list[int] = []
        for position, key in enumerate(keys):
            cached = None if key is None else self._result_cache.get(key)
            if cached is None:
                misses.append(position)
            else:
                outcomes[position] = (
                    self._patch_dimension(cached, dimension), True)

        # 2. Work: each miss is one content payload (the group's canonical
        #    translation, the request parameters, the root seed), so it is
        #    decided unchanged in this process or in a worker process.
        coarse, factor = options.adaptive_coarse, options.adaptive_factor
        payloads = [
            (_EstimateTask(
                translation=schedule[position].canonical.translation(),
                digest=schedule[position].canonical.digest,
                replica=() if reuse else (schedule[position].members[0],)),
             epsilon, delta, method, adaptive, root, coarse, factor)
            for position in misses]

        def run_here(position: int, payload: tuple) -> tuple:
            group = schedule[position]
            # Spans from executor worker threads attach via the explicit
            # parent handle, so the tree survives thread fan-out.
            with tr.span("estimate", lineage=group.canonical.digest.hex()[:12],
                         tuples=group.size) as span:
                callback = _rung_callback(tr, span, on_update, group)
                result, reused = self._decide_solo(
                    group, keys[position], payload, dimension, callback)
                span.set("reused", reused)
                return result, reused

        # 3. Execute: one executor call.  Streaming callbacks must run in
        #    this process, so the process executor only takes callback-free
        #    requests; answers are bit-identical either way (streams are
        #    content-keyed).
        if executor == "process" and jobs > 1 and on_update is None:
            # Worker processes cannot carry the trace; one umbrella span
            # stands in for the per-task breakdown.
            with tr.span("estimate", mode="process", groups=len(misses)):
                shipped = process_map(_estimate_task, payloads, jobs=jobs)
            decided = [(self._land(schedule[position], keys[position], result,
                                   dimension), False)
                       for position, result in zip(misses, shipped)]
        else:
            decided = run_tasks([partial(run_here, position, payload)
                                 for position, payload
                                 in zip(misses, payloads)], jobs=jobs)
        for position, outcome in zip(misses, decided):
            outcomes[position] = outcome

        with tr.span("serialize") as serialize_span:
            by_candidate: dict[int, CertaintyResult] = {}
            digest_by_candidate: dict[int, bytes] = {}
            from_cache = 0
            for group, (result, cached) in zip(schedule, outcomes):
                if cached:
                    from_cache += 1
                for member in group.members:
                    by_candidate[member] = result
                    digest_by_candidate[member] = group.canonical.digest

            answers = tuple(
                AnnotatedAnswer(values=candidate.values,
                                columns=candidate.columns,
                                certainty=by_candidate[index],
                                witnesses=candidate.witnesses,
                                lineage_digest=digest_by_candidate[index])
                for index, candidate in enumerate(candidates))
            serialize_span.set("answers", len(answers))

        computed = len(schedule) - from_cache
        batched = len(candidates) - len(schedule)
        with self._counters_lock:
            self._requests += 1
            self._answers_served += len(answers)
            self._estimates_computed += computed
            self._estimates_reused += from_cache
            self._tuples_batched += batched
        stats = RequestStats(
            candidates=len(candidates),
            groups=len(schedule),
            groups_from_cache=from_cache,
            groups_computed=computed,
            tuples_batched=batched,
            elapsed_seconds=time.perf_counter() - started,
            seed_entropy=seed_token[0] if isinstance(seed_token[0], int) else 0,
        )
        if self._recorder.enabled:
            sql_text = query if isinstance(query, str) else "<parsed query>"
            self._recorder.observe_request(
                sql_text, stats.elapsed_seconds, trace=tr,
                candidates=len(candidates), groups=len(schedule))
        return ServiceResponse(answers=answers, stats=stats,
                               trace=tr if return_trace else None)

    def stats(self) -> ServiceStats:
        """Lifetime counters plus snapshots of every cache layer."""
        plan_stats = self._plan_cache.stats()
        with self._counters_lock:
            requests = self._requests
            answers_served = self._answers_served
            estimates_computed = self._estimates_computed
            estimates_reused = self._estimates_reused
            tuples_batched = self._tuples_batched
            mutations_applied = self._mutations_applied
            results_evicted = self._results_evicted
        database = self._snapshot.database
        # One row: every request runs on the service's one layout.
        backend = BackendStats(backend=getattr(database, "backend", "rows"),
                               requests=requests,
                               plan_hits=plan_stats.hits,
                               plan_misses=plan_stats.misses)
        slow_queries: tuple = ()
        if self._recorder.enabled and self._recorder.slow_log is not None:
            slow_queries = tuple(
                entry.as_dict()
                for entry in self._recorder.slow_log.snapshot())
        return ServiceStats(
            requests=requests,
            answers_served=answers_served,
            estimates_computed=estimates_computed,
            estimates_reused=estimates_reused,
            tuples_batched=tuples_batched,
            caches=(
                self._parse_cache.stats(),
                plan_stats,
                self._result_cache.stats(),
                self._frontier_cache.stats(),
                compile_cache_stats(),
            ),
            backends=(backend,),
            single_flight=self._estimate_flights.stats(),
            slow_queries=slow_queries,
            data_version=getattr(database, "data_version", 0),
            mutations_applied=mutations_applied,
            results_evicted=results_evicted,
            results_retained=len(self._result_cache),
        )

    def mutate(self, statement):
        """Apply one INSERT/DELETE/UPDATE statement; returns its outcome.

        ``statement`` is SQL text or a parsed mutation AST.  Writers are
        serialised by the service's mutation lock; the new snapshot is
        swapped in atomically, so readers either see the old version or
        the new one, never a torn intermediate.  Invalidation is
        delta-driven: certainty results are evicted only when their
        recorded lineage nulls intersect the mutation's deleted/updated
        rows; plan-cache entries of untouched tables stay reachable
        (their version keys did not move); cached join frontiers are
        carried past deleted rows here, and appended rows are delta-joined
        into them on the next enumeration.

        Raises :class:`~repro.relational.mutation.MutationValidationError`
        or :class:`~repro.relational.mutation.MutationConflictError`
        without changing any state; :class:`SqlSyntaxError` propagates
        from parsing.
        """
        from repro.engine.mutate import execute_mutation
        from repro.engine.sql.ast import SelectQuery
        from repro.engine.sql.parser import parse_statement
        from repro.relational.mutation import MutationValidationError

        parsed = parse_statement(statement) if isinstance(statement, str) \
            else statement
        if isinstance(parsed, SelectQuery):
            raise MutationValidationError(
                "SELECT is not a mutation; use submit()/annotate()")
        with self._mutation_lock:
            parent = self._snapshot.database
            new_database, deltas, outcome = execute_mutation(parsed, parent)
            touched: frozenset[str] = frozenset()
            for delta in deltas.values():
                touched |= delta.touched_nulls()
            evicted = self._evict_touched(touched)
            # Before the swap: the first reader of the new version then
            # finds the frontiers already carried past the deletes.
            self._frontier_cache.advance(parent, new_database, deltas)
            # The swap is a single reference assignment: requests pin the
            # snapshot once at submit time, so they stay on their version
            # and its dimension; new requests pick this one up.
            self._snapshot = _Snapshot(new_database,
                                       len(new_database.num_nulls_ordered()))
            with self._counters_lock:
                self._mutations_applied += 1
                self._results_evicted += evicted
        return outcome

    def _evict_touched(self, touched: frozenset[str]) -> int:
        """Delta-driven certainty eviction: drop entries whose recorded
        lineage nulls intersect the mutation's; keep everything else warm.
        Dead provenance entries (evicted from the cache by capacity) are
        pruned on the way."""
        if not touched:
            return 0
        evicted = 0
        with self._provenance_lock:
            for key, names in list(self._result_provenance.items()):
                if key not in self._result_cache:
                    del self._result_provenance[key]
                    continue
                if names & touched:
                    self._result_cache.pop(key)
                    del self._result_provenance[key]
                    evicted += 1
        return evicted

    def _record_provenance(self, keys, provenance) -> None:
        """Remember which marked nulls each group's result depends on.

        Only numerical nulls can occur in lineage formulas (base-null
        comparisons fold immediately), so the recorded names are exactly
        the rows whose deletion could -- as a matter of provenance policy
        -- affect the entry.  Names accumulate across requests: the same
        canonical lineage served for different concrete rows answers for
        all of them.  ``provenance`` is the plan entry's per-group names;
        a request writes only the groups whose names are not yet recorded,
        so a warm request takes no lock.
        """
        recorded = self._result_provenance
        # An unlocked read is safe: a stale one only sends a group through
        # the locked merge below, which re-reads.
        updates = [(key, names) for key, names in zip(keys, provenance)
                   if names and not names <= recorded.get(key, frozenset())]
        if not updates:
            return
        with self._provenance_lock:
            for key, names in updates:
                existing = recorded.get(key)
                recorded[key] = names if existing is None else existing | names
            if len(recorded) > 2 * self._result_cache.capacity:
                # Bound the side table: drop records whose cache entry is
                # long gone (capacity-evicted between mutations).
                for key in list(recorded):
                    if key not in self._result_cache:
                        del recorded[key]

    @staticmethod
    def _patch_dimension(result: CertaintyResult,
                         dimension: int) -> CertaintyResult:
        """Re-stamp a cached result with the request's ambient dimension.

        The estimate itself is content-addressed (canonical lineage) and
        cannot go stale, but the ambient null count is snapshot metadata:
        a cache hit must report the dimension of the snapshot the request
        pinned, exactly as a cold compute against that snapshot would.
        """
        if result.dimension == dimension:
            return result
        return replace(result, dimension=dimension)

    def invalidate(self) -> None:
        """Drop every cached artefact (for out-of-band database edits)."""
        self._parse_cache.clear()
        self._plan_cache.clear()
        self._result_cache.clear()
        self._frontier_cache.clear()
        with self._provenance_lock:
            self._result_provenance.clear()

    # -- lifecycle stages --------------------------------------------------

    def _parse(self, query):
        if not isinstance(query, str):
            return query
        from repro.engine.sql.parser import parse_sql
        key = normalise_sql(query)
        return self._parse_cache.get_or_compute(key, lambda: parse_sql(query))

    def _plan(self, query, select, limit: Optional[int],
              group_witnesses: bool, database, span=None) -> _PlanEntry:
        from repro.engine.candidates import enumerate_candidates

        def enumerate_() -> _PlanEntry:
            frontier_stats: dict = {}
            planned = tuple(enumerate_candidates(
                select, database, limit=limit,
                group_witnesses=group_witnesses,
                frontier_stats=frontier_stats,
                frontier_cache=self._frontier_cache))
            if span is not None:
                # Only a cache miss reaches this closure, so the span
                # attribute doubles as the hit/miss marker.
                span.set("plan_cache", "miss")
                if "frontier" in frontier_stats:
                    span.set("frontier", frontier_stats["frontier"])
            return _plan_entry(planned)

        if not isinstance(query, str):
            # No stable text key; planning an AST is not cached.
            return enumerate_()
        # The snapshot layout is fixed for the service's lifetime, so only
        # the data can move under a key.  Per-referenced-table data
        # versions make mutation invalidation delta-driven: a commit
        # touching table T moves only T's version, so plans over untouched
        # tables keep their keys (stay warm) while plans over T become
        # unreachable and age out of the LRU.
        table_version = getattr(database, "table_version", None)
        if table_version is not None:
            versions = tuple(sorted(
                {(reference.table, table_version(reference.table))
                 for reference in select.tables}))
        else:
            versions = ()
        key = (normalise_sql(query), limit, group_witnesses, versions)
        return self._plan_cache.get_or_compute(key, enumerate_)

    def _decide_solo(self, group: TaskGroup, key: Optional[tuple],
                     payload: tuple, dimension: int, on_update=None
                     ) -> tuple[CertaintyResult, bool]:
        """One cold group estimated in this process; ``(result, reused)``.

        With result reuse on (``key`` set), the estimate runs under
        single-flight on the canonical lineage digest: a concurrent request
        racing on the same cold lineage joins this estimate rather than
        recomputing it, and joined results are accounted as reuse --
        exactly one computation and one cache fill happen.
        """
        if key is None:
            return self._land(group, None, self._estimate(payload, on_update),
                              dimension), False

        def compute() -> tuple[CertaintyResult, bool]:
            # Re-probe under flight leadership: a racing request may have
            # filled the cache between our counted miss and winning this
            # flight (its fill happens before its flight is vacated, so
            # missing both is impossible).  This makes "exactly one
            # computation per lineage" an invariant, not a fast path.
            landed = self._result_cache.peek(key)
            if landed is not None:
                return landed, False
            return self._land(group, key, self._estimate(payload, on_update),
                              dimension), True

        (result, computed), leader = self._estimate_flights.run(key, compute)
        # A joined flight may have been led by a request pinned on another
        # snapshot; the result carries this request's dimension either way.
        return (self._patch_dimension(result, dimension),
                not (leader and computed))

    def _estimate(self, payload: tuple, on_update=None) -> CertaintyResult:
        """The in-process call of :func:`_estimate_task` (a patchable seam)."""
        return _estimate_task(payload, on_update)

    def _land(self, group: TaskGroup, key: Optional[tuple],
              result: CertaintyResult, dimension: int) -> CertaintyResult:
        """Stamp a fresh estimate with snapshot metadata and cache it.

        The canonical translation deliberately forgets the database's
        ambient dimension; the request's pinned ``dimension`` is patched
        back here for faithful result metadata, before the result fills
        the cache under ``key`` (when results are reused).
        """
        result = replace(result, dimension=dimension,
                         relevant_dimension=group.canonical.dimension)
        if key is not None:
            self._result_cache.put(key, result)
        return result


@dataclass(frozen=True)
class _EstimateTask:
    """One schedule group in content form (picklable for process pools)."""

    translation: TranslationResult
    digest: bytes
    replica: tuple[int, ...] = ()


def _estimate_task(payload: tuple, on_update=None) -> CertaintyResult:
    """One group's estimate from content alone (module-level, so it pickles).

    ``payload`` is ``(task, epsilon, delta, method, adaptive, root, coarse,
    factor)`` with ``task`` an :class:`_EstimateTask`; the stream is
    derived from the root seed and the lineage digest (plus the replica
    token), so the result is the same in any process.  ``on_update``
    receives each adaptive rung's update.  Dimension metadata is the
    canonical translation's; the service patches it back.
    """
    task, epsilon, delta, method, adaptive, root, coarse, factor = payload
    if adaptive:
        return adaptive_certainty(
            task.translation, epsilon=epsilon, delta=delta, method=method,
            stream_factory=lambda stage: spawn_stream(
                root, task.digest, *task.replica, stage),
            on_update=on_update,
            coarse=coarse, factor=factor)
    return certainty_from_translation(
        task.translation, epsilon=epsilon, delta=delta, method=method,
        rng=spawn_stream(root, task.digest, *task.replica))


def _rung_callback(trace, span, on_update: Optional[GroupUpdateCallback],
                   group: TaskGroup):
    """A group's rung callback, or ``None`` if nobody listens.

    Each adaptive rung becomes one after-the-fact span under the group's
    estimate span, and streamed updates reach ``on_update`` with the
    group.  Recording never touches random streams, so traced answers
    stay bit-identical.
    """
    if on_update is None and trace is NULL_TRACE:
        return None
    rung_clock = [time.perf_counter()]

    def callback(update: AdaptiveUpdate) -> None:
        now = time.perf_counter()
        trace.record("rung", rung_clock[0], now, parent=span,
                     stage=update.stage, epsilon=update.epsilon,
                     samples=update.samples, final=update.final)
        rung_clock[0] = now
        if on_update is not None:
            on_update(group, update)

    return callback
