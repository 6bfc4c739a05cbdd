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
   repeated requests skip the Monte-Carlo phase entirely; the misses
   become work units (solo groups, or fused batches of ``fusion`` groups)
   run by one executor call over ``jobs`` threads or processes.  Every
   unit draws from streams spawned off the request's ``SeedSequence``
   under a key derived from the lineage digest (:mod:`repro.service.rng`),
   which makes parallel runs bit-identical to serial ones;
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
from repro.geometry.montecarlo import DEFAULT_DELTA
from repro.service.adaptive import (
    DEFAULT_COARSE_EPSILON,
    DEFAULT_REFINEMENT_FACTOR,
    AdaptiveUpdate,
    adaptive_certainty,
)
from repro.service.answers import AnnotatedAnswer
from repro.service.executor import EXECUTORS, process_map, run_tasks
from repro.service.fused import (
    FusedTask,
    fusable_method,
    fused_payload,
    run_fused_payload,
)
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACE, Trace
from repro.service.rng import SeedLike, root_sequence, spawn_stream
from repro.service.scheduler import TaskGroup, build_schedule, partition_batches

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
    #: scheduling-keyed.  Sharded candidate enumeration always uses
    #: processes when ``jobs > 1``, independent of this knob.
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
    #: Key-aligned shard count for columnar candidate enumeration; ``None``
    #: follows the database's own ``shards`` declaration.  With ``jobs > 1``
    #: shard frontiers run across worker processes.
    shards: Optional[int] = None
    #: Reuse certainty results across tuples and requests with the same
    #: canonical lineage (the PR 1 ad-hoc annotate-loop reuse, generalised).
    reuse_results: bool = True
    #: Fusion batch size for the Monte-Carlo phase: cache-missing groups
    #: that sample AFPRAS are decided ``fusion`` lineages at a time through
    #: one block-diagonal fused kernel (:mod:`repro.compile.fusion`); other
    #: groups run as solo units.  ``0``/``1`` makes every group a solo
    #: unit.  Results are bit-identical at any batch size.
    fusion: int = 0
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
    #: Fused kernel launches this request (0 when fusion was off).
    kernels_launched: int = 0
    #: Tuples whose estimates rode a fused launch.
    tuples_fused: int = 0
    #: Fused batches executed (one per mode-partitioned group batch).
    fusion_batches: int = 0


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
class ShardStats:
    """Lifetime counters of one shard index of the sharded enumeration path."""

    shard: int
    #: Frontier computations this shard executed.
    tasks: int
    #: Input rows the shard's tables contributed across those tasks.
    rows: int
    #: Witnesses the shard produced (pre-merge frontier size).
    witnesses: int
    #: Sharded plans whose partitions (every queried table's) were served
    #: from the partition cache vs. plans that had to partition at least
    #: one table.
    partition_hits: int
    partition_misses: int


@dataclass(frozen=True)
class FusionStats:
    """Lifetime fused-execution counters (the do-more-per-launch ledger)."""

    #: Fused kernel launches (one per Monte-Carlo block per fused batch).
    kernels_launched: int
    #: Tuples whose estimates were decided through a fused launch.
    tuples_fused: int
    #: Fused batches executed.
    batches: int
    #: Recent fused batch sizes (most recent last, bounded window).
    batch_sizes: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {"kernels_launched": self.kernels_launched,
                "tuples_fused": self.tuples_fused,
                "batches": self.batches,
                "batch_sizes": list(self.batch_sizes)}


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
    shards: tuple[ShardStats, ...] = field(default_factory=tuple)
    #: Cross-request estimate coalescing (concurrent identical lineages
    #: joining one computation); ``None`` on snapshots predating the server.
    single_flight: Optional[SingleFlightStats] = None
    #: Fused-execution counters; ``None`` on snapshots predating fusion.
    fusion: Optional[FusionStats] = None
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
        if self.fusion is not None:
            lines.append(
                f"fused kernels       {self.fusion.kernels_launched} launched, "
                f"{self.fusion.tuples_fused} tuples in "
                f"{self.fusion.batches} batches")
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
        if self.shards:
            lines.append(
                "shard      tasks      rows  witnesses  part-hits  part-misses")
            for shard in self.shards:
                lines.append(
                    f"shard[{shard.shard}] {shard.tasks:>8} {shard.rows:>9} "
                    f"{shard.witnesses:>10} {shard.partition_hits:>10} "
                    f"{shard.partition_misses:>12}")
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
            "shards": [
                {"shard": shard.shard, "tasks": shard.tasks,
                 "rows": shard.rows, "witnesses": shard.witnesses,
                 "partition_hits": shard.partition_hits,
                 "partition_misses": shard.partition_misses}
                for shard in self.shards],
            "single_flight": (None if self.single_flight is None
                              else self.single_flight.as_dict()),
            "fusion": None if self.fusion is None else self.fusion.as_dict(),
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


def _validate(method: str, executor: str, fusion: int) -> None:
    """Reject unknown options, as service defaults or per-request overrides."""
    if method not in SERVICE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {SERVICE_METHODS}")
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if fusion < 0:
        raise ValueError(
            f"fusion batch size must be non-negative, got {fusion}")


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
        _validate(options.method, options.executor, options.fusion)
        if options.backend is not None:
            # One conversion at construction; the snapshot then serves every
            # request under the requested layout.
            database = database.with_backend(options.backend,
                                             shards=options.shards)
        elif options.shards is not None and hasattr(database, "with_shards"):
            database = database.with_shards(options.shards)
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
        # Incremental join-frontier maintenance for the unsharded columnar
        # path: a commit carries cached frontiers past its deletes, and
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
        self._kernels_launched = 0
        self._tuples_fused = 0
        self._fusion_batches = 0
        #: Recent fused batch sizes (bounded window for the stats report).
        self._fusion_batch_sizes: list[int] = []
        #: shard index -> [tasks, rows, witnesses, partition hits, misses].
        self._shard_counters: dict[int, list[int]] = {}
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
               fusion: Optional[int] = None,
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
        fusion = options.fusion if fusion is None else fusion
        _validate(method, executor, fusion)
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
                                   jobs, snapshot.database,
                                   span=enumerate_span)
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

        # 2. Work units: with fusion, misses that sample AFPRAS pack into
        #    batches of ``fusion`` groups (schedule order); every other miss
        #    is a solo unit.
        def task(position: int) -> FusedTask:
            group = schedule[position]
            return FusedTask(translation=group.canonical.translation(),
                             digest=group.canonical.digest,
                             replica=() if reuse else (group.members[0],))

        coarse, factor = options.adaptive_coarse, options.adaptive_factor
        fuse = fusion > 1 and len(schedule) > 1
        units: list[_WorkUnit] = []
        fusable: list[int] = []
        for position in misses:
            if fuse and fusable_method(
                    method, schedule[position].canonical.translation()):
                fusable.append(position)
            else:
                units.append(_WorkUnit((position,), False, (
                    task(position), epsilon, delta, method, adaptive, root,
                    coarse, factor)))
        units.extend(
            _WorkUnit(tuple(batch), True, fused_payload(
                [task(position) for position in batch], epsilon, delta,
                adaptive, root, coarse, factor))
            for batch in partition_batches(fusable, fusion))

        def land(unit: _WorkUnit, results: Sequence) -> list:
            return [self._land(schedule[position], keys[position], result,
                               dimension)
                    for position, result in zip(unit.positions, results)]

        def run_here(unit: _WorkUnit) -> tuple:
            group = schedule[unit.positions[0]]
            attributes = ({"fused": len(unit.positions)} if unit.fused else
                          {"lineage": group.canonical.digest.hex()[:12],
                           "tuples": group.size})
            # Spans from executor worker threads attach via the explicit
            # parent handle, so the tree survives thread fan-out.
            with tr.span("estimate", **attributes) as span:
                callback = _rung_callback(
                    tr, span, on_update,
                    [schedule[position] for position in unit.positions])
                if unit.fused:
                    results, launches, sizes = unit.run(callback)
                    return land(unit, results), False, launches, sizes
                result, reused = self._decide_solo(
                    group, keys[unit.positions[0]], unit.payload, dimension,
                    callback)
                span.set("reused", reused)
                return [result], reused, 0, []

        # 3. Execute: one executor call.  Streaming callbacks must run in
        #    this process, so the process executor only takes callback-free
        #    requests; answers are bit-identical either way (streams are
        #    content-keyed).
        if executor == "process" and jobs > 1 and on_update is None:
            # Worker processes cannot carry the trace; one umbrella span
            # stands in for the per-unit breakdown.
            with tr.span("estimate", mode="process", groups=len(misses)):
                shipped = process_map(_WorkUnit.run, units, jobs=jobs)
            decided = [(land(unit, results), False, launches, sizes)
                       for unit, (results, launches, sizes)
                       in zip(units, shipped)]
        else:
            decided = run_tasks([partial(run_here, unit) for unit in units],
                                jobs=jobs)

        # 4. Collect: every result has landed (dimension patched, cache
        #    filled); fused units also report their kernel accounting.
        kernels_launched = tuples_fused = 0
        batch_sizes: list[int] = []
        for unit, (results, reused, launches, sizes) in zip(units, decided):
            for position, result in zip(unit.positions, results):
                outcomes[position] = (result, reused)
            if unit.fused:
                kernels_launched += launches
                batch_sizes.extend(sizes)
                tuples_fused += sum(schedule[position].size
                                    for position in unit.positions)

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
            self._kernels_launched += kernels_launched
            self._tuples_fused += tuples_fused
            self._fusion_batches += len(batch_sizes)
            self._fusion_batch_sizes.extend(batch_sizes)
            del self._fusion_batch_sizes[:-32]
        stats = RequestStats(
            candidates=len(candidates),
            groups=len(schedule),
            groups_from_cache=from_cache,
            groups_computed=computed,
            tuples_batched=batched,
            elapsed_seconds=time.perf_counter() - started,
            seed_entropy=seed_token[0] if isinstance(seed_token[0], int) else 0,
            kernels_launched=kernels_launched,
            tuples_fused=tuples_fused,
            fusion_batches=len(batch_sizes),
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
            kernels_launched = self._kernels_launched
            tuples_fused = self._tuples_fused
            fusion_batches = self._fusion_batches
            fusion_batch_sizes = tuple(self._fusion_batch_sizes)
            shard_counters = {shard: list(counters) for shard, counters
                              in self._shard_counters.items()}
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
            shards=tuple(
                ShardStats(shard=shard, tasks=counters[0], rows=counters[1],
                           witnesses=counters[2], partition_hits=counters[3],
                           partition_misses=counters[4])
                for shard, counters in sorted(shard_counters.items())),
            single_flight=self._estimate_flights.stats(),
            fusion=FusionStats(kernels_launched=kernels_launched,
                               tuples_fused=tuples_fused,
                               batches=fusion_batches,
                               batch_sizes=fusion_batch_sizes),
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
        clear_shards = getattr(self._snapshot.database, "clear_shard_cache",
                               None)
        if clear_shards is not None:
            clear_shards()

    # -- lifecycle stages --------------------------------------------------

    def _parse(self, query):
        if not isinstance(query, str):
            return query
        from repro.engine.sql.parser import parse_sql
        key = normalise_sql(query)
        return self._parse_cache.get_or_compute(key, lambda: parse_sql(query))

    def _plan(self, query, select, limit: Optional[int],
              group_witnesses: bool, jobs: int, database,
              span=None) -> _PlanEntry:
        from repro.engine.candidates import enumerate_candidates

        def enumerate_() -> _PlanEntry:
            sink: dict = {}
            planned = tuple(enumerate_candidates(
                select, database, limit=limit,
                group_witnesses=group_witnesses, jobs=jobs,
                shard_stats=sink, frontier_cache=self._frontier_cache))
            self._record_shard_stats(sink)
            if span is not None:
                # Only a cache miss reaches this closure, so the span
                # attribute doubles as the hit/miss marker.
                span.set("plan_cache", "miss")
                if "frontier" in sink:
                    span.set("frontier", sink["frontier"])
                if sink.get("sharded"):
                    span.set("per_shard", [
                        {"shard": entry["shard"], "tasks": entry["tasks"],
                         "witnesses": entry["witnesses"]}
                        for entry in sink.get("per_shard", ())])
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

    def _record_shard_stats(self, sink: dict) -> None:
        if not sink.get("sharded"):
            return
        # Partitioning is a per-request, all-shards-at-once event: count
        # one hit per shard when every table's partition came from the
        # cache, else one miss (not the sink's per-table totals, which
        # would overcount by the table count on every shard row).
        fully_cached = sink.get("partition_misses", 0) == 0
        with self._counters_lock:
            for entry in sink.get("per_shard", ()):
                counters = self._shard_counters.setdefault(
                    entry["shard"], [0, 0, 0, 0, 0])
                counters[0] += entry["tasks"]
                counters[1] += entry["rows"]
                counters[2] += entry["witnesses"]
                counters[3] += 1 if fully_cached else 0
                counters[4] += 0 if fully_cached else 1

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
class _WorkUnit:
    """Cache-missing schedule positions decided by one content payload.

    A solo unit carries :func:`_estimate_task`'s payload for one group; a
    fused unit carries :func:`~repro.service.fused.run_fused_payload`'s for
    a batch.  Payloads are pure content (translations, request parameters,
    the root seed), so a unit runs unchanged in this process or in a
    worker process.
    """

    positions: tuple[int, ...]
    fused: bool
    payload: tuple

    def run(self, on_update=None) -> tuple[list, int, list]:
        """``(results, fused kernel launches, fused batch sizes)``."""
        if self.fused:
            return run_fused_payload(self.payload, on_update)
        return [_estimate_task(self.payload, on_update)], 0, []


def _estimate_task(payload: tuple, on_update=None) -> CertaintyResult:
    """One group's estimate from content alone (module-level, so it pickles).

    ``payload`` is ``(task, epsilon, delta, method, adaptive, root, coarse,
    factor)`` with ``task`` a :class:`~repro.service.fused.FusedTask`; the
    stream is derived from the root seed and the lineage digest (plus the
    replica token), so the result is the same in any process.
    ``on_update`` receives ``(0, update)`` per adaptive rung.  Dimension
    metadata is the canonical translation's; the service patches it back.
    """
    task, epsilon, delta, method, adaptive, root, coarse, factor = payload
    if adaptive:
        return adaptive_certainty(
            task.translation, epsilon=epsilon, delta=delta, method=method,
            stream_factory=lambda stage: spawn_stream(
                root, task.digest, *task.replica, stage),
            on_update=None if on_update is None else partial(on_update, 0),
            coarse=coarse, factor=factor)
    return certainty_from_translation(
        task.translation, epsilon=epsilon, delta=delta, method=method,
        rng=spawn_stream(root, task.digest, *task.replica))


def _rung_callback(trace, span, on_update: Optional[GroupUpdateCallback],
                   groups: Sequence[TaskGroup]):
    """A work unit's ``(slot, update)`` rung callback, or ``None`` if unheard.

    Each adaptive rung becomes one after-the-fact span under the unit's
    estimate span, and streamed updates reach ``on_update`` with the
    slot's group.  Recording never touches random streams, so traced
    answers stay bit-identical.
    """
    if on_update is None and trace is NULL_TRACE:
        return None
    rung_clock = [time.perf_counter()]

    def callback(slot: int, update: AdaptiveUpdate) -> None:
        now = time.perf_counter()
        trace.record("rung", rung_clock[0], now, parent=span,
                     stage=update.stage, epsilon=update.epsilon,
                     samples=update.samples, final=update.final)
        rung_clock[0] = now
        if on_update is not None:
            on_update(groups[slot], update)

    return callback
