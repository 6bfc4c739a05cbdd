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
   and stored in the same plan-cache entry.  Per query, an answer memo
   keeps the answers last served: while the plan and every group's result
   are the same objects, a warm request reuses those answers and does no
   per-candidate work at all, and after a re-plan each answer whose
   values, witnesses, lineage and result are unchanged keeps its slot --
   and with it its wire encoding;
4. **execute** -- one pipeline under every configuration: each group is
   probed once in the certainty cache, keyed by
   ``(lineage digest, ε, δ, method, adaptive, seed)``, so structurally
   repeated requests skip the Monte-Carlo phase entirely; each miss is
   estimated as one task, inline or, with ``jobs > 1``, in the shared
   process pool.  Every task draws from streams spawned off the
   request's ``SeedSequence`` under a key derived from the lineage digest
   (:mod:`repro.service.rng`), which makes parallel runs bit-identical to
   serial ones;
5. **estimate** -- either single-shot at the requested ε, or adaptively
   (coarse first, streamed refinement; :mod:`repro.service.adaptive`);
   fresh results land in the certainty cache.

The compiled-kernel memo of :mod:`repro.compile` sits underneath all of
this; its hit/miss counters are surfaced in :meth:`AnnotationService.stats`
alongside the service's own caches.
"""

from __future__ import annotations

import operator
import re
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.caching import CacheStats, LruCache, SingleFlight, SingleFlightStats
from repro.certainty.measure import certainty_from_translation
from repro.certainty.result import CertaintyResult
from repro.compile import compile_cache_stats
from repro.constraints.translate import TranslationResult
from repro.geometry.montecarlo import DEFAULT_DELTA
from repro.service.adaptive import AdaptiveUpdate, adaptive_certainty
from repro.service.answers import AnnotatedAnswer
from repro.service.executor import default_jobs, process_map
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACE, Trace
from repro.service.canonical import canonicalise_lineage
from repro.service.rng import SeedLike, root_sequence, spawn_stream
from repro.service.scheduler import TaskGroup, build_schedule

#: Methods the service can dispatch on a pre-translated lineage.
SERVICE_METHODS = ("auto", "exact", "afpras", "fpras")

#: Callback receiving streamed adaptive refinements: ``(group, update)``.
GroupUpdateCallback = Callable[[TaskGroup, AdaptiveUpdate], None]

#: Entries held by the parse, plan and certainty caches.
PARSE_CACHE_SIZE = 256
PLAN_CACHE_SIZE = 128
RESULT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ServiceOptions:
    """Request defaults of an :class:`AnnotationService`."""

    epsilon: float = 0.05
    delta: float = DEFAULT_DELTA
    method: str = "afpras"
    #: Workers per request; 1 = inline, 0 = one per CPU.  More than one
    #: ships the Monte-Carlo phase to the shared process pool, except for
    #: requests that stream refinements, which run inline.  Results are
    #: bit-identical either way -- streams are content-keyed, not
    #: scheduling-keyed.
    jobs: int = 1
    #: Serve coarse estimates first and refine toward the requested epsilon.
    adaptive: bool = False
    #: Root seed used when a request does not carry its own.
    seed: SeedLike = None


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


class AnswerSlot:
    """One answer of a query, kept across the serves that return it.

    ``result`` is its group's certainty result as the certainty cache
    handed it back, before any dimension re-stamp, and ``digest`` the
    canonical lineage digest it was decided under.  ``encoded`` is a slot
    for the wire layer: the answer's encoding minus its snapshot
    dimension, stored by the first response that carries the slot and
    reused by every later one, across re-plans and dimension changes
    alike.  Slots are shared across requests and threads; ``encoded`` is
    only ever written with equal values, and nothing else is mutated.
    """

    __slots__ = ("result", "digest", "encoded")

    def __init__(self, result: CertaintyResult, digest: bytes) -> None:
        self.result = result
        self.digest = digest
        self.encoded = None


class AnswerMemo:
    """The answers one query serves over one plan entry, at one snapshot
    dimension.

    ``results`` are the groups' results as the certainty cache handed
    them back; ``slots[i]`` holds candidate ``i``'s result and keeps it
    across serves, and ``index`` finds a slot by :func:`_answer_key` for
    the next serve.  :attr:`answers` -- the candidates annotated with
    their results re-stamped with ``dimension`` -- are built on first
    read: the wire layer encodes from the slots and never reads them.
    ``encoded`` is a slot for the wire layer: the first response reusing
    this memo stores its encoded answers here, and later ones reuse them.
    Everything in a memo is shared across requests and threads, so
    nothing in it may be mutated; racing first reads of :attr:`answers`
    build equal tuples.
    """

    __slots__ = ("entry", "results", "dimension", "slots", "index",
                 "encoded", "_answers")

    def __init__(self, entry: "_PlanEntry",
                 results: tuple[CertaintyResult, ...], dimension: int,
                 slots: tuple[AnswerSlot, ...], index: dict) -> None:
        self.entry = entry
        self.results = results
        self.dimension = dimension
        self.slots = slots
        self.index = index
        self.encoded = None
        self._answers: Optional[tuple[AnnotatedAnswer, ...]] = None

    @property
    def candidates(self) -> tuple:
        return self.entry.candidates

    @property
    def answers(self) -> tuple[AnnotatedAnswer, ...]:
        answers = self._answers
        if answers is None:
            answers = self._answers = _build_answers(
                self.entry.candidates, self.slots, self.dimension)
        return answers


class _ServedAnswers:
    """:attr:`ServiceResponse.answers`: the answers a response was built
    with, or else those of its served memo, built on first read -- so a
    response the wire layer only encodes never builds them."""

    def __get__(self, response, owner=None):
        if response is None:
            return None  # the field's default: no answers of its own
        given = response.given_answers
        return response.served.answers if given is None else given

    def __set__(self, response, answers) -> None:
        response.__dict__["given_answers"] = answers


@dataclass(frozen=True, kw_only=True)
class ServiceResponse:
    """Annotated answers plus the request's amortisation accounting."""

    #: The annotated answers (see :class:`_ServedAnswers`); ``submit``
    #: gives none and serves its memo's.
    answers: tuple[AnnotatedAnswer, ...] = _ServedAnswers()
    stats: RequestStats
    #: The request's span tree, populated only when the caller asked for
    #: tracing (``submit(..., trace=True)`` or by passing a ``Trace``).
    trace: Optional[Trace] = None
    #: The served memo when the response reuses anything of it: the
    #: whole memo or some answers' slots.  The wire layer caches the
    #: encoded answers on it and on its slots, so only answers served
    #: twice keep their encoding.  ``None`` when nothing was reused.
    memo: Optional[AnswerMemo] = field(default=None, compare=False,
                                       repr=False)
    #: The answer memo the response serves: its answers and their slots.
    served: Optional[AnswerMemo] = field(default=None, compare=False,
                                         repr=False)


@dataclass(frozen=True)
class ServiceStats:
    """Lifetime counters and per-cache snapshots for the stats report."""

    requests: int
    answers_served: int
    estimates_computed: int
    estimates_reused: int
    tuples_batched: int
    caches: tuple[CacheStats, ...] = field(default_factory=tuple)
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
    unambiguous; it is a key, not re-parseable SQL.  A :class:`QueryText`
    hands back the key it was built with.
    """
    if type(sql) is QueryText:
        return sql.normalised
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


class QueryText(str):
    """SQL text that carries its :func:`normalise_sql` key, computed once.

    The network front door wraps each query's text in one, keys the
    request's flight on it and hands it on: the service's warm check and
    ``submit`` read the key back instead of normalising the text again.
    """

    normalised: str

    def __new__(cls, sql: str) -> "QueryText":
        text = super().__new__(cls, sql)
        text.normalised = normalise_sql(sql)
        return text


class NotCached(LookupError):
    """A ``warm`` request needed work its caches could not answer:
    a parse, a plan or an estimate.  Raised before that work starts."""


def _validate(method: str) -> None:
    """Reject unknown methods, as service defaults or per-request overrides."""
    if method not in SERVICE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {SERVICE_METHODS}")


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


@dataclass(eq=False)
class _PlanEntry:
    """A planned query: its candidates and what every request derives from
    them, built once per plan-cache fill by :func:`_plan_entry`.

    ``provenance[i]`` names the marked nulls the lineages of
    ``schedule[i]``'s members mention: the rows whose deletion could, as a
    matter of provenance policy, affect that group's certainty entry.
    ``derived`` maps each digest-carrying lineage's ``(digest,
    relevant_variables)`` to its canonical lineage and null names, for
    the next plan of the same query to reuse.
    """

    candidates: tuple
    schedule: tuple[TaskGroup, ...]
    provenance: tuple[frozenset[str], ...]
    derived: dict = field(default_factory=dict)


class WarmRequest(NamedTuple):
    """What :meth:`AnnotationService.is_warm` derived for a request it
    found fully cached, handed to ``submit(..., warm=...)`` so that the
    call does not derive it again: the normalised text, the plan key at
    the checked snapshot, the estimate parameters with their root seed,
    and every group's certainty-cache key."""

    text: str
    database: object
    plan_key: tuple
    entry: _PlanEntry
    parameters: tuple
    seed_token: tuple
    keys: list


def _patch_dimension(result: CertaintyResult,
                     dimension: int) -> CertaintyResult:
    """Re-stamp a cached result with the request's ambient dimension.

    The estimate itself is content-addressed (canonical lineage) and
    cannot go stale, but the ambient null count is snapshot metadata: an
    answer must report the dimension of the snapshot its request pinned,
    exactly as a cold compute against that snapshot would.
    """
    if result.dimension == dimension:
        return result
    return CertaintyResult.from_fields(dict(vars(result), dimension=dimension))


def _build_answers(candidates: tuple, slots: tuple[AnswerSlot, ...],
                   dimension: int) -> tuple[AnnotatedAnswer, ...]:
    """Each candidate annotated with its slot's result re-stamped with
    ``dimension``, in candidate order."""
    stamped: dict[int, CertaintyResult] = {}
    answers = []
    for candidate, slot in zip(candidates, slots):
        certainty = stamped.get(id(slot.result))
        if certainty is None:
            certainty = stamped[id(slot.result)] = _patch_dimension(
                slot.result, dimension)
        answers.append(AnnotatedAnswer(
            values=candidate.values, columns=candidate.columns,
            certainty=certainty, witnesses=candidate.witnesses,
            lineage_digest=slot.digest))
    return tuple(answers)


def _typed(value) -> tuple:
    """``value`` with its type.  ``1``, ``1.0`` and ``True`` are equal and
    hash alike, as do ``0.0`` and ``-0.0``, yet each is written
    differently on the wire."""
    if isinstance(value, float):
        return (type(value), value.hex())
    return (type(value), value)


def _answer_key(candidate, digest: bytes) -> tuple:
    """What an answer must keep across serves of one query to keep its
    slot: its typed values, its witness count and its lineage digest."""
    return (tuple(map(_typed, candidate.values)), candidate.witnesses, digest)


def _next_memo(previous: Optional[AnswerMemo], entry: _PlanEntry,
               results: tuple[CertaintyResult, ...], dimension: int
               ) -> tuple[AnswerMemo, int]:
    """The memo serving ``results`` over ``entry`` at ``dimension``, and
    how many of its answers keep a slot of ``previous``.

    Estimates are content-addressed, so while the plan and every group's
    result are the objects ``previous`` was built from, so are the slots:
    ``previous`` serves again, or at another dimension a memo sharing its
    slots does.  Otherwise each answer keeps the slot of the previous
    answer with its key and the same result, and the rest get new ones.
    """
    if (previous is not None and previous.entry is entry
            and all(map(operator.is_, results, previous.results))):
        if previous.dimension != dimension:
            previous = AnswerMemo(entry, results, dimension, previous.slots,
                                  previous.index)
        return previous, len(previous.slots)
    known = previous.index if previous is not None else {}
    candidates = entry.candidates
    slots: list = [None] * len(candidates)
    index: dict[tuple, AnswerSlot] = {}
    reused = 0
    for group, result in zip(entry.schedule, results):
        digest = group.canonical.digest
        for member in group.members:
            key = _answer_key(candidates[member], digest)
            slot = known.get(key)
            if slot is not None and slot.result is result:
                reused += 1
            else:
                slot = AnswerSlot(result, digest)
            slots[member] = index[key] = slot
    return AnswerMemo(entry, results, dimension, tuple(slots), index), reused


def _result_keys(schedule: Sequence[TaskGroup], epsilon: float, delta: float,
                 method: str, adaptive: bool, seed_token: tuple) -> list:
    """The certainty-cache key of each group of ``schedule``."""
    return [(group.canonical.digest, epsilon, delta, method, adaptive,
             seed_token) for group in schedule]


def _plan_entry(candidates: Sequence,
                known: Optional[dict] = None) -> _PlanEntry:
    """The plan entry of ``candidates``: the one caller of
    :func:`build_schedule`, for cached and uncached plans alike.

    A lineage's canonical form and null names are pure functions of its
    ``(digest, relevant_variables)``; ``known`` is an earlier entry's
    :attr:`_PlanEntry.derived`, and a lineage found there is not derived
    again -- after a write, most of a re-plan's lineages are the ones
    the frontier cache carried over.
    """
    candidates = tuple(candidates)
    derived: dict = {}
    canonicals = []
    names = []
    for candidate in candidates:
        lineage = candidate.lineage
        key = (lineage.digest, lineage.relevant_variables)
        pair = known.get(key) if known else None
        if pair is None:
            by_variable = lineage.null_by_variable
            pair = (canonicalise_lineage(lineage),
                    frozenset(by_variable[variable].name
                              for variable in lineage.relevant_variables))
        if lineage.digest is not None:
            derived[key] = pair
        canonicals.append(pair[0])
        names.append(pair[1])
    schedule = tuple(build_schedule(candidates, canonicals))
    provenance = tuple(
        names[group.members[0]] if group.size == 1
        else frozenset().union(*(names[member] for member in group.members))
        for group in schedule)
    return _PlanEntry(candidates, schedule, provenance, derived)


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
        _validate(options.method)
        self._snapshot = _Snapshot(database,
                                   len(database.num_nulls_ordered()))
        self._options = options
        # The fallback root for requests without their own seed is drawn
        # once per service: with ``options.seed=None`` this fixes fresh OS
        # entropy at construction, so repeated seedless requests still share
        # the certainty cache (a per-request fresh root would make every
        # cache key unique and silently disable cross-request reuse).
        self._default_root = root_sequence(options.seed)
        self._parse_cache = LruCache(PARSE_CACHE_SIZE, name="parsed sql")
        self._plan_cache = LruCache(PLAN_CACHE_SIZE, name="candidates")
        self._result_cache = LruCache(RESULT_CACHE_SIZE, name="certainty")
        # Per query text: the answers it last served (see AnswerMemo).
        # Keyed without table versions, so a memo outlives the re-plans
        # its answers survive.
        self._answer_memos = LruCache(PLAN_CACHE_SIZE, name="answers")
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
               adaptive: Optional[bool] = None,
               group_witnesses: bool = True,
               trace: Union[bool, Trace, None] = None,
               on_update: Optional[GroupUpdateCallback] = None,
               warm: Optional[WarmRequest] = None) -> ServiceResponse:
        """Run one annotation request through the full service lifecycle.

        ``query`` is SQL text or a parsed ``SelectQuery``; ``candidates``
        may carry a pre-enumerated candidate list (the benchmarks use this
        to time the Monte-Carlo phase separately from the join).  Request
        parameters default to the service's :class:`ServiceOptions`.

        ``trace=True`` (or a caller-supplied :class:`~repro.obs.trace.Trace`)
        records the request's span tree and returns it on
        :attr:`ServiceResponse.trace`.  Tracing never touches random
        streams, so traced answers are bit-identical to untraced ones.

        ``warm`` is what :meth:`is_warm` returned for this very request.
        The call then serves from the caches alone: a parse-cache,
        plan-cache or certainty-cache miss raises :class:`NotCached` before
        any parsing, enumeration or estimation starts.  It takes the text,
        parameters and keys the check derived instead of deriving them
        again.
        """
        started = time.perf_counter()
        cached_only = warm is not None
        if cached_only:
            text = warm.text
            epsilon, delta, method, adaptive, root = warm.parameters
            seed_token = warm.seed_token
        else:
            text = normalise_sql(query) if isinstance(query, str) else None
            epsilon, delta, method, adaptive, root = self._parameters(
                epsilon, delta, method, adaptive, seed)
            seed_token = _seed_token(root)
        jobs = self._options.jobs if jobs is None else jobs
        if jobs == 0:
            jobs = default_jobs()

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
            select = self._parse(query, text, cached_only)
        # Pin the snapshot once: a concurrent mutate() swaps in the next
        # version, but this request keeps the version it started on end to
        # end, its dimension included (MVCC snapshot isolation).
        snapshot = self._snapshot
        dimension = snapshot.dimension
        # Answers are memoised per query text; caller-supplied candidates
        # and parsed queries are not.
        memo_key = None
        if candidates is None:
            with tr.span("enumerate") as enumerate_span:
                plan_key = None
                if text is not None:
                    plan_key = (
                        warm.plan_key
                        if warm is not None and warm.database is snapshot.database
                        else self._plan_key(text, select, limit,
                                            group_witnesses, snapshot.database))
                    memo_key = (text, limit, group_witnesses)
                entry = self._plan(select, plan_key, limit, group_witnesses,
                                   snapshot.database, enumerate_span,
                                   cached_only)
                enumerate_span.set("candidates", len(entry.candidates))
        else:
            # Caller-supplied candidates are not cached; the entry is built
            # exactly as a plan-cache fill would build it.
            entry = _plan_entry(candidates)
        candidates = entry.candidates

        with tr.span("schedule") as schedule_span:
            schedule = entry.schedule
            schedule_span.set("groups", len(schedule))

        keys = (warm.keys if warm is not None and warm.entry is entry
                else _result_keys(schedule, epsilon, delta, method, adaptive,
                                  seed_token))
        # Record which marked nulls each group's lineages touch, so a later
        # mutation can evict exactly the affected cache entries.
        self._record_provenance(keys, entry.provenance)

        # The Monte-Carlo phase is one pipeline under every configuration.
        # 1. Probe: one counted certainty-cache get per group; hits are
        #    resolved here and never become work.
        outcomes: list = [None] * len(schedule)
        misses: list[int] = []
        for position, cached in enumerate(self._result_cache.get_many(keys)):
            if cached is None:
                misses.append(position)
            else:
                outcomes[position] = (cached, True)
        if misses and cached_only:
            raise NotCached(f"{len(misses)} of {len(keys)} groups "
                            "have no cached estimate")

        # 2. Work: each miss is one content payload (the group's canonical
        #    translation, the request parameters, the root seed), so it is
        #    decided unchanged in this process or in a worker process.
        payloads = [
            (_EstimateTask(
                translation=schedule[position].canonical.translation(),
                digest=schedule[position].canonical.digest),
             epsilon, delta, method, adaptive, root)
            for position in misses]

        def run_here(position: int, payload: tuple) -> tuple:
            group = schedule[position]
            with tr.span("estimate", lineage=group.canonical.digest.hex()[:12],
                         tuples=group.size) as span:
                callback = _rung_callback(tr, span, on_update, group)
                result, reused = self._decide_solo(
                    group, keys[position], payload, dimension, callback)
                span.set("reused", reused)
                return result, reused

        # 3. Execute: with more than one worker and more than one miss the
        #    misses ship to the process pool; everything else runs inline.
        #    Streaming callbacks must run in this process, so a request
        #    with one stays inline too.  Answers are bit-identical either
        #    way (streams are content-keyed).
        if jobs > 1 and len(misses) > 1 and on_update is None:
            # Worker processes cannot carry the trace; one umbrella span
            # stands in for the per-task breakdown.  Shipped tasks skip
            # the cross-request single-flight: a concurrent request racing
            # on the same cold lineage computes it again, bit-identically.
            with tr.span("estimate", mode="process", groups=len(misses)):
                shipped = process_map(_estimate_task, payloads, jobs=jobs)
            decided = [(self._land(schedule[position], keys[position], result,
                                   dimension), False)
                       for position, result in zip(misses, shipped)]
        else:
            decided = [run_here(position, payload)
                       for position, payload in zip(misses, payloads)]
        for position, outcome in zip(misses, decided):
            outcomes[position] = outcome

        from_cache = sum(1 for _, cached in outcomes if cached)
        with tr.span("serialize") as serialize_span:
            # The results are the objects the certainty cache holds; the
            # answers, built when first read, re-stamp them with this
            # request's dimension.
            results = tuple(result for result, _ in outcomes)
            previous = (self._answer_memos.peek(memo_key)
                        if memo_key is not None else None)
            memo, reused = _next_memo(previous, entry, results, dimension)
            if memo_key is not None and memo is not previous:
                self._answer_memos.put(memo_key, memo)
            serialize_span.set("answers", len(candidates))
            serialize_span.set("answers_reused", reused)

        computed = len(schedule) - from_cache
        batched = len(candidates) - len(schedule)
        with self._counters_lock:
            self._requests += 1
            self._answers_served += len(candidates)
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
        return ServiceResponse(stats=stats,
                               trace=tr if return_trace else None,
                               memo=memo if reused else None, served=memo)

    def is_warm(self, query: str, *, epsilon: Optional[float] = None,
                delta: Optional[float] = None, method: Optional[str] = None,
                limit: Optional[int] = None, seed: SeedLike = None,
                adaptive: Optional[bool] = None) -> Optional[WarmRequest]:
        """Whether :meth:`submit` would answer this request from its caches
        alone: the query's parse, its plan at the current table versions
        and every group's certainty result are all cached.  Returns the
        :class:`WarmRequest` to hand to ``submit(..., warm=...)``, or
        ``None``.

        Reads only through the caches' uncounted ``peek``, so the hit
        ratios keep counting the lookups of the requests ``submit`` serves.
        A commit or an eviction may still land before the request is
        submitted; ``submit`` then raises :class:`NotCached` instead of
        computing.
        """
        text = normalise_sql(query)
        select = self._parse_cache.peek(text)
        if select is None:
            return None
        database = self._snapshot.database
        plan_key = self._plan_key(text, select, limit, True, database)
        entry = self._plan_cache.peek(plan_key)
        if entry is None:
            return None
        parameters = self._parameters(epsilon, delta, method, adaptive, seed)
        seed_token = _seed_token(parameters[4])
        keys = _result_keys(entry.schedule, *parameters[:4], seed_token)
        if not self._result_cache.holds_all(keys):
            return None
        return WarmRequest(text, database, plan_key, entry, parameters,
                           seed_token, keys)

    def stats(self) -> ServiceStats:
        """Lifetime counters plus snapshots of every cache layer."""
        with self._counters_lock:
            requests = self._requests
            answers_served = self._answers_served
            estimates_computed = self._estimates_computed
            estimates_reused = self._estimates_reused
            tuples_batched = self._tuples_batched
            mutations_applied = self._mutations_applied
            results_evicted = self._results_evicted
        database = self._snapshot.database
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
                self._plan_cache.stats(),
                self._result_cache.stats(),
                self._frontier_cache.stats(),
                compile_cache_stats(),
            ),
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
        (their version keys did not move) and those of touched tables are
        dropped; cached join frontiers are carried past deleted rows here,
        and appended rows are delta-joined into them on the next
        enumeration.

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
            # Plans keyed on a table version this commit superseded only
            # serve readers pinned on an older snapshot; drop them rather
            # than let them crowd the LRU until they age out.
            for key in self._plan_cache.keys():
                if any(version < new_database.table_version(table)
                       for table, version in key[3]):
                    self._plan_cache.pop(key)
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

    def invalidate(self) -> None:
        """Drop every cached artefact (for out-of-band database edits)."""
        self._parse_cache.clear()
        self._plan_cache.clear()
        self._result_cache.clear()
        self._answer_memos.clear()
        self._frontier_cache.clear()
        with self._provenance_lock:
            self._result_provenance.clear()

    # -- lifecycle stages --------------------------------------------------

    def _parameters(self, epsilon: Optional[float], delta: Optional[float],
                    method: Optional[str], adaptive: Optional[bool],
                    seed: SeedLike) -> tuple:
        """A request's estimate parameters with the service defaults filled
        in: ``(epsilon, delta, method, adaptive, root)``."""
        options = self._options
        method = options.method if method is None else method
        _validate(method)
        return (options.epsilon if epsilon is None else epsilon,
                options.delta if delta is None else delta,
                method,
                options.adaptive if adaptive is None else adaptive,
                self._default_root if seed is None else root_sequence(seed))

    def _parse(self, query, text: Optional[str], cached_only: bool = False):
        """``query`` parsed, through the parse cache under its
        :func:`normalise_sql` ``text``."""
        if not isinstance(query, str):
            return query
        from repro.engine.sql.parser import parse_sql

        def parse():
            if cached_only:
                raise NotCached("the query text is not in the parse cache")
            return parse_sql(query)

        return self._parse_cache.get_or_compute(text, parse)

    @staticmethod
    def _plan_key(text: str, select, limit: Optional[int],
                  group_witnesses: bool, database) -> tuple:
        """The plan-cache key of a query over ``database``, given its
        :func:`normalise_sql` text.

        The snapshot layout is fixed for the service's lifetime, so only
        the data can move under a key.  Per-referenced-table data versions
        make mutation invalidation delta-driven: a commit touching table T
        moves only T's version, so plans over untouched tables keep their
        keys (stay warm) while plans over T are dropped at commit.
        """
        table_version = getattr(database, "table_version", None)
        if table_version is not None:
            versions = tuple(sorted(
                {(reference.table, table_version(reference.table))
                 for reference in select.tables}))
        else:
            versions = ()
        return (text, limit, group_witnesses, versions)

    def _plan(self, select, plan_key: Optional[tuple], limit: Optional[int],
              group_witnesses: bool, database, span=None,
              cached_only: bool = False) -> _PlanEntry:
        """The plan entry of ``select`` over ``database``, through the plan
        cache under ``plan_key`` (``None``: a parsed query, not cached)."""
        from repro.engine.candidates import enumerate_candidates

        def enumerate_() -> _PlanEntry:
            if cached_only:
                raise NotCached("no plan is cached at these table versions")
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
                for name in ("frontier", "residuals", "lineages"):
                    if name in frontier_stats:
                        span.set(name, frontier_stats[name])
            # The query's memo holds the plan it last served (a plan key
            # is the memo key plus table versions).
            previous = (self._answer_memos.peek(plan_key[:3])
                        if plan_key is not None else None)
            return _plan_entry(planned, previous.entry.derived
                               if previous is not None else None)

        if plan_key is None:
            return enumerate_()
        return self._plan_cache.get_or_compute(plan_key, enumerate_)

    def _decide_solo(self, group: TaskGroup, key: tuple, payload: tuple,
                     dimension: int, on_update=None
                     ) -> tuple[CertaintyResult, bool]:
        """One cold group estimated in this process; ``(result, reused)``.

        The estimate runs under single-flight on the certainty-cache key: a
        concurrent request racing on the same cold lineage joins this
        estimate rather than recomputing it, and joined results are
        accounted as reuse -- exactly one computation and one cache fill
        happen.
        """
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
        # snapshot; its answers are re-stamped with this request's
        # dimension when they are built.
        return result, not (leader and computed)

    def _estimate(self, payload: tuple, on_update=None) -> CertaintyResult:
        """The in-process call of :func:`_estimate_task` (a patchable seam)."""
        return _estimate_task(payload, on_update)

    def _land(self, group: TaskGroup, key: tuple, result: CertaintyResult,
              dimension: int) -> CertaintyResult:
        """Stamp a fresh estimate with snapshot metadata and cache it.

        The canonical translation deliberately forgets the database's
        ambient dimension; the request's pinned ``dimension`` is patched
        back here for faithful result metadata, before the result fills
        the cache under ``key``.
        """
        result = replace(result, dimension=dimension,
                         relevant_dimension=group.canonical.dimension)
        self._result_cache.put(key, result)
        return result


@dataclass(frozen=True)
class _EstimateTask:
    """One schedule group in content form (picklable for process pools)."""

    translation: TranslationResult
    digest: bytes


def _estimate_task(payload: tuple, on_update=None) -> CertaintyResult:
    """One group's estimate from content alone (module-level, so it pickles).

    ``payload`` is ``(task, epsilon, delta, method, adaptive, root)`` with
    ``task`` an :class:`_EstimateTask`; the stream is derived from the
    root seed and the lineage digest, so the result is the same in any
    process.  ``on_update`` receives each adaptive rung's update.
    Dimension metadata is the canonical translation's; the service
    patches it back.
    """
    task, epsilon, delta, method, adaptive, root = payload
    if adaptive:
        return adaptive_certainty(
            task.translation, epsilon=epsilon, delta=delta, method=method,
            stream_factory=lambda stage: spawn_stream(
                root, task.digest, stage),
            on_update=on_update)
    return certainty_from_translation(
        task.translation, epsilon=epsilon, delta=delta, method=method,
        rng=spawn_stream(root, task.digest))


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
