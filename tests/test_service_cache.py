"""Tests for the LRU cache, the compile-formula memo, canonicalisation and
the service's answer memo."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.caching import LruCache, SingleFlight
from repro.compile import (
    DEFAULT_COMPILE_CACHE_SIZE,
    compile_cache_stats,
    compile_formula,
    configure_compile_cache,
)
from repro.constraints.atoms import Comparison, Constraint
from repro.constraints.formula import And, Atom, Or
from repro.constraints.polynomials import Polynomial
from repro.datagen.experiments import (
    EXPERIMENT_QUERIES,
    ExperimentScale,
    generate_sales_database,
)
from repro.server.protocol import dump_line, load_line, result_event
from repro.service import AnnotationService, NotCached, ServiceOptions
from repro.service.canonical import CanonicalisationError, canonicalise
from repro.service.rng import root_sequence, spawn_stream


def atom(name: str, op: Comparison = Comparison.LE, bound: float = 16.0) -> Atom:
    return Atom(Constraint(Polynomial.variable(name) - Polynomial.constant(bound), op))


class TestLruCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_counters(self):
        cache = LruCache(1, name="unit")
        cache.get("missing")
        cache.put("k", "v")
        cache.get("k")
        cache.put("other", "w")  # evicts "k"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.name == "unit" and stats.size == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_get_or_compute_only_computes_on_miss(self):
        cache = LruCache(4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or "value") == "value"
        assert cache.get_or_compute("k", lambda: calls.append(1) or "other") == "value"
        assert len(calls) == 1

    def test_resize_shrinks_and_counts_evictions(self):
        cache = LruCache(4)
        for index in range(4):
            cache.put(index, index)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.stats().evictions == 2
        assert 3 in cache  # newest survive

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)
        with pytest.raises(ValueError):
            LruCache(4).resize(-1)

    def test_peek_reads_without_counting(self):
        cache = LruCache(4, name="peeked")
        cache.put("k", "v")
        before = cache.stats()
        assert cache.peek("k") == "v"
        assert cache.peek("missing") is None
        assert cache.peek("missing", "fallback") == "fallback"
        after = cache.stats()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_get_many_counts_and_refreshes_like_get(self):
        cache = LruCache(3, name="batched")
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get_many(["a", "x", "b"]) == ["A", None, "B"]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        cache.put("d", "D")  # "c" was not refreshed: it is the oldest
        assert "c" not in cache and "a" in cache and "b" in cache

    def test_holds_all_reads_without_counting(self):
        cache = LruCache(2, name="held")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.holds_all(["a", "b"]) and cache.holds_all([])
        assert not cache.holds_all(["a", "missing"])
        cache.put("c", 3)  # "a" stayed oldest: holds_all refreshed nothing
        assert "a" not in cache
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)


class TestSingleFlight:
    def test_follower_joins_the_leaders_flight(self):
        flights = SingleFlight(name="unit")
        entered = threading.Event()
        release = threading.Event()
        outcomes = []

        def leader_factory():
            entered.set()
            assert release.wait(30)
            return "computed"

        def lead():
            outcomes.append(("leader", *flights.run("k", leader_factory)))

        def follow():
            outcomes.append(("follower",
                             *flights.run("k", lambda: "recomputed!")))

        leader = threading.Thread(target=lead)
        leader.start()
        assert entered.wait(30)
        follower = threading.Thread(target=follow)
        follower.start()
        while flights.stats().joins == 0 and follower.is_alive():
            if not leader.is_alive():  # pragma: no cover - failure path
                break
            time.sleep(0.001)
        release.set()
        leader.join(30)
        follower.join(30)
        assert ("leader", "computed", True) in outcomes
        assert ("follower", "computed", False) in outcomes, \
            "the follower must receive the leader's value, not recompute"
        stats = flights.stats()
        assert stats.launches == 1 and stats.joins == 1
        assert stats.in_flight == 0

    def test_sequential_runs_do_not_coalesce(self):
        flights = SingleFlight()
        first, first_leader = flights.run("k", lambda: 1)
        second, second_leader = flights.run("k", lambda: 2)
        assert (first, first_leader) == (1, True)
        assert (second, second_leader) == (2, True), \
            "a landed flight must not serve later arrivals"

    def test_distinct_keys_run_independently(self):
        flights = SingleFlight()
        assert flights.run("a", lambda: "x") == ("x", True)
        assert flights.run("b", lambda: "y") == ("y", True)
        assert flights.stats().launches == 2

    def test_leader_exception_propagates_to_followers(self):
        flights = SingleFlight()
        entered = threading.Event()
        release = threading.Event()
        errors = []

        def exploding():
            entered.set()
            assert release.wait(30)
            raise RuntimeError("flight failed")

        def lead():
            try:
                flights.run("k", exploding)
            except RuntimeError as error:
                errors.append(("leader", str(error)))

        def follow():
            try:
                flights.run("k", lambda: "never")
            except RuntimeError as error:
                errors.append(("follower", str(error)))

        leader = threading.Thread(target=lead)
        leader.start()
        assert entered.wait(30)
        follower = threading.Thread(target=follow)
        follower.start()
        while flights.stats().joins == 0 and follower.is_alive():
            if not leader.is_alive():  # pragma: no cover - failure path
                break
            time.sleep(0.001)
        release.set()
        leader.join(30)
        follower.join(30)
        assert ("leader", "flight failed") in errors
        assert ("follower", "flight failed") in errors
        assert flights.stats().failures == 1


@pytest.fixture
def compile_cache():
    """Run a test against a small, clean compile memo; restore afterwards."""
    configure_compile_cache(capacity=4, clear=True)
    yield
    configure_compile_cache(capacity=DEFAULT_COMPILE_CACHE_SIZE, clear=True)


class TestCompileFormulaMemo:
    def test_hits_and_misses_are_counted(self, compile_cache):
        formula = And((atom("x"), atom("y", Comparison.GT)))
        compile_formula(formula, ("x", "y"))
        compile_formula(formula, ("x", "y"))
        stats = compile_cache_stats()
        assert stats.misses == 1 and stats.hits == 1
        assert stats.name == "compiled kernels"

    def test_null_renamed_variants_share_one_artefact(self, compile_cache):
        # The memo keys by canonical lineage digest: the same formula
        # skeleton over differently-named nulls is one compiled kernel.
        first = compile_formula(atom("rrp_1"), ("rrp_1",))
        second = compile_formula(atom("rrp_2"), ("rrp_2",))
        assert first is second
        stats = compile_cache_stats()
        assert stats.misses == 1 and stats.hits == 1
        assert stats.size == 1

    def test_capacity_bounds_the_memo(self, compile_cache):
        # Distinct bounds make structurally distinct lineages (same-shape
        # formulas over renamed nulls would share one canonical entry).
        for index in range(8):
            compile_formula(atom(f"x{index}", bound=float(index)),
                            (f"x{index}",))
        stats = compile_cache_stats()
        assert stats.size == 4
        assert stats.evictions == 4

    def test_recompilation_after_eviction_is_equivalent(self, compile_cache):
        formula = atom("x")
        first = compile_formula(formula, ("x",))
        for index in range(6):  # flush "x" out of the 4-entry memo
            compile_formula(atom(f"y{index}", bound=float(index + 100)),
                            (f"y{index}",))
        second = compile_formula(formula, ("x",))
        assert first is not second
        assert first.table.constraints == second.table.constraints


class TestCanonicalisation:
    def test_renaming_invariance(self):
        left = canonicalise(atom("z_a"), ("z_a",))
        right = canonicalise(atom("z_b"), ("z_b",))
        assert left.formula == right.formula
        assert left.digest == right.digest
        assert left.variables == ("v0",)

    def test_multivariate_renaming_follows_position(self):
        chain = lambda a, b: And((  # noqa: E731 - tiny local helper
            Atom(Constraint(Polynomial.variable(a) - Polynomial.variable(b),
                            Comparison.LT)),
            atom(b),
        ))
        left = canonicalise(chain("z_1", "z_2"), ("z_1", "z_2"))
        right = canonicalise(chain("z_8", "z_9"), ("z_8", "z_9"))
        assert left.formula == right.formula and left.digest == right.digest

    def test_distinct_structures_get_distinct_digests(self):
        le = canonicalise(atom("x", Comparison.LE), ("x",))
        lt = canonicalise(atom("x", Comparison.LT), ("x",))
        disjunct = canonicalise(Or((atom("x"), atom("x", Comparison.GT))), ("x",))
        assert len({le.digest, lt.digest, disjunct.digest}) == 3

    def test_dimension_is_part_of_the_key(self):
        narrow = canonicalise(atom("x"), ("x",))
        wide = canonicalise(atom("x"), ("x", "unused"))
        assert narrow.digest != wide.digest

    def test_unknown_variable_rejected(self):
        with pytest.raises(CanonicalisationError):
            canonicalise(atom("mystery"), ("x",))

    def test_translation_is_self_contained(self):
        canonical = canonicalise(atom("z_q"), ("z_q",))
        translation = canonical.translation()
        assert translation.relevant_variables == ("v0",)
        assert translation.formula.evaluate({"v0": 10.0})
        assert not translation.formula.evaluate({"v0": 20.0})


class TestSpawnedStreams:
    def test_same_tokens_same_stream(self):
        root = root_sequence(42)
        first = spawn_stream(root, b"digest-bytes", 3).integers(0, 1 << 30, 8)
        second = spawn_stream(root, b"digest-bytes", 3).integers(0, 1 << 30, 8)
        assert list(first) == list(second)

    def test_different_tokens_different_streams(self):
        root = root_sequence(42)
        first = spawn_stream(root, b"digest-bytes", 0).integers(0, 1 << 30, 8)
        second = spawn_stream(root, b"digest-bytes", 1).integers(0, 1 << 30, 8)
        third = spawn_stream(root, b"other-digest!", 0).integers(0, 1 << 30, 8)
        assert list(first) != list(second)
        assert list(first) != list(third)

    def test_roots_differ_by_seed(self):
        first = spawn_stream(root_sequence(1), 0).integers(0, 1 << 30, 8)
        second = spawn_stream(root_sequence(2), 0).integers(0, 1 << 30, 8)
        assert list(first) != list(second)


class TestAnswerMemo:
    """Warm requests share their plan's answers and encoding; per-request
    fields never leak between the responses built from them."""

    SQL = EXPERIMENT_QUERIES["never_knowingly_undersold"]

    @staticmethod
    def _service() -> AnnotationService:
        database = generate_sales_database(
            ExperimentScale(60, 60, 6, null_rate=0.1), rng=3)
        return AnnotationService(database.with_backend("columnar"),
                                 ServiceOptions(seed=7, epsilon=0.2))

    def test_warm_requests_reuse_the_answers_and_their_encoding(self):
        service = self._service()
        cold, warm, warmer = (service.submit(self.SQL) for _ in range(3))
        assert warm.stats.groups_from_cache == warm.stats.groups > 0
        assert warm.answers is cold.answers is warmer.answers
        # Only a reused memo rides on the response and keeps an encoding.
        assert cold.memo is None and warm.memo is warmer.memo is not None
        assert result_event(1, warm)["answers"] is \
            result_event(2, warmer)["answers"]
        assert result_event(3, cold)["answers"] == warm.memo.encoded
        # Another request seed is another set of results: a fresh build
        # replaces the memo, and the next reuse starts a new one.
        assert service.submit(self.SQL, seed=8).answers is not cold.answers
        again = service.submit(self.SQL)
        assert again.memo is None and again.answers is not cold.answers
        assert service.submit(self.SQL).memo is not warm.memo

    def test_concurrent_warm_submits_agree_and_stamps_stay_private(self):
        """Four threads read one warm query under two request seeds, so
        the plan's memo is replaced concurrently; every line carries its
        own seed's answers and only its own ``id`` and ``trace_id``."""
        service = self._service()
        expected = {}
        for seed in (7, 8):
            service.submit(self.SQL, seed=seed)
            expected[seed] = load_line(dump_line(result_event(
                None, service.submit(self.SQL, seed=seed))))["answers"]
        assert expected[7] != expected[8]
        rounds = 25
        lines: dict[int, list] = {}
        barrier = threading.Barrier(4)

        def read(worker: int) -> None:
            barrier.wait(timeout=30)
            own = lines[worker] = []
            for round_index in range(rounds):
                seed = 7 + (worker + round_index) % 2
                event = result_event(f"{worker}-{round_index}",
                                     service.submit(self.SQL, seed=seed))
                event["trace_id"] = f"trace-{worker}-{round_index}"
                own.append((seed, dump_line(event)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(worker,))
                       for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        for worker, own in lines.items():
            assert len(own) == rounds
            for round_index, (seed, line) in enumerate(own):
                message = load_line(line)
                assert message["id"] == f"{worker}-{round_index}"
                assert message["trace_id"] == f"trace-{worker}-{round_index}"
                assert message["answers"] == expected[seed]
                assert message["stats"]["groups_computed"] == 0
        # Stamping never reached the shared answers.
        shared = result_event(None, service.submit(self.SQL, seed=7))
        assert "trace_id" not in shared and shared["id"] is None
        assert load_line(dump_line(shared))["answers"] == expected[7]


class TestWarmRequest:
    """``is_warm`` hands ``submit`` what it derived; the check stays
    uncounted and the call counts exactly what a cached-only call does."""

    SQL = TestAnswerMemo.SQL

    @staticmethod
    def _counters(service: AnnotationService) -> list:
        return [(cache.name, cache.hits, cache.misses)
                for cache in service.stats().caches[:3]]

    def test_the_check_and_the_call_share_one_derivation(self):
        service = TestAnswerMemo._service()
        assert service.is_warm(self.SQL) is None
        cold = service.submit(self.SQL)
        before = self._counters(service)
        warm = service.is_warm(self.SQL)
        assert warm and self._counters(service) == before
        served = service.submit(self.SQL, warm=warm)
        after_warm = self._counters(service)
        again = service.submit(self.SQL, warm=service.is_warm(self.SQL))
        after_cached = self._counters(service)
        assert served.answers is again.answers is cold.answers
        assert [(name, hits - old_hits, misses - old_misses)
                for (name, hits, misses), (_, old_hits, old_misses)
                in zip(after_warm, before)] == \
            [(name, hits - old_hits, misses - old_misses)
             for (name, hits, misses), (_, old_hits, old_misses)
             in zip(after_cached, after_warm)]

    def test_a_commit_after_the_check_sends_the_call_back(self):
        service = TestAnswerMemo._service()
        product = next(answer.values[0]
                       for answer in service.submit(self.SQL).answers
                       if answer.certainty.value < 1)
        warm = service.is_warm(self.SQL)
        # An order of unknown quantity changes that answer's lineage.
        service.mutate("INSERT INTO Orders VALUES "
                       f"('o_warm', '{product}', NULL, 1.0)")
        with pytest.raises(NotCached):
            service.submit(self.SQL, warm=warm)
        assert service.is_warm(self.SQL) is None
        # Once the new version is planned and estimated, the stale ticket
        # is served at that version, with that version's keys.
        fresh = service.submit(self.SQL)
        assert service.submit(self.SQL, warm=warm).answers == fresh.answers
