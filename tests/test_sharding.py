"""Sharded execution: partitioning, merge parity, processes, shared memory.

The sharded engine's contract is the same observational identity the
columnar engine already owes the row oracle, now across one more axis:
``shards=K, jobs=N`` must be bit-identical to the unsharded single-core
run -- candidates, witness order, witness counts, lineage formulas,
canonical digests, and (at a fixed seed) the annotated certainties.  These
tests pin the edge cases the differential harness only hits by luck:
degenerate shard counts, empty shards, all-null join keys, the shared
memory round trip, and the process pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.generic import ColumnSpec, TableSpec, generate_database
from repro.engine.candidates import enumerate_candidates
from repro.engine.sql.parser import parse_sql
from repro.relational.columnar import ColumnarRelation
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema, SchemaError
from repro.relational.sharding import (
    attach_shard,
    export_shard,
    merge_order,
    partition_rows,
    release_payload,
    shard_relation,
    stable_value_hash,
)
from repro.relational.values import BaseNull, NumNull
from repro.service import AnnotationService, ServiceOptions, process_map
from repro.service.canonical import canonicalise_lineage

JOIN_SQL = ("SELECT F.key FROM Fact F, Dim D "
            "WHERE F.key = D.key AND F.val * D.ref <= 25")


def _star_schema() -> DatabaseSchema:
    return DatabaseSchema.of(
        RelationSchema.of("Fact", key="base", val="num"),
        RelationSchema.of("Dim", key="base", ref="num"),
    )


def _star_database(fact_rows=120, dim_rows=50, null_rate=0.2, seed=3,
                   key_count=25) -> Database:
    keys = tuple(f"k{i}" for i in range(key_count))
    specs = {
        "Fact": TableSpec(rows=fact_rows, columns={
            "key": ColumnSpec(choices=keys, null_rate=min(null_rate, 0.1)),
            "val": ColumnSpec(uniform=(0.0, 10.0), null_rate=null_rate),
        }),
        "Dim": TableSpec(rows=dim_rows, columns={
            "key": ColumnSpec(choices=keys, null_rate=min(null_rate, 0.1)),
            "ref": ColumnSpec(uniform=(0.0, 10.0), null_rate=null_rate),
        }),
    }
    return generate_database(_star_schema(), specs, rng=seed,
                             backend="columnar")


def _assert_identical(reference, actual, context=""):
    assert len(reference) == len(actual), context
    for expected, got in zip(reference, actual):
        assert expected.values == got.values, context
        assert expected.witnesses == got.witnesses, context
        assert expected.lineage.formula == got.lineage.formula, context
        assert canonicalise_lineage(expected.lineage).digest == \
            canonicalise_lineage(got.lineage).digest, context


class TestStableHash:
    def test_equal_values_hash_equally(self):
        assert stable_value_hash("amber") == stable_value_hash("amber")
        assert stable_value_hash(BaseNull("n1")) == stable_value_hash(BaseNull("n1"))
        assert stable_value_hash(NumNull("n1")) == stable_value_hash(NumNull("n1"))

    def test_distinct_kinds_hash_apart(self):
        # A null named like a string constant must not collide with it.
        assert stable_value_hash(BaseNull("red")) != stable_value_hash("red")
        assert stable_value_hash(BaseNull("n1")) != stable_value_hash(NumNull("n1"))

    def test_stable_across_processes(self):
        """Placement must not depend on ``PYTHONHASHSEED``."""
        import subprocess
        import sys

        script = ("import sys; sys.path.insert(0, 'src');"
                  "from repro.relational.sharding import stable_value_hash;"
                  "print(stable_value_hash('k7'))")
        outputs = {
            subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, check=True,
                           env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                           cwd=".").stdout.strip()
            for seed in ("0", "1")
        }
        assert len(outputs) == 1
        assert outputs == {str(stable_value_hash("k7"))}


class TestPartitioning:
    def test_single_shard_is_identity(self):
        database = _star_database()
        relation = database.relation("Fact")
        [only] = partition_rows(relation, 1, ("key",))
        assert np.array_equal(only, np.arange(len(relation)))

    def test_partition_covers_all_rows_exactly_once(self):
        database = _star_database()
        relation = database.relation("Fact")
        parts = partition_rows(relation, 4, ("key",))
        union = np.sort(np.concatenate(parts))
        assert np.array_equal(union, np.arange(len(relation)))
        for part in parts:
            assert np.array_equal(part, np.sort(part))  # ascending offsets

    def test_key_alignment_across_relations(self):
        """Equal key values land in the same shard in every table."""
        database = _star_database()
        shards = 5
        fact_parts = partition_rows(database.relation("Fact"), shards, ("key",))
        dim_parts = partition_rows(database.relation("Dim"), shards, ("key",))

        def shard_of(parts, relation, row):
            for shard, part in enumerate(parts):
                if row in part:
                    return shard
            raise AssertionError("row not placed")

        fact_keys = database.relation("Fact").column("key")
        dim_keys = database.relation("Dim").column("key")
        placement = {}
        for row, key in enumerate(fact_keys):
            placement[key] = shard_of(fact_parts, "Fact", row)
        for row, key in enumerate(dim_keys):
            if key in placement:
                assert shard_of(dim_parts, "Dim", row) == placement[key]

    def test_numeric_key_alignment(self):
        """partition_rows also aligns numeric key columns (public API path).

        The sharded join's shard plan only partitions on base columns, but
        ``partition_rows`` is usable directly; equal floats (including
        ``-0.0`` vs ``0.0``) and re-occurring numeric null marks must
        co-locate.
        """
        schema = RelationSchema.of("N", val="num")
        shared = NumNull("shared")
        first = ColumnarRelation(schema, [(1.5,), (-0.0,), (shared,), (7.25,)])
        second = ColumnarRelation(schema, [(0.0,), (7.25,), (shared,), (2.5,)])
        shards = 5
        first_parts = partition_rows(first, shards, ("val",))
        second_parts = partition_rows(second, shards, ("val",))

        def shard_of(parts, row):
            return next(s for s, part in enumerate(parts) if row in part)

        assert shard_of(first_parts, 1) == shard_of(second_parts, 0)  # ±0.0
        assert shard_of(first_parts, 3) == shard_of(second_parts, 1)  # 7.25
        assert shard_of(first_parts, 2) == shard_of(second_parts, 2)  # null

    def test_round_robin_without_keys(self):
        database = _star_database()
        relation = database.relation("Fact")
        parts = partition_rows(relation, 3, None)
        assert np.array_equal(parts[0], np.arange(0, len(relation), 3))

    def test_more_shards_than_rows_leaves_empties(self):
        database = _star_database(fact_rows=3, dim_rows=2)
        shards = shard_relation(database.relation("Fact"), 64, ("key",))
        assert len(shards) == 64
        assert sum(len(shard) for shard in shards) == \
            len(database.relation("Fact"))
        assert any(len(shard) == 0 for shard in shards)

    def test_invalid_shard_count_rejected(self):
        database = _star_database(fact_rows=3, dim_rows=2)
        with pytest.raises(ValueError):
            partition_rows(database.relation("Fact"), 0, None)
        with pytest.raises(SchemaError):
            Database(_star_schema(), shards=0)

    def test_merge_order_restores_global_order(self):
        outer = [np.array([0, 3, 3, 9]), np.array([1, 4]), np.array([2, 2, 8])]
        order = merge_order(outer)
        merged = np.concatenate(outer)[order]
        assert merged.tolist() == [0, 1, 2, 2, 3, 3, 4, 8, 9]


class TestShardedEnumeration:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 1000])
    def test_bit_identical_to_unsharded(self, shards):
        database = _star_database()
        select = parse_sql(JOIN_SQL)
        reference = enumerate_candidates(select, database, shards=1)
        actual = enumerate_candidates(select, database, shards=shards)
        _assert_identical(reference, actual, f"shards={shards}")

    def test_process_parallel_matches_inline(self):
        database = _star_database()
        select = parse_sql(JOIN_SQL)
        reference = enumerate_candidates(select, database, shards=3, jobs=1)
        parallel = enumerate_candidates(select, database, shards=3, jobs=2)
        _assert_identical(reference, parallel, "jobs=2")

    def test_all_null_join_keys(self):
        """A key column made entirely of marked nulls still shards correctly.

        A base null equals only itself, so cross-table matches only happen
        when the *same* null mark occurs in both tables -- which hashing by
        null name keeps co-located.  ``generate_database`` draws fresh
        nulls, so shared marks are planted by hand here.
        """
        schema = _star_schema()
        shared = [BaseNull(f"s{i}") for i in range(6)]
        database = Database(schema, backend="columnar", shards=4)
        rng = np.random.default_rng(5)
        for index in range(24):
            database.add("Fact", (shared[index % 6], float(rng.uniform(0, 10))))
        for index in range(12):
            database.add("Dim", (shared[rng.integers(0, 6)], float(rng.uniform(0, 10))))
        select = parse_sql(JOIN_SQL)
        reference = enumerate_candidates(select, database, shards=1)
        assert reference, "the all-null instance must produce candidates"
        for shards in (2, 4, 9):
            _assert_identical(reference,
                              enumerate_candidates(select, database, shards=shards),
                              f"all-null shards={shards}")

    def test_scan_round_robin_parity(self):
        database = _star_database()
        select = parse_sql("SELECT F.key FROM Fact F WHERE F.val <= 5 LIMIT 9")
        reference = enumerate_candidates(select, database, shards=1)
        _assert_identical(reference,
                          enumerate_candidates(select, database, shards=5, jobs=2))

    def test_cross_column_chain_falls_back(self):
        """A join chain hopping key columns is not shardable; results still match."""
        schema = DatabaseSchema.of(
            RelationSchema.of("A", k="base", x="num"),
            RelationSchema.of("B", k="base", m="base", x="num"),
            RelationSchema.of("C", m="base", x="num"),
        )
        keys = tuple(f"k{i}" for i in range(6))
        marks = tuple(f"m{i}" for i in range(6))
        specs = {
            "A": TableSpec(rows=20, columns={
                "k": ColumnSpec(choices=keys),
                "x": ColumnSpec(uniform=(0, 5), null_rate=0.2)}),
            "B": TableSpec(rows=20, columns={
                "k": ColumnSpec(choices=keys),
                "m": ColumnSpec(choices=marks),
                "x": ColumnSpec(uniform=(0, 5), null_rate=0.2)}),
            "C": TableSpec(rows=20, columns={
                "m": ColumnSpec(choices=marks),
                "x": ColumnSpec(uniform=(0, 5), null_rate=0.2)}),
        }
        database = generate_database(schema, specs, rng=11, backend="columnar")
        sql = ("SELECT A.k FROM A, B, C "
               "WHERE A.k = B.k AND B.m = C.m AND A.x + C.x <= 6")
        select = parse_sql(sql)
        from repro.engine.vectorized import enumerate_candidates_sharded
        assert enumerate_candidates_sharded(
            select, database, limit=None, max_witnesses=1_000_000,
            group_witnesses=True, shards=3) is None
        _assert_identical(enumerate_candidates(select, database, shards=1),
                          enumerate_candidates(select, database, shards=3))

    def test_partition_cache_hits_and_invalidation(self):
        database = _star_database()
        select = parse_sql(JOIN_SQL)
        first, second = {}, {}
        enumerate_candidates(select, database, shards=2, shard_stats=first)
        enumerate_candidates(select, database, shards=2, shard_stats=second)
        assert first["partition_misses"] == 2 and first["partition_hits"] == 0
        assert second["partition_hits"] == 2 and second["partition_misses"] == 0
        database.add("Fact", ("k1", 1.0))  # mutation drops the partitions
        third = {}
        enumerate_candidates(select, database, shards=2, shard_stats=third)
        assert third["partition_misses"] == 2


class TestSharedMemory:
    def test_export_attach_round_trip(self):
        database = _star_database(fact_rows=40, dim_rows=10)
        relation = database.relation("Fact")
        payload, blocks = export_shard(relation)
        try:
            attached, handles = attach_shard(payload)
            try:
                assert attached.tuples() == relation.tuples()
            finally:
                for handle in handles:
                    handle.close()
        finally:
            release_payload(blocks)

    def test_trailing_nul_strings_round_trip(self):
        """Values NumPy's fixed-width unicode would corrupt stay pickled.

        ``np.asarray(["a\\x00", "a"])`` strips the trailing NUL, merging
        two distinct interned values; the packer must detect the lossy
        round trip and fall back to shipping the dictionary by pickle.
        """
        schema = RelationSchema.of("T", key="base")
        relation = ColumnarRelation(schema, [("a\x00",), ("a",), ("b",)])
        payload, blocks = export_shard(relation)
        try:
            attached, handles = attach_shard(payload)
            try:
                assert attached.tuples() == relation.tuples()
            finally:
                for handle in handles:
                    handle.close()
        finally:
            release_payload(blocks)

    def test_release_is_idempotent(self):
        database = _star_database(fact_rows=4, dim_rows=2)
        payload, blocks = export_shard(database.relation("Dim"))
        release_payload(blocks)
        release_payload(blocks)  # second release must not raise


class TestProcessMap:
    def test_preserves_payload_order(self):
        results = process_map(_square, list(range(20)), jobs=2)
        assert results == [value * value for value in range(20)]

    def test_inline_for_single_job(self):
        assert process_map(_square, [3, 4], jobs=1) == [9, 16]

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            process_map(_reciprocal, [1, 0, 2], jobs=2)


def _square(value: int) -> int:
    return value * value


def _reciprocal(value: int) -> float:
    return 1.0 / value


class TestServiceSharded:
    def test_process_executor_bit_identical(self):
        database = _star_database(null_rate=0.3)
        sql = JOIN_SQL + " LIMIT 15"
        reference = AnnotationService(
            database, ServiceOptions(epsilon=0.25, seed=11)).submit(sql)
        for options in (
                ServiceOptions(epsilon=0.25, seed=11, shards=4, jobs=2),
                ServiceOptions(epsilon=0.25, seed=11, shards=4, jobs=2,
                               executor="process"),
        ):
            response = AnnotationService(database, options).submit(sql)
            assert [a.values for a in response.answers] == \
                [a.values for a in reference.answers]
            assert [a.certainty.value for a in response.answers] == \
                [a.certainty.value for a in reference.answers]

    def test_adaptive_process_matches_thread(self):
        database = _star_database(null_rate=0.3)
        sql = JOIN_SQL + " LIMIT 10"
        thread = AnnotationService(database, ServiceOptions(
            epsilon=0.3, seed=2, adaptive=True, jobs=2)).submit(sql)
        process = AnnotationService(database, ServiceOptions(
            epsilon=0.3, seed=2, adaptive=True, jobs=2,
            executor="process")).submit(sql)
        assert [a.certainty.value for a in process.answers] == \
            [a.certainty.value for a in thread.answers]

    def test_unknown_executor_rejected(self):
        database = _star_database(fact_rows=4, dim_rows=2)
        with pytest.raises(ValueError):
            AnnotationService(database, ServiceOptions(executor="fiber"))

    def test_stats_report_shards_and_backends(self):
        database = _star_database()
        service = AnnotationService(
            database, ServiceOptions(epsilon=0.3, seed=0, shards=2))
        service.submit(JOIN_SQL + " LIMIT 5")
        service.submit(JOIN_SQL + " LIMIT 5")
        stats = service.stats()
        assert [b.backend for b in stats.backends] == ["columnar"]
        assert stats.backends[0].requests == 2
        assert stats.backends[0].plan_hits == 1
        assert stats.backends[0].plan_misses == 1
        assert [s.shard for s in stats.shards] == [0, 1]
        assert all(s.tasks == 1 for s in stats.shards)  # second plan cached
        report = stats.report()
        assert "shard[0]" in report and "shard[1]" in report
        assert "backend" in report and "columnar" in report
        as_dict = stats.as_dict()
        assert as_dict["backends"][0]["backend"] == "columnar"
        assert len(as_dict["shards"]) == 2
