"""Unit tests for the MVCC storage layer and the mutation executor.

The differential harness (:mod:`tests.test_mutation_differential`) proves
the end-to-end equivalence claim statistically; these tests pin the
individual contracts it rests on: snapshot immutability, the version
chain bookkeeping, typed staging errors, incremental shard-cache
carryover, and the executor's three-valued WHERE and deterministic
fresh-null naming.
"""

from __future__ import annotations

import pytest

from repro.engine.mutate import execute_mutation
from repro.engine.sql.parser import parse_statement
from repro.relational.database import Database
from repro.relational.mutation import (
    MutationConflictError,
    MutationValidationError,
    TableDelta,
)
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import BaseNull, NumNull


def _schema() -> DatabaseSchema:
    return DatabaseSchema.of(RelationSchema.of("t", key="base", x="num"),
                             RelationSchema.of("u", key="base", y="num"))


def _database(backend: str = "columnar") -> Database:
    return Database.from_dict(_schema(), {
        "t": [("a", 1.0), ("b", 2.0), ("c", NumNull("n0"))],
        "u": [("a", 5.0), ("b", 6.0)],
    }, backend=backend)


class TestMvccSnapshots:
    @pytest.mark.parametrize("backend", ["rows", "columnar"])
    def test_commit_seals_a_new_version(self, backend):
        parent = _database(backend)
        mutation = parent.begin_mutation()
        mutation.insert("t", ("d", 4.0))
        mutation.delete("t", 1)
        sealed, deltas = mutation.commit()

        # The parent snapshot is untouched in every observable way.
        assert parent.data_version == 0
        assert parent.relation("t").tuples() == \
            (("a", 1.0), ("b", 2.0), ("c", NumNull("n0")))
        # The sealed snapshot has rebuild row order: kept rows, then tail.
        assert sealed.data_version == 1
        assert sealed.relation("t").tuples() == \
            (("a", 1.0), ("c", NumNull("n0")), ("d", 4.0))
        assert sealed.relation("u") is parent.relation("u")
        assert sealed.version_token is parent.version_token

        delta = deltas["t"]
        assert delta == TableDelta(table="t", old_length=3, appended=1,
                                   deleted_rows=(("b", 2.0),),
                                   deleted_indices=(1,))
        assert not delta.append_only
        assert delta.touched_nulls() == frozenset()

    def test_version_bookkeeping_distinguishes_appends(self):
        parent = _database()
        mutation = parent.begin_mutation()
        mutation.insert("t", ("d", 4.0))
        appended, _ = mutation.commit()
        # Appends bump the table version but not its epoch: old row
        # indices stay valid, which is what frontier maintenance needs.
        assert appended.table_version("t") == 1
        assert appended.table_epoch("t") == 0
        assert appended.table_version("u") == 0

        mutation = appended.begin_mutation()
        mutation.delete("t", 0)
        deleted, _ = mutation.commit()
        assert deleted.table_version("t") == 2
        assert deleted.table_epoch("t") == 2

    def test_converted_databases_start_fresh_chains(self):
        parent = _database()
        assert parent.with_backend("rows").version_token \
            is not parent.version_token
        assert parent.copy().version_token is not parent.version_token
        # Re-sharding shares storage, so it keeps the chain.
        assert parent.with_shards(4).version_token is parent.version_token

    def test_touched_nulls_reports_deleted_rows_nulls(self):
        parent = _database()
        mutation = parent.begin_mutation()
        mutation.delete("t", 2)  # the row carrying NumNull("n0")
        _, deltas = mutation.commit()
        assert deltas["t"].touched_nulls() == frozenset({"n0"})

    def test_update_moves_the_row_to_the_tail(self):
        parent = _database()
        mutation = parent.begin_mutation()
        mutation.update("t", 0, ("a", 9.0))
        sealed, _ = mutation.commit()
        assert sealed.relation("t").tuples() == \
            (("b", 2.0), ("c", NumNull("n0")), ("a", 9.0))


class TestStagingErrors:
    def test_duplicate_insert_is_a_conflict(self):
        mutation = _database().begin_mutation()
        with pytest.raises(MutationConflictError):
            mutation.insert("t", ("a", 1.0))

    def test_insert_then_duplicate_insert_conflicts(self):
        mutation = _database().begin_mutation()
        mutation.insert("t", ("z", 1.0))
        with pytest.raises(MutationConflictError):
            mutation.insert("t", ("z", 1.0))

    def test_deleting_a_row_frees_its_slot_for_reinsert(self):
        mutation = _database().begin_mutation()
        mutation.delete("t", 0)
        mutation.insert("t", ("a", 1.0))  # no conflict: the row is gone

    def test_double_delete_is_a_conflict(self):
        mutation = _database().begin_mutation()
        mutation.delete("t", 0)
        with pytest.raises(MutationConflictError):
            mutation.delete("t", 0)

    def test_validation_errors(self):
        mutation = _database().begin_mutation()
        with pytest.raises(MutationValidationError):
            mutation.insert("nope", ("a", 1.0))
        with pytest.raises(MutationValidationError):
            mutation.insert("t", ("a",))  # arity
        with pytest.raises(MutationValidationError):
            mutation.insert("t", ("a", "not-numeric"))
        with pytest.raises(MutationValidationError):
            mutation.delete("t", 99)

    def test_commit_is_single_shot(self):
        mutation = _database().begin_mutation()
        mutation.insert("t", ("d", 4.0))
        mutation.commit()
        with pytest.raises(MutationValidationError):
            mutation.commit()
        with pytest.raises(MutationValidationError):
            mutation.insert("t", ("e", 5.0))


class TestShardCacheCarryover:
    def test_append_extends_only_touched_shards(self):
        parent = _database()
        before, hit = parent.table_shards("t", "key", 2)
        assert not hit
        mutation = parent.begin_mutation()
        mutation.insert("t", ("d", 4.0))
        sealed, _ = mutation.commit()

        after, hit = sealed.table_shards("t", "key", 2)
        assert hit, "append-only commit must carry the partition over"
        assert sum(len(shard.offsets) for shard in after) == 4
        # Offsets stay ascending per shard and cover exactly rows 0..3.
        covered = sorted(offset for shard in after
                         for offset in shard.offsets)
        assert covered == [0, 1, 2, 3]
        for shard in after:
            offsets = list(shard.offsets)
            assert offsets == sorted(offsets)

    def test_delete_drops_the_tables_partitions(self):
        parent = _database()
        parent.table_shards("t", "key", 2)
        parent.table_shards("u", "key", 2)
        mutation = parent.begin_mutation()
        mutation.delete("t", 0)
        sealed, _ = mutation.commit()
        _, hit_t = sealed.table_shards("t", "key", 2)
        _, hit_u = sealed.table_shards("u", "key", 2)
        assert not hit_t, "deletes shift row indices; must recompute"
        assert hit_u, "untouched tables keep their partitions"


class TestExecuteMutation:
    def test_insert_mints_deterministic_fresh_nulls(self):
        database = _database()
        statement = parse_statement(
            "INSERT INTO t VALUES ('d', NULL), (NULL, 7)")
        sealed, deltas, outcome = execute_mutation(statement, database)
        assert outcome.as_dict() == {
            "operation": "insert", "table": "t",
            "inserted": 2, "deleted": 0, "data_version": 1}
        rows = sealed.relation("t").tuples()
        # Version-1 statement, NULLs numbered in execution order.
        assert rows[3] == ("d", NumNull("m1_0"))
        assert rows[4] == (BaseNull("m1_1"), 7.0)
        assert deltas["t"].append_only

    def test_where_matches_only_certainly_true_rows(self):
        database = _database()
        statement = parse_statement("DELETE FROM t WHERE x <= 2")
        sealed, _, outcome = execute_mutation(statement, database)
        # Rows a (1.0) and b (2.0) are certainly <= 2; c carries a null
        # whose valuation is unknown, so it must survive.
        assert outcome.deleted == 2
        assert sealed.relation("t").tuples() == (("c", NumNull("n0")),)

    def test_update_arithmetic_reads_the_old_row(self):
        database = _database()
        statement = parse_statement(
            "UPDATE t SET x = x + 1 WHERE key = 'a'")
        sealed, _, outcome = execute_mutation(statement, database)
        assert outcome.inserted == 1 and outcome.deleted == 1
        assert ("a", 2.0) in sealed.relation("t").tuples()

    def test_update_over_a_null_operand_is_rejected(self):
        database = _database()
        statement = parse_statement("UPDATE t SET x = x + 1")
        with pytest.raises(MutationValidationError):
            execute_mutation(statement, database)  # row c: null + 1
        assert database.data_version == 0

    def test_fast_and_generic_matching_agree(self):
        """``column op literal`` takes a direct predicate; adding a no-op
        arithmetic term (``x + 0``) forces the generic constraint-formula
        path.  Both must match exactly the same rows."""
        schema = DatabaseSchema.of(RelationSchema.of("t", key="base",
                                                     x="num"))
        contents = {"t": [("a", 1.0), ("b", 2.0), ("c", NumNull("n0")),
                          (BaseNull("b0"), 3.0), ("a", 2.0)]}
        pairs = [
            ("x <= 2", "x + 0 <= 2"),
            ("x > 1.5", "x + 0 > 1.5"),
            ("x = 2", "x + 0 = 2"),
            ("x <> 2", "x + 0 <> 2"),
            ("2 >= x", "2 >= x + 0"),  # literal-first order swap
            ("key = 'a' AND x < 3", "key = 'a' AND x + 0 < 3"),
        ]
        for fast_where, slow_where in pairs:
            outcomes = []
            for where in (fast_where, slow_where):
                database = Database.from_dict(schema, contents,
                                              backend="columnar")
                sealed, _, outcome = execute_mutation(
                    parse_statement(f"DELETE FROM t WHERE {where}"),
                    database)
                outcomes.append((outcome.deleted,
                                 sealed.relation("t").tuples()))
            assert outcomes[0] == outcomes[1], (fast_where, slow_where)
            assert outcomes[0][0] > 0, f"{fast_where!r} must match rows"

    def test_base_null_is_certainly_distinct_from_literals(self):
        """A marked base null equals only itself: ``<>`` a concrete
        literal is certainly true, ``=`` certainly false."""
        schema = DatabaseSchema.of(RelationSchema.of("t", key="base",
                                                     x="num"))
        contents = {"t": [("a", 1.0), (BaseNull("b0"), 2.0)]}
        database = Database.from_dict(schema, contents, backend="columnar")
        sealed, _, outcome = execute_mutation(
            parse_statement("DELETE FROM t WHERE key <> 'a'"), database)
        assert outcome.deleted == 1
        assert sealed.relation("t").tuples() == (("a", 1.0),)

        database = Database.from_dict(schema, contents, backend="columnar")
        sealed, _, outcome = execute_mutation(
            parse_statement("DELETE FROM t WHERE key = 'a'"), database)
        assert outcome.deleted == 1
        assert sealed.relation("t").tuples() == ((BaseNull("b0"), 2.0),)

    def test_failed_statement_leaves_the_snapshot_untouched(self):
        database = _database()
        before = database.relation("t").tuples()
        for sql in ("INSERT INTO t VALUES ('x')",
                    "INSERT INTO t VALUES ('a', 1)",  # duplicate
                    "DELETE FROM nope",
                    "UPDATE t SET zz = 1"):
            with pytest.raises((MutationValidationError,
                                MutationConflictError)):
                execute_mutation(parse_statement(sql), database)
        assert database.relation("t").tuples() == before
        assert database.data_version == 0
