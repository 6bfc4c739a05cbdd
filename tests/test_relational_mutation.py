"""Unit tests for the MVCC storage layer and the mutation executor.

The differential harness (:mod:`tests.test_mutation_differential`) proves
the end-to-end equivalence claim statistically; these tests pin the
individual contracts it rests on: snapshot immutability, the version
chain bookkeeping, typed staging errors, and the executor's three-valued
WHERE and deterministic fresh-null naming.
"""

from __future__ import annotations

import pytest

from repro.constraints.formula import TrueFormula
from repro.engine.candidates import enumerate_candidates
from repro.engine.mutate import execute_mutation
from repro.engine.sql.parser import parse_sql, parse_statement
from repro.engine.translate_sql import SqlTranslationError
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

    def test_where_matches_what_select_calls_certain(self):
        """A statement's WHERE matches exactly the rows ``SELECT *`` with
        the same WHERE gives a ``TrueFormula`` lineage, on both storage
        layouts, for DELETE and UPDATE alike -- including values a plain
        float comparison misjudges (``0.1 + 0.2`` against ``0.3``, values
        within the evaluation tolerance of a bound) -- and a WHERE the
        SELECT rejects rejects the statement."""
        schema = DatabaseSchema.of(RelationSchema.of("t", key="base",
                                                     x="num"))
        contents = {"t": [("a", 1.0), ("b", 2.0), ("c", NumNull("n0")),
                          (BaseNull("b0"), 3.0), ("a", 2.0),
                          ("e", 0.1 + 0.2), ("f", 5.0 - 1e-10),
                          ("g", 5.0 + 1e-10)]}

        def matched(where, backend, kind):
            database = Database.from_dict(schema, contents, backend=backend)
            sql = (f"DELETE FROM t WHERE {where}" if kind == "DELETE"
                   else f"UPDATE t SET x = NULL WHERE {where}")
            sealed, _, outcome = execute_mutation(parse_statement(sql),
                                                  database)
            kept = sealed.relation("t").tuples()
            removed = [row for row in database.relation("t").tuples()
                       if row not in kept]
            assert outcome.deleted == len(removed)
            return removed

        def certain(where, backend):
            database = Database.from_dict(schema, contents, backend=backend)
            return [candidate.values for candidate in enumerate_candidates(
                        parse_sql(f"SELECT * FROM t WHERE {where}"), database)
                    if isinstance(candidate.lineage.formula, TrueFormula)]

        expected = {
            "x = 0.3": [("e", 0.1 + 0.2)],
            "x + 0 = 0.3": [("e", 0.1 + 0.2)],
            "x > 5.0": [],
            "5.0 < x": [],
            "x >= 5.0": [("f", 5.0 - 1e-10), ("g", 5.0 + 1e-10)],
            "x < 5.0": [("a", 1.0), ("b", 2.0), (BaseNull("b0"), 3.0),
                        ("a", 2.0), ("e", 0.1 + 0.2)],
            "x <> 5.0": [("a", 1.0), ("b", 2.0), (BaseNull("b0"), 3.0),
                         ("a", 2.0), ("e", 0.1 + 0.2)],
            "x <= 2": [("a", 1.0), ("b", 2.0), ("a", 2.0), ("e", 0.1 + 0.2)],
            "x + 0 <= 2": [("a", 1.0), ("b", 2.0), ("a", 2.0),
                           ("e", 0.1 + 0.2)],
            "2 >= x": [("a", 1.0), ("b", 2.0), ("a", 2.0), ("e", 0.1 + 0.2)],
            "key = 'a' AND x < 3": [("a", 1.0), ("a", 2.0)],
            "key <> 'a' AND x > 1.5": [("b", 2.0), (BaseNull("b0"), 3.0),
                                       ("f", 5.0 - 1e-10),
                                       ("g", 5.0 + 1e-10)],
            "1 = 1 AND key = 'e'": [("e", 0.1 + 0.2)],
        }
        for backend in ("rows", "columnar"):
            for where, rows in expected.items():
                assert certain(where, backend) == rows, (where, backend)
                for kind in ("DELETE", "UPDATE"):
                    assert matched(where, backend, kind) == rows, \
                        (where, backend, kind)

        unknown = ("nope = 1", "nope = 1 AND key = 'zzz'",
                   "key = 'zzz' AND nope = 1", "x + nope > 0",
                   "t.nope = 1", "'a' = nope")
        for backend in ("rows", "columnar"):
            database = Database.from_dict(schema, contents, backend=backend)
            for where in unknown:
                with pytest.raises(SqlTranslationError):
                    enumerate_candidates(
                        parse_sql(f"SELECT * FROM t WHERE {where}"), database)
                for sql in (f"DELETE FROM t WHERE {where}",
                            f"UPDATE t SET x = 1 WHERE {where}"):
                    with pytest.raises(MutationValidationError):
                        execute_mutation(parse_statement(sql), database)
            assert database.data_version == 0

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
