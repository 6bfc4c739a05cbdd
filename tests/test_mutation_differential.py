"""Versioned differential harness: incremental MVCC path vs full rebuild.

The live data plane claims that mutating a snapshot incrementally --
append segments, deletion rebuilds, delta-maintained join frontiers,
version-keyed caches -- is *observationally identical* to rebuilding the
database from scratch at every version.  This harness proves it the same
way :mod:`tests.test_columnar_differential` proves columnar/rows
equivalence: hundreds of seeded random cases, each a random schema, a
random mutation script (interleaved multi-row INSERTs, predicated
DELETEs and UPDATEs, fresh NULLs) and random queries replayed at *every*
intermediate version against

* the incremental **rows** snapshot chain,
* the incremental **columnar** chain under a persistent
  :class:`~repro.engine.vectorized.FrontierCache` -- advanced past every
  commit, as the service does -- and
* a from-scratch :meth:`~repro.relational.database.Database.from_dict`
  rebuild of the same content (fresh version chain, no caches),

demanding bit-identical candidates, witness order, lineage formulas,
canonical lineage digests (recomputed, and equal to the digest each
lineage carries) -- and, on sampled low-dimensional lineages,
bit-identical certainty estimates, which follow from equal digests
because the Monte-Carlo streams are keyed on them.  Random queries draw
a ``LIMIT`` (in the SQL text or as the ``limit`` argument) and a binding
``max_witnesses``; targeted scripts push a kept key out, let the next one
in, and kill a key's first witness.

Statements that fail (validation, conflict) must fail identically on
every chain and leave every snapshot untouched.

``REPRO_DIFFERENTIAL_CASES`` scales the case count (the nightly job runs
10x the default; developers can scale it down for fast iteration).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.certainty.measure import certainty_from_translation
from repro.datagen.generic import ColumnSpec, TableSpec, generate_database
from repro.constraints.formula import TrueFormula
from repro.datagen.mutations import (
    _COMPARATORS,
    _where_clause,
    random_mutation_script,
)
from repro.engine.candidates import enumerate_candidates
from repro.engine.mutate import execute_mutation
from repro.engine.sql.parser import parse_sql, parse_statement
from repro.engine.translate_sql import SqlTranslationError
from repro.engine.vectorized import FRONTIER_PATHS, FrontierCache
from repro.relational.database import Database
from repro.relational.mutation import MutationError, MutationValidationError
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import NumNull, is_numeric_constant
from repro.service.canonical import canonicalise

#: Default number of random (schema, data, script, query) cases; the
#: acceptance criterion requires at least 200 per run.
DEFAULT_CASES = 200

CASES = int(os.environ.get("REPRO_DIFFERENTIAL_CASES", DEFAULT_CASES))

BASE_POOL = ("red", "green", "blue", "amber")
NULL_RATES = (0.0, 0.1, 0.3)


def _random_case(rng: np.random.Generator):
    """One random (schema, specs, pool, queries) mutation case.

    Tables stay small (2-12 rows): every case replays its queries at
    every version on three engines, so per-version cost is what bounds
    the harness, not per-case cost.
    """
    table_count = int(rng.integers(1, 3)) if rng.random() < 0.9 else 3
    key_pool = tuple(f"k{i}" for i in range(int(rng.integers(2, 6))))
    pool = key_pool + BASE_POOL
    relation_schemas = []
    specs = {}
    for table_index in range(table_count):
        columns = {"key": "base"}
        if rng.random() < 0.3:
            columns["tag"] = "base"
        for numeric_index in range(int(rng.integers(1, 3))):
            columns[f"x{numeric_index}"] = "num"
        relation_schema = RelationSchema.of(f"T{table_index}", **columns)
        relation_schemas.append(relation_schema)
        column_specs = {}
        for attribute in relation_schema.attributes:
            null_rate = float(rng.choice(NULL_RATES))
            if attribute.name == "key":
                column_specs["key"] = ColumnSpec(
                    choices=key_pool, null_rate=min(null_rate, 0.1))
            elif attribute.name == "tag":
                column_specs["tag"] = ColumnSpec(choices=BASE_POOL,
                                                 null_rate=null_rate)
            else:
                low = float(rng.uniform(-5.0, 0.0))
                column_specs[attribute.name] = ColumnSpec(
                    uniform=(low, low + float(rng.uniform(1.0, 10.0))),
                    null_rate=null_rate)
        specs[relation_schema.name] = TableSpec(
            rows=int(rng.integers(2, 13)), columns=column_specs)
    schema = DatabaseSchema.of(*relation_schemas)

    # -- queries replayed at every version -----------------------------------
    queries = []
    # A single-table filter always rides along: it exercises the
    # append-only frontier fast path most often.
    table = f"T{int(rng.integers(0, table_count))}"
    numeric = [a.name for a in schema.relation(table).attributes
               if a.is_numeric]
    operator = str(rng.choice(("<", "<=", ">", ">=")))
    bound = f"{float(rng.uniform(-3.0, 5.0)):.3f}"
    queries.append(_truncated(rng, (
        f"SELECT * FROM {table} "
        f"WHERE {table}.{rng.choice(numeric)} {operator} {bound}",
        bool(rng.random() < 0.7))))
    if table_count > 1:
        # And a join, so delta-join telescoping faces every script.
        left, right = "T0", f"T{int(rng.integers(1, table_count))}"
        right_numeric = [a.name for a in schema.relation(right).attributes
                         if a.is_numeric]
        sql = (f"SELECT A.key, B.{rng.choice(right_numeric)} "
               f"FROM {left} A, {right} B WHERE A.key = B.key")
        if rng.random() < 0.5:
            left_numeric = [a.name for a in schema.relation(left).attributes
                            if a.is_numeric]
            sql += (f" AND A.{rng.choice(left_numeric)} "
                    f"{rng.choice(('<', '>'))} "
                    f"{float(rng.uniform(-2.0, 4.0)):.3f}")
        queries.append(_truncated(rng, (sql, bool(rng.random() < 0.7))))
    return schema, specs, pool, queries


def _truncated(rng: np.random.Generator, query: tuple) -> tuple:
    """``(sql, grouped)`` with a drawn ``LIMIT`` -- in the SQL text or as
    the ``limit`` argument -- and witness cap: ``(sql, grouped, limit,
    max_witnesses)``.  Small caps bind on these small tables."""
    sql, grouped = query
    limit = None
    if rng.random() < 0.5:
        limit = int(rng.integers(0, 5))
        if rng.random() < 0.5:
            sql, limit = f"{sql} LIMIT {limit}", None
    cap = int(rng.integers(1, 12)) if rng.random() < 0.3 else 4000
    return sql, grouped, limit, cap


#: Conditions the SELECT engine rejects once a row reaches them.
_MALFORMED_CONDITIONS = ("nope = 1", "key < 'k0'", "key + 1 > 0")


def _stored_value_condition(rng: np.random.Generator, database: Database,
                            table: str) -> str:
    """``column op literal`` with a literal built from a value the numeric
    column stores: exact, 5e-10 above or below, or a two-term sum."""
    relation = database.relation(table)
    column = str(rng.choice([attribute.name for attribute
                             in relation.schema.attributes
                             if attribute.is_numeric]))
    values = [float(value) for value in relation.column(column)
              if is_numeric_constant(value)] or [0.1 + 0.2]
    value = values[int(rng.integers(0, len(values)))]
    form = int(rng.integers(0, 4))
    if form == 0:
        literal = repr(value)
    elif form == 1:
        literal = repr(value + 5e-10)
    elif form == 2:
        literal = repr(value - 5e-10)
    else:
        head = round(value, 1)
        literal = f"{head!r} + {value - head!r}"
    return f"{column} {rng.choice(_COMPARATORS)} {literal}"


def _rebuild_from_scratch(database: Database, backend: str) -> Database:
    """The same content on a fresh version chain with no caches."""
    return Database.from_dict(
        database.schema,
        {name: database.relation(name).tuples()
         for name in database.relation_names()},
        backend=backend)


def _assert_equal(context: str, reference, candidate) -> None:
    assert len(reference) == len(candidate), context
    for expected, actual in zip(reference, candidate):
        assert expected.values == actual.values, context
        assert expected.columns == actual.columns, context
        assert expected.witnesses == actual.witnesses, context
        assert expected.lineage.formula == actual.lineage.formula, context
        assert _digest(context, expected.lineage) == \
            _digest(context, actual.lineage), context


def _compare(context: str, select, rows_chain: Database,
             columnar_chain: Database, frontier_cache: FrontierCache,
             **options) -> tuple[list, list, str]:
    """One query at one version on all three chains, checked equal;
    returns the reference and columnar candidates and the columnar
    frontier path."""
    reference = enumerate_candidates(
        select, _rebuild_from_scratch(rows_chain, "rows"), **options)
    incremental_rows = enumerate_candidates(select, rows_chain, **options)
    sink: dict = {}
    incremental_columnar = enumerate_candidates(
        select, columnar_chain, frontier_stats=sink,
        frontier_cache=frontier_cache, **options)
    # Every columnar enumeration goes through the cache and names the
    # frontier path it took.
    assert sink["frontier"] in FRONTIER_PATHS, context
    _assert_equal(context, reference, incremental_rows)
    _assert_equal(context, reference, incremental_columnar)
    return reference, incremental_columnar, sink["frontier"]


def _commit(statement: str, rows_chain: Database, columnar_chain: Database,
            frontier_cache: FrontierCache) -> tuple[Database, Database]:
    """Apply one statement to both chains, advancing the frontier cache
    past it as the service does."""
    rows_chain, _, rows_outcome = execute_mutation(
        parse_statement(statement), rows_chain)
    parent = columnar_chain
    columnar_chain, deltas, columnar_outcome = execute_mutation(
        parse_statement(statement), parent)
    frontier_cache.advance(parent, columnar_chain, deltas)
    assert rows_outcome == columnar_outcome, statement
    return rows_chain, columnar_chain


def _digest(context: str, lineage) -> bytes:
    """The lineage's canonical digest, recomputed from its formula; the
    digest the lineage carries (reused across commits on the columnar
    chain) must equal it."""
    digest = canonicalise(lineage.formula, lineage.relevant_variables).digest
    assert lineage.digest == digest, context
    return digest


class TestMutationDifferential:
    def test_random_scripts_agree(self):
        """Incremental chains match from-scratch rebuilds at every version."""
        rng = np.random.default_rng(20200815)
        annotated = 0
        statements_applied = 0
        statements_rejected = 0
        frontier_paths: dict[str, int] = {}
        for case_index in range(CASES):
            schema, specs, pool, queries = _random_case(rng)
            seed = int(rng.integers(0, 2**31))
            rows_chain = generate_database(schema, specs, rng=seed)
            columnar_chain = rows_chain.with_backend("columnar")
            frontier_cache = FrontierCache()
            script = random_mutation_script(
                rng, schema, pool, statements=int(rng.integers(2, 6)))
            selects = [(parse_sql(sql), sql, grouped, limit, cap)
                       for sql, grouped, limit, cap in queries]

            for step in range(len(script) + 1):
                for select, sql, grouped, limit, cap in selects:
                    context = (f"case {case_index} step {step}: {sql!r} "
                               f"limit={limit} cap={cap}")
                    reference, columnar, path = _compare(
                        context, select, rows_chain, columnar_chain,
                        frontier_cache, group_witnesses=grouped,
                        limit=limit, max_witnesses=cap)
                    frontier_paths[path] = frontier_paths.get(path, 0) + 1

                    # Bit-identical certainties follow from equal digests
                    # (the Monte-Carlo stream is keyed on them); spot-check
                    # on low-dimensional lineages to keep the harness fast.
                    for expected, actual in zip(reference, columnar):
                        if annotated >= 2 * (case_index + 1):
                            break
                        if len(expected.lineage.relevant_variables) > 3:
                            continue
                        first = certainty_from_translation(
                            expected.lineage, epsilon=0.3, method="afpras",
                            rng=seed)
                        second = certainty_from_translation(
                            actual.lineage, epsilon=0.3, method="afpras",
                            rng=seed)
                        assert first.value == second.value, context
                        annotated += 1

                if step == len(script):
                    break
                statement = parse_statement(script[step])
                try:
                    rows_chain, _, rows_outcome = execute_mutation(
                        statement, rows_chain)
                except MutationError as error:
                    # The same statement must fail the same way on the
                    # columnar chain, leaving both snapshots untouched.
                    with pytest.raises(type(error)):
                        execute_mutation(statement, columnar_chain)
                    statements_rejected += 1
                    continue
                parent = columnar_chain
                columnar_chain, deltas, columnar_outcome = execute_mutation(
                    statement, parent)
                frontier_cache.advance(parent, columnar_chain, deltas)
                assert rows_outcome == columnar_outcome, \
                    f"case {case_index} step {step}: {script[step]!r}"
                assert rows_chain.data_version == \
                    columnar_chain.data_version
                statements_applied += 1

        assert annotated > 0
        assert statements_applied > 0
        # Frontiers carried past a delete were served and checked: an
        # admission or maintenance change cannot quietly drop the coverage.
        assert frontier_paths.get("advanced", 0) > 0, frontier_paths
        # The generator is biased toward applicable statements; rejections
        # ride along (conflicts on duplicate inserts mostly) but must not
        # dominate the script mix.
        assert statements_applied > statements_rejected

    def test_where_matches_what_select_calls_certain(self):
        """A DELETE removes exactly the rows ``SELECT *`` with its WHERE
        gives a ``TrueFormula`` lineage, on both storage layouts, and
        raises exactly when that SELECT raises.

        The random WHERE comes from the script generator; the harness adds
        conditions against values the table stores (exact, 5e-10 off, or
        a two-term sum that rounds near it: the ``EVALUATION_EPS`` and
        ``COEFFICIENT_EPS`` edges of the constant fold) and, now and then,
        a malformed one (unknown column, base-typed order comparison or
        arithmetic), placed anywhere in the conjunction.
        """
        rng = np.random.default_rng(20201019)
        matched = raised = 0
        for case_index in range(CASES):
            schema, specs, pool, _ = _random_case(rng)
            database = generate_database(schema, specs,
                                         rng=int(rng.integers(0, 2**31)))
            table = str(rng.choice(schema.names()))
            where = _where_clause(rng, schema.relation(table), pool)
            conditions = where[len(" WHERE "):].split(" AND ") if where else []
            for _ in range(int(rng.integers(0, 3))):
                conditions.insert(int(rng.integers(0, len(conditions) + 1)),
                                  _stored_value_condition(rng, database, table))
            if rng.random() < 0.15:
                conditions.insert(int(rng.integers(0, len(conditions) + 1)),
                                  str(rng.choice(_MALFORMED_CONDITIONS)))
            where = " WHERE " + " AND ".join(conditions) if conditions else ""
            for backend in ("rows", "columnar"):
                snapshot = database.with_backend(backend)
                context = f"case {case_index} {backend}: {where!r}"
                try:
                    certain = [
                        candidate.values for candidate in enumerate_candidates(
                            parse_sql(f"SELECT * FROM {table}{where}"),
                            snapshot)
                        if isinstance(candidate.lineage.formula, TrueFormula)]
                except SqlTranslationError:
                    certain = None
                try:
                    sealed, _, outcome = execute_mutation(
                        parse_statement(f"DELETE FROM {table}{where}"),
                        snapshot)
                except MutationValidationError:
                    assert certain is None, context
                    raised += 1
                    continue
                assert certain is not None, context
                kept = set(sealed.relation(table).tuples())
                removed = [row for row in snapshot.relation(table).tuples()
                           if row not in kept]
                assert removed == certain, context
                assert outcome.deleted == len(removed), context
                matched += bool(removed)
        assert matched > 0 and raised > 0

    def test_limit_and_cap_across_targeted_writes(self):
        """Writes that move the ``LIMIT`` boundary, replayed on all three
        chains under every LIMIT, cap and grouping.

        Witnesses run in ``A`` row order, so ``B`` rows joining ``A``'s
        first row come first whatever their own position: the INSERT of
        ``z`` pushes the second kept key ``q`` out, ``d``'s first witness
        divides a null by zero (its residual folds false) while its second
        is live, and the DELETE of ``p`` lets the next key in.  Kept keys
        have witnesses past the LIMIT boundary and past a binding cap."""
        schema = DatabaseSchema.of(
            RelationSchema.of("A", key="base", x="num"),
            RelationSchema.of("B", key="base", tag="base", y="num", w="num"))
        content = {
            "A": [("k1", 5.0), ("k2", 5.0)],
            "B": [("k1", "p", 1.0, 1.0), ("k2", "q", NumNull("n0"), 1.0),
                  ("k2", "r", 2.0, 1.0), ("k2", "z", 4.0, 1.0),
                  ("k2", "p", 3.0, 1.0)],
        }
        script = ["INSERT INTO B VALUES ('k1', 'z', NULL, 1.0)",
                  "INSERT INTO B VALUES ('k1', 'd', NULL, 0.0), "
                  "('k2', 'd', NULL, 1.0)",
                  "DELETE FROM B WHERE tag = 'p'",
                  "DELETE FROM B WHERE tag = 'z'"]
        select = parse_sql("SELECT B.tag FROM A, B WHERE A.key = B.key "
                           "AND B.y / B.w < A.x")
        rows_chain = Database.from_dict(schema, content, backend="rows")
        columnar_chain = rows_chain.with_backend("columnar")
        frontier_cache = FrontierCache()
        kept: list = []  # the LIMIT 2 keys, per version
        paths = set()
        for step in range(len(script) + 1):
            for grouped in (True, False):
                for limit in (None, 1, 2, 3):
                    for cap in (2, 3, 4000):
                        context = (f"step {step} grouped={grouped} "
                                   f"limit={limit} cap={cap}")
                        reference, _, path = _compare(
                            context, select, rows_chain, columnar_chain,
                            frontier_cache, group_witnesses=grouped,
                            limit=limit, max_witnesses=cap)
                        paths.add(path)
                        if grouped and limit == 2 and cap == 4000:
                            kept.append([answer.values[0]
                                         for answer in reference])
                        if grouped and limit is None and cap == 4000 \
                                and step == 2:
                            # Only ``d``'s live witness counts.
                            assert {answer.values[0]: answer.witnesses
                                    for answer in reference}["d"] == 1
            if step < len(script):
                rows_chain, columnar_chain = _commit(
                    script[step], rows_chain, columnar_chain, frontier_cache)
        assert kept == [["p", "q"], ["p", "z"], ["p", "z"], ["z", "q"],
                        ["q", "r"]]
        assert {"appended", "advanced"} <= paths

    def test_case_count_meets_floor(self):
        """Default and nightly runs cover the 200-case acceptance floor."""
        if "REPRO_DIFFERENTIAL_CASES" in os.environ and CASES < 200:
            pytest.skip(f"case count deliberately scaled down to {CASES}")
        assert CASES >= 200

    def test_rebuild_starts_a_fresh_chain(self):
        """A rebuilt database never satisfies the incremental caches."""
        schema = DatabaseSchema.of(RelationSchema.of("t", key="base",
                                                     x="num"))
        database = Database.from_dict(
            schema, {"t": [("a", 1.0), ("b", 2.0)]}, backend="columnar")
        rebuilt = _rebuild_from_scratch(database, "columnar")
        assert rebuilt.version_token is not database.version_token
        assert rebuilt.data_version == 0
        assert database.relation("t").tuples() == \
            rebuilt.relation("t").tuples()
