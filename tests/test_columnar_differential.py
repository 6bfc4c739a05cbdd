"""Property-based differential harness: columnar engine vs the row oracle.

The vectorized columnar engine (:mod:`repro.engine.vectorized`) promises to
be *observationally identical* to the row-at-a-time reference path of
:mod:`repro.engine.candidates`: same candidate tuples, in the same
first-witness order, with the same witness counts and the same lineage
formulas -- and therefore bit-identical annotated probabilities at a fixed
seed, because the Monte-Carlo streams are keyed by the canonical lineage
digest.

This harness generates hundreds of random (schema, data, query) cases
through :mod:`repro.datagen` -- random table shapes, shared key pools so
joins actually hit, random null rates, random conjunctive queries with
arithmetic, division, base filters, LIMIT and both witness semantics -- and
checks every one of those promises case by case.  Set the
``REPRO_DIFFERENTIAL_CASES`` environment variable to scale the case count
(the nightly CI profile job runs 10x the default).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.certainty.measure import certainty_from_translation
from repro.datagen.generic import ColumnSpec, TableSpec, generate_database
from repro.engine.candidates import enumerate_candidates
from repro.engine.sql.parser import parse_sql
from repro.engine.vectorized import FRONTIER_PATHS
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.service.canonical import canonicalise_lineage

#: Default number of random (schema, data, query) cases; the acceptance
#: criterion requires at least 200 per run.
DEFAULT_CASES = 200

CASES = int(os.environ.get("REPRO_DIFFERENTIAL_CASES", DEFAULT_CASES))

BASE_POOL = ("red", "green", "blue", "amber")
NULL_RATES = (0.0, 0.1, 0.35)
OPERATORS = ("=", "<>", "<", "<=", ">", ">=")


def _random_case(rng: np.random.Generator):
    """One random (schema, specs, sql, limit, group_witnesses) case."""
    table_count = int(rng.integers(1, 4))
    relation_schemas = []
    specs = {}
    key_pool = tuple(f"k{i}" for i in range(int(rng.integers(2, 8))))
    for table_index in range(table_count):
        numeric_count = int(rng.integers(1, 4))
        columns = {"key": "base"}
        if rng.random() < 0.4:
            columns["tag"] = "base"
        for numeric_index in range(numeric_count):
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
            rows=int(rng.integers(2, 26)), columns=column_specs)
    schema = DatabaseSchema.of(*relation_schemas)

    # -- query over a random subset of the tables ---------------------------
    query_tables = list(rng.permutation(table_count))[:int(rng.integers(1, table_count + 1))]
    bindings = [chr(ord("A") + position) for position in range(len(query_tables))]
    from_clause = ", ".join(f"T{table} {binding}"
                            for table, binding in zip(query_tables, bindings))
    conditions = []
    for position in range(1, len(bindings)):
        if rng.random() < 0.85:
            other = bindings[int(rng.integers(0, position))]
            conditions.append(f"{other}.key = {bindings[position]}.key")

    def numeric_column(binding_index: int) -> str:
        table_schema = relation_schemas[query_tables[binding_index]]
        names = [attribute.name for attribute in table_schema.attributes
                 if attribute.is_numeric]
        return f"{bindings[binding_index]}.{rng.choice(names)}"

    for _ in range(int(rng.integers(0, 4))):
        operator = str(rng.choice(OPERATORS))
        kind = rng.random()
        left_binding = int(rng.integers(0, len(bindings)))
        if kind < 0.3:  # column vs literal
            literal = f"{float(rng.uniform(-5.0, 5.0)):.3f}"
            conditions.append(f"{numeric_column(left_binding)} {operator} {literal}")
        elif kind < 0.55:  # column vs column
            right_binding = int(rng.integers(0, len(bindings)))
            conditions.append(
                f"{numeric_column(left_binding)} {operator} {numeric_column(right_binding)}")
        elif kind < 0.75:  # arithmetic
            right_binding = int(rng.integers(0, len(bindings)))
            arithmetic = str(rng.choice(("+", "-", "*")))
            literal = f"{float(rng.uniform(-3.0, 3.0)):.3f}"
            conditions.append(
                f"{numeric_column(left_binding)} {arithmetic} "
                f"{numeric_column(right_binding)} {operator} {literal}")
        elif kind < 0.9:  # division (exercises the denominator case split)
            right_binding = int(rng.integers(0, len(bindings)))
            literal = f"{float(rng.uniform(-2.0, 2.0)):.3f}"
            conditions.append(
                f"{numeric_column(left_binding)} / "
                f"{numeric_column(right_binding)} {operator} {literal}")
        else:  # base filter
            value = str(rng.choice(BASE_POOL + key_pool))
            base_operator = "=" if rng.random() < 0.5 else "<>"
            conditions.append(f"{bindings[left_binding]}.key {base_operator} '{value}'")

    if rng.random() < 0.5:
        projected = f"{bindings[0]}.key"
        if len(bindings) > 1 and rng.random() < 0.5:
            projected += f", {numeric_column(len(bindings) - 1)}"
        select_clause = projected
    else:
        select_clause = "*"
    sql = f"SELECT {select_clause} FROM {from_clause}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    limit = None
    if rng.random() < 0.3:
        limit = int(rng.integers(1, 8))
        sql += f" LIMIT {limit}"
    group_witnesses = bool(rng.random() < 0.7)
    return schema, specs, sql, group_witnesses


def _assert_case_equal(case_index: int, sql: str, reference, columnar) -> None:
    context = f"case {case_index}: {sql!r}"
    assert len(reference) == len(columnar), context
    for expected, actual in zip(reference, columnar):
        assert expected.values == actual.values, context
        assert expected.columns == actual.columns, context
        assert expected.witnesses == actual.witnesses, context
        # Strong form: the very same formula object graph ...
        assert expected.lineage.formula == actual.lineage.formula, context
        assert expected.lineage.relevant_variables == \
            actual.lineage.relevant_variables, context
        # ... and the acceptance-criterion form: equal canonical lineage.
        assert canonicalise_lineage(expected.lineage).digest == \
            canonicalise_lineage(actual.lineage).digest, context


class TestColumnarDifferential:
    def test_random_cases_agree(self):
        """Candidates, order, witnesses and lineage agree on random cases."""
        rng = np.random.default_rng(20200614)
        annotated = 0
        for case_index in range(CASES):
            schema, specs, sql, group_witnesses = _random_case(rng)
            seed = int(rng.integers(0, 2**31))
            database = generate_database(schema, specs, rng=seed)
            columnar_database = database.with_backend("columnar")
            select = parse_sql(sql)
            # The witness cap keeps pathological cartesian cases bounded; it
            # is part of the contract under test, so both engines get it.
            reference = enumerate_candidates(select, database,
                                             group_witnesses=group_witnesses,
                                             max_witnesses=4000)
            sink: dict = {}
            columnar = enumerate_candidates(select, columnar_database,
                                            group_witnesses=group_witnesses,
                                            max_witnesses=4000,
                                            frontier_stats=sink)
            assert sink["frontier"] in FRONTIER_PATHS, f"case {case_index}"
            _assert_case_equal(case_index, sql, reference, columnar)

            # Bit-identical probabilities: the estimate is a pure function of
            # (canonical lineage digest, seed, epsilon, method), so equal
            # lineage must annotate to the exact same float.  Sampled on the
            # low-dimensional candidates to keep the harness fast.
            for expected, actual in zip(reference, columnar):
                if annotated >= 4 * (case_index + 1):
                    break
                if len(expected.lineage.relevant_variables) > 3:
                    continue
                first = certainty_from_translation(
                    expected.lineage, epsilon=0.3, method="afpras", rng=seed)
                second = certainty_from_translation(
                    actual.lineage, epsilon=0.3, method="afpras", rng=seed)
                assert first.value == second.value, f"case {case_index}: {sql!r}"
                annotated += 1
        assert annotated > 0

    def test_case_count_meets_floor(self):
        """Default and nightly runs cover the acceptance criterion's 200 cases.

        ``REPRO_DIFFERENTIAL_CASES`` exists so developers can scale the
        harness *down* for fast local iteration too; a deliberately reduced
        run skips the floor check instead of going red.
        """
        if "REPRO_DIFFERENTIAL_CASES" in os.environ and CASES < 200:
            pytest.skip(f"case count deliberately scaled down to {CASES}")
        assert CASES >= 200

    def test_generated_columnar_database_round_trips(self):
        """Columnar generation -> rows -> columnar preserves content."""
        rng = np.random.default_rng(7)
        schema, specs, _, _ = _random_case(rng)
        database = generate_database(schema, specs, rng=3, backend="columnar")
        assert database.backend == "columnar"
        rows = database.with_backend("rows")
        back = rows.with_backend("columnar")
        for name in database.relation_names():
            assert database.relation(name).tuples() == back.relation(name).tuples()
        assert database.num_nulls() == rows.num_nulls() == back.num_nulls()
        assert database.base_constants() == rows.base_constants()
        assert database.num_constants() == rows.num_constants()

    @pytest.mark.parametrize("group_witnesses", [True, False])
    def test_bag_and_set_limits_agree(self, group_witnesses):
        """LIMIT truncation picks the same prefix under both backends."""
        rng = np.random.default_rng(99)
        for _ in range(10):
            schema, specs, sql, _ = _random_case(rng)
            database = generate_database(schema, specs, rng=11)
            columnar_database = database.with_backend("columnar")
            select = parse_sql(sql)
            for limit in (1, 3):
                reference = enumerate_candidates(
                    select, database, limit=limit, group_witnesses=group_witnesses)
                columnar = enumerate_candidates(
                    select, columnar_database, limit=limit,
                    group_witnesses=group_witnesses)
                _assert_case_equal(-1, sql, reference, columnar)

    def test_max_witnesses_cap_agrees(self):
        """The witness cap truncates the same DFS prefix on both engines."""
        rng = np.random.default_rng(123)
        for _ in range(10):
            schema, specs, sql, group_witnesses = _random_case(rng)
            database = generate_database(schema, specs, rng=5)
            columnar_database = database.with_backend("columnar")
            select = parse_sql(sql)
            for cap in (1, 7, 50):
                reference = enumerate_candidates(
                    select, database, max_witnesses=cap,
                    group_witnesses=group_witnesses)
                columnar = enumerate_candidates(
                    select, columnar_database, max_witnesses=cap,
                    group_witnesses=group_witnesses)
                _assert_case_equal(-1, sql, reference, columnar)
