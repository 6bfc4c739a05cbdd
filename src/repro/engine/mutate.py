"""Execute parsed mutation statements against a database snapshot.

This is the bridge between the SQL surface (:mod:`repro.engine.sql`) and
the MVCC storage layer (:mod:`repro.relational.mutation`): it turns an
``InsertStatement``/``DeleteStatement``/``UpdateStatement`` into staged
row operations on a :class:`Mutation` and commits them atomically --
either the whole statement applies and a new snapshot version is sealed,
or a typed error is raised and the parent snapshot is untouched.

Two semantics decisions worth stating:

**Three-valued WHERE.**  Rows may carry marked nulls, so a predicate can
be certainly true, certainly false, or unknown.  A mutation's WHERE
matches a row exactly when ``SELECT * FROM t WHERE ...`` would call the
row certain (its lineage is ``TrueFormula``): deleting a row whose
membership in the predicate depends on a null's valuation would silently
pick one possible world, which is exactly what this engine exists to
avoid.  Unknown rows are left in place.  Matching runs the SELECT
engine's own single-table selection pushdown -- the row oracle on rows
storage, the vectorized evaluator on columnar storage -- so a statement
and its SELECT cannot disagree on a row, and a WHERE the SELECT rejects
(an unknown column, an order comparison on base values) rejects the
statement with a :class:`MutationValidationError`.

**Deterministic fresh nulls.**  ``NULL`` in a VALUES row or SET
assignment creates a *fresh* marked null named ``m<V>_<k>`` where ``V``
is the version the statement commits (parent ``data_version + 1``) and
``k`` counts NULL evaluations in execution order within the statement.
The ``m`` prefix keeps the namespace disjoint from generated data
(:class:`~repro.relational.values.NullFactory` uses ``n``), and the
naming is a pure function of (snapshot, statement), which is what lets
the versioned differential harness replay a mutation script against a
from-scratch rebuild and demand bit-identical lineage digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.candidates import (
    _ConditionCompiler,
    _local_conditions,
    _order_conditions,
    _prefilter_rows,
    _Row,
)
from repro.engine.sql.ast import (
    BinaryExpression,
    ColumnExpression,
    DeleteStatement,
    Expression,
    InsertStatement,
    NullLiteral,
    NumberLiteral,
    SelectQuery,
    StringLiteral,
    TableReference,
    UpdateStatement,
)
from repro.engine.translate_sql import SqlTranslationError
from repro.engine.vectorized import _apply_conditions, _VectorizedEvaluator
from repro.relational.mutation import MutationValidationError
from repro.relational.values import (
    BaseNull,
    NumNull,
    Value,
    is_base_null,
    is_num_null,
    is_numeric_constant,
)

__all__ = ["MutationOutcome", "execute_mutation"]

#: Prefix of fresh nulls minted by SQL ``NULL`` -- disjoint from the
#: datagen :class:`NullFactory` prefix (``n``) so replays cannot collide
#: with generated data.
FRESH_NULL_PREFIX = "m"


@dataclass(frozen=True)
class MutationOutcome:
    """What one committed mutation statement did, for the wire response."""

    operation: str  # "insert" | "delete" | "update"
    table: str
    inserted: int
    deleted: int
    data_version: int

    def as_dict(self) -> dict:
        return {
            "operation": self.operation,
            "table": self.table,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "data_version": self.data_version,
        }


class _FreshNulls:
    """Mints the statement's fresh nulls in deterministic execution order."""

    def __init__(self, version: int) -> None:
        self._version = version
        self._ordinal = 0

    def next(self, numeric: bool) -> Value:
        name = f"{FRESH_NULL_PREFIX}{self._version}_{self._ordinal}"
        self._ordinal += 1
        return NumNull(name) if numeric else BaseNull(name)


def _single_table_compiler(database, table: str,
                           conditions=()) -> _ConditionCompiler:
    """A condition compiler for ``SELECT * FROM table WHERE conditions``."""
    select = SelectQuery(select=(), select_star=True,
                         tables=(TableReference(table=table),),
                         conditions=conditions)
    return _ConditionCompiler(database, select)


def _matching_rows(database, table: str, conditions) -> list[int]:
    """Indices of the rows ``SELECT * FROM table WHERE conditions`` calls
    certain: those that survive its selection pushdown with no residual.

    Evaluated against the parent snapshot: a DELETE/UPDATE sees the
    table as it was before the statement, never its own effects.
    """
    try:
        compiler = _single_table_compiler(database, table, conditions)
        select = compiler._select
        # SELECT pushes the single-table conditions below its join and
        # checks the constant ones (no column) at its first join step.
        conditions = (_local_conditions(select, compiler)[0]
                      + _order_conditions(select, compiler)[0])
        relation = database.relation(table)
        if database.backend == "columnar":
            residuals = [()] * len(relation)
            alive = _apply_conditions(
                conditions, _VectorizedEvaluator(database, compiler), compiler,
                {table: np.arange(len(relation), dtype=np.int64)}, residuals,
                compiler.condition_bindings)
            return [index for index in np.flatnonzero(alive).tolist()
                    if not residuals[index]]
        return [index for index, residual in _prefilter_rows(
                    table, relation.tuples(), conditions, compiler)
                if not residual]
    except SqlTranslationError as error:
        raise MutationValidationError(str(error)) from error


def _literal_value(expression: Expression, numeric: bool,
                   nulls: _FreshNulls) -> Value:
    """The stored value of one VALUES literal for a column of given type."""
    if isinstance(expression, NullLiteral):
        return nulls.next(numeric)
    if isinstance(expression, NumberLiteral):
        return expression.value
    if isinstance(expression, StringLiteral):
        return expression.value
    raise MutationValidationError(
        f"unsupported literal {expression!r} in VALUES")


def _assignment_value(expression: Expression, numeric: bool,
                      compiler: _ConditionCompiler, row: _Row,
                      nulls: _FreshNulls) -> Value:
    """Evaluate one SET expression over the row being updated.

    Column references read the *old* row; arithmetic folds over numeric
    constants only -- an expression whose operand is a marked null has no
    storable value (it would be a symbolic term), so it is rejected.
    Copying a null verbatim (``SET a = b``) is allowed.
    """
    if isinstance(expression, NullLiteral):
        return nulls.next(numeric)
    if isinstance(expression, NumberLiteral):
        return expression.value
    if isinstance(expression, StringLiteral):
        return expression.value
    if isinstance(expression, ColumnExpression):
        try:
            binding, column = compiler.resolve_binding(expression)
        except SqlTranslationError as error:
            raise MutationValidationError(str(error)) from error
        return compiler.column_value(row, binding, column)
    if isinstance(expression, BinaryExpression):
        left = _assignment_value(expression.left, numeric, compiler, row, nulls)
        right = _assignment_value(expression.right, numeric, compiler, row, nulls)
        if is_base_null(left) or is_num_null(left) or \
                is_base_null(right) or is_num_null(right):
            raise MutationValidationError(
                f"arithmetic over a marked null in {expression!r} has no "
                "storable value")
        if not (is_numeric_constant(left) and is_numeric_constant(right)):
            raise MutationValidationError(
                f"arithmetic over non-numeric values in {expression!r}")
        left_number = float(left)
        right_number = float(right)
        if expression.operator == "+":
            return left_number + right_number
        if expression.operator == "-":
            return left_number - right_number
        if expression.operator == "*":
            return left_number * right_number
        if expression.operator == "/":
            if right_number == 0.0:
                raise MutationValidationError(
                    f"division by zero in {expression!r}")
            return left_number / right_number
        raise MutationValidationError(
            f"unsupported operator {expression.operator!r} in {expression!r}")
    raise MutationValidationError(f"unsupported expression {expression!r}")


def execute_mutation(statement, database):
    """Apply one parsed mutation statement to a snapshot, atomically.

    Returns ``(new_database, deltas, outcome)`` where ``deltas`` is the
    ``{table: TableDelta}`` of :meth:`Mutation.commit` and ``outcome``
    summarises the statement for the wire response.  Raises
    :class:`MutationValidationError` / :class:`MutationConflictError`
    without touching ``database`` on any failure -- staging is validated
    eagerly and commit happens only after every row operation succeeded.
    """
    nulls = _FreshNulls(database.data_version + 1)
    mutation = database.begin_mutation()
    if isinstance(statement, InsertStatement):
        schema = _table_schema(database, statement.table)
        for row in statement.rows:
            if len(row) != len(schema.attributes):
                raise MutationValidationError(
                    f"INSERT row has {len(row)} values, "
                    f"{statement.table!r} has {len(schema.attributes)} columns")
            values = tuple(
                _literal_value(expression, attribute.is_numeric, nulls)
                for expression, attribute in zip(row, schema.attributes))
            mutation.insert(statement.table, values)
        operation = "insert"
    elif isinstance(statement, DeleteStatement):
        _table_schema(database, statement.table)
        for index in _matching_rows(database, statement.table,
                                    statement.conditions):
            mutation.delete(statement.table, index)
        operation = "delete"
    elif isinstance(statement, UpdateStatement):
        schema = _table_schema(database, statement.table)
        positions = {attribute.name: position
                     for position, attribute in enumerate(schema.attributes)}
        for assignment in statement.assignments:
            if assignment.column not in positions:
                raise MutationValidationError(
                    f"unknown column {assignment.column!r} in "
                    f"{statement.table!r}")
        matched = _matching_rows(database, statement.table,
                                 statement.conditions)
        compiler = _single_table_compiler(database, statement.table)
        relation = database.relation(statement.table)
        for index in matched:
            old_values = relation.row(index)
            row = _Row(tuples={statement.table: old_values})
            new_values = list(old_values)
            for assignment in statement.assignments:
                position = positions[assignment.column]
                numeric = schema.attributes[position].is_numeric
                new_values[position] = _assignment_value(
                    assignment.value, numeric, compiler, row, nulls)
            mutation.update(statement.table, index, new_values)
        operation = "update"
    else:
        raise MutationValidationError(
            f"not a mutation statement: {type(statement).__name__}")

    counts = mutation.staged_counts().get(statement.table, (0, 0))
    new_database, deltas = mutation.commit()
    outcome = MutationOutcome(
        operation=operation,
        table=statement.table,
        inserted=counts[0],
        deleted=counts[1],
        data_version=new_database.data_version,
    )
    return new_database, deltas, outcome


def _table_schema(database, table: str):
    if table not in database.relation_names():
        raise MutationValidationError(f"unknown relation {table!r}")
    return database.relation_schema(table)
