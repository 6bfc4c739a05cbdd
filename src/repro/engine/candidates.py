"""Candidate-answer enumeration with per-candidate lineage.

The engine evaluates a conjunctive SELECT query directly over the incomplete
database: it joins the FROM tables (hash joins on base-equality predicates,
nested loops otherwise) and keeps a witness whenever no predicate is
*certainly* false.  Predicates whose truth depends on numerical nulls are
recorded symbolically; the disjunction over all witnesses of a given output
tuple is exactly the constraint formula ``phi_{q,D,a,s}`` of Proposition 5.3
specialised to conjunctive queries (up to measure-zero differences), i.e.
the candidate's *lineage*.  Base-type nulls are compared under the bijective
valuation view of Proposition 5.2: a base null equals only itself.

This is the "compact representation of the formulae phi" that the paper's
experimental pipeline extracts from Postgres, rebuilt on our own engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.constraints.formula import (
    ConstraintFormula,
    FalseFormula,
    TrueFormula,
    conjunction,
    disjunction,
)
from repro.constraints.polynomials import Polynomial
from repro.constraints.translate import (
    RationalTerm,
    TranslationResult,
    _comparison_formula,
)
from repro.engine.sql.ast import (
    BinaryExpression,
    ColumnExpression,
    Condition,
    Expression,
    NumberLiteral,
    SelectQuery,
    StringLiteral,
)
from repro.engine.translate_sql import SqlTranslationError
from repro.logic.formulas import ComparisonOperator
from repro.relational.database import Database
from repro.relational.values import Value, is_base_null, is_num_null, is_numeric_constant

_SQL_TO_COMPARISON = {
    "=": ComparisonOperator.EQ,
    "<>": ComparisonOperator.NE,
    "!=": ComparisonOperator.NE,
    "<": ComparisonOperator.LT,
    "<=": ComparisonOperator.LE,
    ">": ComparisonOperator.GT,
    ">=": ComparisonOperator.GE,
}


@dataclass(frozen=True)
class CandidateAnswer:
    """One candidate output tuple together with its lineage."""

    values: tuple[Value, ...]
    columns: tuple[str, ...]
    lineage: TranslationResult
    witnesses: int

    def as_dict(self) -> dict[str, Value]:
        """The candidate as a ``{column label: value}`` mapping."""
        return dict(zip(self.columns, self.values))


@dataclass
class _Row:
    """A partial join result: one tuple chosen for each table bound so far."""

    tuples: dict[str, tuple[Value, ...]] = field(default_factory=dict)


class _ConditionCompiler:
    """Evaluates SQL expressions over a (partial) join row."""

    def __init__(self, database: Database, select: SelectQuery) -> None:
        self._database = database
        self._select = select
        self._column_positions: dict[str, dict[str, int]] = {}
        self._column_types: dict[str, dict[str, bool]] = {}
        self._binding_table: dict[str, str] = {}
        bindings_by_column: dict[str, list[str]] = {}
        for reference in select.tables:
            schema = database.relation_schema(reference.table)
            self._binding_table[reference.binding] = reference.table
            self._column_positions[reference.binding] = {
                attribute.name: index for index, attribute in enumerate(schema.attributes)}
            self._column_types[reference.binding] = {
                attribute.name: attribute.is_numeric for attribute in schema.attributes}
            for attribute in schema.attributes:
                bindings_by_column.setdefault(attribute.name, []).append(reference.binding)
        self._bindings_by_column = bindings_by_column

    # -- column resolution ----------------------------------------------------

    def resolve_binding(self, column: ColumnExpression) -> tuple[str, str]:
        """Return ``(table binding, column name)`` for a column reference."""
        if column.table is not None:
            if column.table not in self._column_positions:
                raise SqlTranslationError(f"unknown table binding {column.table!r}")
            if column.column not in self._column_positions[column.table]:
                raise SqlTranslationError(
                    f"unknown column {column.table}.{column.column}")
            return column.table, column.column
        bindings = self._bindings_by_column.get(column.column, [])
        if not bindings:
            raise SqlTranslationError(f"unknown column {column.column!r}")
        if len(bindings) > 1:
            raise SqlTranslationError(
                f"ambiguous column {column.column!r}; qualify it with a table alias")
        return bindings[0], column.column

    def column_value(self, row: _Row, binding: str, column: str) -> Value:
        return row.tuples[binding][self._column_positions[binding][column]]

    def columns_of(self, expression: Expression) -> set[str]:
        """Bindings referenced by an expression."""
        if isinstance(expression, ColumnExpression):
            return {self.resolve_binding(expression)[0]}
        if isinstance(expression, BinaryExpression):
            return self.columns_of(expression.left) | self.columns_of(expression.right)
        return set()

    def condition_bindings(self, condition: Condition) -> set[str]:
        return self.columns_of(condition.left) | self.columns_of(condition.right)

    # -- evaluation -------------------------------------------------------------

    def _expression_value(self, expression: Expression, row: _Row) -> Value:
        if isinstance(expression, ColumnExpression):
            binding, column = self.resolve_binding(expression)
            return self.column_value(row, binding, column)
        if isinstance(expression, NumberLiteral):
            return expression.value
        if isinstance(expression, StringLiteral):
            return expression.value
        if isinstance(expression, BinaryExpression):
            raise SqlTranslationError(
                "arithmetic expressions must be converted symbolically")
        raise SqlTranslationError(f"unsupported expression {expression!r}")

    def _expression_rational(self, expression: Expression, row: _Row) -> RationalTerm:
        if isinstance(expression, (ColumnExpression, NumberLiteral)):
            value = self._expression_value(expression, row)
            if is_num_null(value):
                return RationalTerm.of(Polynomial.variable(value.variable))
            if is_numeric_constant(value):
                return RationalTerm.of(Polynomial.constant(float(value)))
            raise SqlTranslationError(
                f"expected a numerical value in {expression!r}, got {value!r}")
        if isinstance(expression, BinaryExpression):
            left = self._expression_rational(expression.left, row)
            right = self._expression_rational(expression.right, row)
            if expression.operator == "+":
                return left + right
            if expression.operator == "-":
                return left - right
            if expression.operator == "*":
                return left * right
            return left.divide(right)
        raise SqlTranslationError(f"unsupported expression {expression!r}")

    def _is_base_expression(self, expression: Expression) -> bool:
        if isinstance(expression, StringLiteral):
            return True
        if isinstance(expression, ColumnExpression):
            binding, column = self.resolve_binding(expression)
            return not self._column_types[binding][column]
        return False

    def condition_formula(self, condition: Condition, row: _Row) -> ConstraintFormula:
        """Constraint formula of a condition under the values of ``row``.

        Base-type comparisons fold to ``True``/``False`` immediately (a base
        null equals only itself, per the bijective-valuation view); numerical
        comparisons produce polynomial constraints over the nulls' variables,
        which collapse to constants when no null is involved.
        """
        operator = _SQL_TO_COMPARISON.get(condition.operator)
        if operator is None:
            raise SqlTranslationError(f"unsupported operator {condition.operator!r}")
        left_is_base = self._is_base_expression(condition.left)
        right_is_base = self._is_base_expression(condition.right)
        if left_is_base or right_is_base:
            if operator not in (ComparisonOperator.EQ, ComparisonOperator.NE):
                raise SqlTranslationError(
                    f"order comparison on base-typed values in {condition!r}")
            left = self._expression_value(condition.left, row)
            right = self._expression_value(condition.right, row)
            equal = left == right
            if is_base_null(left) or is_base_null(right):
                equal = left is right or left == right
            truth = equal if operator is ComparisonOperator.EQ else not equal
            return TrueFormula() if truth else FalseFormula()
        left_term = self._expression_rational(condition.left, row)
        right_term = self._expression_rational(condition.right, row)
        return _comparison_formula(left_term, operator, right_term)


def _order_conditions(select: SelectQuery, compiler: _ConditionCompiler) -> list[list[Condition]]:
    """Assign each condition to the earliest join step at which it is checkable.

    Single-table conditions are *not* assigned to a step here: they are
    pushed below the join entirely (:func:`_prefilter_rows`), pruning each
    table before hash-join indexes are built or nested loops iterate it.
    Only genuinely multi-table conditions remain in the per-step lists.
    """
    bindings_order = [reference.binding for reference in select.tables]
    position = {binding: index for index, binding in enumerate(bindings_order)}
    steps: list[list[Condition]] = [[] for _ in bindings_order]
    for condition in select.conditions:
        involved = compiler.condition_bindings(condition)
        if len(involved) == 1:
            continue  # pushed down to the table scan
        last = max((position[binding] for binding in involved), default=0)
        steps[last].append(condition)
    return steps


#: A pre-filtered table row: the tuple plus the residual (symbolic) formulas
#: of its single-table conditions, evaluated once at scan time.
_FilteredRow = tuple[tuple[Value, ...], tuple[ConstraintFormula, ...]]

#: A pushdown survivor: the row's index in its table plus its residuals.
_Survivor = tuple[int, tuple[ConstraintFormula, ...]]


def _local_conditions(select: SelectQuery,
                      compiler: _ConditionCompiler) -> list[list[Condition]]:
    """The single-table conditions of each FROM table, by table position."""
    position = {reference.binding: index
                for index, reference in enumerate(select.tables)}
    local: list[list[Condition]] = [[] for _ in select.tables]
    for condition in select.conditions:
        involved = compiler.condition_bindings(condition)
        if len(involved) == 1:
            (binding,) = involved
            local[position[binding]].append(condition)
    return local


def _prefilter_rows(binding: str, rows: Sequence[tuple[Value, ...]],
                    conditions: Sequence[Condition],
                    compiler: _ConditionCompiler) -> list[_Survivor]:
    """Push one table's single-table conditions below the join.

    Rows with a certainly-false condition are dropped (they could never
    produce a witness); conditions whose truth depends on numerical nulls
    leave a residual formula attached to the row, conjoined into the lineage
    when the row joins.  Selective filters therefore prune both the
    hash-join build side and the nested-loop scans, and each single-table
    condition is evaluated once per row instead of once per partial join
    visiting the row.  Returns the survivors' indices into ``rows``.
    """
    if not conditions:
        return [(index, ()) for index in range(len(rows))]
    scratch = _Row()
    filtered: list[_Survivor] = []
    for index, row in enumerate(rows):
        scratch.tuples = {binding: row}
        residual: list[ConstraintFormula] = []
        rejected = False
        for condition in conditions:
            formula = compiler.condition_formula(condition, scratch).simplify()
            if isinstance(formula, FalseFormula):
                rejected = True
                break
            if not isinstance(formula, TrueFormula):
                residual.append(formula)
        if not rejected:
            filtered.append((index, tuple(residual)))
    return filtered


def _hash_join_key(condition: Condition, compiler: _ConditionCompiler,
                   new_binding: str, bound: set[str]) -> Optional[tuple[tuple[str, str], tuple[str, str]]]:
    """Detect ``bound_column = new_column`` equi-join predicates on base columns."""
    if condition.operator != "=":
        return None
    if not isinstance(condition.left, ColumnExpression) or \
            not isinstance(condition.right, ColumnExpression):
        return None
    left = compiler.resolve_binding(condition.left)
    right = compiler.resolve_binding(condition.right)
    for probe, build in ((left, right), (right, left)):
        if probe[0] in bound and build[0] == new_binding:
            if not compiler._column_types[build[0]][build[1]] and \
                    not compiler._column_types[probe[0]][probe[1]]:
                return probe, build
    return None


def enumerate_candidates(select: SelectQuery, database: Database,
                         limit: Optional[int] = None,
                         max_witnesses: int = 1_000_000,
                         group_witnesses: bool = True,
                         backend: Optional[str] = None,
                         frontier_stats: Optional[dict] = None,
                         frontier_cache=None) -> list[CandidateAnswer]:
    """Enumerate candidate answers of a SELECT query with their lineage.

    ``limit`` overrides the query's own LIMIT clause when given.  Candidates
    are returned in first-witness order, matching the paper's use of LIMIT to
    hand the analyst "an analyzable sample"; each candidate's lineage is the
    disjunction of the constraint formulae of all its witnesses.

    With ``group_witnesses=False`` the engine instead mirrors SQL's bag
    semantics (and the paper's experimental pipeline, which annotates the rows
    returned by the naive evaluation): every witness becomes its own output
    row with a single-witness lineage, and ``LIMIT`` counts rows.  The
    certainty attached to such a row is the measure of "this particular join
    combination witnesses the answer", a lower bound on the set-semantics
    measure of the output tuple.

    ``backend`` picks the execution strategy: ``"rows"`` is this module's
    row-at-a-time reference implementation, ``"columnar"`` the vectorized
    engine of :mod:`repro.engine.vectorized`.  The default ``None`` follows
    the database's own storage backend.  Both produce identical candidates,
    in the same order, with identical lineage formulas (the differential
    harness in ``tests/test_columnar_differential.py`` enforces this); a
    database stored under the other backend is converted first.

    ``frontier_stats``, if given, receives on the columnar engine which
    frontier path ran (``"frontier"``, one of
    :data:`repro.engine.vectorized.FRONTIER_PATHS`), how many residual
    formulas it built (``"residuals"``) and how many candidate lineages it
    built rather than reused from the frontier cache (``"lineages"``).

    ``frontier_cache``, if given, is a
    :class:`repro.engine.vectorized.FrontierCache`: the columnar path
    reuses a previously computed join frontier for the same query shape
    and delta-joins only rows appended since (MVCC append-only versions
    keep old row indices stable; the cache's ``advance`` carries entries
    past deletes at commit time), and reuses the lineage of every answer
    whose kept witnesses did not change.  Results are bit-identical with
    or without it; the row backend ignores both.
    """
    chosen = backend if backend is not None else getattr(database, "backend", "rows")
    if chosen == "columnar":
        from repro.engine.vectorized import enumerate_candidates_columnar
        if getattr(database, "backend", "rows") != "columnar":
            database = database.with_backend("columnar")
        return enumerate_candidates_columnar(
            select, database, limit=limit, max_witnesses=max_witnesses,
            group_witnesses=group_witnesses, frontier_stats=frontier_stats,
            frontier_cache=frontier_cache)
    if chosen != "rows":
        raise ValueError(f"unknown engine backend {chosen!r}")
    if getattr(database, "backend", "rows") != "rows":
        database = database.with_backend("rows")
    compiler = _ConditionCompiler(database, select)
    # Selection pushdown happens before the per-step condition ordering is
    # computed: single-table filters prune each table at scan time (lazily,
    # on the join's first touch of the table, so LIMIT early-exits never pay
    # for tables they do not reach), and only the surviving rows feed the
    # hash-join builds and nested loops below.
    local_conditions = _local_conditions(select, compiler)
    steps = _order_conditions(select, compiler)
    effective_limit = limit if limit is not None else select.limit

    # Pre-compute the projection positions.
    if select.select_star:
        projection = [(reference.binding, attribute.name)
                      for reference in select.tables
                      for attribute in database.relation_schema(reference.table).attributes]
    else:
        projection = [compiler.resolve_binding(column) for column in select.select]
    columns = tuple(f"{binding}.{column}" for binding, column in projection)

    # Witness accumulation.  Under set semantics (group_witnesses=True) the
    # key is the output tuple; under bag semantics each witness gets its own
    # row, keyed by an opaque sequence number.
    order: list = []
    witness_formulae: dict = {}
    witness_counts: dict = {}
    row_values: dict = {}
    witnesses_seen = 0

    bindings = [reference.binding for reference in select.tables]
    schemas = [database.relation_schema(reference.table) for reference in select.tables]

    filtered_tables: list[Optional[list[_FilteredRow]]] = [None] * len(bindings)

    def filtered_for(step: int) -> list[_FilteredRow]:
        if filtered_tables[step] is None:
            reference = select.tables[step]
            rows = database.relation(reference.table).tuples()
            filtered_tables[step] = [
                (rows[index], residual) for index, residual in _prefilter_rows(
                    reference.binding, rows, local_conditions[step], compiler)]
        return filtered_tables[step]

    # Build hash indexes lazily per (table index, column), over the rows
    # that survived selection pushdown.
    hash_indexes: dict[tuple[int, str], dict[Value, list[_FilteredRow]]] = {}

    def index_for(step: int, column: str) -> dict[Value, list[_FilteredRow]]:
        key = (step, column)
        if key not in hash_indexes:
            position = schemas[step].position(column)
            index: dict[Value, list[_FilteredRow]] = {}
            for entry in filtered_for(step):
                index.setdefault(entry[0][position], []).append(entry)
            hash_indexes[key] = index
        return hash_indexes[key]

    def recurse(step: int, row: _Row, pending: list[ConstraintFormula]) -> bool:
        """Depth-first join; returns False when the witness cap is hit."""
        nonlocal witnesses_seen
        if step == len(bindings):
            witnesses_seen += 1
            output = tuple(compiler.column_value(row, binding, column)
                           for binding, column in projection)
            if group_witnesses:
                key = output
                if key not in witness_formulae:
                    if effective_limit is not None and len(order) >= effective_limit:
                        return witnesses_seen < max_witnesses
                    order.append(key)
                    witness_formulae[key] = []
                    witness_counts[key] = 0
                    row_values[key] = output
            else:
                if effective_limit is not None and len(order) >= effective_limit:
                    return False
                key = len(order)
                order.append(key)
                witness_formulae[key] = []
                witness_counts[key] = 0
                row_values[key] = output
            witness_formulae[key].append(conjunction(list(pending)))
            witness_counts[key] += 1
            return witnesses_seen < max_witnesses

    # -- choose the tuples of table `step` --------------------------------------
        binding = bindings[step]
        bound = set(bindings[:step])
        step_conditions = steps[step]

        # Prefer a hash join on the first applicable base equi-join predicate.
        join_spec = None
        for condition in step_conditions:
            join_spec = _hash_join_key(condition, compiler, binding, bound)
            if join_spec is not None:
                break
        if join_spec is not None:
            probe, build = join_spec
            probe_value = compiler.column_value(row, probe[0], probe[1])
            candidate_rows = index_for(step, build[1]).get(probe_value, [])
        else:
            candidate_rows = filtered_for(step)

        for tuple_row, residual in candidate_rows:
            row.tuples[binding] = tuple_row
            new_pending = list(pending)
            new_pending.extend(residual)
            rejected = False
            for condition in step_conditions:
                formula = compiler.condition_formula(condition, row).simplify()
                if isinstance(formula, FalseFormula):
                    rejected = True
                    break
                if not isinstance(formula, TrueFormula):
                    new_pending.append(formula)
            if not rejected:
                if not recurse(step + 1, row, new_pending):
                    del row.tuples[binding]
                    return False
            del row.tuples[binding]
        return True

    recurse(0, _Row(), [])

    return _build_candidates(order, witness_formulae, witness_counts,
                             row_values, columns, database)


def _build_candidates(order: list, witness_formulae: dict, witness_counts: dict,
                      row_values: dict, columns: tuple[str, ...],
                      database: Database,
                      reused: Optional[Mapping] = None) -> list[CandidateAnswer]:
    """Assemble :class:`CandidateAnswer` objects from accumulated witnesses.

    Shared by the row-at-a-time path above and the vectorized columnar path
    (:mod:`repro.engine.vectorized`): each candidate's lineage is the
    simplified disjunction of its witnesses' constraint formulae, wrapped in
    a :class:`TranslationResult` over the database's ambient null order and
    carrying its canonical digest (:func:`repro.service.canonical.
    canonicalise`).

    ``reused`` maps a key to a ``(formula, relevant_variables, digest)``
    triple the caller already holds for exactly these witnesses; such a key
    needs no ``witness_formulae`` entry and is not built again.  The
    relevant tuple stays valid under a new null order: it is the formula's
    variables in name order, and adding or removing other nulls keeps that
    order.
    """
    # Deferred: the canonical form sits in the service layer above the
    # engine, which is fully initialised by the first enumeration.
    from repro.service.canonical import canonicalise

    null_order = database.null_order()
    all_variables = null_order.variables
    null_by_variable = null_order.by_variable

    candidates: list[CandidateAnswer] = []
    for key in order:
        known = reused.get(key) if reused else None
        if known is not None:
            formula, relevant, digest = known
        else:
            formula = disjunction(witness_formulae[key]).simplify()
            occurring = formula.variables()
            # ``all_variables`` is in name order, so the names it holds
            # sort into its own order.
            relevant = (tuple(sorted(occurring))
                        if occurring <= null_by_variable.keys()
                        else tuple(name for name in all_variables
                                   if name in occurring))
            digest = canonicalise(formula, relevant).digest
        lineage = _frozen(TranslationResult, {
            "formula": formula,
            "all_variables": all_variables,
            "relevant_variables": relevant,
            "null_by_variable": null_by_variable,
            "digest": digest,
        })
        candidates.append(_frozen(CandidateAnswer, {
            "values": row_values[key], "columns": columns,
            "lineage": lineage, "witnesses": witness_counts[key]}))
    return candidates


def _frozen(cls, fields: dict):
    """``cls(**fields)`` for a frozen dataclass without ``__post_init__``,
    at less than half the cost: ``fields`` (every field, nothing else)
    becomes the instance's attribute dict in one store, where the frozen
    ``__init__`` makes one ``object.__setattr__`` call per field."""
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", fields)
    return instance
