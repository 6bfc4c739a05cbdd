"""Vectorized candidate enumeration over columnar databases.

This is the ``backend="columnar"`` hot path of
:func:`repro.engine.candidates.enumerate_candidates`.  It computes *exactly*
the same candidates, in the same order, with the same lineage formulas as
the row-at-a-time reference path (the differential harness in
``tests/test_columnar_differential.py`` holds it to that), but does the
data-heavy work on whole columns:

* **selection pushdown** classifies every row of a table against its
  single-table conditions in one NumPy pass.  Rows whose conditions are
  certainly false disappear before any join work; rows whose conditions are
  decided true carry nothing; only rows whose truth depends on numerical
  nulls fall back to the symbolic per-row compiler, producing the identical
  residual formulas the reference path would attach;
* **hash joins** on base equi-join predicates are a sort + ``searchsorted``
  group lookup over interned code arrays: the build side is sorted once
  (stably, so bucket order matches the reference path's insertion-ordered
  buckets), probe keys locate their group boundaries in ``O(log n)`` and
  matching pairs are materialised with ``repeat``/``arange`` arithmetic --
  no per-pair Python;
* **predicate pruning** over the joined pairs reuses the same tri-state
  classification, so certainly-false pairs never materialise anything and
  symbolic atoms are only built for the pairs that survive.

Exactness of the decided/true/false split is the delicate part: the
reference path decides a concrete numerical comparison by *symbolically*
normalising ``left op right`` into polynomial constraints
(:func:`repro.constraints.translate._comparison_formula`) and constant-
folding.  Because clearing denominators multiplies values around, the
result can differ from a naive float comparison (``a/b <= c`` is not always
``a <= c*b`` in floating point).  The vectorized evaluator therefore
mirrors the symbolic pipeline operation for operation -- the rational-term
recurrences, the ``COEFFICIENT_EPS`` coefficient drop after every ring
operation, the sign case-split on the denominator, and the
``EVALUATION_EPS`` tolerance of the final constant fold -- so its decisions
are bit-for-bit those of the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.constraints.atoms import EVALUATION_EPS
from repro.constraints.formula import (
    And,
    ConstraintFormula,
    FalseFormula,
    TrueFormula,
)
from repro.constraints.polynomials import COEFFICIENT_EPS
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
from repro.relational.columnar import BaseColumnData, ColumnarRelation, NumericColumnData
from repro.relational.database import Database

_EMPTY_RESIDUAL: tuple = ()
_TRUE = TrueFormula()

#: Largest per-step pair count the engine will materialise eagerly.  The
#: reference recursion streams pairs one at a time and can therefore
#: early-exit on LIMIT/max_witnesses, while this engine builds whole index
#: arrays; an unselective step (a cross join, or an equi-join whose match
#: count dwarfs the witness cap) would allocate them far past any useful
#: size.  Beyond this bound the engine hands the query to the row oracle,
#: trading the vectorized speedup for the oracle's early-exit behaviour --
#: results are identical either way.
_MAX_FRONTIER_PAIRS = 4_000_000


class _FrontierOverflow(Exception):
    """A join step would materialise more pairs than the eager bound."""


def _clamp(values):
    """Mirror ``Polynomial.__post_init__``: drop near-zero coefficients to 0.

    Every ring operation on constant polynomials re-normalises its
    coefficient through this filter; applying it after every array
    operation keeps the vectorized arithmetic bit-identical to the symbolic
    constant folding.
    """
    return np.where(np.abs(values) > COEFFICIENT_EPS, values, 0.0)


class _Frame:
    """The current join frontier: per-binding original row indices."""

    def __init__(self) -> None:
        self.rows: dict[str, np.ndarray] = {}

    def gather(self, binding: str) -> np.ndarray:
        return self.rows[binding]


class _RationalArrays:
    """A batch of rational terms ``numerator / denominator`` plus null tracking."""

    __slots__ = ("numerator", "denominator", "null_mask")

    def __init__(self, numerator, denominator, null_mask) -> None:
        self.numerator = numerator
        self.denominator = denominator
        self.null_mask = null_mask


class _Unvectorizable(Exception):
    """Condition shape the vectorized evaluator does not cover.

    Falling back to the per-row symbolic compiler is always sound: it *is*
    the reference implementation.  This includes malformed conditions -- the
    fallback raises the identical user-facing error the row path would.
    """


class _VectorizedEvaluator:
    """Tri-state vectorized condition evaluation over a columnar frontier."""

    def __init__(self, database: Database, compiler) -> None:
        self._database = database
        self._compiler = compiler
        self._relations: dict[str, ColumnarRelation] = {}
        for reference in compiler._select.tables:
            relation = database.relation(reference.table)
            assert isinstance(relation, ColumnarRelation)
            self._relations[reference.binding] = relation

    def relation_of(self, binding: str) -> ColumnarRelation:
        return self._relations[binding]

    # -- classification ----------------------------------------------------

    def classify(self, condition: Condition, frame: _Frame,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(decided, truth)`` boolean arrays of length ``count``.

        ``decided[i]`` means the condition's truth under row ``i`` is a
        constant (no numerical null involved, or the symbolic form would
        constant-fold anyway); undecided rows must go through the per-row
        symbolic fallback.  For decided rows, ``truth[i]`` is exactly the
        ``TrueFormula``/``FalseFormula`` the reference path would produce.
        """
        try:
            return self._classify(condition, frame, count)
        except _Unvectorizable:
            return (np.zeros(count, dtype=bool), np.zeros(count, dtype=bool))

    def _classify(self, condition: Condition, frame: _Frame,
                  count: int) -> tuple[np.ndarray, np.ndarray]:
        compiler = self._compiler
        operator = condition.operator
        left_is_base = compiler._is_base_expression(condition.left)
        right_is_base = compiler._is_base_expression(condition.right)
        if left_is_base or right_is_base:
            return self._classify_base(condition, frame, count)
        if operator not in ("=", "<>", "!=", "<", "<=", ">", ">="):
            raise _Unvectorizable  # the fallback raises the reference error
        with np.errstate(all="ignore"):
            left = self._rational(condition.left, frame, count)
            right = self._rational(condition.right, frame, count)
            # difference = left - right, mirroring RationalTerm.__sub__.
            p = _clamp(_clamp(left.numerator * right.denominator)
                       - _clamp(right.numerator * left.denominator))
            q = _clamp(left.denominator * right.denominator)
            decided = ~(left.null_mask | right.null_mask)
            # Sign case split on the (constant) denominator: q == 0 is false,
            # q < 0 flips the operator, which equals comparing -p instead.
            adjusted = np.where(q > 0, p, -p)
            truth = _holds(operator, adjusted, EVALUATION_EPS) & (q != 0.0)
        return decided, truth & decided

    def _classify_base(self, condition: Condition, frame: _Frame,
                       count: int) -> tuple[np.ndarray, np.ndarray]:
        if condition.operator not in ("=", "<>", "!="):
            # Mirrors the reference path's error for base-typed order
            # comparisons; the caller only classifies when rows survive, the
            # same circumstance under which the row path raises.
            raise SqlTranslationError(
                f"order comparison on base-typed values in {condition!r}")
        equal = self._base_equality(condition.left, condition.right, frame, count)
        truth = equal if condition.operator == "=" else ~equal
        return np.ones(count, dtype=bool), truth

    def _base_equality(self, left: Expression, right: Expression,
                       frame: _Frame, count: int) -> np.ndarray:
        left_kind, left_payload = self._base_side(left, frame)
        right_kind, right_payload = self._base_side(right, frame)
        if left_kind == "codes" and right_kind == "codes":
            left_codes, left_data = left_payload
            right_codes, right_data = right_payload
            # Remap the right dictionary into left codes; values absent from
            # the left dictionary can never be equal (sentinel -1 < any code).
            remap = np.empty(len(right_data.values), dtype=np.int64)
            for index, value in enumerate(right_data.values):
                remap[index] = left_data.code_of.get(value, -1)
            return left_codes == remap[right_codes]
        if left_kind == "codes":
            codes, data = left_payload
            constant = right_payload
        elif right_kind == "codes":
            codes, data = right_payload
            constant = left_payload
        else:
            return np.full(count, left_payload == right_payload, dtype=bool)
        try:
            code = data.code_of.get(constant, -1)
        except TypeError:
            code = -1
        return codes == code

    def _base_side(self, expression: Expression, frame: _Frame):
        """A base-comparison operand: interned codes or a Python constant."""
        if isinstance(expression, ColumnExpression):
            binding, column = self._compiler.resolve_binding(expression)
            data = self._relations[binding].column_data(column)
            if isinstance(data, BaseColumnData):
                codes = data.codes[frame.gather(binding)]
                return "codes", (codes, data)
            raise _Unvectorizable  # numeric column on the base path: fallback
        if isinstance(expression, NumberLiteral):
            return "constant", expression.value
        if isinstance(expression, StringLiteral):
            return "constant", expression.value
        # BinaryExpression on a base comparison: the reference path raises
        # "arithmetic expressions must be converted symbolically".
        raise _Unvectorizable

    def _rational(self, expression: Expression, frame: _Frame,
                  count: int) -> _RationalArrays:
        """Mirror ``_ConditionCompiler._expression_rational`` on arrays."""
        if isinstance(expression, ColumnExpression):
            binding, column = self._compiler.resolve_binding(expression)
            data = self._relations[binding].column_data(column)
            if not isinstance(data, NumericColumnData):
                raise _Unvectorizable  # base value in numeric context: fallback
            rows = frame.gather(binding)
            return _RationalArrays(
                numerator=_clamp(data.values[rows]),
                denominator=1.0,
                null_mask=data.null_codes[rows] >= 0,
            )
        if isinstance(expression, NumberLiteral):
            value = expression.value
            value = value if abs(value) > COEFFICIENT_EPS else 0.0
            return _RationalArrays(numerator=value, denominator=1.0,
                                   null_mask=np.zeros(count, dtype=bool))
        if isinstance(expression, BinaryExpression):
            left = self._rational(expression.left, frame, count)
            right = self._rational(expression.right, frame, count)
            nulls = left.null_mask | right.null_mask
            if expression.operator == "+":
                return _RationalArrays(
                    numerator=_clamp(_clamp(left.numerator * right.denominator)
                                     + _clamp(right.numerator * left.denominator)),
                    denominator=_clamp(left.denominator * right.denominator),
                    null_mask=nulls)
            if expression.operator == "-":
                return _RationalArrays(
                    numerator=_clamp(_clamp(left.numerator * right.denominator)
                                     - _clamp(right.numerator * left.denominator)),
                    denominator=_clamp(left.denominator * right.denominator),
                    null_mask=nulls)
            if expression.operator == "*":
                return _RationalArrays(
                    numerator=_clamp(left.numerator * right.numerator),
                    denominator=_clamp(left.denominator * right.denominator),
                    null_mask=nulls)
            if expression.operator == "/":
                return _RationalArrays(
                    numerator=_clamp(left.numerator * right.denominator),
                    denominator=_clamp(left.denominator * right.numerator),
                    null_mask=nulls)
            raise _Unvectorizable
        raise _Unvectorizable  # StringLiteral etc.: reference error via fallback


def _holds(operator: str, values: np.ndarray, tolerance: float) -> np.ndarray:
    """Vectorized ``Comparison.holds`` for a batch of constant-fold values."""
    if operator == "<":
        return values < -tolerance
    if operator == "<=":
        return values <= tolerance
    if operator == "=":
        return np.abs(values) <= tolerance
    if operator in ("<>", "!="):
        return np.abs(values) > tolerance
    if operator == ">=":
        return values >= -tolerance
    return values > tolerance


def _apply_conditions(conditions: Sequence[Condition], evaluator, compiler,
                      frame_rows: dict[str, np.ndarray],
                      residual_slots: list,
                      condition_bindings) -> np.ndarray:
    """Classify+fallback one condition list over a frontier; returns keep mask.

    ``frame_rows`` maps bindings to original-row index arrays, all of one
    length.  ``residual_slots`` is a Python list of per-row residual tuples
    that unknown-but-alive rows append their symbolic formulas to,
    preserving the reference path's per-condition order.
    Conditions are evaluated in order over the still-alive subset only, so
    structural errors surface under exactly the circumstances the row-at-a-
    time loop would raise them.
    """
    from repro.engine.candidates import _Row

    lengths = {len(rows) for rows in frame_rows.values()}
    count = lengths.pop() if lengths else 0
    alive = np.ones(count, dtype=bool)
    scratch = _Row()
    for condition in conditions:
        if not alive.any():
            break
        frame = _Frame()
        frame.rows = frame_rows
        decided, truth = evaluator.classify(condition, frame, count)
        alive &= ~(decided & ~truth)
        pending = np.flatnonzero(alive & ~decided)
        if len(pending) == 0:
            continue
        involved = tuple(condition_bindings(condition))
        relations = {binding: evaluator.relation_of(binding)
                     for binding in involved}
        for position in pending.tolist():
            scratch.tuples = {
                binding: relations[binding].row(int(frame_rows[binding][position]))
                for binding in involved}
            formula = compiler.condition_formula(condition, scratch).simplify()
            if isinstance(formula, FalseFormula):
                alive[position] = False
            elif not isinstance(formula, TrueFormula):
                residual_slots[position] = residual_slots[position] + (formula,)
    return alive


def enumerate_candidates_columnar(select: SelectQuery, database: Database,
                                  limit: Optional[int],
                                  max_witnesses: int,
                                  group_witnesses: bool,
                                  frontier_stats: Optional[dict] = None,
                                  frontier_cache: Optional["FrontierCache"] = None) -> list:
    """Columnar twin of the row-at-a-time ``enumerate_candidates`` body.

    Falls back to the row oracle when a join step would materialise more
    than :data:`_MAX_FRONTIER_PAIRS` pairs at once (see there); both paths
    return identical candidates, so the fallback only changes the cost
    profile, never the answer.

    ``frontier_stats``, when given, receives ``"frontier"``: which
    frontier path the engine took (:data:`FRONTIER_PATHS`).
    """
    from repro.engine.candidates import enumerate_candidates

    try:
        return _enumerate_eager(select, database, limit, max_witnesses,
                                group_witnesses,
                                frontier_cache=frontier_cache,
                                stats=frontier_stats)
    except _FrontierOverflow:
        if frontier_stats is not None:
            frontier_stats["frontier"] = "fallback"
        return enumerate_candidates(select, database, limit=limit,
                                    max_witnesses=max_witnesses,
                                    group_witnesses=group_witnesses,
                                    backend="rows")


def _projection_of(select: SelectQuery, database: Database, compiler) -> list:
    if select.select_star:
        return [(reference.binding, attribute.name)
                for reference in select.tables
                for attribute in database.relation_schema(reference.table).attributes]
    return [compiler.resolve_binding(column) for column in select.select]


def _enumerate_eager(select: SelectQuery, database: Database,
                     limit: Optional[int],
                     max_witnesses: int,
                     group_witnesses: bool,
                     frontier_cache: Optional["FrontierCache"] = None,
                     stats: Optional[dict] = None) -> list:
    frontier = pending = None
    path = "cold"
    if frontier_cache is not None:
        entry = frontier_cache.lookup(select, database)
        if entry is not None:
            frontier, pending = _maintain_frontier(select, database, entry)
            path = "advanced" if entry.advanced else "appended"
    if frontier is None:
        frontier, pending = _compute_frontier(select, database)
    if frontier_cache is not None:
        frontier_cache.store(select, database, frontier, pending)
    if stats is not None:
        stats["frontier"] = path
    return _assemble_candidates(select, database, frontier, pending,
                                limit, max_witnesses, group_witnesses)


def _compute_frontier(select: SelectQuery,
                      database: Database,
                      row_ranges: Optional[dict] = None
                      ) -> tuple[dict, Optional[list]]:
    """Run pushdown + the join loop; returns the full-query frontier.

    The frontier maps each binding to an array of row indices into its
    relation (one entry per surviving witness, reference DFS order) plus a
    parallel ``pending`` list of residual-formula tuples (``None`` when no
    witness carries residuals).  Everything after this point -- projection,
    witness grouping, lineage assembly -- is data-independent of how the
    frontier was computed, which is what lets the frontier cache reuse it.

    ``row_ranges`` optionally restricts a binding's rows to a half-open
    ``(lo, hi)`` index range before pushdown.  Restriction commutes with
    every per-row operation (classification, residual attachment, joins),
    so the restricted frontier equals the full frontier filtered to rows
    in range -- the property the delta-join maintenance is built on.
    """
    from repro.engine.candidates import (
        _ConditionCompiler,
        _hash_join_key,
        _local_conditions,
        _order_conditions,
    )

    compiler = _ConditionCompiler(database, select)
    evaluator = _VectorizedEvaluator(database, compiler)
    local_conditions = _local_conditions(select, compiler)
    steps = _order_conditions(select, compiler)

    bindings = [reference.binding for reference in select.tables]

    # -- per-table selection pushdown (lazy, in join order) ------------------
    filtered_rows: list[Optional[np.ndarray]] = [None] * len(bindings)
    filtered_residuals: list[Optional[list]] = [None] * len(bindings)

    def prefilter(step: int) -> np.ndarray:
        if filtered_rows[step] is None:
            binding = bindings[step]
            relation = evaluator.relation_of(binding)
            if row_ranges is not None and binding in row_ranges:
                low, high = row_ranges[binding]
            else:
                low, high = 0, len(relation)
            rows = np.arange(low, high, dtype=np.int64)
            residual_slots = [_EMPTY_RESIDUAL] * len(rows)
            alive = _apply_conditions(
                local_conditions[step], evaluator, compiler, {binding: rows},
                residual_slots, compiler.condition_bindings)
            positions = np.flatnonzero(alive)
            filtered_rows[step] = rows[positions]
            if any(residual_slots[index] for index in positions.tolist()):
                filtered_residuals[step] = [residual_slots[index]
                                            for index in positions.tolist()]
            else:
                filtered_residuals[step] = None
        return filtered_rows[step]

    # -- join loop -----------------------------------------------------------
    # The frontier after step k: one original-row index array per bound
    # binding, plus a parallel list of pending residual-formula tuples.
    frontier: dict[str, np.ndarray] = {}
    pending: Optional[list] = None

    def attach_residuals(step: int, positions: np.ndarray) -> None:
        nonlocal pending
        residuals = filtered_residuals[step]
        if residuals is None:
            return
        if pending is None:
            pending = [_EMPTY_RESIDUAL] * len(positions)
        for index, position in enumerate(positions.tolist()):
            extra = residuals[position]
            if extra:
                pending[index] = pending[index] + extra

    for step, binding in enumerate(bindings):
        keep = prefilter(step)
        if step == 0:
            positions = np.arange(len(keep), dtype=np.int64)
            frontier = {binding: keep}
            pending = None
            attach_residuals(0, positions)
        else:
            frontier_size = len(next(iter(frontier.values())))
            join_spec = None
            join_condition = None
            bound = set(bindings[:step])
            for condition in steps[step]:
                join_spec = _hash_join_key(condition, compiler, binding, bound)
                if join_spec is not None:
                    join_condition = condition
                    break
            if join_spec is not None:
                probe, build = join_spec
                probe_data = evaluator.relation_of(probe[0]).column_data(probe[1])
                build_data = evaluator.relation_of(binding).column_data(build[1])
                probe_codes = probe_data.codes[frontier[probe[0]]]
                remap = np.empty(len(probe_data.values), dtype=np.int64)
                for index, value in enumerate(probe_data.values):
                    remap[index] = build_data.code_of.get(value, -1)
                probe_keys = remap[probe_codes]
                build_codes = build_data.codes[keep]
                order = np.argsort(build_codes, kind="stable")
                sorted_codes = build_codes[order]
                starts = np.searchsorted(sorted_codes, probe_keys, side="left")
                ends = np.searchsorted(sorted_codes, probe_keys, side="right")
                counts = ends - starts
                total = int(counts.sum())
                if total > _MAX_FRONTIER_PAIRS:
                    raise _FrontierOverflow
                probe_idx = np.repeat(np.arange(frontier_size, dtype=np.int64), counts)
                offsets = np.concatenate(
                    ([0], np.cumsum(counts)[:-1])).astype(np.int64)
                within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
                build_positions = order[np.repeat(starts, counts) + within]
            else:
                build_count = len(keep)
                if frontier_size * build_count > _MAX_FRONTIER_PAIRS:
                    raise _FrontierOverflow
                probe_idx = np.repeat(np.arange(frontier_size, dtype=np.int64),
                                      build_count)
                build_positions = np.tile(np.arange(build_count, dtype=np.int64),
                                          frontier_size)
            frontier = {bound_binding: rows[probe_idx]
                        for bound_binding, rows in frontier.items()}
            frontier[binding] = keep[build_positions]
            if pending is not None:
                pending = [pending[index] for index in probe_idx.tolist()]
            attach_residuals(step, build_positions)
        # Remaining step conditions (the chosen equi-join predicate is true
        # by construction for every produced pair, exactly as the reference
        # path re-derives when it re-checks it).
        if step == 0:
            remaining = list(steps[step])
        else:
            remaining = [condition for condition in steps[step]
                         if condition is not join_condition]
        if remaining:
            count = len(next(iter(frontier.values())))
            residual_slots = pending if pending is not None \
                else [_EMPTY_RESIDUAL] * count
            alive = _apply_conditions(remaining, evaluator, compiler, frontier,
                                      residual_slots, compiler.condition_bindings)
            if not alive.all():
                keep_mask = np.flatnonzero(alive)
                frontier = {bound_binding: rows[keep_mask]
                            for bound_binding, rows in frontier.items()}
                residual_slots = [residual_slots[index]
                                  for index in keep_mask.tolist()]
            pending = residual_slots if any(residual_slots) else None
        if len(next(iter(frontier.values()))) == 0:
            frontier = {b: np.empty(0, dtype=np.int64) for b in bindings}
            pending = None
            break

    return frontier, pending


# -- incremental frontier maintenance ----------------------------------------
#
# The MVCC commit path (:mod:`repro.relational.mutation`) keeps row indices
# of surviving rows stable across *append-only* versions: untouched tables
# share their relation objects outright, appended tables keep every old row
# at its old index and add a tail segment.  A join frontier computed at
# version ``V`` is therefore still a correct *subset* of the frontier at a
# later append-only version ``V'`` -- what is missing are exactly the
# witnesses that use at least one appended row.  Writing the new frontier as
# a telescoping difference over the bindings ``b_0 .. b_{k-1}``::
#
#     F(m) - F(n) = sum_t  [b_0..b_{t-1} full] x [b_t new] x [b_{t+1}.. old]
#
# each term is an ordinary frontier computation with per-binding row ranges
# (binding ``t`` restricted to its appended rows ``[n_t, m_t)``, later
# bindings to their old prefix ``[0, n_i)``), the terms are pairwise
# disjoint and disjoint from the old frontier, and the DFS witness order is
# lexicographic over per-binding row indices -- so one ``np.lexsort`` merge
# restores exactly the order a from-scratch enumeration would produce.
#
# Deletes are carried eagerly, at commit time (:meth:`FrontierCache.advance`):
# a delete keeps the surviving rows in their old order and closes the gaps,
# so a witness survives iff none of its rows was deleted, and each surviving
# index drops by the number of deleted indices below it.  That shift is
# monotone, so the lexicographic witness order is kept as well.  An UPDATE
# is a delete plus a tail append: the delete is carried at commit, the
# append by the lazy path above on the next enumeration.

#: The values of the ``"frontier"`` stats entry: computed from scratch,
#: reused through the append path, reused after :meth:`FrontierCache.advance`
#: carried it past a delete, or handed to the row oracle on
#: :class:`_FrontierOverflow`.
FRONTIER_PATHS = ("cold", "appended", "advanced", "fallback")


@dataclass(frozen=True)
class _FrontierEntry:
    """One cached frontier: the snapshot coordinates it was computed at."""

    version_token: object
    data_version: int
    #: Per-binding relation length at compute time (the ``n_t`` above).
    lengths: dict
    frontier: dict
    pending: Optional[list]
    #: Whether :meth:`FrontierCache.advance` carried it past a delete since
    #: it was stored.
    advanced: bool = False


def _eligible(entry: _FrontierEntry, select: SelectQuery,
              database: Database) -> bool:
    """Whether ``entry``'s row indices are valid in ``database``."""
    if entry.version_token is not database.version_token:
        return False
    # A reader on a newer version may have stored (or a commit advanced)
    # this entry past a delete: its indices are shifted for that version,
    # not for an older one a reader is still pinned on.
    if entry.data_version > database.data_version:
        return False
    for reference in select.tables:
        if database.table_epoch(reference.table) > entry.data_version:
            return False
        if len(database.relation(reference.table)) < \
                entry.lengths[reference.binding]:
            return False
    return True


class FrontierCache:
    """A small per-service cache of join frontiers, maintained under writes.

    Keyed by the select AST (frozen dataclasses, hashable): the same query
    shape re-run after an append-only mutation reuses its old frontier and
    delta-joins only the appended rows; :meth:`advance` carries entries
    past deletes at commit time.  An entry is *eligible* for a database
    snapshot when

    * the snapshot belongs to the same version chain (``version_token``
      identity -- a rebuilt or converted database never matches),
    * the entry is not newer than the snapshot (``data_version`` at or
      below it),
    * no queried table saw a non-append mutation since the entry's version
      (``table_epoch`` at or below it), and
    * no queried table shrank (lengths monotone).

    A frontier is admitted only from a snapshot that has seen a commit
    (``data_version > 0``): only a chain that moves can reuse a frontier,
    so a read-only workload holds none -- their residual formulas are the
    bulk of an entry's memory -- while a mutated chain caches from its
    first enumeration on.
    """

    def __init__(self, capacity: int = 8) -> None:
        import threading

        from repro.caching import LruCache

        self._cache = LruCache(capacity, name="frontier")
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def stats(self):
        # An entry present but ineligible (epoch advanced, chain diverged)
        # is a miss to the caller, so report eligibility-aware counters
        # rather than the raw LruCache presence counters.
        from dataclasses import replace

        with self._lock:
            hits, misses = self._hits, self._misses
        return replace(self._cache.stats(), hits=hits, misses=misses)

    def clear(self) -> None:
        self._cache.clear()

    def lookup(self, select: SelectQuery,
               database: Database) -> Optional[_FrontierEntry]:
        """The entry for ``select`` if it is eligible for ``database``."""
        entry = self._cache.peek(select)
        eligible = entry is not None and _eligible(entry, select, database)
        with self._lock:
            if eligible:
                self._hits += 1
            else:
                self._misses += 1
        if not eligible:
            return None
        self._cache.get(select)  # refresh recency; stats() overrides counters
        return entry

    def store(self, select: SelectQuery, database: Database,
              frontier: dict, pending: Optional[list]) -> None:
        """Cache ``select``'s frontier at ``database`` if it is admitted."""
        if database.data_version == 0:
            return  # a snapshot no commit has moved: nothing will reuse it
        current = self._cache.peek(select)
        if (current is not None
                and current.version_token is database.version_token
                and current.data_version > database.data_version):
            return  # a reader pinned on an older version keeps the newer one
        lengths = {reference.binding: len(database.relation(reference.table))
                   for reference in select.tables}
        self._cache.put(select, _FrontierEntry(
            version_token=database.version_token,
            data_version=database.data_version,
            lengths=lengths,
            frontier=frontier,
            pending=pending,
        ))

    def advance(self, parent: Database, sealed: Database,
                deltas: dict) -> None:
        """Carry every entry from ``parent`` to ``sealed`` across a commit.

        ``deltas`` is the commit's ``{table: TableDelta}``.  An entry
        eligible for ``parent`` whose tables lost rows drops the witnesses
        that used a deleted row, shifts the surviving row indices down past
        the deleted ones and is re-stamped at ``sealed``'s version; one
        whose tables only grew stays as it is for the lazy append path.
        Every other entry is dropped.  Callers serialise commits.
        """
        deleted = {table: np.asarray(delta.deleted_indices, dtype=np.int64)
                   for table, delta in deltas.items() if delta.deleted_indices}
        for select in self._cache.keys():
            entry = self._cache.peek(select)
            if entry is None:
                continue
            if not _eligible(entry, select, parent):
                self._cache.pop(select)
                continue
            shrunk = [(reference.binding, deleted[reference.table])
                      for reference in select.tables
                      if reference.table in deleted]
            if shrunk:
                self._cache.put(select, _advance_entry(entry, shrunk,
                                                       sealed.data_version))


def _advance_entry(entry: _FrontierEntry, shrunk: list,
                   data_version: int) -> _FrontierEntry:
    """``entry`` past deletes: ``shrunk`` pairs each binding whose table lost
    rows with the sorted parent indices it lost."""
    frontier = dict(entry.frontier)
    lengths = dict(entry.lengths)
    alive = None
    for binding, gone in shrunk:
        rows = frontier[binding]
        # One search gives both the shift (deleted indices below a row)
        # and membership (the index at that position equals the row).
        below = np.searchsorted(gone, rows)
        hit = gone[np.minimum(below, len(gone) - 1)] == rows
        alive = ~hit if alive is None else alive & ~hit
        frontier[binding] = rows - below
        lengths[binding] -= int(np.searchsorted(gone, lengths[binding]))
    pending = entry.pending
    if not alive.all():
        positions = np.flatnonzero(alive)
        frontier = {binding: rows[positions]
                    for binding, rows in frontier.items()}
        if pending is not None:
            pending = [pending[index] for index in positions.tolist()]
            if not any(pending):
                pending = None
    return _FrontierEntry(version_token=entry.version_token,
                          data_version=data_version, lengths=lengths,
                          frontier=frontier, pending=pending, advanced=True)


def _maintain_frontier(select: SelectQuery, database: Database,
                       entry: _FrontierEntry) -> tuple[dict, Optional[list]]:
    """The current snapshot's frontier, derived from a cached one.

    Computes the telescoped delta terms for every binding whose table grew
    and merges them with the cached frontier back into DFS order.  May
    raise :class:`_FrontierOverflow`: a delta term's pairs are a subset of
    the full join's, so an overflowing delta implies the full computation
    would overflow too -- the query falls to the row oracle either way.
    """
    bindings = [reference.binding for reference in select.tables]
    binding_table = {reference.binding: reference.table
                     for reference in select.tables}
    new_lengths = {binding: len(database.relation(binding_table[binding]))
                   for binding in bindings}
    if new_lengths == entry.lengths:
        return entry.frontier, entry.pending

    segments: list[tuple[dict, Optional[list]]] = [
        (entry.frontier, entry.pending)]
    for position, binding in enumerate(bindings):
        old_length = entry.lengths[binding]
        new_length = new_lengths[binding]
        if new_length <= old_length:
            continue
        # Bindings before ``position`` run at full (new) length -- the
        # default range -- so only this binding and the later ones need
        # explicit restrictions.
        ranges = {binding: (old_length, new_length)}
        for later in bindings[position + 1:]:
            ranges[later] = (0, entry.lengths[later])
        term_frontier, term_pending = _compute_frontier(
            select, database, row_ranges=ranges)
        if len(term_frontier[bindings[0]]) == 0:
            continue
        segments.append((term_frontier, term_pending))

    if len(segments) == 1:
        return entry.frontier, entry.pending

    merged = {binding: np.concatenate([segment[0][binding]
                                       for segment in segments])
              for binding in bindings}
    # The DFS witness order is lexicographic over per-binding row indices
    # in binding order; ``np.lexsort`` treats its *last* key as primary.
    order = np.lexsort(tuple(merged[binding]
                             for binding in reversed(bindings)))
    merged = {binding: rows[order] for binding, rows in merged.items()}
    if any(segment[1] is not None for segment in segments):
        flat: list = []
        for segment_frontier, segment_pending in segments:
            count = len(segment_frontier[bindings[0]])
            if segment_pending is None:
                flat.extend([_EMPTY_RESIDUAL] * count)
            else:
                flat.extend(segment_pending)
        merged_pending: Optional[list] = [flat[index]
                                          for index in order.tolist()]
    else:
        merged_pending = None
    return merged, merged_pending


def _assemble_candidates(select: SelectQuery, database: Database,
                         frontier: dict, pending: Optional[list],
                         limit: Optional[int], max_witnesses: int,
                         group_witnesses: bool) -> list:
    """Project, group and build candidates from a computed frontier.

    The terminal stage of the eager path; it mirrors the reference
    recursion's terminal block exactly, including LIMIT and
    ``max_witnesses`` truncation (the frontier is materialised first, so
    truncation is a pure prefix of the witness order).
    """
    from repro.engine.candidates import _ConditionCompiler, _build_candidates

    compiler = _ConditionCompiler(database, select)
    evaluator = _VectorizedEvaluator(database, compiler)
    projection = _projection_of(select, database, compiler)
    columns = tuple(f"{binding}.{column}" for binding, column in projection)
    bindings = [reference.binding for reference in select.tables]
    effective_limit = limit if limit is not None else select.limit

    witness_count = len(frontier[bindings[0]]) if frontier else 0

    # -- batch output assembly ----------------------------------------------
    if witness_count:
        projected = [
            evaluator.relation_of(binding).column_objects(column)[frontier[binding]]
            for binding, column in projection]
        outputs = list(zip(*projected)) if projected else [()] * witness_count
    else:
        outputs = []

    # -- witness grouping, mirroring the recursion's terminal block ----------
    order_keys: list = []
    witness_formulae: dict = {}
    witness_counts: dict = {}
    row_values: dict = {}
    witnesses_seen = 0
    for position in range(witness_count):
        if witnesses_seen >= max_witnesses:
            break
        witnesses_seen += 1
        output = outputs[position]
        residuals = pending[position] if pending is not None else _EMPTY_RESIDUAL
        if group_witnesses:
            key = output
            if key not in witness_formulae:
                if effective_limit is not None and len(order_keys) >= effective_limit:
                    continue
                order_keys.append(key)
                witness_formulae[key] = []
                witness_counts[key] = 0
                row_values[key] = output
        else:
            if effective_limit is not None and len(order_keys) >= effective_limit:
                break
            key = len(order_keys)
            order_keys.append(key)
            witness_formulae[key] = []
            witness_counts[key] = 0
            row_values[key] = output
        # Exactly ``conjunction(residuals)``, with the empty case interned.
        if not residuals:
            witness_formulae[key].append(_TRUE)
        elif len(residuals) == 1:
            witness_formulae[key].append(residuals[0])
        else:
            witness_formulae[key].append(And(residuals))
        witness_counts[key] += 1

    return _build_candidates(order_keys, witness_formulae, witness_counts,
                             row_values, columns, database)
