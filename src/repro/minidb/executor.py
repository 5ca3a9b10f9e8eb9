"""Statement executor: the query-processing core of minidb.

The executor receives parsed AST statements plus a :class:`Session` and
performs them against the database's catalog and heaps, logging undo actions
through the session's transaction manager so every statement is atomic and
every explicit transaction can roll back.

The SELECT pipeline is a materializing implementation: resolve FROM sources
(expanding views, probing covering indexes, slicing sorted indexes for
range conjuncts, and pre-filtering with pushed-down single-source
predicates), fold sources and explicit joins one at a time, WHERE filter,
GROUP BY with accumulator aggregates, HAVING, projection, DISTINCT, set
operations, ORDER BY, LIMIT/OFFSET. Correlated subqueries are supported
via scope chaining.

Three ordered-access fast paths ride on that pipeline (PR 5):

* **Range scans** — WHERE range conjuncts slice a ``USING BTREE``
  :class:`SortedIndex` (``planner_stats["range_scans"]``); candidates
  still get the full WHERE re-applied, so the plan is a pure reduction.
* **Ordered scans** — when a sorted index's order is exactly the
  statement's ORDER BY (equality-bound prefix + order columns), rows are
  read from the index in output order, the sort is skipped, and the scan
  stops after OFFSET+LIMIT surviving rows (``ordered_scans``).
* **Top-N** — ``ORDER BY ... LIMIT k`` without such an index keeps a
  bounded ``heapq`` selection instead of sorting everything
  (``topn_limits``).

WHERE/residual/pushdown predicates are compiled once per statement into
closure chains (:func:`repro.minidb.expressions.compile_predicate`),
falling back to the AST interpreter for subquery-bearing or correlated
expressions; UPDATE/DELETE resolve their target rows through the same
access-path planning as SELECT sources. All of it is toggleable through
``db.planner_options`` (``enable_index_scan``, ``enable_topn``,
``enable_compiled_predicates``) for baselines and debugging.

Joins follow the strategy chosen by :mod:`repro.minidb.planner`: equi-joins
(keys harvested from ON and WHERE conjuncts) build a hash table over the
right side and probe it per left row — including LEFT/RIGHT NULL extension
for unmatched rows — while non-equi conditions fall back to nested loops
and conditionless pairings remain cross products. Row scopes are built from
a precomputed column layout (:class:`_ScopeLayout`), so constructing the
scope for a row or a candidate pair is O(1) instead of O(total columns).
The chosen strategies are observable via ``EXPLAIN`` and
``db.planner_stats`` and the hash path can be disabled with
``db.planner_options["enable_hash_join"] = False`` (benchmark baseline).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..obs.views import SYSTEM_VIEW_COLUMNS, is_system_relation, system_view_rows
from . import ast_nodes as ast
from .batch import DEFAULT_BATCH_SIZE, BatchError, RowBatch
from .catalog import Column, ForeignKey, IndexSchema, TableSchema, ViewSchema
from .errors import (
    CheckViolation,
    DuplicateObjectError,
    ExecutionError,
    ForeignKeyViolation,
    NotNullViolation,
    SQLSyntaxError,
    UnknownColumnError,
    UnknownTableError,
)
from .expressions import (
    CannotCompile,
    Evaluator,
    Scope,
    batch_raiser,
    compile_batch_expr,
    compile_predicate,
)
from .functions import AGGREGATE_NAMES, make_aggregate
from .planner import (
    JoinPlan,
    TableScan,
    extract_pushdown_filter,
    plan_join,
    plan_select_joins,
    plan_table_scan,
)
from .engines.serial import dump_column, dump_index, dump_table_schema
from .result import ResultSet
from .sqlgen import expr_to_sql, select_to_sql
from .statistics import build_table_statistics
from .storage import (
    HashIndex,
    HeapTable,
    Row,
    SortedIndex,
    ordering_key_element,
)
from .types import ColumnType, coerce

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database, Session


# --------------------------------------------------------------------------
# helper structures for SELECT
# --------------------------------------------------------------------------


class _Source:
    """One resolved FROM source: binding name + columns + materialized rows."""

    def __init__(self, binding: str, columns: list[str], rows: list[Row]):
        self.binding = binding
        self.columns = columns
        self.rows = rows


class _JoinedRow:
    """A row of the joined relation: binding -> per-source row (or None)."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[str, Row | None]):
        self.parts = parts

    def extended(self, binding: str, row: Row | None) -> "_JoinedRow":
        parts = dict(self.parts)
        parts[binding] = row
        return _JoinedRow(parts)


class _LayoutView:
    """Lazy name->value view over joined-row parts, driven by a layout map.

    Implements just the mapping surface :class:`Scope` touches
    (``in`` / ``[]``), resolving each lookup through ``layout`` as
    ``name -> (binding, column)`` and reading the addressed part row.
    """

    __slots__ = ("_layout", "_parts")

    def __init__(self, layout: dict[str, tuple[str, str]], parts):
        self._layout = layout
        self._parts = parts

    def __contains__(self, key: str) -> bool:
        return key in self._layout

    def __getitem__(self, key: str) -> Any:
        binding, column = self._layout[key]
        row = self._parts.get(binding)
        return None if row is None else row.get(column)


class _PartsOverlay:
    """Joined-row parts plus one pending (binding, row) not yet folded in.

    Lets join predicates evaluate candidate pairs without copying the
    parts dict per pair.
    """

    __slots__ = ("_parts", "_binding", "_row")

    def __init__(self, parts: dict[str, Row | None], binding: str, row: Row | None):
        self._parts = parts
        self._binding = binding
        self._row = row

    def get(self, key: str) -> Row | None:
        if key == self._binding:
            return self._row
        return self._parts.get(key)


class _ScopeLayout:
    """Precomputed column layout for a set of sources.

    Building a :class:`Scope` per row previously rebuilt qualified and
    unqualified value dicts over every column of every source — O(total
    columns) per row (and per candidate join pair). The layout computes the
    name-resolution maps once per relation shape; per-row scopes are then
    O(1) views that fetch values on demand.
    """

    __slots__ = ("outer", "ambiguous", "_qualified", "_unqualified")

    def __init__(self, sources: list[_Source], outer: Scope | None):
        qualified: dict[str, tuple[str, str]] = {}
        by_name: dict[str, list[tuple[str, str]]] = {}
        for source in sources:
            binding = source.binding
            for col in source.columns:
                qualified[f"{binding.lower()}.{col.lower()}"] = (binding, col)
                by_name.setdefault(col.lower(), []).append((binding, col))
        self.outer = outer
        self.ambiguous = frozenset(
            name for name, refs in by_name.items() if len(refs) > 1
        )
        self._qualified = qualified
        self._unqualified = {
            name: refs[0] for name, refs in by_name.items() if len(refs) == 1
        }

    def scope(self, jr: _JoinedRow) -> Scope:
        return self.scope_parts(jr.parts)

    def scope_parts(self, parts) -> Scope:
        return Scope(
            _LayoutView(self._qualified, parts),
            _LayoutView(self._unqualified, parts),
            self.ambiguous,
            self.outer,
        )

    def pair_scope(self, jr: _JoinedRow, binding: str, row: Row | None) -> Scope:
        return self.scope_parts(_PartsOverlay(jr.parts, binding, row))


def _raising_accessor(exc: Exception):
    def fn(ctx, exc=exc):
        raise exc

    return fn


def _layout_resolver(layout: _ScopeLayout):
    """Column resolver for :func:`compile_predicate` over a scope layout.

    Resolution happens once at compile time; the returned accessors read
    the addressed part row directly per evaluation — no per-row scope
    object, no per-lookup name formatting. Names the layout cannot resolve
    compile to closures raising the interpreter's exact error (preserving
    "no rows evaluated, no error"), except when an outer scope exists:
    there the name may be a correlated reference, so compilation bails to
    the interpreter via :class:`CannotCompile`.
    """
    qualified = layout._qualified
    unqualified = layout._unqualified
    ambiguous = layout.ambiguous
    has_outer = layout.outer is not None

    def resolve(ref: ast.ColumnRef):
        if ref.table is not None:
            target = qualified.get(f"{ref.table.lower()}.{ref.name.lower()}")
        else:
            name = ref.name.lower()
            if name in ambiguous:
                return _raising_accessor(
                    UnknownColumnError(
                        f"column reference {ref.name!r} is ambiguous"
                    )
                )
            target = unqualified.get(name)
        if target is None:
            if has_outer:
                raise CannotCompile
            return _raising_accessor(
                UnknownColumnError(f"column {ref} does not exist")
            )
        binding, column = target

        def accessor(parts, binding=binding, column=column):
            row = parts.get(binding)
            return None if row is None else row.get(column)

        return accessor

    return resolve


class _TupleRow:
    """Mapping-shaped row over a result tuple plus a shared name->index map.

    Derived sources (subqueries, views) used to copy every result row into
    a fresh ``dict(zip(columns, row))`` that downstream operators then
    re-walked one lookup at a time; this view keeps the tuple and shares a
    single index map across every row of the source. Duplicate output
    names resolve to the last occurrence, matching the dict they replace.
    """

    __slots__ = ("_index", "_values")

    def __init__(self, index: dict[str, int], values: tuple):
        self._index = index
        self._values = values

    def get(self, column: str) -> Any:
        i = self._index.get(column)
        return None if i is None else self._values[i]


def _tuple_rows(columns: list[str], rows: list[tuple]) -> "list[_TupleRow]":
    index = {name: i for i, name in enumerate(columns)}
    return [_TupleRow(index, row) for row in rows]


class _BatchRowView:
    """Mapping-shaped view of one row of a column batch.

    Stands in for a row dict inside joined-row ``parts`` so per-row
    fallback evaluation on the batch path (subquery-bearing predicates,
    interpreter mode) reads straight from the batch's column lists —
    ``columns`` and ``index`` are re-pointed by the pipeline as it walks.
    Columns the statement never references are not materialized and so
    read as missing; the batch pipeline materializes *every* column
    whenever static reference analysis bails (stars, subqueries), which
    is exactly when an unlisted name could be read.
    """

    __slots__ = ("columns", "index")

    def __init__(self):
        self.columns: dict[str, list] = {}
        self.index = 0

    def get(self, column: str) -> Any:
        col = self.columns.get(column)
        return col[self.index] if col is not None else None


def _batch_layout_resolver(layout: _ScopeLayout):
    """Batch-column resolver for :func:`compile_batch_expr` — the
    vectorized mirror of :func:`_layout_resolver`: same compile-time
    resolution and the same :class:`CannotCompile` bail for possibly
    correlated names. Unresolvable names compile to columns of *deferred*
    errors (:func:`batch_raiser`) rather than raising accessors: a
    short-circuiting AND may never consume those elements, and a batch
    must not raise on rows the row-at-a-time plan would have skipped."""
    qualified = layout._qualified
    unqualified = layout._unqualified
    ambiguous = layout.ambiguous
    has_outer = layout.outer is not None

    def resolve(ref: ast.ColumnRef):
        if ref.table is not None:
            target = qualified.get(f"{ref.table.lower()}.{ref.name.lower()}")
        else:
            name = ref.name.lower()
            if name in ambiguous:
                return batch_raiser(
                    UnknownColumnError(
                        f"column reference {ref.name!r} is ambiguous"
                    )
                )
            target = unqualified.get(name)
        if target is None:
            if has_outer:
                raise CannotCompile
            return batch_raiser(
                UnknownColumnError(f"column {ref} does not exist")
            )
        _, column = target

        def accessor(batch, column=column):
            return batch.columns[column]

        return accessor

    return resolve


def _collect_column_refs(expr: ast.Expr | None, out: set[str]) -> bool:
    """Collect lowercased column names ``expr`` references into ``out``.

    Returns False when the reference set is not statically determinable
    (stars, subqueries, unknown node kinds) — the batch pipeline then
    materializes every column. ``COUNT(*)`` is the deliberate exception:
    its star touches no concrete column, and it is the scan shape the
    batch path exists to accelerate."""
    if expr is None or isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.ColumnRef):
        out.add(expr.name.lower())
        return True
    if isinstance(expr, ast.UnaryOp):
        return _collect_column_refs(expr.operand, out)
    if isinstance(expr, ast.BinaryOp):
        return _collect_column_refs(expr.left, out) and _collect_column_refs(
            expr.right, out
        )
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            args = [a for a in expr.args if not isinstance(a, ast.Star)]
        else:
            args = expr.args
        return all(_collect_column_refs(a, out) for a in args)
    if isinstance(expr, ast.CaseExpr):
        parts: list[ast.Expr | None] = [expr.operand, expr.default]
        for when, then in expr.whens:
            parts.append(when)
            parts.append(then)
        return all(_collect_column_refs(p, out) for p in parts)
    if isinstance(expr, ast.InExpr):
        if not isinstance(expr.candidates, list):
            return False  # IN (SELECT ...): subquery owns the references
        return _collect_column_refs(expr.operand, out) and all(
            _collect_column_refs(c, out) for c in expr.candidates
        )
    if isinstance(expr, ast.BetweenExpr):
        return (
            _collect_column_refs(expr.operand, out)
            and _collect_column_refs(expr.low, out)
            and _collect_column_refs(expr.high, out)
        )
    if isinstance(expr, ast.LikeExpr):
        return _collect_column_refs(expr.operand, out) and _collect_column_refs(
            expr.pattern, out
        )
    if isinstance(expr, (ast.IsNullExpr, ast.CastExpr)):
        return _collect_column_refs(expr.operand, out)
    return False  # Star, ExistsExpr, ScalarSubquery, anything unknown


def _raise_first_batch_error(columns: list[list]) -> None:
    """Raise the deferred error the row plan would have hit first.

    The row path walks rows outermost and select items innermost, so the
    first error it raises is the minimum (row, item) pair in lexicographic
    order; within one item column only the earliest row can win."""
    best: "tuple[int, int, BatchError] | None" = None
    for c, col in enumerate(columns):
        for r, v in enumerate(col):
            if type(v) is BatchError:
                if best is None or (r, c) < (best[0], best[1]):
                    best = (r, c, v)
                break
    if best is not None:
        raise best[2].exc


def _collect_aggregates(expr: ast.Expr | None, out: list[ast.FunctionCall]) -> None:
    """Find aggregate FunctionCall nodes (not descending into subqueries)."""
    if expr is None:
        return
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            out.append(expr)
            return  # nested aggregates are invalid; don't descend
        for arg in expr.args:
            _collect_aggregates(arg, out)
        return
    if isinstance(expr, ast.BinaryOp):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, ast.UnaryOp):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.CaseExpr):
        if expr.operand:
            _collect_aggregates(expr.operand, out)
        for when, then in expr.whens:
            _collect_aggregates(when, out)
            _collect_aggregates(then, out)
        if expr.default:
            _collect_aggregates(expr.default, out)
    elif isinstance(expr, ast.InExpr):
        _collect_aggregates(expr.operand, out)
        if isinstance(expr.candidates, list):
            for c in expr.candidates:
                _collect_aggregates(c, out)
    elif isinstance(expr, ast.BetweenExpr):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.low, out)
        _collect_aggregates(expr.high, out)
    elif isinstance(expr, (ast.LikeExpr,)):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.pattern, out)
    elif isinstance(expr, ast.IsNullExpr):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.CastExpr):
        _collect_aggregates(expr.operand, out)


def _order_sensitive_expr(expr: ast.Expr | None) -> bool:
    """Whether evaluating ``expr`` for a single ungrouped aggregate row can
    observe the input row order (bare column refs read the group's first
    row; subqueries may correlate against it). Conservative: unknown node
    kinds count as sensitive."""
    if expr is None:
        return False
    if isinstance(expr, ast.Literal):
        return False
    if isinstance(expr, (ast.ColumnRef, ast.Star)):
        return True
    if isinstance(expr, (ast.ScalarSubquery, ast.ExistsExpr)):
        return True
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            return False  # caller restricts to COUNT, which is order-free
        return any(_order_sensitive_expr(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _order_sensitive_expr(expr.left) or _order_sensitive_expr(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _order_sensitive_expr(expr.operand)
    if isinstance(expr, ast.CaseExpr):
        return (
            _order_sensitive_expr(expr.operand)
            or any(
                _order_sensitive_expr(when) or _order_sensitive_expr(then)
                for when, then in expr.whens
            )
            or _order_sensitive_expr(expr.default)
        )
    if isinstance(expr, ast.InExpr):
        if not isinstance(expr.candidates, list):
            return True  # IN (SELECT ...) may correlate
        return _order_sensitive_expr(expr.operand) or any(
            _order_sensitive_expr(c) for c in expr.candidates
        )
    if isinstance(expr, ast.BetweenExpr):
        return (
            _order_sensitive_expr(expr.operand)
            or _order_sensitive_expr(expr.low)
            or _order_sensitive_expr(expr.high)
        )
    if isinstance(expr, ast.LikeExpr):
        return _order_sensitive_expr(expr.operand) or _order_sensitive_expr(
            expr.pattern
        )
    if isinstance(expr, (ast.IsNullExpr, ast.CastExpr)):
        return _order_sensitive_expr(expr.operand)
    return True


def _order_insensitive_output(
    stmt: ast.SelectStatement, aggregates: list[ast.FunctionCall]
) -> bool:
    """True when the statement's output provably ignores input row order.

    The qualifying shape is the agent-common ``SELECT COUNT(*) FROM ...``:
    one ungrouped aggregate row whose expressions never read a concrete
    row (COUNT only — SUM/AVG float accumulation is order-sensitive at the
    bit level, and bare columns read the first row of the group). Index
    probes feeding such statements may skip their rid sort.
    """
    if stmt.group_by or stmt.distinct or stmt.set_op is not None:
        return False
    if not aggregates or any(a.name != "COUNT" for a in aggregates):
        return False
    exprs: list[ast.Expr | None] = [item.expr for item in stmt.items]
    exprs.append(stmt.having)
    exprs.extend(order.expr for order in stmt.order_by)
    return not any(_order_sensitive_expr(e) for e in exprs)


class _AggregateEvaluator(Evaluator):
    """Evaluator that resolves aggregate calls from a precomputed map."""

    def __init__(self, run_subquery, computed: dict[int, Any]):
        super().__init__(run_subquery)
        self._computed = computed

    def _eval_FunctionCall(self, expr: ast.FunctionCall, scope: Scope) -> Any:
        if expr.name in AGGREGATE_NAMES:
            try:
                return self._computed[id(expr)]
            except KeyError:
                raise ExecutionError(
                    f"aggregate {expr.name}() used in an invalid position"
                ) from None
        return super()._eval_FunctionCall(expr, scope)


_NULL_SENTINEL = ("<null>",)

#: ORDER BY sort keys and SortedIndex entry order share one total order —
#: that identity is what lets an index-ordered scan replace a sort
#: bit-for-bit, so there is exactly one definition (storage.py)
_sort_key_element = ordering_key_element


# --------------------------------------------------------------------------
# executor
# --------------------------------------------------------------------------


class Executor:
    def __init__(self, database: "Database"):
        self.db = database

    # ------------------------------------------------------------ dispatch

    def execute(self, stmt: ast.Statement, session: "Session") -> ResultSet:
        name = type(stmt).__name__
        handler = getattr(self, f"_exec_{name}", None)
        if handler is None:
            raise ExecutionError(f"unsupported statement {name}")
        return handler(stmt, session)

    # -------------------------------------------------------------- SELECT

    def _exec_SelectStatement(
        self, stmt: ast.SelectStatement, session: "Session"
    ) -> ResultSet:
        columns, rows = self._run_select(stmt, session, outer=None)
        return ResultSet(columns=columns, rows=rows, rowcount=len(rows), status="SELECT")

    def _run_select(
        self,
        stmt: ast.SelectStatement,
        session: "Session",
        outer: Scope | None,
    ) -> tuple[list[str], list[tuple]]:
        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, sub_rows = self._run_select(sub, session, outer=scope)
            return sub_rows

        evaluator = Evaluator(run_subquery)

        # single-source predicate pushdown only pays off when the filtered
        # rows feed a join; single-table queries apply WHERE once, below
        prefilter = (len(stmt.from_sources) + len(stmt.joins)) > 1
        statement_sources = self._statement_sources(stmt) if prefilter else None

        # aggregates are collected from the raw select list (star items can
        # never contain one), so grouping — and with it order sensitivity —
        # is known before any source is scanned
        aggregates: list[ast.FunctionCall] = []
        for item in stmt.items:
            _collect_aggregates(item.expr, aggregates)
        _collect_aggregates(stmt.having, aggregates)
        for order in stmt.order_by:
            _collect_aggregates(order.expr, aggregates)
        grouped = bool(stmt.group_by) or bool(aggregates)
        order_insensitive = _order_insensitive_output(stmt, aggregates)

        # single-table ORDER BY fast path: when a sorted index already
        # yields rows in ORDER BY order, scan it directly (early-exiting
        # after OFFSET+LIMIT surviving rows) and skip the sort below
        where_handled = False
        order_handled = False
        ordered_source = None
        order = self._ordered_scan_shape(stmt)
        if order is not None:
            ordered_source = self._try_ordered_scan(
                stmt, session, outer, evaluator, order
            )

        if ordered_source is None and self._batch_select_shape(stmt):
            # column-batch (vectorized) pipeline: single-table statements
            # run batch-at-a-time over RowBatch column slices, amortizing
            # interpreter dispatch across ~batch_size rows instead of
            # paying it per row. Produces the same (columns, rows, order
            # keys) triple the row path below would; the shared tail
            # (DISTINCT, set ops, ORDER BY, OFFSET/LIMIT) is untouched
            out_columns, out_rows, order_keys = self._run_select_batched(
                stmt, session, outer, evaluator, aggregates, grouped,
                order_insensitive, run_subquery,
            )
        else:
            if ordered_source is not None:
                all_sources = [ordered_source]
                joined = [
                    _JoinedRow({ordered_source.binding: row})
                    for row in ordered_source.rows
                ]
                where_handled = True
                order_handled = True
            else:
                # fold FROM sources one at a time (hash-joining on WHERE equi
                # conjuncts where possible) instead of materializing the full
                # cross product, then fold the explicit joins the same way
                all_sources = []
                joined = [_JoinedRow({})]
                for src in stmt.from_sources:
                    source = self._resolve_source(
                        src, session, outer, stmt.where, statement_sources,
                        order_insensitive,
                    )
                    if all_sources:
                        joined = self._join_relation(
                            joined, all_sources, source, "INNER", None,
                            stmt.where, evaluator, outer, statement_sources,
                        )
                    else:
                        joined = [
                            _JoinedRow({source.binding: row})
                            for row in source.rows
                        ]
                    all_sources.append(source)

                for join in stmt.joins:
                    right = self._resolve_source(
                        join.source, session, outer, stmt.where,
                        statement_sources, order_insensitive,
                    )
                    joined = self._join_relation(
                        joined, all_sources, right, join.kind, join.condition,
                        stmt.where, evaluator, outer, statement_sources,
                    )
                    all_sources.append(right)

            layout = _ScopeLayout(all_sources, outer)
            make_scope = layout.scope

            if stmt.where is not None and not where_handled:
                where_fn = self._compile_filter(stmt.where, layout, evaluator)
                joined = [jr for jr in joined if where_fn(jr.parts)]

            # expand stars into concrete items
            items = self._expand_items(stmt.items, all_sources)
            out_columns = [
                self._item_name(item, index) for index, item in enumerate(items)
            ]

            if grouped:
                out_rows, order_keys = self._run_grouped(
                    stmt, items, joined, make_scope, evaluator, aggregates,
                    run_subquery,
                )
            else:
                out_rows = []
                order_keys = []
                for jr in joined:
                    scope = make_scope(jr)
                    out_rows.append(
                        tuple(
                            evaluator.evaluate(item.expr, scope)
                            for item in items
                        )
                    )
                    if stmt.order_by and not order_handled:
                        order_keys.append(
                            self._order_key(
                                stmt.order_by, items, out_rows[-1], scope,
                                evaluator,
                            )
                        )

        if stmt.distinct:
            out_rows, order_keys = self._distinct(out_rows, order_keys)

        if stmt.set_op is not None:
            kind, rhs = stmt.set_op
            rhs_columns, rhs_rows = self._run_select(rhs, session, outer)
            if len(rhs_columns) != len(out_columns):
                raise ExecutionError(
                    f"{kind} operands must have the same number of columns"
                )
            out_rows = self._apply_set_op(kind, out_rows, rhs_rows)
            order_keys = []

        if order_handled:
            pass  # rows arrived in ORDER BY order from the sorted index
        elif stmt.order_by and order_keys:
            bound = None
            if stmt.limit is not None and self.db.planner_options.get(
                "enable_topn", True
            ):
                bound = stmt.limit + (stmt.offset or 0)
            if bound is not None and bound < len(out_rows):
                # bounded top-N: heapq.nsmallest with a key is documented
                # equivalent to sorted(...)[:n] (stable on equal keys), so
                # this returns the same rows in the same order without
                # sorting the discarded tail
                self.db.bump_planner_stat("topn_limits")
                paired = heapq.nsmallest(
                    bound, zip(order_keys, out_rows), key=lambda p: p[0]
                )
            else:
                paired = sorted(zip(order_keys, out_rows), key=lambda p: p[0])
            out_rows = [row for _, row in paired]
        elif stmt.order_by and not order_keys and out_rows:
            # set-op result ordered by ordinal/alias only
            out_rows = self._order_by_output(stmt.order_by, out_columns, out_rows)

        offset = stmt.offset or 0
        if offset:
            out_rows = out_rows[offset:]
        if stmt.limit is not None:
            out_rows = out_rows[: stmt.limit]

        return out_columns, out_rows

    def _run_grouped(
        self, stmt, items, joined, make_scope, evaluator, aggregates, run_subquery
    ) -> tuple[list[tuple], list[tuple]]:
        # bucket rows by group-by key
        groups: dict[tuple, list] = {}
        group_order: list[tuple] = []
        for jr in joined:
            scope = make_scope(jr)
            if stmt.group_by:
                key_values = tuple(
                    evaluator.evaluate(g, scope) for g in stmt.group_by
                )
                key = tuple(
                    _NULL_SENTINEL if v is None else (type(v).__name__, v)
                    for v in key_values
                )
            else:
                key = ()
            if key not in groups:
                groups[key] = []
                group_order.append(key)
            groups[key].append(jr)

        if not stmt.group_by and not groups:
            groups[()] = []
            group_order.append(())

        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for key in group_order:
            members = groups[key]
            computed: dict[int, Any] = {}
            for agg in aggregates:
                acc = make_aggregate(agg.name, agg.distinct)
                star = bool(agg.args) and isinstance(agg.args[0], ast.Star)
                if agg.name == "COUNT" and (star or not agg.args):
                    for _ in members:
                        acc.add(1)
                else:
                    if not agg.args:
                        raise ExecutionError(f"{agg.name}() requires an argument")
                    for jr in members:
                        acc.add(evaluator.evaluate(agg.args[0], make_scope(jr)))
                computed[id(agg)] = acc.result()
            agg_eval = _AggregateEvaluator(run_subquery, computed)
            rep_scope = (
                make_scope(members[0])
                if members
                else Scope({}, {}, frozenset(), None)
            )
            if stmt.having is not None and not agg_eval.evaluate_predicate(
                stmt.having, rep_scope
            ):
                continue
            row = tuple(agg_eval.evaluate(item.expr, rep_scope) for item in items)
            out_rows.append(row)
            if stmt.order_by:
                order_keys.append(
                    self._order_key(stmt.order_by, items, row, rep_scope, agg_eval)
                )
        return out_rows, order_keys

    def _join_relation(
        self, left_rows, left_sources, right, kind, condition, where,
        evaluator, outer, statement_sources=None,
    ) -> list[_JoinedRow]:
        """Fold ``right`` onto the joined relation using the planned strategy."""
        trace = self.db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        plan = plan_join(
            kind,
            condition,
            where,
            [(s.binding, s.columns) for s in left_sources],
            right.binding,
            right.columns,
            allow_hash=self.db.planner_options.get("enable_hash_join", True),
            statement_sources=statement_sources,
        )
        if plan.strategy == "hash":
            self.db.bump_planner_stat("hash_joins")
            result = self._hash_join(
                left_rows, left_sources, right, plan, evaluator, outer
            )
        elif plan.strategy == "cross":
            result = [
                jr.extended(right.binding, row)
                for jr in left_rows
                for row in right.rows
            ]
        else:
            self.db.bump_planner_stat("nested_loop_joins")
            result = self._nested_loop_join(
                left_rows, left_sources, right, kind, condition, evaluator, outer
            )
        if trace is not None:
            trace.record_join(
                right.binding, plan.strategy, len(result), perf_counter() - started
            )
        return result

    @staticmethod
    def _join_key_valid(key: tuple) -> bool:
        # SQL equality is never true against NULL; NaN != NaN guards the
        # dict-identity shortcut that would otherwise match a shared object
        return not any(v is None or v != v for v in key)

    def _hash_join(
        self, left_rows, left_sources, right, plan: JoinPlan, evaluator, outer
    ) -> list[_JoinedRow]:
        right_binding = right.binding
        right_key_columns = [k.right_column for k in plan.keys]
        left_key_columns = [(k.left_binding, k.left_column) for k in plan.keys]

        buckets: dict[tuple, list[tuple[int, Row]]] = {}
        for index, row in enumerate(right.rows):
            key = tuple(row.get(c) for c in right_key_columns)
            if self._join_key_valid(key):
                buckets.setdefault(key, []).append((index, row))

        # probe-side residuals run once per candidate pair: compile them
        # (falling back to the interpreter for subquery-bearing residuals)
        residual_fn = (
            self._compile_filter(
                plan.residual,
                _ScopeLayout(left_sources + [right], outer),
                evaluator,
            )
            if plan.residual is not None
            else None
        )
        kind = plan.kind
        track_rights = kind == "RIGHT"
        matched_rights: set[int] = set()
        result: list[_JoinedRow] = []
        empty: list = []
        for jr in left_rows:
            parts = jr.parts
            key = tuple(
                None if (row := parts.get(binding)) is None else row.get(column)
                for binding, column in left_key_columns
            )
            matches = (
                buckets.get(key, empty) if self._join_key_valid(key) else empty
            )
            matched = False
            for index, right_row in matches:
                if residual_fn is not None and not residual_fn(
                    _PartsOverlay(parts, right_binding, right_row)
                ):
                    continue
                result.append(jr.extended(right_binding, right_row))
                matched = True
                if track_rights:
                    matched_rights.add(index)
            if kind == "LEFT" and not matched:
                result.append(jr.extended(right_binding, None))
        if kind == "RIGHT":
            empty_left = _JoinedRow(
                {source.binding: None for source in left_sources}
            )
            for index, row in enumerate(right.rows):
                if index not in matched_rights:
                    result.append(empty_left.extended(right_binding, row))
        return result

    def _nested_loop_join(
        self, left_rows, left_sources, right, kind, condition, evaluator, outer
    ) -> list[_JoinedRow]:
        layout = _ScopeLayout(left_sources + [right], outer)
        binding = right.binding
        result: list[_JoinedRow] = []
        if kind in ("INNER", "LEFT"):
            for jr in left_rows:
                matched = False
                for row in right.rows:
                    if evaluator.evaluate_predicate(
                        condition, layout.pair_scope(jr, binding, row)
                    ):
                        result.append(jr.extended(binding, row))
                        matched = True
                if kind == "LEFT" and not matched:
                    result.append(jr.extended(binding, None))
            return result
        if kind == "RIGHT":
            matched_rights: set[int] = set()
            for jr in left_rows:
                for index, row in enumerate(right.rows):
                    if evaluator.evaluate_predicate(
                        condition, layout.pair_scope(jr, binding, row)
                    ):
                        result.append(jr.extended(binding, row))
                        matched_rights.add(index)
            empty_left = _JoinedRow(
                {source.binding: None for source in left_sources}
            )
            for index, row in enumerate(right.rows):
                if index not in matched_rights:
                    result.append(empty_left.extended(binding, row))
            return result
        raise ExecutionError(f"unsupported join kind {kind}")

    def _resolve_source(
        self,
        source: "ast.TableRef | ast.SubqueryRef",
        session: "Session",
        outer: Scope | None,
        where: ast.Expr | None = None,
        statement_sources: list[tuple[str, list[str] | None]] | None = None,
        order_insensitive: bool = False,
    ) -> _Source:
        trace = self.db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        scan_kind = "seq"
        examined = 0
        if isinstance(source, ast.SubqueryRef):
            columns, rows = self._run_select(source.subquery, session, outer)
            derived_rows = _tuple_rows(columns, rows)
            resolved = _Source(source.alias, columns, derived_rows)
            scan_kind, examined = "subquery", len(derived_rows)
        elif is_system_relation(source.name):
            # observability system views: virtual read-only relations
            # served from already-synchronized snapshots, so no table lock
            # is taken — introspection never blocks the system
            columns, dict_rows = system_view_rows(self.db, source.name)
            resolved = _Source(source.binding, columns, dict_rows)
            scan_kind, examined = "system", len(dict_rows)
        elif self.db.catalog.has_view(source.name):
            view = self.db.catalog.view(source.name)
            columns, rows = self._run_select(view.select, session, outer)
            derived_rows = _tuple_rows(columns, rows)
            resolved = _Source(source.binding, columns, derived_rows)
            scan_kind, examined = "view", len(derived_rows)
        else:
            # reads take a shared table lock, held to transaction end
            # (no-op without a lock manager); views never reach this
            # branch — their expansion re-enters here per underlying
            # table. Schema resolved after the lock grant (see
            # _locked_table): a scan that blocked behind DROP + CREATE
            # must see the recreated columns
            schema = self._locked_table(session, source.name, "S")
            heap = self.db.heap(schema.name)
            scan_kind, rids = self._scan_rids(
                schema.name, heap, where, source.binding, statement_sources,
                order_insensitive,
            )
            # copy: live heap dicts are mutated in place by in-statement
            # schema changes and must not alias an in-flight scan
            if rids is None:
                rows = [dict(row) for _, row in heap.rows()]
            else:
                rows = []
                for rid in rids:
                    row = heap.get(rid)  # fetched once per rid
                    if row is not None:
                        rows.append(dict(row))
            resolved = _Source(source.binding, schema.column_names(), rows)
            examined = len(rows)
        if statement_sources is not None:
            self._prefilter_source(resolved, where, statement_sources)
        if trace is not None:
            trace.record_scan(
                resolved.binding,
                scan_kind,
                len(resolved.rows),
                examined,
                perf_counter() - started,
            )
        return resolved

    def _plan_scan(
        self,
        table: str,
        heap: HeapTable,
        where: ast.Expr | None,
        binding: str,
        statement_sources: list[tuple[str, list[str] | None]] | None = None,
    ) -> TableScan:
        """:func:`plan_table_scan` under this database's settings: the
        ``enable_index_scan`` toggle and the table's ANALYZE statistics
        (staleness is checked by the planner against the live heap's uid).
        Execution, the ordered-scan match and EXPLAIN all plan here."""
        return plan_table_scan(
            table,
            heap,
            where,
            binding,
            statement_sources,
            allow_index=self.db.planner_options.get("enable_index_scan", True),
            stats=self.db.catalog.statistics.get(table.lower()),
        )

    def _scan_rids(
        self,
        table: str,
        heap: HeapTable,
        where: ast.Expr | None,
        binding: str,
        statement_sources: list[tuple[str, list[str] | None]] | None = None,
        order_insensitive: bool = False,
    ) -> tuple[str, list[int] | None]:
        """Open one base-table scan: plan it, count it in ``planner_stats``
        and return ``(path kind, rids)``.

        ``rids`` are the index probe / range slice / union candidates, or
        ``None`` for a sequential scan. They come back in rid order, so
        every consumer sees rows exactly as a seq scan would feed them,
        except when the statement's output provably ignores row order
        (pure COUNT aggregation) and the sort is skipped. Candidates are a
        superset of the answer: callers re-apply the full WHERE.
        """
        scan = self._plan_scan(table, heap, where, binding, statement_sources)
        path, index = scan.path, scan.index
        # seq_scans | index_scans | range_scans | union_scans
        self.db.bump_planner_stat(f"{path.kind}_scans")
        if path.kind == "seq":
            return path.kind, None
        if path.kind == "index":
            rids = index.probe(scan.key)
        elif path.kind == "range":
            rng = path.range
            rids = index.range_rids(
                path.prefix_values, rng.low, rng.high, rng.incl_low, rng.incl_high
            )
        else:
            rids = self._union_rids(index, path.union)
        return path.kind, list(rids) if order_insensitive else sorted(rids)

    @staticmethod
    def _union_rids(index, union) -> set[int]:
        """Deduplicated rids of every union member: hash probes for
        points on a hash index, equality-run / range slices on a btree.
        Over-approximation (ordering keys coalesce 1/1.0/TRUE) is fine —
        the full WHERE is re-applied to the candidates."""
        rids: set[int] = set()
        if index.kind == "hash":
            for value in union.points:
                rids |= index.probe((value,))
            return rids
        for value in union.points:
            rids.update(index.range_rids((value,)))
        for rng in union.ranges:
            rids.update(
                index.range_rids(
                    (), rng.low, rng.high, rng.incl_low, rng.incl_high
                )
            )
        return rids

    def _compile_filter(
        self, expr: ast.Expr, layout: _ScopeLayout, evaluator: Evaluator
    ):
        """A predicate as ``fn(parts) -> bool`` over joined-row parts.

        The compiled closure chain when possible; otherwise (subqueries,
        possibly correlated names, or compiled predicates disabled via
        ``planner_options``) a closure that runs ``evaluator`` over the
        layout's scope for the same parts. Callers never branch on which."""
        fn = None
        if self.db.planner_options.get("enable_compiled_predicates", True):
            fn = compile_predicate(expr, _layout_resolver(layout))
        if fn is None:
            fn = lambda parts: evaluator.evaluate_predicate(  # noqa: E731
                expr, layout.scope_parts(parts)
            )
        return fn

    def _ordered_scan_shape(
        self, stmt: ast.SelectStatement
    ) -> tuple[list[str], bool] | None:
        """Structural gate for the ordered-scan fast path, the one both
        :meth:`_run_select` and EXPLAIN consult: one base-table source, no
        machinery (grouping, aggregates, DISTINCT, set ops) between scan
        order and output order, and an ORDER BY of plain same-direction
        columns of that source, none shadowed by an output alias (DESC
        only for a single column). Returns ``(lowered order columns,
        reverse)`` or ``None``; takes no locks."""
        if not stmt.order_by or stmt.group_by or stmt.distinct:
            return None
        if stmt.set_op is not None or len(stmt.from_sources) != 1 or stmt.joins:
            return None
        src = stmt.from_sources[0]
        if not isinstance(src, ast.TableRef):
            return None
        catalog = self.db.catalog
        if catalog.has_view(src.name) or not catalog.has_table(src.name):
            return None
        aggregates: list[ast.FunctionCall] = []
        for item in stmt.items:
            _collect_aggregates(item.expr, aggregates)
        _collect_aggregates(stmt.having, aggregates)
        for order in stmt.order_by:
            _collect_aggregates(order.expr, aggregates)
        if aggregates:
            return None
        directions = {order.descending for order in stmt.order_by}
        if len(directions) != 1:
            return None  # mixed ASC/DESC: no single index order matches
        reverse = directions.pop()
        aliases = {item.alias.lower() for item in stmt.items if item.alias}
        binding_key = src.binding.lower()
        order_columns: list[str] = []
        for order in stmt.order_by:
            expr = order.expr
            if not isinstance(expr, ast.ColumnRef):
                return None
            if expr.table is not None and expr.table.lower() != binding_key:
                return None
            if expr.table is None and expr.name.lower() in aliases:
                return None  # orders by the output item, not the column
            order_columns.append(expr.name.lower())
        if reverse and len(order_columns) != 1:
            return None
        return order_columns, reverse

    def _match_ordered_index(
        self,
        stmt: ast.SelectStatement,
        schema: TableSchema,
        heap: HeapTable,
        order: tuple[list[str], bool],
    ):
        """The sorted index whose order *is* the statement's ORDER BY:
        its columns are exactly the WHERE-equality-bound prefix followed
        by the ORDER BY columns. Returns ``(index, prefix_values, range,
        reverse)`` or ``None``. Execution and EXPLAIN both match here, on
        the table's one access-path plan."""
        order_columns, reverse = order
        # sorted indexes ending in the ORDER BY columns; only when one
        # exists is the WHERE worth planning
        candidates = []
        for index in heap.indexes.values():
            columns = [c.lower() for c in index.columns]
            prefix_len = len(columns) - len(order_columns)
            if index.kind == "btree" and prefix_len >= 0:
                if columns[prefix_len:] == order_columns:
                    candidates.append((index, columns, prefix_len))
        if not candidates:
            return None
        scan = self._plan_scan(
            schema.name, heap, stmt.where, stmt.from_sources[0].binding
        )
        # cost check: a fully equality-bound probe (or a disjunctive union
        # probe set) is strictly more selective than scanning in order,
        # and a range on a column the ordered index does not cover prunes
        # rows the ordered scan would have to filter one by one — in these
        # cases the generic path plus the bounded top-N sort wins
        path = scan.path
        if not scan.allow_index or path.kind in ("index", "union"):
            return None
        for index, columns, prefix_len in candidates:
            if not all(c in scan.equalities for c in columns[:prefix_len]):
                continue
            if path.kind == "range" and path.range_column.lower() not in columns:
                return None
            prefix_values = tuple(scan.equalities[c] for c in columns[:prefix_len])
            return index, prefix_values, scan.ranges.get(columns[prefix_len]), reverse
        return None

    def _try_ordered_scan(
        self,
        stmt: ast.SelectStatement,
        session: "Session",
        outer: Scope | None,
        evaluator: Evaluator,
        order: tuple[list[str], bool],
    ) -> _Source | None:
        """Resolve a single-table SELECT through a sorted index in ORDER BY
        order, or return ``None``.

        ``order`` is the gate's verdict (:meth:`_ordered_scan_shape`); the
        index comes from :meth:`_match_ordered_index` — then index order
        *is* the statement's sort order, ties included: equal keys store
        rids ascending, matching the stable sort over a rid-ordered scan.
        DESC is served for single-column suffixes only (see
        :meth:`SortedIndex.ordered_rids` for why reverse order is not a
        plain reversal). The returned source has the WHERE predicate
        already applied, stopping after OFFSET+LIMIT surviving rows — the
        early exit that makes ``ORDER BY ... LIMIT k`` O(k) instead of
        O(n log n). Rows past the exit are never evaluated, so a
        predicate whose error only a later row would trigger does not
        raise here — the planner's documented error-surfacing contract
        (see :mod:`repro.minidb.planner`), shared with every other
        row-pruning plan.
        """
        db = self.db
        src = stmt.from_sources[0]
        schema = self._locked_table(session, src.name, "S")
        heap = db.heap(schema.name)
        match = self._match_ordered_index(stmt, schema, heap, order)
        if match is None:
            return None
        index, prefix_values, rng, reverse = match
        if rng is None:
            start, end = index.slice_bounds(prefix_values)
        else:
            start, end = index.slice_bounds(
                prefix_values, rng.low, rng.high, rng.incl_low, rng.incl_high
            )
        db.bump_planner_stat("ordered_scans")
        trace = db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        source = _Source(src.binding, schema.column_names(), [])
        where_fn = (
            self._compile_filter(
                stmt.where, _ScopeLayout([source], outer), evaluator
            )
            if stmt.where is not None
            else None
        )
        needed = (
            stmt.limit + (stmt.offset or 0) if stmt.limit is not None else None
        )
        binding = source.binding
        rows = source.rows
        examined = 0
        for rid in index.ordered_rids(reverse, start, end, prefix_values):
            if needed is not None and len(rows) >= needed:
                break
            examined += 1
            row = heap.get(rid)
            if row is None:
                continue
            row = dict(row)
            if where_fn is not None and not where_fn({binding: row}):
                continue
            rows.append(row)
        if trace is not None:
            trace.record_scan(
                binding, "ordered", len(rows), examined, perf_counter() - started
            )
        return source

    # ------------------------------------------------- column-batch pipeline

    def _batch_select_shape(self, stmt: ast.SelectStatement) -> bool:
        """Structural gate for the column-batch pipeline, the one both
        :meth:`_run_select` and EXPLAIN consult (each only after the
        ordered-scan match declined): enabled via ``planner_options`` and
        exactly one plain base-table source with no joins. Takes no locks;
        an unknown table falls through to the row path, which raises the
        usual error."""
        if not self.db.planner_options.get("enable_batch_execution", True):
            return False
        if len(stmt.from_sources) != 1 or stmt.joins:
            return False
        src = stmt.from_sources[0]
        if not isinstance(src, ast.TableRef):
            return False
        if is_system_relation(src.name) or self.db.catalog.has_view(src.name):
            return False
        return self.db.catalog.has_table(src.name)

    @staticmethod
    def _referenced_columns(
        stmt: ast.SelectStatement, all_columns: list[str]
    ) -> list[str]:
        """Table columns the statement can touch, in schema order.

        Statically walks every expression position; whenever the
        reference set is not determinable (stars, subqueries) every
        column is materialized — exactly the cases where per-row
        fallback evaluation could read an arbitrary name."""
        refs: set[str] = set()
        exprs: list[ast.Expr | None] = [item.expr for item in stmt.items]
        exprs.append(stmt.where)
        exprs.extend(stmt.group_by)
        exprs.append(stmt.having)
        exprs.extend(order.expr for order in stmt.order_by)
        for expr in exprs:
            if not _collect_column_refs(expr, refs):
                return list(all_columns)
        return [c for c in all_columns if c.lower() in refs]

    def _run_select_batched(
        self,
        stmt: ast.SelectStatement,
        session: "Session",
        outer: Scope | None,
        evaluator: Evaluator,
        aggregates: list[ast.FunctionCall],
        grouped: bool,
        order_insensitive: bool,
        run_subquery,
    ) -> tuple[list[str], list[tuple], list[tuple]]:
        """Single-table SELECT over the column-batch pipeline.

        Scans the heap batch-at-a-time (through :meth:`_scan_rids`, like
        :meth:`_resolve_source`), applies WHERE as a
        vectorized mask, and projects/aggregates over the surviving
        column slices. Anything the batch compiler punts on is evaluated
        per row *inside* the batch through a :class:`_BatchRowView`, so
        the pipeline shape is preserved even for interpreter-only
        expressions. Error surfacing follows the planner's documented
        contract: batch kernels defer per-element errors, and consumers
        raise the first deferred error in row-major order — the moment
        the row-at-a-time plan would have raised it. One divergence is
        pinned here: on an erroring WHERE the scan trace event reports
        only the batches examined before the error, where the row path
        (scan and filter being separate stages) would have reported the
        full table; statements that complete report identical events.
        """
        db = self.db
        src = stmt.from_sources[0]
        schema = self._locked_table(session, src.name, "S")
        heap = db.heap(schema.name)
        all_columns = schema.column_names()
        source = _Source(src.binding, all_columns, [])
        layout = _ScopeLayout([source], outer)
        compiled_ok = db.planner_options.get("enable_compiled_predicates", True)
        resolver = _batch_layout_resolver(layout)

        def batch_compile(expr):
            # the vectorized kernels lift the compiled-predicate seam, so
            # they honor the same planner toggle: with compiled predicates
            # disabled every expression takes the per-row fallback
            if not compiled_ok:
                return None
            try:
                return compile_batch_expr(expr, resolver)
            except CannotCompile:
                return None

        needed = self._referenced_columns(stmt, all_columns)
        view = _BatchRowView()
        parts: dict[str, Any] = {src.binding: view}

        where = stmt.where
        batch_where = batch_compile(where) if where is not None else None
        row_where = None
        if where is not None and batch_where is None:
            row_where = self._compile_filter(where, layout, evaluator)

        # the row path's access path and planner counters, plus
        # batch_scans recording that the scan ran vectorized
        scan_kind, rids = self._scan_rids(
            schema.name, heap, where, src.binding, None, order_insensitive
        )
        db.bump_planner_stat("batch_scans")

        batch_size = db.planner_options.get("batch_size", DEFAULT_BATCH_SIZE)
        if not isinstance(batch_size, int) or batch_size <= 0:
            batch_size = DEFAULT_BATCH_SIZE
        if rids is not None:

            def rid_batches():
                for start in range(0, len(rids), batch_size):
                    yield heap.fetch_batch(rids[start : start + batch_size], needed)

            batch_iter = rid_batches()
        else:
            batch_iter = heap.rows_batch(batch_size, needed)

        trace = db.tracer.current()
        started = perf_counter() if trace is not None else 0.0
        sur_cols: dict[str, list] = {name: [] for name in needed}
        n_sur = 0
        examined = 0
        try:
            if where is None:
                for batch in batch_iter:
                    examined += batch.length
                    for name in needed:
                        sur_cols[name].extend(batch.columns[name])
                    n_sur += batch.length
            elif batch_where is not None:
                for batch in batch_iter:
                    examined += batch.length
                    mask = batch_where(batch)
                    keep: list[int] = []
                    append = keep.append
                    for i, v in enumerate(mask):
                        if v is True:
                            append(i)
                        elif type(v) is BatchError:
                            raise v.exc
                    if len(keep) == batch.length:
                        for name in needed:
                            sur_cols[name].extend(batch.columns[name])
                    elif keep:
                        for name in needed:
                            col = batch.columns[name]
                            sur_cols[name].extend([col[i] for i in keep])
                    n_sur += len(keep)
            else:
                # per-row fallback inside the batch: subqueries, or
                # compiled predicates disabled
                for batch in batch_iter:
                    examined += batch.length
                    view.columns = batch.columns
                    keep = []
                    for i in range(batch.length):
                        view.index = i
                        if row_where(parts):
                            keep.append(i)
                    if len(keep) == batch.length:
                        for name in needed:
                            sur_cols[name].extend(batch.columns[name])
                    elif keep:
                        for name in needed:
                            col = batch.columns[name]
                            sur_cols[name].extend([col[i] for i in keep])
                    n_sur += len(keep)
        finally:
            if trace is not None:
                trace.record_scan(
                    src.binding,
                    scan_kind,
                    examined,
                    examined,
                    perf_counter() - started,
                )

        items = self._expand_items(stmt.items, [source])
        out_columns = [
            self._item_name(item, index) for index, item in enumerate(items)
        ]
        sur_batch = RowBatch(None, sur_cols, n_sur)
        view.columns = sur_cols
        if grouped:
            out_rows, order_keys = self._run_grouped_batched(
                stmt, items, sur_batch, view, parts, layout, evaluator,
                aggregates, run_subquery, batch_compile,
            )
        else:
            out_rows, order_keys = self._project_batched(
                stmt, items, sur_batch, view, parts, layout, evaluator,
                batch_compile,
            )
        return out_columns, out_rows, order_keys

    def _project_batched(
        self, stmt, items, sur_batch, view, parts, layout, evaluator,
        batch_compile,
    ) -> tuple[list[tuple], list[tuple]]:
        """Ungrouped projection over surviving column slices — no per-row
        dict is ever built. All-vectorized select lists without ORDER BY
        transpose the item columns straight into output tuples."""
        n = sur_batch.length
        plans: list[tuple[bool, Any]] = []
        all_vec = True
        for item in items:
            fn = batch_compile(item.expr)
            if fn is not None:
                plans.append((True, fn(sur_batch)))
            else:
                all_vec = False
                plans.append((False, item.expr))
        if all_vec and not stmt.order_by:
            cols = [payload for _, payload in plans]
            _raise_first_batch_error(cols)
            return list(zip(*cols)) if n else [], []
        order_plans = (
            self._batched_order_plans(stmt.order_by, items, batch_compile, sur_batch)
            if stmt.order_by
            else None
        )
        scope = layout.scope_parts(parts)
        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for i in range(n):
            view.index = i
            values = []
            for is_vec, payload in plans:
                if is_vec:
                    v = payload[i]
                    if type(v) is BatchError:
                        raise v.exc
                    values.append(v)
                else:
                    values.append(evaluator.evaluate(payload, scope))
            row = tuple(values)
            out_rows.append(row)
            if order_plans is not None:
                order_keys.append(
                    self._batched_order_key(order_plans, row, i, scope, evaluator)
                )
        return out_rows, order_keys

    def _run_grouped_batched(
        self, stmt, items, sur_batch, view, parts, layout, evaluator,
        aggregates, run_subquery, batch_compile,
    ) -> tuple[list[tuple], list[tuple]]:
        """Grouped/aggregate evaluation over surviving column slices.

        Group keys come from vectorized key columns where compilable;
        groups hold member *indexes* into the slices, and each aggregate
        folds a column slice directly. Accumulation order (group, then
        aggregate, then member) matches :meth:`_run_grouped` exactly, so
        deferred errors surface at the same point the row path raises."""
        n = sur_batch.length
        scope = layout.scope_parts(parts)
        groups: dict[tuple, list[int]] = {}
        group_order: list[tuple] = []
        if stmt.group_by:
            key_plans: list[tuple[bool, Any]] = []
            for g in stmt.group_by:
                fn = batch_compile(g)
                if fn is not None:
                    key_plans.append((True, fn(sur_batch)))
                else:
                    key_plans.append((False, g))
            for i in range(n):
                view.index = i
                key_values = []
                for is_vec, payload in key_plans:
                    if is_vec:
                        v = payload[i]
                        if type(v) is BatchError:
                            raise v.exc
                    else:
                        v = evaluator.evaluate(payload, scope)
                    key_values.append(v)
                key = tuple(
                    _NULL_SENTINEL if v is None else (type(v).__name__, v)
                    for v in key_values
                )
                members = groups.get(key)
                if members is None:
                    groups[key] = members = []
                    group_order.append(key)
                members.append(i)
        elif n:
            groups[()] = list(range(n))
            group_order.append(())
        if not stmt.group_by and not groups:
            groups[()] = []
            group_order.append(())

        agg_plans: list[tuple[str, Any]] = []
        for agg in aggregates:
            star = bool(agg.args) and isinstance(agg.args[0], ast.Star)
            if agg.name == "COUNT" and (star or not agg.args):
                agg_plans.append(("count", None))
            elif not agg.args:
                agg_plans.append(("malformed", None))
            else:
                fn = batch_compile(agg.args[0])
                if fn is not None:
                    agg_plans.append(("vec", fn(sur_batch)))
                else:
                    agg_plans.append(("expr", agg.args[0]))

        out_rows: list[tuple] = []
        order_keys: list[tuple] = []
        for group_key in group_order:
            members = groups[group_key]
            computed: dict[int, Any] = {}
            for agg, (kind, payload) in zip(aggregates, agg_plans):
                acc = make_aggregate(agg.name, agg.distinct)
                if kind == "count":
                    for _ in members:
                        acc.add(1)
                elif kind == "malformed":
                    raise ExecutionError(f"{agg.name}() requires an argument")
                elif kind == "vec":
                    for i in members:
                        v = payload[i]
                        if type(v) is BatchError:
                            raise v.exc
                        acc.add(v)
                else:
                    for i in members:
                        view.index = i
                        acc.add(evaluator.evaluate(payload, scope))
                computed[id(agg)] = acc.result()
            agg_eval = _AggregateEvaluator(run_subquery, computed)
            if members:
                view.index = members[0]
                rep_scope = scope
            else:
                rep_scope = Scope({}, {}, frozenset(), None)
            if stmt.having is not None and not agg_eval.evaluate_predicate(
                stmt.having, rep_scope
            ):
                continue
            row = tuple(agg_eval.evaluate(item.expr, rep_scope) for item in items)
            out_rows.append(row)
            if stmt.order_by:
                # not vectorized: aggregate references in ORDER BY need the
                # per-group _AggregateEvaluator, so reuse the row path's key
                order_keys.append(
                    self._order_key(stmt.order_by, items, row, rep_scope, agg_eval)
                )
        return out_rows, order_keys

    def _batched_order_plans(self, order_by, items, batch_compile, sur_batch):
        """Per-ORDER-BY-item plan mirroring :meth:`_order_value`'s
        resolution: ordinal, output-alias, vectorized column, or
        interpreted expression."""
        plans = []
        for order in order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                plans.append(("ordinal", expr.value, order.descending))
                continue
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                alias_index = None
                for index, item in enumerate(items):
                    if item.alias and item.alias.lower() == expr.name.lower():
                        alias_index = index
                        break
                if alias_index is not None:
                    plans.append(("alias", alias_index, order.descending))
                    continue
            fn = batch_compile(expr)
            if fn is not None:
                plans.append(("vec", fn(sur_batch), order.descending))
            else:
                plans.append(("expr", expr, order.descending))
        return plans

    def _batched_order_key(self, plans, row, i, scope, evaluator) -> tuple:
        key_parts = []
        for kind, payload, descending in plans:
            if kind == "ordinal":
                if not (1 <= payload <= len(row)):
                    raise ExecutionError(
                        f"ORDER BY position {payload} is out of range"
                    )
                value = row[payload - 1]
            elif kind == "alias":
                value = row[payload]
            elif kind == "vec":
                value = payload[i]
                if type(value) is BatchError:
                    raise value.exc
            else:
                value = evaluator.evaluate(payload, scope)
            element = _sort_key_element(value)
            if descending:
                element = (element[0], _Reversed(element[1]), _Reversed(element[2]))
            key_parts.append(element)
        return tuple(key_parts)

    def _statement_sources(
        self, stmt: ast.SelectStatement
    ) -> list[tuple[str, list[str] | None]]:
        """(binding, columns) for every source; None = unknown (view/derived)."""
        sources: list[tuple[str, list[str] | None]] = []
        for src in list(stmt.from_sources) + [join.source for join in stmt.joins]:
            if isinstance(src, ast.TableRef):
                if self.db.catalog.has_table(src.name):
                    columns = self.db.catalog.table(src.name).column_names()
                else:
                    columns = None
                sources.append((src.binding, columns))
            else:
                sources.append((src.alias, None))
        return sources

    def _prefilter_source(
        self, source: _Source, where: ast.Expr | None, statement_sources
    ) -> None:
        """Apply pushed-down null-rejecting single-source conjuncts in place."""
        predicate = extract_pushdown_filter(
            where, source.binding, source.columns, statement_sources
        )
        if predicate is None:
            return
        binding = source.binding
        # pushdown conjuncts are subquery-free: no subquery runner needed
        predicate_fn = self._compile_filter(
            predicate, _ScopeLayout([source], None), Evaluator(None)
        )

        def keep(row: Row) -> bool:
            # on evaluation errors (e.g. type-mismatched ordering), keep the
            # row and defer to the final WHERE pass: it raises only if the
            # row survives the joins, exactly as without pushdown
            try:
                return predicate_fn({binding: row})
            except ExecutionError:
                return True

        source.rows = [row for row in source.rows if keep(row)]

    # ---------------------------------------------------------------- EXPLAIN

    def _exec_ExplainStatement(
        self, stmt: ast.ExplainStatement, session: "Session"
    ) -> ResultSet:
        select = stmt.select
        sources = list(select.from_sources) + [join.source for join in select.joins]
        all_sources = self._statement_sources(select)
        # execution's statement_sources convention (see _run_select)
        statement_sources = all_sources if len(sources) > 1 else None
        # plan lines paired with the source binding each describes, so the
        # ANALYZE branch can attach that binding's actual scan events
        lines: list[tuple[str, str | None]] = []
        described: set[str] = set()
        for source in sources:
            if not isinstance(source, ast.TableRef) or source.binding in described:
                continue
            described.add(source.binding)
            if self.db.catalog.has_table(source.name):
                lines.append(
                    (
                        self._explain_scan(select, source, statement_sources),
                        source.binding,
                    )
                )
            elif is_system_relation(source.name):
                lines.append(
                    (f"System View Scan on {source.name.lower()}", source.binding)
                )
        # joins plan with the columns each source resolves to at execution
        # (a derived table's or view's output columns), under execution's
        # statement_sources, exactly as _join_relation does
        resolved_columns = {
            binding: self._source_columns(source)
            for (binding, _), source in zip(all_sources, sources)
        }
        allow_hash = self.db.planner_options.get("enable_hash_join", True)
        join_lines = [
            plan.describe()
            for plan in plan_select_joins(
                select, resolved_columns, allow_hash, statement_sources
            )
        ]
        if not stmt.analyze:
            rows = [(text,) for text, _ in lines]
            rows.extend((text,) for text in join_lines)
            if not rows:
                rows = [("Result (no base tables)",)]
            return ResultSet(columns=["QUERY PLAN"], rows=rows, status="EXPLAIN")
        return self._explain_analyze(select, session, lines, join_lines)

    def _source_columns(
        self, source: "ast.TableRef | ast.SubqueryRef"
    ) -> list[str] | None:
        """The columns :meth:`_resolve_source` gives ``source``, found
        without running it; None when the source would not resolve."""
        if isinstance(source, ast.SubqueryRef):
            return self._select_columns(source.subquery)
        if is_system_relation(source.name):
            return list(SYSTEM_VIEW_COLUMNS[source.name.lower()])
        catalog = self.db.catalog
        if catalog.has_view(source.name):
            return self._select_columns(catalog.view(source.name).select)
        if catalog.has_table(source.name):
            return catalog.table(source.name).column_names()
        return None

    def _select_columns(self, select: ast.SelectStatement) -> list[str] | None:
        """A SELECT's output column names, as :meth:`_run_select` names
        them, found without running it; None when they cannot be named."""
        sources = []
        for src in list(select.from_sources) + [join.source for join in select.joins]:
            columns = self._source_columns(src)
            if columns is None:
                return None
            binding = src.binding if isinstance(src, ast.TableRef) else src.alias
            sources.append(_Source(binding, columns, []))
        try:
            items = self._expand_items(select.items, sources)
        except (ExecutionError, UnknownTableError):
            return None  # a bad star: the statement fails when it runs
        return [self._item_name(item, index) for index, item in enumerate(items)]

    def _explain_scan(
        self,
        select: ast.SelectStatement,
        source: ast.TableRef,
        statement_sources: list[tuple[str, list[str] | None]] | None,
    ) -> str:
        """The plan line for one base-table source, decided by the gates
        and planner calls execution runs: the ordered scan when it matches
        (it preempts the batch pipeline), else the table's access path."""
        schema = self.db.catalog.table(source.name)
        heap = self.db.heap(schema.name)
        order = self._ordered_scan_shape(select)
        match = (
            self._match_ordered_index(select, schema, heap, order)
            if order is not None
            else None
        )
        if match is not None:
            index, prefix_values, rng, reverse = match
            conditions = [
                f"{column} = {expr_to_sql(ast.Literal(value))}"
                for column, value in zip(index.columns, prefix_values)
            ]
            if rng is not None:
                conditions.append(rng.describe(index.columns[len(prefix_values)]))
            order_text = ", ".join(order[0]) + (" DESC" if reverse else "")
            line = (
                f"Ordered Index Scan using {index.name} on {schema.name} "
                f"(ORDER BY {order_text})"
            )
            if conditions:
                line += f" (cond: {' AND '.join(conditions)})"
            if select.limit is not None:
                line += f" (limit {select.limit})"
            return line
        path = self._plan_scan(
            schema.name, heap, select.where, source.binding, statement_sources
        ).path
        if statement_sources is not None:
            predicate = extract_pushdown_filter(
                select.where, source.binding, schema.column_names(),
                statement_sources,
            )
            if predicate is not None:
                path.filter_sql = expr_to_sql(predicate)
        path.batched = self._batch_select_shape(select)
        return path.describe()

    def _explain_analyze(
        self,
        select: ast.SelectStatement,
        session: "Session",
        lines: list[tuple[str, str | None]],
        join_lines: list[str],
    ) -> ResultSet:
        """Execute ``select`` under a probe trace and annotate the plan
        lines with actual rows and per-node timings."""
        tracer = self.db.tracer
        probe = tracer.probe()
        started = perf_counter()
        try:
            _, result_rows = self._run_select(select, session, None)
        finally:
            total_s = perf_counter() - started
            tracer.release(probe)
        scans_of_binding: dict[str, list[dict]] = {}
        for event in probe.scans:
            scans_of_binding.setdefault(event["binding"], []).append(event)
        rows: list[tuple[str, ...]] = []
        for text, binding in lines:
            events = scans_of_binding.get(binding or "", [])
            rows.append((text + self._actuals_suffix(events),))
        # join events arrive in fold order (comma-folds then JOINs), the
        # same order plan_select_joins describes them in
        for index, text in enumerate(join_lines):
            if index < len(probe.joins):
                event = probe.joins[index]
                rows.append(
                    (
                        text
                        + f" (actual rows={event['rows']},"
                        f" time={event['duration_s'] * 1000.0:.3f} ms)",
                    )
                )
            else:
                rows.append((text,))
        if not rows:
            rows = [("Result (no base tables)",)]
        rows.append((f"Result rows: {len(result_rows)}",))
        rows.append((f"Execution time: {total_s * 1000.0:.3f} ms",))
        return ResultSet(columns=["QUERY PLAN"], rows=rows, status="EXPLAIN")

    @staticmethod
    def _actuals_suffix(events: list[dict]) -> str:
        if not events:
            return " (never executed)"
        loops = len(events)
        actual_rows = sum(event["rows"] for event in events)
        time_ms = sum(event["duration_s"] for event in events) * 1000.0
        if loops == 1:
            return f" (actual rows={actual_rows}, time={time_ms:.3f} ms)"
        return (
            f" (actual rows={actual_rows}, loops={loops}, time={time_ms:.3f} ms)"
        )

    @staticmethod
    def _expand_items(
        items: list[ast.SelectItem], sources: list[_Source]
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                star = item.expr
                targets = (
                    [s for s in sources if s.binding.lower() == star.table.lower()]
                    if star.table
                    else sources
                )
                if star.table and not targets:
                    raise UnknownTableError(
                        f"missing FROM-clause entry for table {star.table!r}"
                    )
                if not targets:
                    raise ExecutionError("SELECT * with no FROM clause")
                for source in targets:
                    for col in source.columns:
                        expanded.append(
                            ast.SelectItem(
                                ast.ColumnRef(col, table=source.binding), alias=col
                            )
                        )
            else:
                expanded.append(item)
        return expanded

    @staticmethod
    def _item_name(item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        if isinstance(item.expr, ast.FunctionCall):
            return item.expr.name.lower()
        return f"column{index + 1}"

    def _order_key(self, order_by, items, row, scope, evaluator) -> tuple:
        key_parts = []
        for order in order_by:
            value = self._order_value(order.expr, items, row, scope, evaluator)
            element = _sort_key_element(value)
            if order.descending:
                # keep the NULL/type rank ascending (NULLS LAST either way),
                # reverse only the value ordering within each type class
                element = (element[0], _Reversed(element[1]), _Reversed(element[2]))
            key_parts.append(element)
        return tuple(key_parts)

    def _order_value(self, expr, items, row, scope, evaluator):
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not (1 <= ordinal <= len(row)):
                raise ExecutionError(f"ORDER BY position {ordinal} is out of range")
            return row[ordinal - 1]
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for index, item in enumerate(items):
                if item.alias and item.alias.lower() == expr.name.lower():
                    return row[index]
        return evaluator.evaluate(expr, scope)

    @staticmethod
    def _order_by_output(order_by, columns, rows):
        lowered = [c.lower() for c in columns]

        def key(row):
            parts = []
            for order in order_by:
                expr = order.expr
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    value = row[expr.value - 1]
                elif isinstance(expr, ast.ColumnRef) and expr.name.lower() in lowered:
                    value = row[lowered.index(expr.name.lower())]
                else:
                    raise ExecutionError(
                        "ORDER BY after a set operation must use output columns"
                    )
                element = _sort_key_element(value)
                if order.descending:
                    element = (element[0], _Reversed(element[1]), _Reversed(element[2]))
                parts.append(element)
            return tuple(parts)

        return sorted(rows, key=key)

    @staticmethod
    def _distinct(rows, order_keys):
        seen: set = set()
        kept_rows, kept_keys = [], []
        for index, row in enumerate(rows):
            marker = tuple(
                _NULL_SENTINEL if v is None else (type(v).__name__, v) for v in row
            )
            if marker in seen:
                continue
            seen.add(marker)
            kept_rows.append(row)
            if order_keys:
                kept_keys.append(order_keys[index])
        return kept_rows, kept_keys

    @staticmethod
    def _apply_set_op(kind, left, right):
        def markers(rows):
            return [
                tuple(
                    _NULL_SENTINEL if v is None else (type(v).__name__, v)
                    for v in row
                )
                for row in rows
            ]

        if kind == "UNION ALL":
            return left + right
        left_markers = markers(left)
        right_markers = markers(right)
        if kind == "UNION":
            seen: set = set()
            result = []
            for marker, row in zip(left_markers + right_markers, left + right):
                if marker not in seen:
                    seen.add(marker)
                    result.append(row)
            return result
        if kind == "INTERSECT":
            right_set = set(right_markers)
            seen = set()
            result = []
            for marker, row in zip(left_markers, left):
                if marker in right_set and marker not in seen:
                    seen.add(marker)
                    result.append(row)
            return result
        if kind == "EXCEPT":
            right_set = set(right_markers)
            seen = set()
            result = []
            for marker, row in zip(left_markers, left):
                if marker not in right_set and marker not in seen:
                    seen.add(marker)
                    result.append(row)
            return result
        raise ExecutionError(f"unsupported set operation {kind}")

    # ----------------------------------------------------------------- DML

    def _evaluator(self, session: "Session") -> Evaluator:
        def run_subquery(sub: ast.SelectStatement, scope: Scope) -> list[tuple]:
            _, rows = self._run_select(sub, session, outer=scope)
            return rows

        return Evaluator(run_subquery)

    def _locked_table(
        self, session: "Session", name: str, mode: str
    ) -> TableSchema:
        """Acquire the table lock, then resolve the schema.

        Resolution must happen *after* the (name-keyed) lock is granted:
        a statement that blocked behind a concurrent DROP + CREATE of
        the same name must see the recreated schema, not the object it
        resolved before sleeping — constraint checks and column
        resolution against the stale schema would silently bypass the
        new table's contract. The pre-lock resolve only validates
        existence so an unknown table fails without touching the lock
        manager; a table dropped while we waited raises here, after the
        grant, like any other vanished relation.
        """
        schema = self.db.catalog.table(name)
        session.lock_table(schema.name, mode)
        return self.db.catalog.table(name)

    def _exec_InsertStatement(
        self, stmt: ast.InsertStatement, session: "Session"
    ) -> ResultSet:
        # DML takes an exclusive lock on its target and shared locks on
        # the tables its FK checks read, all held to transaction end
        schema = self._locked_table(session, stmt.table, "X")
        for fk in schema.foreign_keys:
            session.lock_table(fk.ref_table, "S")
        heap = self.db.heap(schema.name)
        evaluator = self._evaluator(session)
        empty_scope = Scope({}, {}, frozenset(), None)

        target_columns = stmt.columns or schema.column_names()
        for name in target_columns:
            schema.column(name)  # raises UnknownColumnError

        if stmt.select is not None:
            _, value_rows = self._run_select(stmt.select, session, outer=None)
        else:
            value_rows = [
                tuple(evaluator.evaluate(expr, empty_scope) for expr in row)
                for row in stmt.rows or []
            ]

        inserted = 0
        redo = session.tx.redo_enabled
        table_key = schema.name.lower()
        for values in value_rows:
            if len(values) != len(target_columns):
                raise ExecutionError(
                    f"INSERT has {len(values)} values but {len(target_columns)} "
                    "target columns"
                )
            row = self._build_row(schema, dict(zip(target_columns, values)), evaluator)
            self._check_row_constraints(schema, row, evaluator, session)
            rid = heap.insert(row)
            session.tx.log_undo(
                f"insert {schema.name} rid={rid}",
                lambda heap=heap, rid=rid: heap.delete(rid),
            )
            if redo:
                session.tx.log_redo(
                    {
                        "op": "insert",
                        "table": table_key,
                        "rid": rid,
                        "row": row,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            inserted += 1
        return ResultSet(rowcount=inserted, status=f"INSERT {inserted}")

    def _build_row(
        self, schema: TableSchema, provided: dict[str, Any], evaluator: Evaluator
    ) -> Row:
        provided_lower = {k.lower(): v for k, v in provided.items()}
        row: Row = {}
        empty_scope = Scope({}, {}, frozenset(), None)
        for column in schema.columns:
            key = column.name.lower()
            if key in provided_lower:
                row[column.name] = coerce(
                    provided_lower[key], column.ctype, column.name
                )
            elif column.has_default:
                default = column.default
                if isinstance(default, ast.Expr):
                    default = evaluator.evaluate(default, empty_scope)
                row[column.name] = coerce(default, column.ctype, column.name)
            else:
                row[column.name] = None
        return row

    def _check_row_constraints(
        self,
        schema: TableSchema,
        row: Row,
        evaluator: Evaluator,
        session: "Session",
    ) -> None:
        for column in schema.columns:
            if column.not_null and row.get(column.name) is None:
                raise NotNullViolation(
                    f"null value in column {column.name!r} of relation "
                    f"{schema.name!r} violates not-null constraint"
                )
        if schema.checks:
            scope = Scope(
                {},
                {k.lower(): v for k, v in row.items()},
                frozenset(),
                None,
            )
            for index, check in enumerate(schema.checks):
                value = evaluator.evaluate(check, scope)
                if value is False:
                    source = (
                        schema.check_sources[index]
                        if index < len(schema.check_sources)
                        else "<check>"
                    )
                    raise CheckViolation(
                        f"new row for relation {schema.name!r} violates check "
                        f"constraint ({source})"
                    )
        for fk in schema.foreign_keys:
            self._check_fk_exists(fk, row, session)

    def _check_fk_exists(self, fk: ForeignKey, row: Row, session: "Session") -> None:
        values = tuple(row.get(c) for c in fk.columns)
        if any(v is None for v in values):
            return  # SQL: NULL FK values pass
        ref_schema = self.db.catalog.table(fk.ref_table)
        ref_heap = self.db.heap(ref_schema.name)
        index = ref_heap.find_index(tuple(fk.ref_columns))
        if index is not None:
            if index.probe(values):
                return
        else:
            for _, ref_row in ref_heap.rows():
                if tuple(ref_row.get(c) for c in fk.ref_columns) == values:
                    return
        raise ForeignKeyViolation(
            f"insert or update violates foreign key constraint: "
            f"({', '.join(fk.columns)})={values!r} is not present in "
            f"{fk.ref_table}({', '.join(fk.ref_columns)})"
        )

    def _referencing_violation(
        self, schema: TableSchema, old_row: Row, session: "Session"
    ) -> str | None:
        """If rows elsewhere reference ``old_row``, return a message."""
        for other_name in self.db.catalog.referencing_tables(schema.name):
            other = self.db.catalog.table(other_name)
            other_heap = self.db.heap(other.name)
            for fk in other.foreign_keys:
                if fk.ref_table.lower() != schema.name.lower():
                    continue
                key = tuple(old_row.get(c) for c in fk.ref_columns)
                if any(v is None for v in key):
                    continue
                for _, row in other_heap.rows():
                    if tuple(row.get(c) for c in fk.columns) == key:
                        return (
                            f"row in {schema.name!r} is still referenced by "
                            f"table {other.name!r}"
                        )
        return None

    def _exec_UpdateStatement(
        self, stmt: ast.UpdateStatement, session: "Session"
    ) -> ResultSet:
        schema = self._locked_table(session, stmt.table, "X")
        for fk in schema.foreign_keys:
            session.lock_table(fk.ref_table, "S")  # forward FK checks read these
        for other in self.db.catalog.referencing_tables(schema.name):
            session.lock_table(other, "S")  # FK back-reference checks read these
        heap = self.db.heap(schema.name)
        evaluator = self._evaluator(session)
        assignments = []
        for name, expr in stmt.assignments:
            column = schema.column(name)
            assignments.append((column, expr))

        referenced_key_columns = {
            c.lower()
            for other_name in self.db.catalog.referencing_tables(schema.name)
            for fk in self.db.catalog.table(other_name).foreign_keys
            if fk.ref_table.lower() == schema.name.lower()
            for c in fk.ref_columns
        }

        targets = self._dml_targets(schema, stmt.table, heap, stmt.where, evaluator)

        updated = 0
        for rid, old_row in targets:
            scope = self._row_scope(schema, stmt.table, old_row)
            new_row = dict(old_row)
            for column, expr in assignments:
                new_row[column.name] = coerce(
                    evaluator.evaluate(expr, scope), column.ctype, column.name
                )
            self._check_row_constraints(schema, new_row, evaluator, session)
            changed_ref_keys = any(
                old_row.get(c) != new_row.get(c)
                for c in old_row
                if c.lower() in referenced_key_columns
            )
            if changed_ref_keys:
                message = self._referencing_violation(schema, old_row, session)
                if message:
                    raise ForeignKeyViolation(message)
            previous = heap.update(rid, new_row)
            session.tx.log_undo(
                f"update {schema.name} rid={rid}",
                lambda heap=heap, rid=rid, prev=previous: heap.update(rid, prev),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "update",
                        "table": schema.name.lower(),
                        "rid": rid,
                        "row": new_row,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            updated += 1
        return ResultSet(rowcount=updated, status=f"UPDATE {updated}")

    def _exec_DeleteStatement(
        self, stmt: ast.DeleteStatement, session: "Session"
    ) -> ResultSet:
        schema = self._locked_table(session, stmt.table, "X")
        for other in self.db.catalog.referencing_tables(schema.name):
            session.lock_table(other, "S")  # FK back-reference checks read these
        heap = self.db.heap(schema.name)
        evaluator = self._evaluator(session)

        targets = self._dml_targets(schema, stmt.table, heap, stmt.where, evaluator)

        deleted_rids = {rid for rid, _ in targets}
        for rid, row in targets:
            message = self._referencing_violation_excluding(
                schema, row, deleted_rids, session
            )
            if message:
                raise ForeignKeyViolation(message)

        deleted = 0
        for rid, _row in targets:
            old = heap.delete(rid)
            session.tx.log_undo(
                f"delete {schema.name} rid={rid}",
                lambda heap=heap, rid=rid, old=old: heap.restore(rid, old),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "delete",
                        "table": schema.name.lower(),
                        "rid": rid,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            deleted += 1
        return ResultSet(rowcount=deleted, status=f"DELETE {deleted}")

    def _referencing_violation_excluding(
        self,
        schema: TableSchema,
        old_row: Row,
        _excluded_rids: set[int],
        session: "Session",
    ) -> str | None:
        # self-referencing FKs within the deleted set are tolerated only if
        # the referencing row is also being deleted — approximated by the
        # plain check for non-self references.
        return self._referencing_violation(schema, old_row, session)

    def _dml_targets(
        self,
        schema: TableSchema,
        binding: str,
        heap: HeapTable,
        where: ast.Expr | None,
        evaluator: Evaluator,
    ) -> list[tuple[int, Row]]:
        """Resolve UPDATE/DELETE target rows through :meth:`_scan_rids`.

        The access path (and ``planner_stats`` counter) a SELECT with the
        same WHERE would take narrows the candidate set — an index probe,
        range slice or union instead of the unconditional heap scan.
        Candidates always get the *full* WHERE re-applied, and targets come
        back in rid order, the order the heap scan produced — so undo logs,
        WAL records, and constraint-error attribution are byte-identical to
        the seq-scan plan.
        """
        _, rids = self._scan_rids(schema.name, heap, where, binding)
        if rids is None:
            candidates = list(heap.rows())
        else:
            candidates = []
            for rid in rids:
                row = heap.get(rid)
                if row is not None:
                    candidates.append((rid, row))
        if where is None:
            return candidates
        layout = _ScopeLayout([_Source(binding, schema.column_names(), [])], None)
        where_fn = self._compile_filter(where, layout, evaluator)
        return [(rid, row) for rid, row in candidates if where_fn({binding: row})]

    @staticmethod
    def _row_scope(schema: TableSchema, binding: str, row: Row) -> Scope:
        unqualified = {k.lower(): v for k, v in row.items()}
        qualified = {f"{binding.lower()}.{k.lower()}": v for k, v in row.items()}
        qualified.update(
            {f"{schema.name.lower()}.{k.lower()}": v for k, v in row.items()}
        )
        return Scope(qualified, unqualified, frozenset(), None)

    # ----------------------------------------------------------------- DDL

    def _exec_CreateTableStatement(
        self, stmt: ast.CreateTableStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        # DDL takes an exclusive lock on the object name — for CREATE this
        # also serializes two sessions racing to create the same table
        session.lock_table(stmt.table, "X")
        if stmt.if_not_exists and catalog.has_object(stmt.table):
            return ResultSet(status="CREATE TABLE (exists)")

        columns: list[Column] = []
        primary_key = list(stmt.primary_key)
        uniques = [tuple(u) for u in stmt.uniques]
        foreign_keys: list[ForeignKey] = []
        checks: list[ast.Expr] = list(stmt.checks)
        check_sources = [expr_to_sql(check) for check in stmt.checks]
        evaluator = self._evaluator(session)
        empty_scope = Scope({}, {}, frozenset(), None)

        for cdef in stmt.columns:
            ctype = ColumnType.parse(cdef.declared_type)
            default_value = None
            has_default = cdef.default is not None
            if has_default:
                default_value = evaluator.evaluate(cdef.default, empty_scope)
            column = Column(
                cdef.name,
                ctype,
                not_null=cdef.not_null or cdef.primary_key,
                default=default_value,
                has_default=has_default,
            )
            columns.append(column)
            if cdef.primary_key:
                primary_key.append(cdef.name)
            if cdef.unique:
                uniques.append((cdef.name,))
            if cdef.check is not None:
                checks.append(cdef.check)
                check_sources.append(expr_to_sql(cdef.check))
            if cdef.references is not None:
                ref_table, ref_column = cdef.references
                target = catalog.table(ref_table)
                if not ref_column:
                    if not target.primary_key:
                        raise ExecutionError(
                            f"referenced table {ref_table!r} has no primary key"
                        )
                    ref_column = target.primary_key[0]
                foreign_keys.append(
                    ForeignKey((cdef.name,), target.name, (ref_column,))
                )

        for fkdef in stmt.foreign_keys:
            target = catalog.table(fkdef.ref_table)
            ref_columns = tuple(fkdef.ref_columns) or tuple(target.primary_key)
            if not ref_columns:
                raise ExecutionError(
                    f"referenced table {fkdef.ref_table!r} has no primary key"
                )
            foreign_keys.append(
                ForeignKey(tuple(fkdef.columns), target.name, ref_columns)
            )

        schema = TableSchema(
            name=stmt.table,
            columns=columns,
            primary_key=tuple(primary_key),
            foreign_keys=foreign_keys,
            uniques=[tuple(u) for u in uniques],
            checks=checks,
            check_sources=check_sources,
        )
        for name in schema.primary_key:
            schema.column(name).not_null = True
            schema.column(name)  # validates existence
        for unique in schema.uniques:
            for name in unique:
                schema.column(name)

        catalog.add_table(schema)
        heap = HeapTable(schema.name)
        if schema.primary_key:
            heap.add_index(
                HashIndex(f"pk_{schema.name}", tuple(schema.primary_key), unique=True)
            )
        for index_number, unique in enumerate(schema.uniques):
            heap.add_index(
                HashIndex(f"uq_{schema.name}_{index_number}", unique, unique=True)
            )
        self.db.heaps[schema.name.lower()] = heap

        session.tx.log_undo(
            f"create table {schema.name}",
            lambda db=self.db, name=schema.name: db.drop_table_physical(name),
        )
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "create_table",
                    "table": schema.name.lower(),
                    "schema": dump_table_schema(schema),
                    "indexes": [
                        dump_index(ix) for ix in heap.indexes.values()
                    ],
                    "uid": heap.uid,
                    "version": heap.version,
                }
            )
        return ResultSet(status="CREATE TABLE")

    def _exec_DropTableStatement(
        self, stmt: ast.DropTableStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        for name in stmt.tables:
            session.lock_table(name, "X")
        for name in stmt.tables:
            if not catalog.has_object(name):
                if stmt.if_exists:
                    continue
                raise UnknownTableError(f"relation {name!r} does not exist")
            if catalog.has_view(name):
                view = catalog.remove_view(name)
                session.tx.log_undo(
                    f"drop view {name}",
                    lambda catalog=catalog, view=view: catalog.add_view(view),
                )
                if session.tx.redo_enabled:
                    session.tx.log_redo({"op": "drop_view", "view": view.name})
                continue
            referencing = [
                t
                for t in catalog.referencing_tables(name)
                if t.lower() != name.lower()
            ]
            if referencing and not stmt.cascade:
                raise ForeignKeyViolation(
                    f"cannot drop table {name!r}: referenced by "
                    f"{', '.join(referencing)} (use CASCADE)"
                )
            to_drop = [name] + (referencing if stmt.cascade else [])
            for table_name in to_drop:
                if not catalog.has_table(table_name):
                    continue
                schema = catalog.remove_table(table_name)
                heap = self.db.heaps.pop(table_name.lower())
                dropped_indexes = [
                    catalog.remove_index(ix.name)
                    for ix in catalog.indexes_on(table_name)
                ]
                session.tx.log_undo(
                    f"drop table {table_name}",
                    lambda db=self.db,
                    schema=schema,
                    heap=heap,
                    dropped=dropped_indexes: db.restore_table(schema, heap, dropped),
                )
                if session.tx.redo_enabled:
                    session.tx.log_redo(
                        {"op": "drop_table", "table": schema.name.lower()}
                    )
        return ResultSet(status="DROP TABLE")

    def _exec_AlterTableStatement(
        self, stmt: ast.AlterTableStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        session.lock_table(stmt.table, "X")
        schema = catalog.table(stmt.table)
        heap = self.db.heap(schema.name)
        if stmt.action == "ADD_COLUMN":
            cdef = stmt.column
            assert cdef is not None
            if schema.has_column(cdef.name):
                raise ExecutionError(
                    f"column {cdef.name!r} already exists in {schema.name!r}"
                )
            ctype = ColumnType.parse(cdef.declared_type)
            evaluator = self._evaluator(session)
            empty_scope = Scope({}, {}, frozenset(), None)
            default = (
                evaluator.evaluate(cdef.default, empty_scope)
                if cdef.default is not None
                else None
            )
            if cdef.not_null and default is None and len(heap):
                raise NotNullViolation(
                    f"cannot add NOT NULL column {cdef.name!r} without a default "
                    "to a non-empty table"
                )
            column = Column(
                cdef.name,
                ctype,
                not_null=cdef.not_null,
                default=default,
                has_default=cdef.default is not None,
            )
            schema.columns.append(column)
            heap.add_column(column.name, default)
            session.tx.log_undo(
                f"add column {schema.name}.{column.name}",
                lambda schema=schema, heap=heap, column=column: (
                    schema.columns.remove(column),
                    heap.drop_column(column.name),
                ),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "add_column",
                        "table": schema.name.lower(),
                        "column": dump_column(column),
                        "fill": default,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            return ResultSet(status="ALTER TABLE")
        if stmt.action == "DROP_COLUMN":
            column = schema.column(stmt.old_name or "")
            if column.name in schema.primary_key:
                raise ExecutionError("cannot drop a primary key column")
            saved_values = {
                rid: row.get(column.name) for rid, row in heap.rows()
            }
            index = schema.columns.index(column)
            schema.columns.remove(column)
            heap.drop_column(column.name)

            def undo(schema=schema, heap=heap, column=column, index=index,
                     values=saved_values):
                schema.columns.insert(index, column)
                heap.restore_column(column.name, values)

            session.tx.log_undo(f"drop column {schema.name}.{column.name}", undo)
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "drop_column",
                        "table": schema.name.lower(),
                        "column": column.name,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            return ResultSet(status="ALTER TABLE")
        if stmt.action == "RENAME_COLUMN":
            column = schema.column(stmt.old_name or "")
            if schema.has_column(stmt.new_name or ""):
                raise ExecutionError(f"column {stmt.new_name!r} already exists")
            old_name = column.name
            column.name = stmt.new_name or ""
            heap.rename_column(old_name, column.name)
            schema.primary_key = tuple(
                column.name if c == old_name else c for c in schema.primary_key
            )
            def undo_rename(schema=schema, heap=heap, column=column,
                            old=old_name):
                new = column.name
                heap.rename_column(new, old)
                column.name = old
                # the forward path rewrote the primary key too; leaving it
                # pointing at the new name would dangle (and, durably,
                # snapshot a PK on a nonexistent column)
                schema.primary_key = tuple(
                    old if c == new else c for c in schema.primary_key
                )

            session.tx.log_undo(
                f"rename column {schema.name}.{old_name}", undo_rename
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {
                        "op": "rename_column",
                        "table": schema.name.lower(),
                        "old": old_name,
                        "new": column.name,
                        "uid": heap.uid,
                        "version": heap.version,
                    }
                )
            return ResultSet(status="ALTER TABLE")
        if stmt.action == "RENAME_TABLE":
            old_name = schema.name
            new_name = stmt.new_name or ""
            catalog.rename_table(old_name, new_name)
            self.db.heaps[new_name.lower()] = self.db.heaps.pop(old_name.lower())
            session.tx.log_undo(
                f"rename table {old_name}",
                lambda db=self.db, old=old_name, new=new_name: (
                    db.catalog.rename_table(new, old),
                    db.heaps.__setitem__(old.lower(), db.heaps.pop(new.lower())),
                ),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo(
                    {"op": "rename_table", "old": old_name, "new": new_name}
                )
            return ResultSet(status="ALTER TABLE")
        raise ExecutionError(f"unsupported ALTER TABLE action {stmt.action}")

    def _exec_CreateIndexStatement(
        self, stmt: ast.CreateIndexStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        # lock before the IF NOT EXISTS probe: racing creators on the
        # same table serialize here, so the loser sees "(exists)" instead
        # of a duplicate-index error (and the schema is the post-lock
        # one). Creators on *different* tables hold non-conflicting
        # locks — their name race is settled by add_index's atomic
        # check-then-set, caught below.
        schema = self._locked_table(session, stmt.table, "X")
        if stmt.if_not_exists and stmt.name.lower() in catalog.indexes:
            return ResultSet(status="CREATE INDEX (exists)")
        for name in stmt.columns:
            schema.column(name)
        kind = "btree" if (stmt.using or "").upper() == "BTREE" else "hash"
        index_schema = IndexSchema(
            stmt.name, schema.name, tuple(stmt.columns), stmt.unique, kind=kind
        )
        try:
            catalog.add_index(index_schema)
        except DuplicateObjectError:
            if stmt.if_not_exists:
                # lost a cross-table name race after the probe: same
                # contract as losing the probe itself
                return ResultSet(status="CREATE INDEX (exists)")
            raise
        heap = self.db.heap(schema.name)
        index_cls = SortedIndex if kind == "btree" else HashIndex
        index = index_cls(stmt.name, tuple(stmt.columns), stmt.unique)
        try:
            heap.add_index(index)
        except Exception:
            catalog.remove_index(stmt.name)
            raise
        session.tx.log_undo(
            f"create index {stmt.name}",
            lambda catalog=catalog, heap=heap, name=stmt.name: (
                catalog.remove_index(name),
                heap.drop_index(name),
            ),
        )
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "create_index",
                    "table": schema.name.lower(),
                    "index": dump_index(index),
                    "uid": heap.uid,
                    "version": heap.version,
                }
            )
        return ResultSet(status="CREATE INDEX")

    def _exec_DropIndexStatement(
        self, stmt: ast.DropIndexStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        # existence (and the owning table) must hold *after* the lock
        # grant: a DROP that blocked behind a concurrent drop of the same
        # index would otherwise crash on remove; loop in case the index
        # was re-created on a different table while we waited
        while True:
            if stmt.name.lower() not in catalog.indexes:
                if stmt.if_exists:
                    return ResultSet(status="DROP INDEX (absent)")
                raise UnknownTableError(f"index {stmt.name!r} does not exist")
            table = catalog.index(stmt.name).table
            session.lock_table(table, "X")
            if (
                stmt.name.lower() in catalog.indexes
                and catalog.index(stmt.name).table == table
            ):
                break
        index_schema = catalog.remove_index(stmt.name)
        heap = self.db.heap(index_schema.table)
        index = heap.drop_index(index_schema.name)
        session.tx.log_undo(
            f"drop index {stmt.name}",
            lambda catalog=catalog, heap=heap, ix=index_schema, index=index: (
                catalog.add_index(ix),
                heap.attach_index(index),
            ),
        )
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "drop_index",
                    "table": index_schema.table.lower(),
                    "index": index_schema.name,
                    "uid": heap.uid,
                    "version": heap.version,
                }
            )
        return ResultSet(status="DROP INDEX")

    def _exec_AnalyzeStatement(
        self, stmt: ast.AnalyzeStatement, session: "Session"
    ) -> ResultSet:
        catalog = self.db.catalog
        if stmt.table is not None:
            # resolve through the lock so the scan sees a settled table
            names = [self._locked_table(session, stmt.table, "S").name]
        else:
            names = sorted(schema.name for schema in catalog.tables.values())
        analyzed = 0
        for name in names:
            try:
                schema = self._locked_table(session, name, "S")
            except UnknownTableError:
                if stmt.table is None:
                    continue  # dropped while a bare ANALYZE waited; skip
                raise
            heap = self.db.heap(schema.name)
            stats = build_table_statistics(schema, heap)
            key = schema.name.lower()
            previous = catalog.statistics.get(key)

            def undo(catalog=catalog, key=key, previous=previous):
                if previous is None:
                    catalog.statistics.pop(key, None)
                else:
                    catalog.statistics[key] = previous

            catalog.statistics[key] = stats
            session.tx.log_undo(f"analyze {schema.name}", undo)
            if session.tx.redo_enabled:
                # the *computed* payload travels in the WAL, so replay
                # restores the exact statistics without rescanning heaps
                session.tx.log_redo(
                    {"op": "analyze", "table": key, "stats": stats.to_payload()}
                )
            analyzed += 1
        return ResultSet(status=f"ANALYZE {analyzed}")

    def _exec_CreateViewStatement(
        self, stmt: ast.CreateViewStatement, session: "Session"
    ) -> ResultSet:
        session.lock_table(stmt.name, "X")
        # the rendered definition round-trips through the parser, which is
        # both the catalog's human-readable DDL and the WAL representation
        view = ViewSchema(
            stmt.name, stmt.select, source_sql=select_to_sql(stmt.select)
        )
        replaced = (
            self.db.catalog.views.get(stmt.name.lower()) if stmt.or_replace else None
        )
        self.db.catalog.add_view(view, replace=stmt.or_replace)

        def undo(catalog=self.db.catalog, name=stmt.name, replaced=replaced):
            catalog.remove_view(name)
            if replaced is not None:
                catalog.add_view(replaced)

        session.tx.log_undo(f"create view {stmt.name}", undo)
        if session.tx.redo_enabled:
            session.tx.log_redo(
                {
                    "op": "create_view",
                    "view": stmt.name,
                    "sql": view.source_sql,
                    "or_replace": stmt.or_replace,
                }
            )
        return ResultSet(status="CREATE VIEW")

    def _exec_DropViewStatement(
        self, stmt: ast.DropViewStatement, session: "Session"
    ) -> ResultSet:
        for name in stmt.names:
            session.lock_table(name, "X")
        for name in stmt.names:
            if not self.db.catalog.has_view(name):
                if stmt.if_exists:
                    continue
                raise UnknownTableError(f"view {name!r} does not exist")
            view = self.db.catalog.remove_view(name)
            session.tx.log_undo(
                f"drop view {name}",
                lambda catalog=self.db.catalog, view=view: catalog.add_view(view),
            )
            if session.tx.redo_enabled:
                session.tx.log_redo({"op": "drop_view", "view": view.name})
        return ResultSet(status="DROP VIEW")


class _Reversed:
    """Wrapper inverting comparison order, for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value
