"""Access-path selection for base tables.

This module decides full scan vs index scan, using table statistics
when predicate values are visible at plan time.  Parameter markers
(``?``) have no plan-time value, so range predicates on them use the
blind :data:`~repro.engine.stats.DEFAULT_RANGE_SELECTIVITY` — the exact
mechanism behind the paper's Table 6: SAP's Open SQL translation turns
literals into parameters, the optimizer guesses 5%, picks the index,
and fetches 1.2 million tuples by random I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.exec.base import ExecContext
from repro.engine.exec.scans import IndexEqScan, IndexRangeScan, SeqScan
from repro.engine.expr import (
    AggCall,
    BetweenExpr,
    BinOp,
    ColumnRef,
    Expr,
    LikeExpr,
    ParamRef,
    SubqueryExpr,
    conjoin,
)
from repro.engine.stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_LIKE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    TableStats,
    eq_selectivity,
    range_selectivity,
)
from repro.engine.table import Table
from repro.engine.plan.binder import bind_expr

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass
class _Sarg:
    """One sargable conjunct: column <op> value-expr."""

    column: str
    op: str  # '=', '<', '<=', '>', '>=', 'between'
    value: Expr | None = None
    low: Expr | None = None
    high: Expr | None = None
    source: Expr | None = None  # the original conjunct


def _value_kind(expr: Expr) -> str | None:
    """Classify an expression as a sarg value.

    ``"const"``: evaluable at plan time (literals, folded date math).
    ``"runtime"``: evaluable at open time but opaque to the optimizer
    (parameter markers, outer-correlated references).
    ``None``: not usable as a sarg value.
    """
    kind = "const"
    for node in expr.walk():
        if isinstance(node, (SubqueryExpr, AggCall)):
            return None
        if isinstance(node, ColumnRef):
            if node._outer_cell is None:
                return None
            kind = "runtime"
        elif isinstance(node, ParamRef):
            kind = "runtime"
    return kind


def _plan_time_value(expr: Expr) -> object | None:
    """The value if visible at plan time, else None (blind)."""
    if _value_kind(expr) == "const":
        return expr.eval((), ())
    return None


def _is_value_expr(expr: Expr) -> bool:
    return _value_kind(expr) is not None


def _is_local_ref(expr: Expr) -> bool:
    return isinstance(expr, ColumnRef) and expr._outer_cell is None


def _extract_sarg(conjunct: Expr) -> _Sarg | None:
    if isinstance(conjunct, BinOp) and conjunct.op in _FLIP:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if _is_local_ref(left) and _is_value_expr(right):
            return _Sarg(left.name.lower(), op, value=right, source=conjunct)
        if _is_local_ref(right) and _is_value_expr(left):
            return _Sarg(right.name.lower(), _FLIP[op], value=left,
                         source=conjunct)
    if isinstance(conjunct, BetweenExpr) and not conjunct.negated:
        if _is_local_ref(conjunct.operand) and \
                _is_value_expr(conjunct.low) and \
                _is_value_expr(conjunct.high):
            return _Sarg(conjunct.operand.name.lower(), "between",
                         low=conjunct.low, high=conjunct.high,
                         source=conjunct)
    return None


def _conjunct_selectivity(sarg: _Sarg | None, conjunct: Expr,
                          stats: TableStats) -> float:
    if sarg is None:
        if isinstance(conjunct, LikeExpr):
            return DEFAULT_LIKE_SELECTIVITY
        return 0.25
    if sarg.op == "=":
        return eq_selectivity(stats, sarg.column,
                              _plan_time_value(sarg.value) is not None)
    if sarg.op == "between":
        low_sel = range_selectivity(stats, sarg.column, ">=",
                                    _plan_time_value(sarg.low))
        high_sel = range_selectivity(stats, sarg.column, "<=",
                                     _plan_time_value(sarg.high))
        return max(0.0001, low_sel + high_sel - 1.0) \
            if low_sel + high_sel > 1.0 else DEFAULT_RANGE_SELECTIVITY / 2
    return range_selectivity(stats, sarg.column, sarg.op,
                             _plan_time_value(sarg.value))


def _range_values_blind(sarg: _Sarg) -> bool:
    """True when every bound of a range sarg is opaque at plan time."""
    bounds = []
    if sarg.value is not None:
        bounds.append(sarg.value)
    if sarg.low is not None:
        bounds.append(sarg.low)
    if sarg.high is not None:
        bounds.append(sarg.high)
    return bool(bounds) and all(
        _plan_time_value(b) is None for b in bounds
    )


def eq_sarg_value(conjunct: Expr) -> tuple[str, Expr] | None:
    """(column, value-expr) when ``conjunct`` is an equality sarg."""
    sarg = _extract_sarg(conjunct)
    if sarg is not None and sarg.op == "=":
        return sarg.column, sarg.value
    return None


@dataclass
class AccessChoice:
    operator: object
    estimated_rows: float
    used_index: str | None


def choose_access_path(
    ctx: ExecContext,
    table: Table,
    alias: str | None,
    conjuncts: list[Expr],
    stats: TableStats,
) -> AccessChoice:
    """Pick the cheapest access path for one base table."""
    params = ctx.params
    row_count = max(stats.row_count if stats.analyzed else table.row_count, 1)
    sargs = [(c, _extract_sarg(c)) for c in conjuncts]
    total_sel = 1.0
    for conjunct, sarg in sargs:
        total_sel *= _conjunct_selectivity(sarg, conjunct, stats)
    estimated_rows = max(total_sel * row_count, 0.0)

    heap_pages = max(table.store.page_count, 1)
    seq_cost = heap_pages * params.seq_read_s + row_count * params.tuple_cpu_s

    eq_sargs: dict[str, tuple[Expr, _Sarg]] = {}
    for conjunct, sarg in sargs:
        if sarg is not None and sarg.op == "=" and sarg.column not in eq_sargs:
            eq_sargs[sarg.column] = (conjunct, sarg)

    # Candidate A: composite equality prefix of some index.
    best_prefix: tuple[float, list[_Sarg], object, float] | None = None
    for index in table.indexes.values():
        prefix_sargs: list[_Sarg] = []
        sel = 1.0
        for column in index.column_names:
            entry = eq_sargs.get(column)
            if entry is None:
                break
            conjunct, sarg = entry
            prefix_sargs.append(sarg)
            sel *= _conjunct_selectivity(sarg, conjunct, stats)
        if not prefix_sargs:
            continue
        if index.unique and len(prefix_sargs) == len(index.column_names):
            sel = min(sel, 1.0 / row_count)
        fetched = sel * row_count
        cost = (
            params.index_traverse_s
            + fetched * (params.random_read_s + params.tuple_cpu_s)
        )
        if best_prefix is None or cost < best_prefix[0]:
            best_prefix = (cost, prefix_sargs, index, sel)

    # Candidate B: single range/eq sarg on an index's first column.
    best_index: tuple[float, _Sarg, object, float] | None = None
    for conjunct, sarg in sargs:
        if sarg is None:
            continue
        index = table.index_on(sarg.column)
        if index is None:
            continue
        sel = _conjunct_selectivity(sarg, conjunct, stats)
        fetched = sel * row_count
        leaf_pages = max(index.leaf_page_count, 1)
        cost = (
            params.index_traverse_s
            + sel * leaf_pages * params.seq_read_s
            + fetched * (params.random_read_s + params.tuple_cpu_s)
        )
        if best_index is None or cost < best_index[0]:
            best_index = (cost, sarg, index, sel)

    scan_schema_conjuncts = list(conjuncts)

    prefix_cost = best_prefix[0] if best_prefix else float("inf")
    single_cost = best_index[0] if best_index else float("inf")

    # Equality-prefix preference: 1990s optimizers ranked "equality on
    # an index prefix" above a full scan whenever the estimate was not
    # obviously terrible, NDV-based estimates being all they had.
    if best_prefix is not None:
        _c, prefix_sargs, _idx, prefix_sel = best_prefix
        informative = any(
            (stats.columns.get(s.column) is not None
             and stats.columns[s.column].n_distinct > 1)
            for s in prefix_sargs
        )
        if informative and prefix_sel <= 0.5:
            prefix_cost = min(prefix_cost, seq_cost * 0.5)

    # Rule-based fallback (the Table 6 trap): when a range predicate's
    # value is opaque at plan time — a parameter marker or correlated
    # reference — the optimizer cannot estimate selectivity and falls
    # back to the classic rule "an index is available, use it".  This
    # is what 1990s optimizers did with parameterized cursors, and it
    # is catastrophic when the predicate actually selects everything.
    if best_index is not None:
        _cost, sarg, _index, _sel = best_index
        blind_range = (
            sarg.op != "="
            and _range_values_blind(sarg)
        )
        prefix_is_selective = (
            best_prefix is not None and best_prefix[3] < 0.1
        )
        if blind_range and not prefix_is_selective:
            single_cost = min(single_cost, seq_cost * 0.5)

    if best_prefix is not None and prefix_cost <= single_cost \
            and prefix_cost < seq_cost:
        _cost, prefix_sargs, index, _sel = best_prefix
        used_sources = {id(s.source) for s in prefix_sargs}
        residual = conjoin([
            c for c in scan_schema_conjuncts if id(c) not in used_sources
        ])
        op = IndexEqScan(ctx, table, index.name,
                         [s.value for s in prefix_sargs],
                         alias=alias, residual=residual)
        if residual is not None:
            bind_expr(residual, op.schema)
        op.estimated_rows = estimated_rows
        return AccessChoice(op, estimated_rows, index.name)

    if best_index is not None and single_cost < seq_cost:
        _cost, sarg, index, _sel = best_index
        residual_conjuncts = [
            c for c in scan_schema_conjuncts if c is not sarg.source
        ]
        residual = conjoin(residual_conjuncts)
        if sarg.op == "=":
            op = IndexEqScan(ctx, table, index.name, [sarg.value],
                             alias=alias, residual=residual)
        elif sarg.op == "between":
            op = IndexRangeScan(ctx, table, index.name, sarg.low, sarg.high,
                                True, True, alias=alias, residual=residual)
        elif sarg.op in ("<", "<="):
            op = IndexRangeScan(ctx, table, index.name, None, sarg.value,
                                True, sarg.op == "<=", alias=alias,
                                residual=residual)
        else:  # '>', '>='
            op = IndexRangeScan(ctx, table, index.name, sarg.value, None,
                                sarg.op == ">=", True, alias=alias,
                                residual=residual)
        _bind_scan_exprs(op, sarg, residual)
        op.estimated_rows = estimated_rows
        return AccessChoice(op, estimated_rows, index.name)

    predicate = conjoin(scan_schema_conjuncts)
    op = SeqScan(ctx, table, alias=alias, predicate=predicate)
    if predicate is not None:
        bind_expr(predicate, op.schema)
    op.estimated_rows = estimated_rows
    return AccessChoice(op, estimated_rows, None)


def _bind_scan_exprs(op, sarg: _Sarg, residual: Expr | None) -> None:
    """Bind residual filters against the scan's output schema.

    Key expressions (literals/params) need no binding.
    """
    if residual is not None:
        bind_expr(residual, op.schema)
