"""Table statistics and selectivity estimation.

The optimizer's behaviour on the paper's Table 6 depends on exactly
this module: with a literal predicate the estimator interpolates
against min/max and sees that ``quantity < 9999`` selects everything
(full scan wins); with a *parameter marker* — which is what SAP's Open
SQL translation produces — no estimate is possible and the optimizer
falls back to :data:`DEFAULT_RANGE_SELECTIVITY`, which is low enough to
make the (catastrophic) index plan look attractive.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from operator import itemgetter

from repro.engine.table import Table

#: System-R style fallbacks when a predicate value is unknown at plan time
DEFAULT_EQ_SELECTIVITY = 0.01
DEFAULT_RANGE_SELECTIVITY = 0.05
DEFAULT_LIKE_SELECTIVITY = 0.10


@dataclass
class ColumnStats:
    n_distinct: int = 0
    min_value: object = None
    max_value: object = None
    null_count: int = 0


@dataclass
class TableStats:
    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    analyzed: bool = False


#: distinct values counted per column before the count saturates
MAX_DISTINCT_TRACKED = 100_000


def analyze(table: Table) -> TableStats:
    """Statistics collection (the engine's ANALYZE): one C pass per
    column, over the rows as they are — a transposed copy of a table is
    a table's worth of memory.  Everything but the NULL count reads off
    the column's set of distinct values, which keeps the first of equal
    values (``1`` beside ``1.0``) as ``min`` and ``max`` over the rows
    do; a SAP table is mostly constant filler columns."""
    stats = TableStats(row_count=table.row_count, analyzed=True)
    rows = [row for _rowid, row in table.store.rows()]
    for pos, column in enumerate(table.schema.columns):
        distinct = set(map(itemgetter(pos), rows))
        null_count = 0
        if None in distinct:
            distinct.remove(None)
            null_count = [row[pos] for row in rows].count(None)
        stats.columns[column.name.lower()] = ColumnStats(
            n_distinct=min(len(distinct), MAX_DISTINCT_TRACKED),
            min_value=min(distinct, default=None),
            max_value=max(distinct, default=None),
            null_count=null_count,
        )
    return stats


def _as_number(value: object) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    return None


def eq_selectivity(stats: TableStats, column: str,
                   value_known: bool) -> float:
    """Selectivity of ``column = const``.

    ``value_known`` is False for parameter markers, in which case the
    per-column distinct count can still be used (the classic 1/NDV
    estimate does not need the value itself).
    """
    col = stats.columns.get(column.lower())
    if col is None or not stats.analyzed or col.n_distinct == 0:
        return DEFAULT_EQ_SELECTIVITY
    return min(1.0, 1.0 / col.n_distinct)


def range_selectivity(
    stats: TableStats,
    column: str,
    op: str,
    value: object,
) -> float:
    """Selectivity of ``column <op> value`` by min/max interpolation.

    ``value`` is the *plan-time* constant; pass ``None`` for parameter
    markers to get the blind default — the heart of the Table 6 trap.
    """
    if value is None:
        return DEFAULT_RANGE_SELECTIVITY
    col = stats.columns.get(column.lower())
    if col is None or not stats.analyzed:
        return DEFAULT_RANGE_SELECTIVITY
    low = _as_number(col.min_value)
    high = _as_number(col.max_value)
    point = _as_number(value)
    if low is None or high is None or point is None:
        return DEFAULT_RANGE_SELECTIVITY
    if high <= low:
        return DEFAULT_RANGE_SELECTIVITY
    fraction = (point - low) / (high - low)
    fraction = min(1.0, max(0.0, fraction))
    if op in ("<", "<="):
        return fraction
    if op in (">", ">="):
        return 1.0 - fraction
    return DEFAULT_RANGE_SELECTIVITY
