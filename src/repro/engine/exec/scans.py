"""Table access operators: sequential scan and index scans."""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from repro.engine.exec.base import ExecContext, Operator, PipelineTop, compiled
from repro.engine.expr import Compiled, Expr, OutputSchema
from repro.engine.index import NULL_FIRST
from repro.engine.table import Table


def table_schema(table: Table, alias: str | None) -> OutputSchema:
    binding = (alias or table.name).lower()
    return OutputSchema(
        [(binding, c.name) for c in table.schema.columns]
    )


class SeqScan(PipelineTop, Operator):
    """Full sequential scan with an optional pushed-down filter; drained,
    the zero-join pipeline (DESIGN.md §21, §25)."""

    def __init__(
        self,
        ctx: ExecContext,
        table: Table,
        alias: str | None = None,
        predicate: Expr | None = None,
    ) -> None:
        super().__init__(ctx, table_schema(table, alias))
        self.table = table
        self.alias = alias
        self.predicate = predicate

    _holds = compiled("predicate")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        holds = self._holds
        counts = self.ctx.metrics.counts
        counter = self.table.scanned_counter
        # both counters per row pulled: a Limit abandons a page half way
        for _rowids, rows in self.table.store.scan():
            if holds is None:
                for row in rows:
                    counts[counter] += 1
                    counts["exec.tuples"] += 1
                    yield row
            else:
                for row in rows:
                    counts[counter] += 1
                    counts["exec.tuples"] += 1
                    if holds(row, params) is True:
                        yield row

    def describe(self) -> str:
        filt = " (filtered)" if self.predicate is not None else ""
        return f"SeqScan({self.table.name}{filt})"


class IndexEqScan(Operator):
    """Point lookup: index equality probe + heap fetches."""

    def __init__(
        self,
        ctx: ExecContext,
        table: Table,
        index_name: str,
        key_exprs: list[Expr],
        alias: str | None = None,
        residual: Expr | None = None,
    ) -> None:
        super().__init__(ctx, table_schema(table, alias))
        self.table = table
        self.index = table.indexes[index_name.lower()]
        self.key_exprs = key_exprs
        self.residual = residual

    @cached_property
    def _key(self) -> list[Compiled]:
        return [expr.compile() for expr in self.key_exprs]

    _holds = compiled("residual")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        key = tuple([part((), params) for part in self._key])
        if len(key) == len(self.index.column_names):
            rowids = self.index.search_eq(key)
        else:
            rowids = [rowid for _key, rowid in self.index.search_prefix(key)]
        holds = self._holds
        fetch_row = self.table.fetch_row
        counts = self.ctx.metrics.counts
        for rowid in rowids:
            row = fetch_row(rowid, sequential=False)
            counts["exec.tuples"] += 1
            if holds is None or holds(row, params) is True:
                yield row

    def describe(self) -> str:
        return f"IndexEqScan({self.table.name} via {self.index.name})"


class IndexRangeScan(Operator):
    """Range scan on the index's first column + random heap fetches.

    This operator is the paper's Table 6 trap: on a non-selective
    predicate every qualifying entry costs a random heap page fetch.
    When no entry qualifies only the index is consulted — the paper's
    sub-second high-selectivity case.
    """

    def __init__(
        self,
        ctx: ExecContext,
        table: Table,
        index_name: str,
        low: Expr | None,
        high: Expr | None,
        low_inclusive: bool,
        high_inclusive: bool,
        alias: str | None = None,
        residual: Expr | None = None,
    ) -> None:
        super().__init__(ctx, table_schema(table, alias))
        self.table = table
        self.index = table.indexes[index_name.lower()]
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.residual = residual

    _low = compiled("low")
    _high = compiled("high")
    _holds = compiled("residual")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        low, high = self._low, self._high
        entries = self.index.search_range(
            None if low is None else (low((), params),),
            None if high is None else (high((), params),),
            self.low_inclusive, self.high_inclusive,
        )
        holds = self._holds
        fetch_row = self.table.fetch_row
        counts = self.ctx.metrics.counts
        for key, rowid in entries:
            if key[0] is NULL_FIRST:  # NULL keys never satisfy a range
                continue
            row = fetch_row(rowid, sequential=False)
            counts["exec.tuples"] += 1
            if holds is None or holds(row, params) is True:
                yield row

    def describe(self) -> str:
        return f"IndexRangeScan({self.table.name} via {self.index.name})"
