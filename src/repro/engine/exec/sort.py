"""Sorting: shared helper + the Sort operator.

Sorting charges n·log2(n) comparisons and, when the input exceeds
working memory, the write+read of external merge runs.  The *pipelined*
sort→group path (sort feeding aggregation without an intermediate
write) is what the paper credits the RDBMS with in Section 4.2; the
SAP application server's two-phase EXTRACT/SORT materialization is
modelled in :mod:`repro.r3.abap`.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.engine.exec.base import ExecContext, Operator


class _SortKeyWrapper:
    """Comparison wrapper: None sorts first, descending inverts."""

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortKeyWrapper") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKeyWrapper) and self.value == other.value


def sort_rows(
    ctx: ExecContext,
    rows: list[tuple],
    keys: list[tuple[int, bool]],
    schema_width: int,
) -> list[tuple]:
    """Sort materialized rows by (position, descending) keys, with costs."""
    count = len(rows)
    if count > 1:
        ctx.charge_comparisons(count * math.log2(count))
    byte_count = count * ctx.row_bytes(schema_width)
    if byte_count > ctx.params.work_mem_bytes:
        ctx.charge_spill(byte_count, "sort")
        ctx.metrics.count("exec.external_sorts")
    rows.sort(
        key=lambda row: tuple(
            _SortKeyWrapper(row[pos], desc) for pos, desc in keys
        )
    )
    return rows


class Sort(Operator):
    """Materializing sort by positional keys."""

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        keys: list[tuple[int, bool]],
    ) -> None:
        super().__init__(ctx, child.schema)
        self.child = child
        self.keys = keys

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        yield from sort_rows(
            self.ctx, self.child.materialize(params), self.keys,
            len(self.schema)
        )

    def describe(self) -> str:
        keys = ", ".join(
            f"{pos}{' DESC' if desc else ''}" for pos, desc in self.keys
        )
        return f"Sort({keys})"

    def child_operators(self) -> list[Operator]:
        return [self.child]
