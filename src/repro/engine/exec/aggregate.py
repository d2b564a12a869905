"""Hash aggregation operator.

The engine pipelines grouping after sorting or hashes directly — there
is no intermediate materialization to disk, which is the advantage the
paper measures against the SAP application server's two-phase
EXTRACT/SORT grouping (Section 4.2, Table 7).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from repro.engine.errors import ExecutionError
from repro.engine.exec.base import ExecContext, Operator
from repro.engine.expr import (
    AggCall,
    Compiled,
    Expr,
    Literal,
    OutputSchema,
    compile_row,
)


class _AggState:
    """Accumulator for one aggregate in one group."""

    __slots__ = ("func", "distinct", "count", "total", "minimum", "maximum",
                 "seen")

    def __init__(self, func: str, distinct: bool) -> None:
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total = 0.0
        self.minimum: object = None
        self.maximum: object = None
        self.seen: set | None = set() if distinct else None

    def add(self, value: object) -> None:
        if self.func == "COUNT" and value is _COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total += value
        elif self.func == "MIN":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.func == "MAX":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self) -> object:
        if self.func == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return self.total / self.count
        if self.func == "MIN":
            return self.minimum
        if self.func == "MAX":
            return self.maximum
        raise ExecutionError(f"unknown aggregate {self.func}")


class _CountStar:
    pass


_COUNT_STAR = _CountStar()


class GroupAggregate(Operator):
    """Group by ``group_exprs`` and compute ``agg_calls``.

    Output row layout: group values first, aggregate results after, in
    declaration order.  With no group expressions the operator emits
    exactly one row (global aggregation), even over empty input.
    """

    #: prefix of the aggregate columns' names in the output schema
    AGG_PREFIX = "_a"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_exprs: list[Expr],
        agg_calls: list[AggCall],
    ) -> None:
        entries: list[tuple[str | None, str]] = []
        entries.extend((None, f"_g{i}") for i in range(len(group_exprs)))
        entries.extend((None, f"{self.AGG_PREFIX}{i}")
                       for i in range(len(agg_calls)))
        super().__init__(ctx, OutputSchema(entries))
        self.child = child
        self.group_exprs = group_exprs
        self.agg_calls = agg_calls

    @cached_property
    def _group_key(self) -> Compiled:
        return compile_row(self.group_exprs)

    @cached_property
    def _agg_args(self) -> Compiled:
        """The aggregates' arguments as one row; COUNT(*)'s is a marker."""
        return compile_row([Literal(_COUNT_STAR) if call.arg is None
                            else call.arg for call in self.agg_calls])

    def _new_states(self) -> list[_AggState]:
        return [_AggState(call.func, call.distinct)
                for call in self.agg_calls]

    def _accumulate(
        self, params: Sequence[object]
    ) -> dict[tuple, list[_AggState]]:
        """Fold the child's rows into per-group states, first-seen order."""
        groups: dict[tuple, list[_AggState]] = {}
        group_key, agg_args = self._group_key, self._agg_args
        counts = self.ctx.metrics.counts
        for row in self.child.rows(params):
            counts["exec.tuples"] += 1
            key = group_key(row, params)
            states = groups.get(key)
            if states is None:
                states = groups[key] = self._new_states()
            for state, value in zip(states, agg_args(row, params)):
                state.add(value)
        return groups

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        groups = self._accumulate(params)
        if not self.group_exprs and not groups:
            # Global aggregate over empty input still yields one row.
            yield tuple(state.result() for state in self._new_states())
            return
        counts = self.ctx.metrics.counts
        for key, states in groups.items():
            counts["exec.tuples"] += 1
            yield key + tuple(state.result() for state in states)

    def describe(self) -> str:
        aggs = ", ".join(
            f"{c.func}({'*' if c.arg is None else '…'})"
            for c in self.agg_calls
        )
        return f"GroupAggregate(groups={len(self.group_exprs)}, aggs=[{aggs}])"

    def child_operators(self) -> list[Operator]:
        return [self.child]
