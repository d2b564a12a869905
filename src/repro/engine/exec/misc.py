"""Small plumbing operators: Filter, Project, Distinct, Limit, Rows."""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from repro.engine.exec.base import ExecContext, Operator, compiled
from repro.engine.expr import Compiled, Expr, OutputSchema, compile_row


class Filter(Operator):
    def __init__(self, ctx: ExecContext, child: Operator,
                 predicate: Expr) -> None:
        super().__init__(ctx, child.schema)
        self.child = child
        self.predicate = predicate

    _holds = compiled("predicate")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        holds = self._holds
        counts = self.ctx.metrics.counts
        for row in self.child.rows(params):
            counts["exec.tuples"] += 1
            if holds(row, params) is True:
                yield row

    def describe(self) -> str:
        return "Filter"

    def child_operators(self) -> list[Operator]:
        return [self.child]


class Project(Operator):
    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        exprs: list[Expr],
        names: list[str],
    ) -> None:
        super().__init__(ctx, OutputSchema([(None, n) for n in names]))
        self.child = child
        self.exprs = exprs

    @cached_property
    def _project(self) -> Compiled:
        return compile_row(self.exprs)

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        project = self._project
        counts = self.ctx.metrics.counts
        for row in self.child.rows(params):
            counts["exec.tuples"] += 1
            yield project(row, params)

    def describe(self) -> str:
        return f"Project({len(self.exprs)} cols)"

    def child_operators(self) -> list[Operator]:
        return [self.child]


class Distinct(Operator):
    def __init__(self, ctx: ExecContext, child: Operator) -> None:
        super().__init__(ctx, child.schema)
        self.child = child

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        seen: set[tuple] = set()
        counts = self.ctx.metrics.counts
        for row in self.child.rows(params):
            counts["exec.tuples"] += 1
            if row not in seen:
                seen.add(row)
                yield row

    def describe(self) -> str:
        return "Distinct"

    def child_operators(self) -> list[Operator]:
        return [self.child]


class Limit(Operator):
    def __init__(self, ctx: ExecContext, child: Operator, limit: int) -> None:
        super().__init__(ctx, child.schema)
        self.child = child
        self.limit = limit

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        if self.limit <= 0:
            return
        emitted = 0
        for row in self.child.rows(params):
            yield row
            emitted += 1
            if emitted >= self.limit:
                return

    def describe(self) -> str:
        return f"Limit({self.limit})"

    def child_operators(self) -> list[Operator]:
        return [self.child]


class Alias(Operator):
    """Re-qualify a child's output columns under a new binding name."""

    def __init__(self, ctx: ExecContext, child: Operator, binding: str,
                 column_names: list[str]) -> None:
        super().__init__(
            ctx, OutputSchema([(binding, n) for n in column_names])
        )
        self.child = child
        self.estimated_rows = child.estimated_rows

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        return self.child.rows(params)

    def materialize(self, params: Sequence[object]) -> list[tuple]:
        return self.child.materialize(params)

    def describe(self) -> str:
        return f"Alias({self.schema.entries[0][0]})"

    def child_operators(self) -> list[Operator]:
        return [self.child]


class RowsSource(Operator):
    """Operator over pre-materialized rows (view results, test fixtures)."""

    def __init__(self, ctx: ExecContext, schema: OutputSchema,
                 rows: list[tuple]) -> None:
        super().__init__(ctx, schema)
        self._rows = rows

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        counts = self.ctx.metrics.counts
        for row in self._rows:
            counts["exec.tuples"] += 1
            yield row

    def describe(self) -> str:
        return f"RowsSource({len(self._rows)} rows)"
