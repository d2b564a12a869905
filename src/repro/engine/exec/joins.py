"""Join operators: block nested loop, index nested loop, hash."""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.engine.exec.base import ExecContext, Operator, compiled
from repro.engine.expr import Compiled, Expr, OutputSchema
from repro.engine.table import Table


def _joined_schema(left: Operator, right_schema: OutputSchema) -> OutputSchema:
    return left.schema.concat(right_schema)


def build_hash_table(
    rows: list[tuple], key_positions: list[int]
) -> tuple[dict, int, bool]:
    """The build side of every hash join: ``(table, build_count,
    unique)``, keyed by ``itemgetter(*key_positions)`` — the value
    itself for one column, the tuple of the values for several.

    A row whose key has a NULL part joins nothing and is neither stored
    nor counted.  Unique keys — a primary or foreign-key parent side —
    make the table in C, each row its own entry (``unique``); otherwise
    an entry is the list of the key's rows in input order.
    """
    keys = list(map(itemgetter(*key_positions), rows))
    composite = len(key_positions) > 1
    pairs: Iterable[tuple[object, tuple]]
    if None in (chain.from_iterable(keys) if composite else keys):
        pairs = [(key, row) for key, row in zip(keys, rows)
                 if ((None not in key) if composite else (key is not None))]
        build_count = len(pairs)
    else:
        table = dict(zip(keys, rows))
        if len(table) == len(rows):
            return table, len(rows), True
        pairs, build_count = zip(keys, rows), len(rows)
    buckets: defaultdict[object, list[tuple]] = defaultdict(list)
    for key, row in pairs:
        buckets[key].append(row)
    buckets.default_factory = None  # a probe's miss adds no bucket
    return buckets, build_count, False


class NestedLoopJoin(Operator):
    """Block nested-loop join with an arbitrary join predicate.

    The inner input is materialized; when it exceeds working memory the
    outer side is processed in blocks and the inner side re-scanned per
    block, as a real BNL would re-read the inner relation.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        condition: Expr | None,
        outer: bool = False,
    ) -> None:
        super().__init__(ctx, _joined_schema(left, right.schema))
        self.left = left
        self.right = right
        self.condition = condition
        self.outer = outer

    _holds = compiled("condition")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        inner = self.right.materialize(params)
        inner_bytes = len(inner) * self.ctx.row_bytes(len(self.right.schema))
        rescans_needed = inner_bytes > self.ctx.params.work_mem_bytes
        null_row = (None,) * len(self.right.schema)
        outer_count = 0
        holds = self._holds
        counts = self.ctx.metrics.counts
        charge_comparisons = self.ctx.charge_comparisons
        for left_row in self.left.rows(params):
            outer_count += 1
            matched = False
            charge_comparisons(len(inner))
            for right_row in inner:
                combined = left_row + right_row
                if holds is None or holds(combined, params) is True:
                    matched = True
                    counts["exec.tuples"] += 1
                    yield combined
            if self.outer and not matched:
                counts["exec.tuples"] += 1
                yield left_row + null_row
        if rescans_needed and outer_count:
            # Charge the re-reads a block-sized BNL would have done.
            block_rows = max(
                1,
                self.ctx.params.work_mem_bytes
                // self.ctx.row_bytes(len(self.left.schema)),
            )
            blocks = -(-outer_count // block_rows)
            self.ctx.charge_spill(inner_bytes * max(0, blocks - 1), "bnl")

    def describe(self) -> str:
        kind = "LeftOuterNLJoin" if self.outer else "NestedLoopJoin"
        return kind

    def child_operators(self) -> list[Operator]:
        return [self.left, self.right]


class IndexNestedLoopJoin(Operator):
    """For each outer row, probe an index on the inner base table.

    ``key_sources`` builds the probe key along the index's key-column
    prefix; each element is either ``("outer", position)`` — take the
    value from the outer row — or ``("const", expr)`` — a plan-time
    constant / parameter / correlated reference.  This lets the probe
    use composite indexes whose leading columns are bound by equality
    filters (e.g. SAP's MANDT-first primary keys).
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        inner_table: Table,
        inner_alias: str | None,
        index_name: str,
        key_sources: list[tuple[str, object]],
        residual: Expr | None = None,
        inner_filter: Expr | None = None,
    ) -> None:
        from repro.engine.exec.scans import table_schema

        inner_schema = table_schema(inner_table, inner_alias)
        super().__init__(ctx, _joined_schema(left, inner_schema))
        self.left = left
        self.inner_table = inner_table
        self.index = inner_table.indexes[index_name.lower()]
        self.key_sources = key_sources
        self.residual = residual
        self.inner_filter = inner_filter

    @cached_property
    def _key_parts(self) -> list[tuple[int | None, Compiled | None]]:
        """Per key column ``(outer position, None)`` or ``(None, fn)``."""
        return [
            (source, None) if kind == "outer" else (None, source.compile())
            for kind, source in self.key_sources
        ]

    _inner_holds = compiled("inner_filter")
    _holds = compiled("residual")

    def _probe_key(self, left_row: tuple,
                   params: Sequence[object]) -> tuple | None:
        key = []
        for position, constant in self._key_parts:
            if constant is None:
                value = left_row[position]
            else:
                value = constant((), params)
            if value is None:
                return None
            key.append(value)
        return tuple(key)

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        inner_holds, holds = self._inner_holds, self._holds
        probe_key = self._probe_key
        index = self.index
        full_key = len(self.key_sources) == len(index.column_names)
        fetch_row = self.inner_table.fetch_row
        counts = self.ctx.metrics.counts
        for left_row in self.left.rows(params):
            key = probe_key(left_row, params)
            if key is None:
                continue
            if full_key:
                rowids = index.search_eq(key)
            else:
                rowids = [r for _k, r in index.search_prefix(key)]
            for rowid in rowids:
                inner_row = fetch_row(rowid, sequential=False)
                if inner_holds is not None \
                        and inner_holds(inner_row, params) is not True:
                    continue
                combined = left_row + inner_row
                counts["exec.tuples"] += 1
                if holds is None or holds(combined, params) is True:
                    yield combined

    def describe(self) -> str:
        return (f"IndexNestedLoopJoin({self.inner_table.name} "
                f"via {self.index.name})")

    def child_operators(self) -> list[Operator]:
        return [self.left]


class HashJoin(Operator):
    """Equi-join; builds a hash table on the right input.

    When the build side exceeds working memory, a grace-hash spill of
    both inputs is charged (write + re-read), as in a classic hybrid
    hash join.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        left_key_positions: list[int],
        right_key_positions: list[int],
        residual: Expr | None = None,
        build_left: bool = False,
    ) -> None:
        super().__init__(ctx, _joined_schema(left, right.schema))
        self.left = left
        self.right = right
        self.left_key_positions = left_key_positions
        self.right_key_positions = right_key_positions
        self.residual = residual
        #: the optimizer sets this when the left input is the smaller
        #: one; output column order is unaffected
        self.build_left = build_left

    _holds = compiled("residual")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        ctx = self.ctx
        build_left = self.build_left
        if build_left:
            build_op, probe_op = self.left, self.right
            build_keys, probe_keys = (self.left_key_positions,
                                      self.right_key_positions)
        else:
            build_op, probe_op = self.right, self.left
            build_keys, probe_keys = (self.right_key_positions,
                                      self.left_key_positions)
        probe_key = itemgetter(*probe_keys)
        composite = len(probe_keys) > 1
        table, build_count, unique = build_hash_table(
            build_op.materialize(params), build_keys)
        ctx.charge_tuples(build_count)
        build_bytes = build_count * ctx.row_bytes(len(build_op.schema))
        spilling = build_bytes > ctx.params.work_mem_bytes
        if spilling:
            ctx.charge_spill(build_bytes, "hash-build")
        holds = self._holds
        counts = ctx.metrics.counts
        probe_count = 0
        for probe_row in probe_op.rows(params):
            probe_count += 1
            key = probe_key(probe_row)
            if (None in key) if composite else (key is None):
                continue
            counts["exec.tuples"] += 1
            found = table.get(key)
            if found is None:
                continue
            if unique:  # one row, no inner loop
                combined = found + probe_row if build_left \
                    else probe_row + found
                if holds is None or holds(combined, params) is True:
                    counts["exec.tuples"] += 1
                    yield combined
                continue
            for build_row in found:
                if build_left:
                    combined = build_row + probe_row
                else:
                    combined = probe_row + build_row
                if holds is None or holds(combined, params) is True:
                    counts["exec.tuples"] += 1
                    yield combined
        if spilling:
            ctx.charge_spill(
                probe_count * ctx.row_bytes(len(probe_op.schema)),
                "hash-probe")

    def describe(self) -> str:
        side = "build=left" if self.build_left else "build=right"
        return f"HashJoin({side})"

    def child_operators(self) -> list[Operator]:
        return [self.left, self.right]
