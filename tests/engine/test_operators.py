"""Direct unit tests of the physical operators."""

import pytest

from repro.engine.exec.aggregate import GroupAggregate
from repro.engine.exec.base import ExecContext, Operator
from repro.engine.exec.joins import HashJoin, NestedLoopJoin
from repro.engine.exec.misc import (
    Alias,
    Distinct,
    Filter,
    Limit,
    Project,
    RowsSource,
)
from repro.engine.exec.sort import Sort, sort_rows
from repro.engine.expr import (
    AggCall,
    BinOp,
    ColumnRef,
    Literal,
    OutputSchema,
)
from repro.engine.buffer import BufferPool
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams


@pytest.fixture()
def ctx():
    clock = SimulatedClock()
    metrics = MetricsCollector()
    params = SimParams()
    disk = DiskModel(clock, metrics, params.seq_read_s,
                     params.random_read_s, params.write_s)
    pool = BufferPool(128, disk, clock, metrics, params.buffer_hit_s)
    return ExecContext(clock, metrics, params, pool)


def source(ctx, rows, names=("a", "b")):
    schema = OutputSchema([(None, n) for n in names])
    return RowsSource(ctx, schema, rows)


class TestPlumbing:
    def test_filter(self, ctx):
        op = Filter(ctx, source(ctx, [(1, 1), (2, 2), (3, 3)]),
                    BinOp(">", ColumnRef(None, "a"), Literal(1)))
        op.predicate.bind(op.schema)
        assert list(op.rows(())) == [(2, 2), (3, 3)]

    def test_filter_treats_null_as_not_satisfied(self, ctx):
        op = Filter(ctx, source(ctx, [(1, 1), (None, 2), (3, 3)]),
                    BinOp("<>", ColumnRef(None, "a"), Literal(1)))
        op.predicate.bind(op.schema)
        assert list(op.rows(())) == [(3, 3)]

    def test_project(self, ctx):
        expr = BinOp("*", ColumnRef(None, "a"), Literal(10))
        child = source(ctx, [(1, 0), (2, 0)])
        expr.bind(child.schema)
        op = Project(ctx, child, [expr], ["x"])
        assert list(op.rows(())) == [(10,), (20,)]

    def test_distinct_preserves_first_seen_order(self, ctx):
        op = Distinct(ctx, source(ctx, [(2, 0), (1, 0), (2, 0)]))
        assert list(op.rows(())) == [(2, 0), (1, 0)]

    def test_limit(self, ctx):
        op = Limit(ctx, source(ctx, [(i, 0) for i in range(10)]), 3)
        assert len(list(op.rows(()))) == 3

    def test_limit_zero(self, ctx):
        op = Limit(ctx, source(ctx, [(1, 0)]), 0)
        assert list(op.rows(())) == []

    def test_limit_does_not_exhaust_child(self, ctx):
        pulled = []

        class Counting(Operator):
            def __init__(self, inner):
                super().__init__(ctx, inner.schema)
                self.inner = inner

            def rows(self, params):
                for row in self.inner.rows(params):
                    pulled.append(row)
                    yield row

        op = Limit(ctx, Counting(source(ctx, [(i, 0) for i in range(10)])),
                   2)
        list(op.rows(()))
        assert len(pulled) == 2

    def test_alias_requalifies(self, ctx):
        op = Alias(ctx, source(ctx, [(1, 2)]), "v", ["x", "y"])
        assert op.schema.resolve("v", "y") == 1
        assert list(op.rows(())) == [(1, 2)]

    def test_explain_tree(self, ctx):
        op = Limit(ctx, source(ctx, []), 1)
        text = op.explain()
        assert "Limit(1)" in text and "RowsSource" in text


class TestJoins:
    def test_nested_loop_inner(self, ctx):
        left = source(ctx, [(1, 0), (2, 0)], names=("l", "lx"))
        right = source(ctx, [(1, 9), (3, 9)], names=("r", "rx"))
        cond = BinOp("=", ColumnRef(None, "l"), ColumnRef(None, "r"))
        join = NestedLoopJoin(ctx, left, right, cond)
        cond.bind(join.schema)
        assert list(join.rows(())) == [(1, 0, 1, 9)]

    def test_nested_loop_outer(self, ctx):
        left = source(ctx, [(1, 0), (2, 0)], names=("l", "lx"))
        right = source(ctx, [(1, 9)], names=("r", "rx"))
        cond = BinOp("=", ColumnRef(None, "l"), ColumnRef(None, "r"))
        join = NestedLoopJoin(ctx, left, right, cond, outer=True)
        cond.bind(join.schema)
        assert list(join.rows(())) == [(1, 0, 1, 9), (2, 0, None, None)]

    def test_cross_join(self, ctx):
        join = NestedLoopJoin(
            ctx,
            source(ctx, [(1, 0)], names=("l", "lx")),
            source(ctx, [(8, 0), (9, 0)], names=("r", "rx")),
            None,
        )
        assert len(list(join.rows(()))) == 2

    @pytest.mark.parametrize("build_left", [False, True])
    def test_hash_join_both_build_sides(self, ctx, build_left):
        left = source(ctx, [(1, 0), (2, 0), (2, 1)], names=("l", "lx"))
        right = source(ctx, [(2, 7), (3, 7)], names=("r", "rx"))
        join = HashJoin(ctx, left, right, [0], [0],
                        build_left=build_left)
        assert sorted(join.rows(())) == [(2, 0, 2, 7), (2, 1, 2, 7)]

    def test_hash_join_null_keys_never_match(self, ctx):
        left = source(ctx, [(None, 0)], names=("l", "lx"))
        right = source(ctx, [(None, 7)], names=("r", "rx"))
        join = HashJoin(ctx, left, right, [0], [0])
        assert list(join.rows(())) == []

    def test_hash_join_spill_charged(self, ctx):
        big = [(i, "x" * 4) for i in range(150000)]
        join = HashJoin(
            ctx,
            source(ctx, [(1, 0)], names=("l", "lx")),
            source(ctx, big, names=("r", "rx")),
            [0], [0],
        )
        snap = ctx.metrics.snapshot()
        list(join.rows(()))
        assert snap.get("exec.spill_pages") > 0


class TestSortAndAggregate:
    def test_sort_rows_asc_desc(self, ctx):
        rows = [(2, "b"), (1, "c"), (2, "a")]
        out = sort_rows(ctx, list(rows), [(0, False), (1, True)], 2)
        assert out == [(1, "c"), (2, "b"), (2, "a")]

    def test_sort_none_first_ascending(self, ctx):
        out = sort_rows(ctx, [(1,), (None,), (0,)], [(0, False)], 1)
        assert out == [(None,), (0,), (1,)]

    def test_sort_none_last_descending(self, ctx):
        out = sort_rows(ctx, [(1,), (None,), (2,)], [(0, True)], 1)
        assert out == [(2,), (1,), (None,)]

    def test_sort_operator(self, ctx):
        op = Sort(ctx, source(ctx, [(3, 0), (1, 0)]), [(0, False)])
        assert list(op.rows(())) == [(1, 0), (3, 0)]

    def test_external_sort_spills(self, ctx):
        rows = [(i, i) for i in range(200000)]
        snap = ctx.metrics.snapshot()
        sort_rows(ctx, rows, [(0, True)], 2)
        assert snap.get("exec.external_sorts") == 1

    def test_group_aggregate_all_functions(self, ctx):
        child = source(ctx, [(1, 10.0), (1, 20.0), (2, 5.0)])
        group = ColumnRef(None, "a").bind(child.schema)
        calls = []
        for func in ("SUM", "AVG", "COUNT", "MIN", "MAX"):
            call = AggCall(func, ColumnRef(None, "b"))
            call.bind(child.schema)
            calls.append(call)
        op = GroupAggregate(ctx, child, [group], calls)
        rows = sorted(op.rows(()))
        assert rows[0] == (1, 30.0, 15.0, 2, 10.0, 20.0)
        assert rows[1] == (2, 5.0, 5.0, 1, 5.0, 5.0)

    def test_aggregate_skips_nulls(self, ctx):
        child = source(ctx, [(1, None), (1, 4.0)])
        call = AggCall("AVG", ColumnRef(None, "b"))
        call.bind(child.schema)
        count = AggCall("COUNT", ColumnRef(None, "b"))
        count.bind(child.schema)
        star = AggCall("COUNT", None)
        op = GroupAggregate(ctx, child, [], [call, count, star])
        assert list(op.rows(())) == [(4.0, 1, 2)]

    def test_aggregate_distinct(self, ctx):
        child = source(ctx, [(1, 5.0), (1, 5.0), (1, 7.0)])
        call = AggCall("SUM", ColumnRef(None, "b"), distinct=True)
        call.bind(child.schema)
        op = GroupAggregate(ctx, child, [], [call])
        assert list(op.rows(())) == [(12.0,)]

    def test_empty_group_by_on_empty_input_yields_one_row(self, ctx):
        child = source(ctx, [])
        call = AggCall("SUM", ColumnRef(None, "b"))
        call.bind(child.schema)
        op = GroupAggregate(ctx, child, [], [call])
        assert list(op.rows(())) == [(None,)]

    def test_grouped_empty_input_yields_nothing(self, ctx):
        child = source(ctx, [])
        group = ColumnRef(None, "a").bind(child.schema)
        op = GroupAggregate(ctx, child, [group],
                            [AggCall("COUNT", None)])
        assert list(op.rows(())) == []

    def test_group_output_order_is_first_seen(self, ctx):
        child = source(ctx, [(2, 0.0), (1, 0.0), (2, 1.0)])
        group = ColumnRef(None, "a").bind(child.schema)
        op = GroupAggregate(ctx, child, [group],
                            [AggCall("COUNT", None)])
        assert [row[0] for row in op.rows(())] == [2, 1]
