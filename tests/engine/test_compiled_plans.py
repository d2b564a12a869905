"""Plans compile their expressions once and charge what they charged.

Operators keep ``Expr`` trees and compile them when ``rows()`` first
asks (``functools.cached_property``); the functions then live on the
operator for as long as the plan does.  The pins at the bottom were
captured at the last commit that walked the trees per row: compiling
(first to closures, now to generated source) is wall-clock only, so
rows, ticks and tuple counts of correlated and partitioned plans must
not move.
"""

import datetime
import hashlib
import sys

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.expr import Expr, IntervalLiteral, _factory
from repro.r3.appserver import R3System, R3Version
from repro.r3.ddic import DDicField, DDicTable, TableKind
from repro.tpcd.loader import load_original


@pytest.fixture()
def compile_calls(monkeypatch):
    """Class names of the trees :meth:`Expr.compile` ran on, in order.

    ``compile`` is the one entry to the code generator: operators, the
    cold ``eval`` path and compile-time folding all come through it.
    """
    calls: list[str] = []
    original = Expr.compile

    def counted(self):
        calls.append(type(self).__name__)
        return original(self)

    monkeypatch.setattr(Expr, "compile", counted)
    return calls


@pytest.fixture()
def items_db():
    db = Database()
    db.create_table(TableSchema("items", [
        Column("id", SqlType.integer(), nullable=False),
        Column("name", SqlType.varchar(12)),
        Column("shipped", SqlType.date()),
        Column("qty", SqlType.integer()),
    ], primary_key=["id"]))
    for n in range(40):
        db.execute(
            "insert into items values (?, ?, ?, ?)",
            (n, f"PROMO {n}" if n % 4 else f"plain {n}",
             datetime.date(1998, 8, 1) + datetime.timedelta(days=n), n % 7))
    db.analyze()
    return db


class TestCompileOnce:
    def test_prepared_select_compiles_on_first_execution_only(
            self, items_db, compile_calls):
        stmt = items_db.prepare(
            "select id, qty * 2 from items "
            "where name like ? and qty between ? and ? "
            "and shipped <= date '1998-12-01' - interval '90' day")
        planned = len(compile_calls)  # plan-time folding of the cutoff
        first = stmt.execute(("PROMO%", 1, 5)).rows
        compiled = len(compile_calls)
        assert compiled > planned
        for _ in range(49):
            assert stmt.execute(("PROMO%", 1, 5)).rows == first
        assert len(compile_calls) == compiled
        assert stmt.execute(("plain%", 0, 6)).rows != first
        assert len(compile_calls) == compiled

    def test_interval_arithmetic_runs_once_per_plan(self, items_db,
                                                    monkeypatch):
        stmt = items_db.prepare(
            "select count(*) from items where qty >= ? "
            "and shipped <= date '1998-12-01' - interval '90' day")
        calls = []
        original = IntervalLiteral.add_to
        monkeypatch.setattr(
            IntervalLiteral, "add_to",
            lambda self, date, sign: calls.append(date)
            or original(self, date, sign))
        assert stmt.execute((0,)).scalar() == 33
        assert len(calls) == 1  # 40 rows scanned, one cutoff computed
        assert stmt.execute((3,)).scalar() < 33
        assert len(calls) == 1

    def test_closures_survive_profile_attach_and_detach(self, items_db,
                                                        compile_calls):
        stmt = items_db.prepare("select id from items where qty = ?")
        expected = stmt.execute((3,)).rows
        compiled = len(compile_calls)
        items_db.tracer.enable()
        assert stmt.execute((3,)).rows == expected  # rows() shadowed
        items_db.tracer.disable()
        assert stmt.execute((3,)).rows == expected  # and restored
        assert len(compile_calls) == compiled

    def test_prepared_dml_compiles_per_execution(self, items_db,
                                                 compile_calls):
        # Prepared DML deep-copies its AST per execution, so it cannot
        # keep a closure; it must still compile per statement, not per row.
        stmt = items_db.prepare("update items set qty = qty + ? "
                                "where name like ?")
        stmt.execute((1, "plain%"))
        per_statement = len(compile_calls)
        stmt.execute((1, "plain%"))
        assert len(compile_calls) == 2 * per_statement
        assert per_statement < 20  # 10 rows match; 40 are scanned

    def test_cursor_cache_hit_compiles_nothing(self, compile_calls):
        r3 = R3System(R3Version.V22)
        r3.activate_table(DDicTable("mara", TableKind.TRANSPARENT, [
            DDicField("matnr", SqlType.char(18), key=True),
            DDicField("mtart", SqlType.char(25)),
            DDicField("psize", SqlType.integer()),
        ]))
        for i in range(30):
            r3.insert_logical("mara", (f"M{i:03d}", f"TYPE{i % 3}", i))
        r3.db.analyze()
        select = "SELECT matnr FROM mara WHERE psize >= :p AND mtart LIKE :t"
        assert len(r3.open_sql.select(select, {"p": 3, "t": "TYPE1%"}).rows) \
            == 9
        compiled = len(compile_calls)
        hits = r3.metrics.get("dbif.cursor_cache_hits")
        assert len(r3.open_sql.select(select, {"p": 20, "t": "TYPE_"}).rows) \
            == 10
        assert r3.metrics.get("dbif.cursor_cache_hits") == hits + 1
        assert len(compile_calls) == compiled


class TestColdPaths:
    """Compiling per execution costs a memo lookup, not an ``exec``."""

    @pytest.fixture()
    def memo(self):
        _factory.cache_clear()
        return _factory

    def test_prepared_delete_execs_once_per_source_text(self, items_db, memo):
        # prepared DML deep-copies its AST, so every execution compiles
        stmt = items_db.prepare("delete from items where qty = ? and name = ?")
        for n in range(100):
            assert stmt.execute((n % 7, "nobody")).scalar() == 0
        info = memo.cache_info()
        assert info.misses == info.currsize <= 2  # no text exec-ed twice
        assert info.hits >= 99

    def test_single_row_inserts_exec_once_per_source_text(self, items_db,
                                                          memo):
        items_db.create_table(TableSchema("pairs", [
            Column(name, SqlType.integer()) for name in "abc"]))
        for n in range(1000):
            items_db.execute("insert into pairs values (?, ?, ?)",
                             (n, n + 1, n + 2))
        info = memo.cache_info()
        assert info.misses == info.currsize == 3  # params[0], [1], [2]
        assert info.hits == 3 * 999
        assert items_db.execute("select count(*) from pairs").scalar() == 1000


def _python_calls(run) -> int:
    """Python-level ``call`` events (generator resumes included; C
    functions are ``c_call`` and do not count) while ``run()`` runs."""
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    outer = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return calls


@pytest.fixture()
def thousand_rows():
    db = Database()
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer(), nullable=False),
        Column("a", SqlType.integer()),
        Column("b", SqlType.integer()),
    ], primary_key=["k"]))
    db.bulk_load("t", [(n, 1, n % 10) for n in range(1000)])
    return db


def test_a_scanned_tuple_costs_one_python_call(thousand_rows):
    # A regression pin for the per-tuple path, in calls, not in seconds:
    # a scanned, rejected tuple costs the predicate call and nothing
    # else (the scan hands out pages, the tuple charge is an integer
    # add).  A layer that adds a call per tuple fails here.
    stmt = thousand_rows.prepare("select k from t where a = ? and b < ?")
    assert len(stmt.execute((1, 5)).rows) == 500  # compiled, pages warm
    assert "SeqScan" in stmt.explain()
    rows = []
    # a holds, b rejects: every row
    calls = _python_calls(lambda: rows.extend(stmt.execute((1, 0)).rows))
    assert rows == []
    assert calls <= 1 * 1000 + 100, calls / 1000


def test_an_unmatched_probe_row_costs_no_python_call(thousand_rows):
    # The hash join takes its keys with ``itemgetter`` and counts its
    # tuples inline: a probe row that finds no match costs what pulling
    # it out of the child scan costs (one generator resume), no more.
    db = thousand_rows
    db.create_table(TableSchema("u", [Column("x", SqlType.integer())]))
    db.bulk_load("u", [(n,) for n in (7, 8, None)])
    stmt = db.prepare("select k from t, u where a = x")
    assert "HashJoin" in stmt.explain()
    assert stmt.execute(()).rows == []  # compiled, pages warm
    rows = []
    calls = _python_calls(lambda: rows.extend(stmt.execute(()).rows))
    assert rows == []
    assert calls <= 1 * 1000 + 100, calls / 1000


#: name -> (degree, sql, operators the plan must contain)
PINNED_QUERIES = {
    # Q2 shape: correlated scalar MIN over the same table
    "min_cost_supplier": (1, """
        select s_name, p_partkey, ps_supplycost
        from part, supplier, partsupp
        where p_partkey = ps_partkey and s_suppkey = ps_suppkey
          and p_size < 10
          and ps_supplycost = (select min(ps2.ps_supplycost)
                               from partsupp ps2
                               where ps2.ps_partkey = p_partkey)
        order by p_partkey, s_name""", ()),
    # Q17 shape: correlated scalar AVG compared per joined row
    "small_quantity_revenue": (1, """
        select sum(l_extendedprice) / 7.0, count(*)
        from lineitem, part
        where p_partkey = l_partkey and p_size < 8
          and l_quantity < (select 0.5 * avg(l2.l_quantity)
                            from lineitem l2
                            where l2.l_partkey = p_partkey)""", ()),
    # Q4 shape: correlated EXISTS
    "late_orders": (1, """
        select o_orderpriority, count(*)
        from orders
        where o_orderdate >= date '1995-01-01'
          and o_orderdate < date '1995-01-01' + interval '3' month
          and exists (select * from lineitem
                      where l_orderkey = o_orderkey
                        and l_commitdate < l_receiptdate)
        group by o_orderpriority order by o_orderpriority""", ()),
    "pricing_summary@4": (4, """
        select l_returnflag, l_linestatus, sum(l_quantity),
               sum(l_extendedprice * (1 - l_discount)), avg(l_discount),
               count(*)
        from lineitem
        where l_shipdate <= date '1998-12-01' - interval '90' day
        group by l_returnflag, l_linestatus
        order by l_returnflag, l_linestatus""",
                          ("PartialAggregate", "PartitionScan")),
    "order_revenue@4": (4, """
        select o_orderpriority, sum(l_extendedprice * (1 - l_discount))
        from orders, lineitem
        where l_orderkey = o_orderkey and l_shipmode in ('MAIL', 'SHIP')
          and o_orderdate < date '1996-01-01'
          and l_comment not like '%special%'
        group by o_orderpriority order by o_orderpriority""",
                        ("ParallelHashJoin",)),
}

#: (rows, sha1 of repr(rows), simulated seconds, exec.tuples) at SF 0.001
#: on the tree-walking evaluator (commit 6d51e19)
PARENT_PINS = {
    "min_cost_supplier": (
        30, "dfd6620067654779f5b293a00aabd3facb88dbf5",
        0.12374882687219513, 4920),
    "small_quantity_revenue": (
        1, "3d4ce42e995822e86e50f3ef96f2971df8d7286a",
        1.8242000000114635, 62860),
    "late_orders": (
        5, "d096eba83fe7d0db319a610578e469563b3dc275",
        0.047546438562155124, 1782),
    "pricing_summary@4": (
        4, "e3ab4b1aef8e1c9c6c0852dc228bca949cdadbf5",
        0.07431200000000127, 12028),
    "order_revenue@4": (
        5, "de58d1b109f8ca04bfe5064744066c095dda7fb5",
        0.18272643856202908, 12080),
}


@pytest.fixture(scope="module")
def captured(tpcd_data):
    """Every pinned query, run the way the pins were captured.

    Simulated seconds depend on the buffer pool's state and (in the
    last bits) on the clock's absolute value, so the queries run in
    declaration order on one fresh database per degree.
    """
    dbs, out, plans = {}, {}, {}
    for name, (degree, sql, _operators) in PINNED_QUERIES.items():
        if degree not in dbs:
            dbs[degree] = load_original(tpcd_data, degree=degree)
        db = dbs[degree]
        ticks, tuples = db.clock.now, db.metrics.get("exec.tuples")
        rows = db.execute(sql).rows
        out[name] = (
            len(rows),
            hashlib.sha1(repr(rows).encode()).hexdigest(),
            db.clock.now - ticks,
            db.metrics.get("exec.tuples") - tuples,
        )
    for name, (degree, sql, _operators) in PINNED_QUERIES.items():
        plans[name] = dbs[degree].explain(sql)
    return out, plans


@pytest.mark.parametrize("name", sorted(PINNED_QUERIES))
def test_plan_matches_parent_capture(captured, name):
    results, plans = captured
    for operator in PINNED_QUERIES[name][2]:
        assert operator in plans[name]
    assert results[name] == PARENT_PINS[name]
