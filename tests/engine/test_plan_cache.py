"""``Database.execute`` keeps the plan of a SELECT text (DESIGN.md §29).

A cached plan is reused only while everything the planner read is as it
was: each table with its row and page counts, its indexes and their
leaf pages, its statistics; each view's text; the cost constants; the
parallel setting.  A hit is still counted and charged as a plan.  The
reference is a twin database whose plan cache is emptied before every
``execute`` — the engine planning every text afresh.  Interleavings of
SELECTs with index, view, ``ANALYZE``, DML and cost-constant changes run
on both, on heap and LSM storage at one lane and four; at every SELECT
the rows (by ``repr``), ``repr(clock.now)``, every counter and the
EXPLAIN of the plan used must be equal.  What a plan keeps for one
execution — an uncorrelated scalar subquery's value, the operator
profile of a traced run — is the execution's own.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import CatalogError
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.tpcd.dbgen import generate
from repro.tpcd.loader import load_original
from repro.tpcd.queries import build_queries, run_query

from tests.engine.test_join_oracle import (
    VIEWS,
    _engine,
    _grouped,
    _over_views,
    _query,
    _rows,
)

CONFIGS = [("heap", 1), ("lsm", 1), ("heap", 4), ("lsm", 4)]

#: cost constants the planner reads, and values to set them to
PARAMS = {
    "random_read_s": (0.0005, 0.05),
    "seq_read_s": (0.0001, 0.01),
    "tuple_cpu_s": (0.000001, 0.001),
    "index_traverse_s": (0.000001, 0.01),
    "parallel_broadcast_rows": (1, 10**6),
    "plan_cpu_s": (0.001, 0.02),
}


def _execute(db: Database, twin: Database, sql: str, params=()) -> None:
    """``sql`` on ``db`` and, planned afresh, on ``twin``: equal."""
    twin._plan_cache.clear()
    got, expected = db.execute(sql, params), twin.execute(sql, params)
    assert repr(got.rows) == repr(expected.rows), sql
    _same(db, twin, sql)


def _same(db: Database, twin: Database, sql: str | None = None) -> None:
    """Equal clocks and counters; equal plans for ``sql``."""
    assert repr(db.clock.now) == repr(twin.clock.now), sql
    assert db.metrics.all() == twin.metrics.all(), sql
    if sql is not None:
        assert db._plan_cache[sql].plan.operator.explain() == \
            twin._plan_cache[sql].plan.operator.explain(), sql


def _set_param(dbs, field: str, value) -> None:
    for db in dbs:
        setattr(db.params, field, value)


# -- the scalar subquery's memo ------------------------------------------

SCALAR = "SELECT a FROM t WHERE a = (SELECT MAX(a) FROM t)"


def _table_t(values) -> Database:
    db = Database()
    db.create_table(TableSchema("t", [Column("a", SqlType.integer())]))
    for value in values:
        db.execute("INSERT INTO t VALUES (?)", (value,))
    return db


def test_a_prepared_scalar_subquery_runs_once_per_execution():
    db = _table_t([1, 2])
    stmt = db.prepare(SCALAR)
    assert stmt.execute().rows == [(2,)]
    db.execute("INSERT INTO t VALUES (5)")
    before = db.metrics.get("plan.subquery_executions")
    assert stmt.execute().rows == [(5,)]
    assert db.metrics.get("plan.subquery_executions") == before + 1
    assert db.execute(SCALAR).rows == [(5,)]


def test_a_cached_plan_reads_the_subquery_again():
    """UPDATE changes no count the planner read: the plan is reused,
    its subquery runs again."""
    db = _table_t([1, 2])
    assert db.execute(SCALAR).rows == [(2,)]
    db.execute("UPDATE t SET a = 7 WHERE a = 1")
    assert db.execute(SCALAR).rows == [(7,)]
    assert db.plan_cache_hits == 1
    assert db.metrics.get("plan.subquery_executions") == 2


# -- what invalidates a plan ---------------------------------------------

def _small(storage="heap", degree=1):
    rows = _rows(random.Random(7))
    return _engine(rows, storage, degree), _engine(rows, storage, degree)


def _changes():
    """(name, change of one database) — each moves a planner input."""
    return [
        ("create index", lambda db: db.create_index("ix_a", "t1", ["a"])),
        ("analyze", lambda db: (db.execute("UPDATE t1 SET b = 0"),
                                db.analyze("t1"))),
        ("insert", lambda db: db.execute(
            "INSERT INTO t1 VALUES (1000, 1, 2, 3)")),
        ("delete", lambda db: db.execute("DELETE FROM t2 WHERE id = 3")),
        ("new view text", lambda db: (db.drop_view("v1"),
                                      db.create_view("v1", VIEWS["v3"]))),
        ("cost constant", lambda db: setattr(db.params, "seq_read_s", 0.1)),
        ("degree", lambda db: db.set_degree(4)),
        ("partition column", lambda db: db.set_partition_column("t1", "a")),
    ]


SQL = ("SELECT x.a, y.b FROM t1 x, t2 y, v1 v "
       "WHERE x.a = y.a AND v.i = x.id AND x.b < 3")


@pytest.mark.parametrize("name", [name for name, _f in _changes()])
def test_a_changed_input_plans_afresh(name):
    change = dict(_changes())[name]
    db, twin = _small()
    for view, text in VIEWS.items():
        db.create_view(view, text)
        twin.create_view(view, text)
    _execute(db, twin, SQL)
    _execute(db, twin, SQL)
    assert db.plan_cache_hits == 1
    cached = db._plan_cache[SQL]
    change(db)
    change(twin)
    _execute(db, twin, SQL)
    assert db.plan_cache_hits == 1, name
    assert db._plan_cache[SQL] is not cached  # the stale entry replaced
    _execute(db, twin, SQL)
    assert db.plan_cache_hits == 2


def test_unchanged_inputs_hit():
    """What leaves every planner input as it was keeps the plan: an
    UPDATE of values, an ANALYZE that finds the statistics it found."""
    db, twin = _small()
    sql = "SELECT x.a, y.b FROM t1 x, t2 y WHERE x.a = y.a AND x.b < 3"
    _execute(db, twin, sql)
    for each in (db, twin):
        each.execute("UPDATE t2 SET b = 1 WHERE b = 2")
    _execute(db, twin, sql)
    for each in (db, twin):
        each.analyze("t1")
    _execute(db, twin, sql)
    assert db.plan_cache_hits == 2


def test_the_same_view_text_recreated_still_hits():
    db, twin = _small()
    sql = "SELECT v.a, COUNT(*) FROM v1 v GROUP BY v.a"
    for _ in range(3):
        for each in (db, twin):
            each.create_view("v1", VIEWS["v1"])
        _execute(db, twin, sql)
        for each in (db, twin):
            each.drop_view("v1")
    assert db.plan_cache_hits == 2


def test_a_dropped_table_is_a_miss_not_an_error():
    db, _twin = _small()
    sql = "SELECT COUNT(*) FROM t3"
    db.execute(sql)
    db.drop_table("t3")
    with pytest.raises(CatalogError, match="t3"):
        db.execute(sql)
    assert db.plan_cache_hits == 0


# -- interleavings over the join-oracle tables ----------------------------

def _texts() -> list[str]:
    rng = random.Random(33)
    texts = [_query(rng) for _ in range(4)]
    texts += [_grouped(rng) for _ in range(3)]
    texts += [_over_views(rng)[0] for _ in range(3)]
    return texts + [
        "SELECT id, a FROM t1 WHERE a = (SELECT MAX(a) FROM t2)",
        "SELECT id FROM t3 WHERE b IN (SELECT c FROM t4 WHERE c < 3)",
        "SELECT x.id FROM t1 x WHERE EXISTS "
        "(SELECT y.id FROM t2 y WHERE y.a = x.a AND y.b = 1)",
        # a range on a parameter takes any index on its column (the
        # paper's Table 6 rule): index changes move these plans
        "SELECT a, COUNT(*) FROM t2 WHERE b > ? GROUP BY a ORDER BY a",
        "SELECT id, b FROM t1 WHERE a < ?",
        "SELECT x.id, y.b FROM t3 x, t4 y WHERE x.b = y.b AND x.c >= ?",
        "SELECT COUNT(*), SUM(b) FROM t4 WHERE c > ?",
    ]


TEXTS = _texts()

_OPS = st.one_of(
    st.tuples(st.just("index"), st.sampled_from(["t1", "t2", "t3", "t4"]),
              st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("view"), st.sampled_from(sorted(VIEWS)),
              st.sampled_from(sorted(VIEWS))),
    st.tuples(st.just("analyze"), st.sampled_from(["t1", "t2", "t3"])),
    st.tuples(st.just("insert"), st.sampled_from(["t1", "t2", "t4"]),
              st.integers(1, 150)),  # up to three times a table's rows
    st.tuples(st.just("delete"), st.sampled_from(["t1", "t2", "t3"]),
              st.integers(0, 4)),
    st.tuples(st.just("update"), st.sampled_from(["t1", "t2", "t3"]),
              st.integers(0, 4)),
    st.tuples(st.just("param"), st.sampled_from(sorted(PARAMS)),
              st.integers(0, 1)),
)


def _apply(op, dbs, views: dict, serial: list) -> None:
    kind = op[0]
    if kind == "index":
        _kind, table, column = op
        name = f"ix_{table}_{column}"
        for db in dbs:
            if db.catalog.has_index(name):
                db.drop_index(name)
            else:
                db.create_index(name, table, [column])
    elif kind == "view":
        _kind, view, text = op  # the same text, or another view's
        views[view] = VIEWS[text]
        for db in dbs:
            db.drop_view(view)
            db.create_view(view, views[view])
    elif kind == "analyze":
        for db in dbs:
            db.analyze(op[1])
    elif kind == "insert":
        _kind, table, count = op
        for _ in range(count):
            serial[0] += 1
            row = (serial[0], serial[0] % 5, None, serial[0] % 3)
            for db in dbs:
                db.execute(f"INSERT INTO {table} VALUES (?, ?, ?, ?)", row)
    elif kind == "delete":
        for db in dbs:
            db.execute(f"DELETE FROM {op[1]} WHERE a = ?", (op[2],))
    elif kind == "update":
        for db in dbs:
            db.execute(f"UPDATE {op[1]} SET a = a + 1 WHERE c = ?", (op[2],))
    else:
        _kind, field, which = op
        _set_param(dbs, field, PARAMS[field][which])


@pytest.mark.parametrize("storage,degree", CONFIGS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_OPS, min_size=1, max_size=8), seed=st.integers(0, 9),
       analyzed=st.booleans())
def test_join_interleavings_match_fresh_plans(storage, degree, ops, seed,
                                              analyzed):
    rows = _rows(random.Random(seed))
    db, twin = _engine(rows, storage, degree), _engine(rows, storage, degree)
    if not analyzed:  # the planner reads the live row counts
        db.stats.clear()
        twin.stats.clear()
    views = dict(VIEWS)
    for view, text in views.items():
        db.create_view(view, text)
        twin.create_view(view, text)
    serial = [10_000]
    for op in [None, *ops]:
        if op is not None:
            _apply(op, (db, twin), views, serial)
            _same(db, twin)
        for sql in TEXTS:  # each change meets every cached plan
            _execute(db, twin, sql, (1,) if "?" in sql else ())


def test_join_interleavings_hit():
    """The interleavings above are not vacuous: repeated texts hit."""
    db, twin = _small()
    for view, text in VIEWS.items():
        db.create_view(view, text)
        twin.create_view(view, text)
    for _ in range(2):
        for sql in TEXTS:
            _execute(db, twin, sql, (1,) if "?" in sql else ())
    assert db.plan_cache_hits == len(TEXTS)


# -- interleavings over TPC-D ------------------------------------------------

SF = 0.001


@pytest.fixture(scope="module")
def tpcd():
    return generate(SF, seed=19970601), build_queries(SF)


#: (table, column) an index may be created on and dropped
#: — the three on ``part`` move the plans of Q2, Q8 and Q17
TPCD_INDEXES = [("part", "p_size"), ("part", "p_type"), ("part", "p_brand"),
                ("lineitem", "l_partkey"), ("orders", "o_custkey")]

_TPCD_OPS = st.one_of(
    st.tuples(st.just("index"), st.integers(0, len(TPCD_INDEXES) - 1)),
    st.tuples(st.just("q15 view"), st.booleans()),
    st.tuples(st.just("analyze"),
              st.sampled_from(["lineitem", "orders", "supplier", "part"])),
    st.tuples(st.just("insert"), st.sampled_from(["supplier", "lineitem"]),
              st.integers(1, 40)),
    st.tuples(st.just("delete"), st.sampled_from(["supplier", "lineitem"]),
              st.integers(1, 40)),
    st.tuples(st.just("param"), st.sampled_from(sorted(PARAMS)),
              st.integers(0, 1)),
)


def _run_spec(db: Database, twin: Database, spec) -> None:
    twin._plan_cache.clear()
    got, expected = run_query(db, spec), run_query(twin, spec)
    assert repr(got.rows) == repr(expected.rows), spec.name
    _same(db, twin, spec.sql)


def _apply_tpcd(op, dbs, data, specs, serial: list) -> None:
    kind = op[0]
    if kind == "index":
        table, column = TPCD_INDEXES[op[1]]
        name = f"ix_{column}"
        for db in dbs:
            if db.catalog.has_index(name):
                db.drop_index(name)
            else:
                db.create_index(name, table, [column])
    elif kind == "q15 view":
        # Q15 drops and re-creates its view at every run: with its own
        # text, or with another date
        spec = specs[15]
        if op[1]:
            name, text = spec.setup_views[0]
            spec = replace(spec, setup_views=[
                (name, text.replace("1996-01-01", "1995-10-01"))])
        _run_spec(*dbs, spec)
    elif kind == "analyze":
        for db in dbs:
            db.analyze(op[1])
    elif kind == "insert":
        _kind, table, count = op
        template = list(data.table(table)[0])
        for _ in range(count):
            serial[0] += 1
            row = list(template)
            if table == "supplier":
                row[0] = serial[0]
            else:  # a new line of an existing order
                row[3] = 100 + serial[0]
            for db in dbs:
                db.execute(f"INSERT INTO {table} VALUES "
                           f"({', '.join('?' * len(row))})", row)
    elif kind == "delete":
        _kind, table, key = op
        column = "s_suppkey" if table == "supplier" else "l_orderkey"
        for db in dbs:
            db.execute(f"DELETE FROM {table} WHERE {column} = ?", (key,))
    else:
        _kind, field, which = op
        _set_param(dbs, field, PARAMS[field][which])


@pytest.mark.parametrize("storage,degree", CONFIGS)
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_TPCD_OPS, min_size=1, max_size=6))
def test_tpcd_interleavings_match_fresh_plans(tpcd, storage, degree, ops):
    data, specs = tpcd
    db, twin = (load_original(data, storage=storage, degree=degree)
                for _ in range(2))
    serial = [100_000]
    for op in [None, *ops]:
        if op is not None:
            _apply_tpcd(op, (db, twin), data, specs, serial)
            _same(db, twin)
        for spec in specs.values():  # each change meets every cached plan
            _run_spec(db, twin, spec)


@pytest.mark.parametrize("storage,degree", CONFIGS)
def test_a_second_power_pass_is_all_hits(tpcd, storage, degree):
    data, specs = tpcd
    db = load_original(data, storage=storage, degree=degree)
    first = [run_query(db, spec).rows for spec in specs.values()]
    assert db.plan_cache_hits == 0
    plans = db.metrics.get("db.plans")
    second = [run_query(db, spec).rows for spec in specs.values()]
    assert db.plan_cache_hits == 17
    assert db.metrics.get("db.plans") == plans + 17  # a hit is a plan
    assert repr(second) == repr(first)


# -- the traced path -------------------------------------------------------

def test_a_traced_text_run_twice_has_two_profiles(tpcd):
    """Each execution its own profile, equal to a fresh plan's; the first
    span's profile does not change when the text runs again."""
    data, specs = tpcd
    spec = specs[3]
    db, twin = (load_original(data) for _ in range(2))
    for each in (db, twin):
        each.tracer.enable()
    profiles, fresh = [], []
    for run in range(2):
        twin._plan_cache.clear()
        run_query(db, spec)
        run_query(twin, spec)
        profiles.append(db.tracer.find("db.query")[-1].attrs["profile"])
        fresh.append(twin.tracer.find("db.query")[-1].attrs["profile"])
        if run == 0:
            first = profiles[0].to_dict()
    assert db.plan_cache_hits == 1
    assert profiles[0] is not profiles[1]
    assert profiles[0].to_dict() == first
    for got, expected in zip(profiles, fresh):
        assert got.to_dict() == expected.to_dict()
        assert got.loops == 1
    _same(db, twin, spec.sql)
    # untraced again: the instrumentation comes off the cached plan
    for each in (db, twin):
        each.tracer.disable()
    _run_spec(db, twin, spec)
    assert "_profile" not in vars(db._plan_cache[spec.sql].plan.operator)
