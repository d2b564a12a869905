"""Index-assisted DML fetches a run, against the row loop it replaced.

``Database._matching_rowids`` finds the rows of a ``DELETE`` / ``UPDATE``
through the index whose key prefix the equality conjuncts cover.  It
used to walk ``search_prefix`` and fetch and test one entry at a time;
``reference_matching_rowids`` below is that body, kept here.  On a twin
database running the reference, every statement must leave the same
matches, the same ``repr(clock.now)``, every counter, the buffer pool's
LRU order and the same WAL bytes — also where only the row path can say
what happens: a predicate raising at candidate *k*, a deadline armed
over the statement, a lane sink, a dead rowid, LSM.
"""

import bisect
import sys
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import (
    ConstraintError,
    ExecutionError,
    PlanError,
    StatementTimeout,
)
from repro.engine.expr import OutputSchema, split_conjuncts
from repro.engine.index import make_key
from repro.engine.plan.access import eq_sarg_value
from repro.engine.plan.binder import bind_expr
from repro.engine.sql.parser import parse_sql
from repro.sim.clock import LaneSink
from repro.sim.params import SimParams


def reference_search_prefix(index, values):
    """``BTreeIndex.search_prefix`` as it was."""
    prefix = make_key(values)
    index._charge_traverse()
    lo = bisect.bisect_left(index._entries, (prefix, -1))
    index._metrics.count("index.prefix_scans")
    width, entries_per_page = len(prefix), index.entries_per_page
    touched_page = -1
    for idx in range(lo, len(index._entries)):
        key, rowid = index._entries[idx]
        if key[:width] != prefix:
            break
        page = idx // entries_per_page
        if page != touched_page:
            touched_page = page
            index._buffer.access(index._file_name, page, sequential=True)
        yield key, rowid


def reference_matching_rowids(db, table, where, params):
    """``Database._matching_rowids`` as it was: one entry, one fetch, one
    predicate call at a time."""
    if where is None:
        return [rowid for rowid, _row in table.store.rows()]
    schema = OutputSchema(
        [(table.name, c.name) for c in table.schema.columns])
    bind_expr(where, schema)
    eq_values = {}
    for conjunct in split_conjuncts(where):
        entry = eq_sarg_value(conjunct)
        if entry is not None and entry[0] not in eq_values:
            eq_values[entry[0]] = entry[1]
    best_index, best_prefix = None, 0
    for index in table.indexes.values():
        prefix = 0
        for column in index.column_names:
            if column in eq_values:
                prefix += 1
            else:
                break
        if prefix > best_prefix:
            best_prefix, best_index = prefix, index
    holds = where.compile()
    if best_index is not None:
        key = tuple(eq_values[column].eval((), params)
                    for column in best_index.column_names[:best_prefix])
        matches = []
        for _key, rowid in reference_search_prefix(best_index, key):
            table._counts[table.fetched_counter] += 1
            row = table.store.read(rowid, False)
            if holds(row, params) is True:
                matches.append(rowid)
        return matches
    matches = []
    counts, counter = db.metrics.counts, table.scanned_counter
    for rowids, rows in table.store.scan():
        for rowid, row in zip(rowids, rows):
            counts[counter] += 1
            counts["exec.tuples"] += 1
            if holds(row, params) is True:
                matches.append(rowid)
    return matches


def on_row_path(db):
    """``db`` with the reference body in place of the run kernel."""
    db._matching_rowids = partial(reference_matching_rowids, db)
    return db


# -- twin databases ----------------------------------------------------------

def make_db(storage="heap", wal=True, pool_pages=6):
    """1 KB pages (six rows a heap page, 40 entries a leaf) and a small
    pool, so that runs are short, leaves change inside a run and pages
    are evicted between two statements."""
    params = SimParams(page_size_bytes=1024,
                       buffer_pool_bytes=pool_pages * 1024)
    params.lsm_memtable_bytes = 2048
    params.lsm_l0_compaction_trigger = 2
    db = Database(params, storage=storage,
                  durability="wal" if wal else "off")
    db.create_table(TableSchema("t", [
        Column("m", SqlType.char(3), nullable=False),
        Column("obj", SqlType.char(4), nullable=False),
        Column("name", SqlType.varchar(6), nullable=False),
        Column("v", SqlType.integer()),
        Column("pad", SqlType.char(140)),
    ], primary_key=["m", "obj", "name"]))
    db.create_index("i_ov", "t", ["obj", "v"])  # duplicate keys
    return db


def observed(db):
    table = db.catalog.table("t")
    frames = None
    if db.wal is not None:
        frames = [(segment.index, list(segment.frames))
                  for segment in db.wal.store.segments]
    return {
        "now": repr(db.clock.now),
        "counters": db.metrics.all(),
        "resident": list(db.buffer_pool._pages),
        "indexes": {name: list(index._entries)
                    for name, index in table.indexes.items()},
        "rows": list(table.store.rows()),
        "frames": frames,
    }


def outcome(run):
    try:
        return "ok", run().rows
    except (ConstraintError, ExecutionError, StatementTimeout) as exc:
        return type(exc).__name__, str(exc)


def loaded(rows, dead, storage="heap", wal=True):
    """The run kernel's database and the row path's, equal so far."""
    twins = make_db(storage, wal), on_row_path(make_db(storage, wal))
    for db in twins:
        table = db.catalog.table("t")
        rowids = table.insert_rows(rows)
        for k in sorted(dead):
            if k < len(rowids):
                table.delete(rowids[k])  # a tombstone in the heap
    return twins


MS = ["100", "200"]
OBJS = ["VBBP", "VBBK"]
NAMES = st.text(alphabet="ab0", min_size=1, max_size=5)
VALUES = st.one_of(st.none(), st.integers(0, 4))
PATTERNS = st.sampled_from(["a%", "b%", "%0", "a_%", "%", "ab", "0%"])


@st.composite
def tables(draw):
    """Rows in any order (so that key order and heap order differ), with
    duplicate ``(obj, v)`` keys and a few rows deleted again."""
    rows, keys = [], set()
    for m, obj, name, v in draw(st.lists(st.tuples(
            st.sampled_from(MS), st.sampled_from(OBJS), NAMES, VALUES),
            max_size=80)):
        if (m, obj, name) not in keys:
            keys.add((m, obj, name))
            rows.append((m, obj, name, v, ""))
    dead = set(draw(st.lists(st.integers(0, 80), max_size=10)))
    return rows, dead


STATEMENTS = [
    ("DELETE FROM t WHERE m = ? AND obj = ? AND name LIKE ?",
     st.tuples(st.sampled_from(MS), st.sampled_from(OBJS), PATTERNS)),
    ("DELETE FROM t WHERE m = ? AND obj = ? AND v > ?",
     st.tuples(st.sampled_from(MS), st.sampled_from(OBJS), VALUES)),
    ("UPDATE t SET v = v + 1 WHERE m = ? AND obj = ? "
     "AND (name LIKE ? OR v < ?)",
     st.tuples(st.sampled_from(MS), st.sampled_from(OBJS), PATTERNS,
               VALUES)),
    ("DELETE FROM t WHERE obj = ? AND v = ?",
     st.tuples(st.sampled_from(OBJS), VALUES)),
    ("UPDATE t SET name = ? WHERE m = ? AND name = ?",
     st.tuples(NAMES, st.sampled_from(MS), NAMES)),
    ("UPDATE t SET v = NULL WHERE m = ? AND v BETWEEN ? AND ?",
     st.tuples(st.sampled_from(MS), VALUES, VALUES)),
    ("DELETE FROM t WHERE m = ?", st.tuples(st.sampled_from(MS))),
]


@st.composite
def workloads(draw):
    work = []
    for _ in range(draw(st.integers(1, 6))):
        sql, params = draw(st.sampled_from(STATEMENTS))
        work.append((sql, draw(params)))
    return work


@pytest.mark.parametrize("wal", [False, True], ids=["nowal", "wal"])
@settings(max_examples=120, deadline=None)
@given(tables(), workloads())
def test_the_run_equals_the_row_loop(wal, table, work):
    rows, dead = table
    run_db, row_db = loaded(rows, dead, wal=wal)
    assert observed(run_db) == observed(row_db)
    for sql, params in work:
        assert outcome(lambda: run_db.execute(sql, params)) == \
            outcome(lambda: row_db.execute(sql, params))
        assert observed(run_db) == observed(row_db)


def test_prepared_dml_runs_the_kernel_on_every_execution():
    rows = [("100", "VBBP", f"a{n:03d}", n % 3, "") for n in range(60)]
    run_db, row_db = loaded(rows, {5, 6, 7, 30})
    for db in (run_db, row_db):
        stmt = db.prepare("DELETE FROM t WHERE m = ? AND obj = ? "
                          "AND name LIKE ?")
        for pattern in ("a00%", "a01%", "a05%", "zz%"):
            stmt.execute(("100", "VBBP", pattern))
    assert observed(run_db) == observed(row_db)
    assert run_db.catalog.table("t").row_count == 56 - 7 - 10 - 10


# -- where only the row path can tell ----------------------------------------

KEY_ORDER = [("100", "VBBP", f"n{n:04d}", n % 5, "") for n in range(200)]


@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_a_predicate_raising_at_candidate_k_raises_there(storage):
    # v - 4 is zero at the fifth row: four fetched, the fifth fetched
    # and then the predicate raises
    sql = "DELETE FROM t WHERE m = ? AND obj = ? AND 10 / (v - 4) > ?"
    run_db, row_db = loaded(KEY_ORDER, set(), storage)
    for db in (run_db, row_db):
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute(sql, ("100", "VBBP", 0))
        assert db.metrics.get("table.t.tuples_fetched") == 5
    assert observed(run_db) == observed(row_db)


def test_an_armed_deadline_takes_the_row_path_before_any_charge():
    db, _row_db = loaded(KEY_ORDER, set())
    table = db.catalog.table("t")
    where = parse_sql("DELETE FROM t WHERE m = ? AND obj = ?").where
    bind_expr(where, OutputSchema(
        [(table.name, c.name) for c in table.schema.columns]))
    args = (table, table.indexes["pk_t"], ("100", "VBBP"), where,
            where.compile(), ("100", "VBBP"))
    token = db.clock.push_deadline(db.clock.now + 1e9,
                                   lambda: StatementTimeout(""))
    before = observed(db)
    assert db._fetch_run(*args) is None
    assert observed(db) == before
    db.clock.pop_deadline(token)
    assert len(db._fetch_run(*args)) == len(KEY_ORDER)


def test_a_deadline_fires_at_the_same_access_with_the_same_counts():
    """Swept across the whole statement: every budget stops both twins
    at the same addition — a leaf page, a heap miss or one of the hits
    on the page just touched — with the same counters."""
    sql = "UPDATE t SET v = 9 WHERE m = ? AND obj = ? AND name LIKE ?"
    params = ("100", "VBBP", "n01%")
    costs = []
    for pattern in ("zz%", "n01%"):  # the run alone, the whole statement
        dry = make_db()
        dry.catalog.table("t").insert_rows(KEY_ORDER)
        start = dry.clock.now
        dry.execute(sql, params[:2] + (pattern,))
        costs.append(dry.clock.now - start)
    per_page = dry.catalog.table("t").store.rows_per_page
    among_hits = 0
    for budget in [costs[0] * step / 70 for step in range(1, 70)] \
            + [costs[1] * step / 10 for step in range(1, 11)]:
        run_db, row_db = loaded(KEY_ORDER, set())
        outcomes = []
        for db in (run_db, row_db):
            db.clock.push_deadline(db.clock.now + budget,
                                   lambda: StatementTimeout("timed out"))
            outcomes.append(outcome(lambda: db.execute(sql, params)))
        assert outcomes[0] == outcomes[1]
        assert observed(run_db) == observed(row_db)
        fetched = run_db.metrics.get("table.t.tuples_fetched")
        among_hits += outcomes[0][0] != "ok" and fetched % per_page > 1
    # a miss costs a disk read, a hit next to nothing: most budgets run
    # out on a miss, these on a hit of the page just touched
    assert among_hits >= 10


def test_under_a_lane_sink_the_run_lands_in_the_sink():
    sql = "DELETE FROM t WHERE m = ? AND obj = ? AND name LIKE ?"
    run_db, row_db = loaded(KEY_ORDER, {3, 4, 50})
    sinks = []
    for db in (run_db, row_db):
        sink = LaneSink()
        with db.clock.redirect(sink):
            db.execute(sql, ("100", "VBBP", "n00%"))
        sinks.append(repr(sink.seconds))
    assert sinks[0] == sinks[1]
    assert observed(run_db) == observed(row_db)


@settings(max_examples=40, deadline=None)
@given(tables(), workloads())
def test_lsm_keeps_the_row_path(table, work):
    rows, dead = table
    run_db, row_db = loaded(rows, dead, storage="lsm")
    assert run_db.catalog.table("t").store.read_file is None
    for sql, params in work:
        assert outcome(lambda: run_db.execute(sql, params)) == \
            outcome(lambda: row_db.execute(sql, params))
        assert observed(run_db) == observed(row_db)


@pytest.mark.parametrize("sql,params", [
    ("DELETE FROM t WHERE m = ? AND obj = ?", ("100", "VBBP")),
    # a predicate that rejects every row without reading one
    ("DELETE FROM t WHERE ? = 1 AND m = ? AND obj = ?", (0, "100", "VBBP")),
])
def test_a_dead_rowid_in_the_run_raises_where_its_read_does(sql, params):
    run_db, row_db = loaded(KEY_ORDER, set())
    for db in (run_db, row_db):
        # a tombstone the primary index still points at
        db.catalog.table("t").store.delete(7)
        with pytest.raises(ExecutionError, match="dead rowid 7"):
            db.execute(sql, params)
        assert db.metrics.get("table.t.tuples_fetched") == 8
    assert observed(run_db) == observed(row_db)


def test_a_subquery_in_the_predicate_keeps_the_row_path():
    # DML binds its predicate without a subquery compiler, so a subquery
    # fails the statement before either path fetches or charges a row
    run_db, row_db = loaded(KEY_ORDER, set())
    sql = "DELETE FROM t WHERE m = ? AND obj = ? AND EXISTS (SELECT 1 FROM t)"
    for db in (run_db, row_db):
        with pytest.raises(PlanError, match="without a compiler"):
            db.execute(sql, ("100", "VBBP"))
        assert db.metrics.get("table.t.tuples_fetched") == 0
    assert observed(run_db) == observed(row_db)


def test_get_many_is_get_of_each_rowid():
    db = make_db(wal=False)
    table = db.catalog.table("t")
    rowids = table.insert_rows(KEY_ORDER[:40])
    for rowid in rowids[5:30:3]:
        table.delete(rowid)
    probe = [39, 0, 5, 6, 8, 8, 40, 1000, 29, 30]
    counters, now = db.metrics.all(), repr(db.clock.now)
    assert table.store.get_many(probe) == [table.store.get(r) for r in probe]
    assert (db.metrics.all(), repr(db.clock.now)) == (counters, now)


# -- what a candidate entry costs, in Python calls ----------------------------

def _events(run) -> int:
    """``call`` and ``c_call`` events while ``run()`` runs."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return events


def stxl_like() -> Database:
    """A 6 000-entry ``(m, obj, name)`` primary key, one ``(m, obj)``
    prefix: a ``LIKE`` on ``name`` deletes 100 of its rows."""
    db = Database()
    db.create_table(TableSchema("x", [
        Column("m", SqlType.char(3), nullable=False),
        Column("obj", SqlType.char(4), nullable=False),
        Column("name", SqlType.char(10), nullable=False),
        Column("line", SqlType.varchar(40)),
    ], primary_key=["m", "obj", "name"]))
    db.bulk_load("x", [("100", "VBBP", f"{n:06d}", f"text {n}")
                       for n in range(6000)])
    return db


@pytest.mark.parametrize("path", ["run", "row"])
def test_a_candidate_entry_costs_at_most_four_calls(path):
    db = stxl_like()
    if path == "row":
        on_row_path(db)
    sql = "DELETE FROM x WHERE m = ? AND obj = ? AND name LIKE ?"
    db.execute(sql, ("100", "VBBP", "zz%"))  # compiled, pages warm
    result = []
    events = _events(lambda: result.append(
        db.execute(sql, ("100", "VBBP", "0001%")).scalar()))
    assert result == [100]
    per_candidate = events / 6000
    if path == "run":
        assert per_candidate <= 4, per_candidate
    else:  # what the budget is measured against
        assert per_candidate > 8, per_candidate


# -- the LIKE window ------------------------------------------------------------

def stxl_db(wal=True):
    """``tdname`` is nullable and the index's column after ``(m, obj)``;
    the heap order is not the key order.  1 KB pages, a small pool."""
    params = SimParams(page_size_bytes=1024, buffer_pool_bytes=6 * 1024)
    db = Database(params, durability="wal" if wal else "off")
    db.create_table(TableSchema("s", [
        Column("id", SqlType.integer(), nullable=False),
        Column("m", SqlType.char(3), nullable=False),
        Column("obj", SqlType.char(4), nullable=False),
        Column("tdname", SqlType.varchar(8)),
        Column("note", SqlType.varchar(8)),
        Column("v", SqlType.integer()),
        Column("pad", SqlType.char(100)),
    ], primary_key=["id"]))
    db.create_index("i_name", "s", ["m", "obj", "tdname"])
    return db


#: names around the prefixes ``abc`` and ``ab``: shorter, longer, equal,
#: next to them in key order, and NULL; ``v`` is NULL exactly where
#: ``tdname`` starts with ``abc``
NAMES_AROUND = ["ab", "abb", "abbz", "abc", "abcd", "abc0", "ab_c", "abxc",
                "abd", "b", "", None, "abcabc", "a", "abc%", None]
WINDOW_ROWS = [
    (n, "100", obj, name, name, None if (name or "").startswith("abc")
     else n % 3, "")
    for n, (obj, name) in enumerate(
        (obj, name) for _ in range(3) for obj in ("VBBP", "VBBK")
        for name in reversed(NAMES_AROUND))]


def window_twins(dead=()):
    twins = stxl_db(), on_row_path(stxl_db())
    for db in twins:
        table = db.catalog.table("s")
        rowids = table.insert_rows(WINDOW_ROWS)
        for k in dead:
            table.store.delete(rowids[k])  # the index still points here
    return twins


def window_observed(db):
    table = db.catalog.table("s")
    return {
        "now": repr(db.clock.now),
        "counters": db.metrics.all(),
        "resident": list(db.buffer_pool._pages),
        "rows": list(table.store.rows()),
        "entries": list(table.indexes["i_name"]._entries),
    }


@pytest.fixture()
def filtered(monkeypatch):
    """The number of rows each page filter of a run was given."""
    from repro.engine.expr import Expr
    sizes = []
    compile_filter = Expr.compile_filter

    def recording(self, fn):
        page = compile_filter(self, fn)

        def counted(rows, params):
            sizes.append(len(rows))
            return page(rows, params)
        return counted
    monkeypatch.setattr(Expr, "compile_filter", recording)
    return sizes


LIKE_SQL = ["DELETE FROM s WHERE m = ? AND obj = ? AND tdname LIKE ?",
            "UPDATE s SET v = 7, tdname = 'zz' WHERE m = ? AND obj = ? "
            "AND tdname LIKE ?",
            "DELETE FROM s WHERE tdname LIKE ? AND obj = ? AND m = ? "
            "AND v IS NULL"]


def _like_params(sql, pattern):
    return (pattern, "VBBP", "100") if sql.startswith("DELETE FROM s WHERE "
                                                     "tdname") \
        else ("100", "VBBP", pattern)


#: the entries of one ``(m, obj)`` run
RUN = 3 * len(NAMES_AROUND)


@pytest.mark.parametrize("sql", LIKE_SQL)
@pytest.mark.parametrize("pattern, text", [
    ("abc%", "abc"), ("ab_c%", "ab"), ("abc", "abc"), ("abc_", "abc"),
    ("abc%abc", "abc"), ("%x", None), ("", None), ("_bc%", None),
    (None, None)])
def test_the_window_is_the_row_loop(filtered, sql, pattern, text):
    run_db, row_db = window_twins()
    params = _like_params(sql, pattern)
    assert outcome(lambda: run_db.execute(sql, params)) == \
        outcome(lambda: row_db.execute(sql, params))
    assert window_observed(run_db) == window_observed(row_db)
    # the entries whose name starts with the text before the first
    # wildcard, or the whole run
    window = RUN if text is None else 3 * sum(
        1 for name in NAMES_AROUND if name and name.startswith(text))
    assert filtered == [window]
    assert window < RUN or text is None


def test_a_pattern_that_is_not_a_string_raises_as_the_row_path_does(
        filtered):
    sql = LIKE_SQL[0]
    run_db, row_db = window_twins()
    outcomes = [outcome(lambda: db.execute(sql, ("100", "VBBP", 5)))
                for db in (run_db, row_db)]
    assert outcomes[0] == outcomes[1] == (
        "ExecutionError", "cannot compare '' LIKE 5")  # NULLs come first
    assert window_observed(run_db) == window_observed(row_db)
    assert filtered == [RUN]  # no window, and the filter raises


@pytest.mark.parametrize("sql, params", [
    # the LIKE column is not the one after the equality prefix
    ("DELETE FROM s WHERE m = ? AND note LIKE ?", ("100", "abc%")),
    ("DELETE FROM s WHERE m = ? AND tdname LIKE ?", ("100", "abc%")),
    # NOT LIKE holds outside the window
    ("DELETE FROM s WHERE m = ? AND obj = ? AND tdname NOT LIKE ?",
     ("100", "VBBP", "abc%")),
    # a conjunct that is not total: ``v > 'x'`` raises where ``v`` is
    # not NULL, which is everywhere outside the window
    ("DELETE FROM s WHERE m = ? AND obj = ? AND tdname LIKE ? AND v > ?",
     ("100", "VBBP", "abc%", "x")),
    ("UPDATE s SET v = 1 WHERE m = ? AND obj = ? AND tdname LIKE ? "
     "AND (v IS NULL OR note < ?)", ("100", "VBBP", "abc%", 3)),
    # a missing parameter raises at the first NULL ``tdname``, although
    # no name starts with ``zzz``
    ("DELETE FROM s WHERE m = ? AND obj = ? AND tdname LIKE ? AND v = ?",
     ("100", "VBBP", "zzz%")),
    # a parameter of a type the proofs do not cover
    ("DELETE FROM s WHERE m = ? AND obj = ? AND tdname LIKE ? AND v = ?",
     ("100", "VBBP", "abc%", 2.5j)),
])
def test_no_window_where_an_entry_outside_it_could_matter(
        filtered, sql, params):
    run_db, row_db = window_twins()
    assert outcome(lambda: run_db.execute(sql, params)) == \
        outcome(lambda: row_db.execute(sql, params))
    assert window_observed(run_db) == window_observed(row_db)
    # the whole run: one ``(m, obj)`` prefix, or both
    assert all(size in (RUN, 2 * RUN) for size in filtered)


@pytest.mark.parametrize("sql", LIKE_SQL[:2])
def test_a_dead_rowid_outside_the_window_still_raises(filtered, sql):
    # a ``b`` entry of the VBBP run, far from the ``abc`` window
    dead = next(n for n, row in enumerate(WINDOW_ROWS)
                if row[2] == "VBBP" and row[3] == "b")
    run_db, row_db = window_twins(dead=[dead])
    outcomes = [outcome(lambda: db.execute(sql, ("100", "VBBP", "abc%")))
                for db in (run_db, row_db)]
    assert outcomes[0] == outcomes[1] == (
        "ExecutionError", f"fetch of dead rowid {dead}")
    assert window_observed(run_db) == window_observed(row_db)
    assert filtered == []  # found before the filter runs


def test_every_run_entry_is_charged_whatever_the_window(filtered):
    """The window narrows the filter only: the leaf pages and the heap
    page of every entry of the run are charged, as the row loop does."""
    sql = LIKE_SQL[0]
    costs = []
    for pattern in ("abc%", "%"):
        db = stxl_db()
        db.catalog.table("s").insert_rows(WINDOW_ROWS)
        before = db.metrics.get("table.s.tuples_fetched")
        db.execute(sql, ("100", "VBBP", pattern))
        costs.append(db.metrics.get("table.s.tuples_fetched") - before)
    assert costs == [RUN, RUN]
    assert filtered[0] < filtered[1] == RUN
