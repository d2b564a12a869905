"""The 17 TPC-D answers against an engine this repo did not write.

The original TPC-D database at SF 0.002, for two seeds, is loaded into
this engine and into the standard library's ``sqlite3``; each query of
:func:`build_queries` runs on both and the answers must agree under
:func:`rows_match`, the rule the power test checks its variants by.
Each query runs twice on this engine: the second run reuses the plan
the first made (DESIGN.md §29), and must agree too.
Three regular expressions translate the dialect: a date literal is ISO
text, date arithmetic is SQLite's ``date()`` with a modifier, and
``EXTRACT(YEAR ...)`` is ``strftime``.  ``LIKE`` is made case-sensitive
on SQLite, as it is here.  Every answer must be non-empty: one that is
empty on both sides proves nothing.

After UF1 and UF2 — one refresh pair of :func:`generate_update_pairs`
run by ``run_uf1_rdbms`` and ``run_uf2_rdbms``, and the same inserts
and deletes on SQLite — ``orders`` and ``lineitem`` must hold the same
rows on both, and the 17 answers must agree again.
"""

import datetime
import re
import sqlite3
from collections import Counter

import pytest

from repro.tpcd.answers import rows_match
from repro.tpcd.dbgen import generate, generate_update_pairs
from repro.tpcd.loader import load_original
from repro.tpcd.queries import build_queries, run_query
from repro.tpcd.schema import table_schemas
from repro.tpcd.updates import run_uf1_rdbms, run_uf2_rdbms

SF = 0.002
#: two seeds where every query but Q11 keeps rows at this scale (at seed
#: 5, Q2 keeps none)
SEEDS = (19970601, 1)

_INTERVAL = re.compile(
    r"DATE '([\d-]+)' ([+-]) INTERVAL '(\d+)' (DAY|MONTH|YEAR)")
_DATE = re.compile(r"DATE '([\d-]+)'")
_EXTRACT = re.compile(r"EXTRACT\(YEAR FROM (\w+)\)")


def to_sqlite(sql: str) -> str:
    sql = _INTERVAL.sub(
        lambda m: f"date('{m[1]}', '{m[2]}{m[3]} {m[4].lower()}')", sql)
    sql = _DATE.sub(r"'\1'", sql)
    return _EXTRACT.sub(r"CAST(strftime('%Y', \1) AS INTEGER)", sql)


def to_sqlite_value(value: object) -> object:
    """A date as ISO text, as SQLite holds it."""
    return value.isoformat() if isinstance(value, datetime.date) else value


def _insert(conn: sqlite3.Connection, name: str, rows) -> None:
    width = len(next(s for s in table_schemas() if s.name == name).columns)
    conn.executemany(
        f"INSERT INTO {name} VALUES ({', '.join('?' * width)})",
        [tuple(to_sqlite_value(v) for v in row) for row in rows])


def _sqlite(data) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    for schema in table_schemas():
        names = [column.name for column in schema.columns]
        conn.execute(f"CREATE TABLE {schema.name} ({', '.join(names)})")
        _insert(conn, schema.name, data.table(schema.name))
    return conn


def apply_updates(conn: sqlite3.Connection, refresh, doomed) -> None:
    """UF1's inserts and UF2's deletes, on SQLite."""
    for name in ("orders", "lineitem"):
        _insert(conn, name, refresh.table(name))
    marks = ", ".join("?" * len(doomed))
    conn.execute(f"DELETE FROM lineitem WHERE l_orderkey IN ({marks})",
                 doomed)
    conn.execute(f"DELETE FROM orders WHERE o_orderkey IN ({marks})",
                 doomed)


def _oracle(conn: sqlite3.Connection, spec) -> list[tuple]:
    for name, sql in spec.setup_views:
        conn.execute(f"CREATE VIEW {name} AS {to_sqlite(sql)}")
    try:
        return conn.execute(to_sqlite(spec.sql)).fetchall()
    finally:
        for name, _sql in spec.setup_views:
            conn.execute(f"DROP VIEW {name}")


@pytest.fixture(scope="module")
def worlds():
    """Per seed: this engine's database, SQLite's, and the data."""
    out = []
    for seed in SEEDS:
        data = generate(SF, seed=seed)
        out.append((load_original(data), _sqlite(data), data))
    return out


@pytest.mark.parametrize("number", range(1, 18))
def test_the_answer_is_sqlites(worlds, number):
    """Twice on one database: the second run reuses the first's plan."""
    spec = build_queries(SF)[number]
    for db, conn, _data in worlds:
        theirs = _oracle(conn, spec)
        hits = db.plan_cache_hits
        for run in range(2):
            ours = run_query(db, spec).rows
            assert rows_match(ours, theirs), (number, run, ours[:3],
                                              theirs[:3])
            if number != 11:  # Q11's threshold at this scale keeps no part
                assert ours, number
        assert db.plan_cache_hits == hits + 1


def test_q11_agrees_where_it_keeps_parts(worlds):
    """Q11 with the SF-1 fraction, over the nation with most suppliers."""
    for db, conn, data in worlds:
        nations = {row[0]: row[1] for row in data.table("nation")}
        busiest = Counter(row[3] for row in data.table("supplier"))
        name = nations[busiest.most_common(1)[0][0]].strip()
        spec = build_queries(1.0)[11]
        spec.sql = spec.sql.replace("'GERMANY'", f"'{name}'")
        theirs = _oracle(conn, spec)
        for _run in range(2):  # the second run reuses the plan
            ours = run_query(db, spec).rows
            assert ours and rows_match(ours, theirs), name


@pytest.fixture(scope="module")
def updated_worlds():
    """Per seed: this engine's database after UF1 and UF2, SQLite's after
    the same inserts and deletes."""
    out = []
    for seed in SEEDS:
        data = generate(SF, seed=seed)
        (refresh, doomed), = generate_update_pairs(data, 1)
        db = load_original(data)
        assert run_uf1_rdbms(db, refresh) == \
            len(refresh.orders) + len(refresh.lineitem)
        assert run_uf2_rdbms(db, doomed) > len(doomed)  # items too
        conn = _sqlite(data)
        apply_updates(conn, refresh, doomed)
        out.append((db, conn))
    return out


@pytest.mark.parametrize("name", ["orders", "lineitem"])
def test_the_updated_table_is_sqlites(updated_worlds, name):
    for db, conn in updated_worlds:
        ours = Counter(tuple(to_sqlite_value(v) for v in row)
                       for row in db.execute(f"SELECT * FROM {name}").rows)
        theirs = Counter(conn.execute(f"SELECT * FROM {name}").fetchall())
        assert ours == theirs, (ours - theirs, theirs - ours)


@pytest.mark.parametrize("number", range(1, 18))
def test_the_answer_is_sqlites_after_uf1_and_uf2(updated_worlds, number):
    spec = build_queries(SF)[number]
    for db, conn in updated_worlds:
        ours = run_query(db, spec).rows
        assert rows_match(ours, _oracle(conn, spec)), (number, ours[:3])
        if number != 11:
            assert ours, number
