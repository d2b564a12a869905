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
"""

import datetime
import re
import sqlite3
from collections import Counter

import pytest

from repro.tpcd.answers import rows_match
from repro.tpcd.dbgen import generate
from repro.tpcd.loader import load_original
from repro.tpcd.queries import build_queries, run_query
from repro.tpcd.schema import table_schemas

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


def _sqlite(data) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    for schema in table_schemas():
        names = [column.name for column in schema.columns]
        conn.execute(f"CREATE TABLE {schema.name} ({', '.join(names)})")
        conn.executemany(
            f"INSERT INTO {schema.name} VALUES "
            f"({', '.join('?' * len(names))})",
            [tuple(v.isoformat() if isinstance(v, datetime.date) else v
                   for v in row) for row in data.table(schema.name)])
    return conn


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
