"""The 17 Open SQL 3.0 reports after a refresh pair, against ``sqlite3``.

The throughput test's reports read pages that its update functions
have changed: UF1 appends orders and lineitems through batch input,
UF2 deletes orders with their items, schedule lines, texts and
conditions, and leaves tombstones on the pages.  One pair of
``generate_update_pairs`` is applied to a 3.0 system at SF 0.002; the
same data goes into the standard library's ``sqlite3`` with the refresh
rows inserted and the doomed orders and their lineitems deleted, and
each report's answer must be SQLite's under :func:`rows_match` (at this
seed the pair changes the answers of Q1 and Q9).  Every answer must be
non-empty, except Q11's: its threshold at this scale keeps no part.
"""

import pytest

from repro.core.powertest import build_sap_system
from repro.r3.appserver import R3Version
from repro.reports import open30
from repro.reports.updatefuncs import run_uf1_sap, run_uf2_sap
from repro.sapschema.mapping import KeyCodec
from repro.tpcd.answers import rows_match
from repro.tpcd.dbgen import generate, generate_update_pairs
from repro.tpcd.queries import build_queries

from tests.tpcd.test_sqlite_oracle import _oracle, _sqlite, apply_updates

SF = 0.002
SEED = 19970601


@pytest.fixture(scope="module")
def worlds():
    """The 3.0 system after UF1 and UF2, SQLite with the same rows, the
    refresh set and the deleted order keys."""
    data = generate(SF, seed=SEED)
    (refresh, doomed), = generate_update_pairs(data, 1)
    r3 = build_sap_system(data, R3Version.V30)
    assert run_uf1_sap(r3, refresh) > 0
    assert run_uf2_sap(r3, doomed) == len(doomed)
    conn = _sqlite(data)
    apply_updates(conn, refresh, doomed)
    return r3, conn, refresh, doomed


def test_the_refresh_reached_both_engines(worlds):
    r3, conn, refresh, doomed = worlds
    for table, theirs in (("vbak", "orders"), ("vbap", "lineitem")):
        count = f"SELECT COUNT(*) FROM {table}"
        assert r3.db.execute(count).rows[0][0] == \
            conn.execute(count.replace(table, theirs)).fetchone()[0]
    has = "SELECT COUNT(*) FROM vbak WHERE vbeln = ?"
    assert r3.db.execute(has, (KeyCodec.vbeln(refresh.orders[0][0]),)) \
        .rows == [(1,)]
    assert r3.db.execute(has, (KeyCodec.vbeln(doomed[0]),)).rows == [(0,)]


@pytest.mark.parametrize("number", range(1, 18))
def test_the_report_is_sqlites_after_uf1_and_uf2(worlds, number):
    r3, conn, _refresh, _doomed = worlds
    ours = open30.make_queries(SF)[number](r3)
    theirs = _oracle(conn, build_queries(SF)[number])
    assert rows_match(ours, theirs), (number, ours[:3], theirs[:3])
    if number != 11:
        assert ours, number
