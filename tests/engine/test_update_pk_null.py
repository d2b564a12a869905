"""``UPDATE`` may not set a primary-key column to NULL.

``INSERT`` refused a NULL key part (``ConstraintError: NULL in primary
key of t``) while ``UPDATE t SET k = NULL`` succeeded — twice, leaving
two rows with a NULL key, since a unique index admits the all-NULL key
any number of times.  ``Table.update`` now refuses it the way
``insert_rows`` does, before any mutation or log record: the row, every
index, the content digest and the log stay as they were.
"""

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import ConstraintError


def make_db(storage):
    db = Database(storage=storage, durability="wal")
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer()),
        Column("a", SqlType.integer()),
        Column("b", SqlType.integer()),
    ], primary_key=["k"]))
    db.create_index("i_a", "t", ["a"])
    db.execute("INSERT INTO t VALUES (1, 10, 100), (2, 10, 200), "
               "(3, 30, 300)")
    return db


def state(db):
    table = db.catalog.table("t")
    return (db.content_digest(), list(table.store.rows()),
            {name: list(index._entries)
             for name, index in table.indexes.items()})


def frames(db):
    return [(segment.index, list(segment.frames))
            for segment in db.wal.store.segments]


@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_insert_and_update_refuse_a_null_key_alike(storage):
    db = make_db(storage)
    with pytest.raises(ConstraintError,
                       match=r"NULL in primary key of t: \(None,\)"):
        db.execute("INSERT INTO t VALUES (NULL, 5, 5)")
    before = state(db)
    for _ in range(2):  # and the second time too
        with pytest.raises(ConstraintError,
                           match=r"NULL in primary key of t: \(None,\)"):
            db.execute("UPDATE t SET k = NULL WHERE a = 10")
        assert state(db) == before
    assert db.execute("SELECT k FROM t WHERE k IS NULL").rows == []


@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_table_update_refuses_before_any_mutation_or_log_record(storage):
    db = make_db(storage)
    table = db.catalog.table("t")
    rowid, = [rowid for rowid, row in table.store.rows() if row[0] == 3]
    before, logged = state(db), frames(db)
    now, counters = repr(db.clock.now), db.metrics.all()
    with pytest.raises(ConstraintError, match="NULL in primary key of t"):
        table.update(rowid, (None, 30, 301))
    assert state(db) == before
    assert frames(db) == logged
    assert (repr(db.clock.now), db.metrics.all()) == (now, counters)
    # a valid update of the same row still goes through
    table.update(rowid, (4, 30, 301))
    assert db.execute("SELECT k, b FROM t WHERE a = 30").rows == [(4, 301)]


def test_a_composite_key_refuses_a_null_in_any_part():
    db = Database()
    db.create_table(TableSchema("p", [
        Column("x", SqlType.integer()),
        Column("y", SqlType.varchar(3)),
    ], primary_key=["x", "y"]))
    db.execute("INSERT INTO p VALUES (1, 'a')")
    with pytest.raises(ConstraintError,
                       match=r"NULL in primary key of p: \(1, None\)"):
        db.execute("UPDATE p SET y = NULL WHERE x = 1")
    assert db.execute("SELECT x, y FROM p").rows == [(1, "a")]
