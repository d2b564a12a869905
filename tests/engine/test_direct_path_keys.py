"""``Database.direct_path_load`` refuses a key before it stores a row.

The direct path used to ingest the whole batch and only then build the
indexes, where a duplicate primary key raised: the store kept every
row, the primary index some and a secondary index none, so an index
read no longer found a row a scan showed.  A NULL primary key was not
refused at all.  The keys are now checked before ``ingest_sorted``:
the first refused row in load order raises the error, type and text,
that ``Table.insert_rows`` raises for it, and store, indexes, clock and
counters are left as they were.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import ConstraintError, ExecutionError


def make_db(storage, nullable_key=False):
    db = Database(storage=storage)
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer(), nullable=nullable_key),
        Column("a", SqlType.integer()),
        Column("u", SqlType.integer()),
    ], primary_key=["k"]))
    db.create_index("i_a", "t", ["a"])
    db.create_index("u_u", "t", ["u"], unique=True)
    return db


def state(db):
    table = db.catalog.table("t")
    return {
        "now": repr(db.clock.now),
        "counters": db.metrics.all(),
        "rows": list(table.store.rows()),
        "entries": {name: list(index._entries)
                    for name, index in table.indexes.items()},
        "digest": db.content_digest(),
    }


def outcome(run):
    try:
        return "ok", run()
    except (ConstraintError, ExecutionError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_a_duplicate_key_leaves_store_and_indexes_as_they_were(storage):
    db = make_db(storage)
    db.catalog.table("t").insert_rows([(1, 10, None)])
    before = state(db)
    with pytest.raises(ConstraintError,
                       match=r"^duplicate primary key in t: \(1,\)$"):
        db.direct_path_load("t", [(2, 20, None), (3, 30, None),
                                  (1, 40, None), (4, 50, None)])
    assert state(db) == before
    db.direct_path_load("t", [(4, 50, None)])
    assert db.execute("SELECT k FROM t WHERE k = 4").rows == [(4,)]
    assert db.catalog.table("t").row_count == 2


@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_a_null_primary_key_is_refused_as_insert_refuses_it(storage):
    db = make_db(storage, nullable_key=True)
    before = state(db)
    with pytest.raises(ConstraintError,
                       match=r"^NULL in primary key of t: \(None,\)$"):
        db.direct_path_load("t", [(None, 1, None), (None, 2, None)])
    assert state(db) == before
    with pytest.raises(ConstraintError,
                       match=r"^NULL in primary key of t: \(None,\)$"):
        db.execute("INSERT INTO t VALUES (NULL, 1, NULL)")


@pytest.mark.parametrize("storage", ["heap", "lsm"])
def test_the_first_refused_row_in_load_order_raises(storage):
    db = make_db(storage)
    db.catalog.table("t").insert_rows([(1, 10, 100)])
    # row 2 repeats row 1's ``u``; row 3 repeats the stored primary key
    with pytest.raises(ExecutionError,
                       match=r"^unique index u_u violated for key \(7,\)$"):
        db.direct_path_load("t", [(2, 0, 7), (3, 0, 7), (1, 0, None)])
    with pytest.raises(ExecutionError,
                       match=r"^unique index u_u violated for key \(100,\)$"):
        db.direct_path_load("t", [(2, 0, None), (3, 0, 100)])
    # any number of NULL keys in a unique index
    assert db.direct_path_load("t", [(2, 0, None), (3, 0, None)]) == 2


rows = st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 12)),
                          st.integers(0, 3),
                          st.one_of(st.none(), st.integers(0, 12))),
                max_size=8)


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=100, deadline=None)
@given(rows, rows)
def test_direct_path_refuses_what_insert_rows_refuses(storage, first,
                                                      batch):
    direct, twin = (make_db(storage, nullable_key=True) for _ in range(2))
    for db in (direct, twin):
        outcome(lambda: db.direct_path_load("t", first))
    assert state(direct)["digest"] == state(twin)["digest"]
    before = state(direct)
    loaded = outcome(lambda: direct.direct_path_load("t", batch))
    inserted = outcome(lambda: twin.catalog.table("t").insert_rows(batch))
    if inserted[0] == "ok":
        assert loaded == ("ok", len(batch))
        assert direct.content_digest() == twin.content_digest()
    else:
        assert loaded == inserted
        assert state(direct) == before
