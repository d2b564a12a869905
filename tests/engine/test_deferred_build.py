"""The deferred bulk build against the row path it replaced.

A bulk insert into a non-unique index used to bisect the sorted entry
array and ``list.insert`` there; every ``entries_per_page``-th one wrote
the leaf at that position.  It now appends to an unsorted tail, and at
such a write sorts the tail into a run and writes the leaf of the rank:
the count of entries below the new one, summed over the sorted entries
and the runs.  ``reference_insert`` below is the insert body as it was;
a twin database whose indexes use it runs the same random script of bulk, direct-path and
row inserts, deletes, updates, reads and ANALYZE.  After every step the
two must agree on the clock by ``repr``, every counter (buffer hits and
misses among them), the LRU order of the pool and every index's
entries.  ``SSTable``'s offsets and block fence, built for the whole
segment at once, and the statistics ANALYZE collects after each kind of
change are checked here as well.
"""

import bisect
import datetime
import random
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.powertest import build_sap_system
from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import ConstraintError, ExecutionError
from repro.engine.index import make_key
from repro.engine.lsm import BloomFilter, SSTable
from repro.engine.stats import analyze
from repro.r3.appserver import R3Version
from repro.sim.params import SimParams
from repro.tpcd.dbgen import generate
from repro.tpcd.loader import load_original


def reference_insert(index, row, rowid, bulk=False, pos=None):
    """``BTreeIndex.insert`` as it was: every entry goes to its place in
    the sorted array at once."""
    key = index.columns_of_row(row)
    if None in key:
        key = make_key(key)
    entries = index._sorted
    entry = (key, rowid)
    if pos is None:
        if not entries or entries[-1] < entry:
            pos = len(entries)
        else:
            pos = bisect.bisect_left(entries, entry)
        if index.unique and key != index._null_key and (
                (pos < len(entries) and entries[pos][0] == key)
                or (pos and entries[pos - 1][0] == key)):
            raise index._violation(key)
    entries.insert(pos, entry)
    if bulk:
        index._bulk_pending += 1
        if index._bulk_pending >= index.entries_per_page:
            index._bulk_pending = 0
            index._buffer.write(index._file_name,
                                pos // index.entries_per_page, fresh=True)
        return
    index._charge_traverse()
    index._buffer.write(index._file_name, pos // index.entries_per_page)


def on_row_path(db):
    """Give every index of ``db`` the reference insert."""
    for table_name in db.catalog.table_names:
        for index in db.catalog.table(table_name).indexes.values():
            index.insert = partial(reference_insert, index)


def all_entries(index):
    """The entries, deferred ones included, without merging them."""
    return sorted(chain(index._sorted, index._tail, *index._runs))


# -- the model test ------------------------------------------------------------

def make_db(storage):
    """Small pages (3 to 5 entries a leaf), a four-page pool and a small
    memtable: leaf writes, evictions and LSM flushes come often."""
    params = SimParams(page_size_bytes=64, buffer_pool_bytes=4 * 64,
                       lsm_memtable_bytes=1024)
    db = Database(params, storage=storage)
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer()),
        Column("a", SqlType.integer()),
        Column("b", SqlType.char(6)),
        Column("u", SqlType.integer()),
    ], primary_key=["k"]))
    db.create_index("i_a", "t", ["a"])
    db.create_index("i_ba", "t", ["b", "a"])
    db.create_index("u_u", "t", ["u"], unique=True)
    return db


def observed(db):
    table = db.catalog.table("t")
    return {
        "now": repr(db.clock.now),
        "counters": db.metrics.all(),
        "resident": list(db.buffer_pool._pages),
        "rows": sorted(map(repr, table.store.rows())),
        "entries": {name: all_entries(index)
                    for name, index in table.indexes.items()},
        "counts": {name: (index.entry_count, index.height,
                          index.leaf_page_count, index.size_bytes,
                          index._bulk_pending)
                   for name, index in table.indexes.items()},
    }


def outcome(run):
    try:
        return "ok", run()
    except (ConstraintError, ExecutionError) as exc:
        return type(exc).__name__, str(exc)


values = st.one_of(st.none(), st.integers(0, 12))
texts = st.sampled_from([None, "x", "y", "zz"])
uniques = st.one_of(st.none(), st.integers(0, 5000))
ORDERS = ["rising", "falling", "random", "equal"]


@st.composite
def batches(draw):
    """Rows with fresh primary keys (now and then NULL or one already
    used), keys of one order on ``a``."""
    rows = draw(st.lists(st.tuples(st.integers(0, 10**6), values, texts,
                                   uniques), max_size=60))
    order = draw(st.sampled_from(ORDERS))
    if order == "equal":
        rows = [(k, 5, "x", u) for k, _a, _b, u in rows]
    elif order != "random":
        rows.sort(key=lambda row: (row[1] is not None, row[1] or 0),
                  reverse=order == "falling")
    return rows


# bulk writes most often: a reader merges what they defer
operations = st.one_of(
    st.tuples(st.sampled_from(["bulk", "bulk", "direct", "insert"]),
              batches(), st.none()),
    st.tuples(st.sampled_from(["bulk", "direct"]), batches(), st.none()),
    st.tuples(st.just("delete"), values, st.none()),
    st.tuples(st.just("update"), values, values),
    st.tuples(st.just("read"), st.sampled_from(
        ["eq", "locate", "prefix_run", "prefix", "range", "all", "unique",
         "select"]), st.tuples(values, values)),
    st.tuples(st.just("analyze"), st.none(), st.none()),
)


def step(db, op, serial):
    """Run one operation; ``serial`` hands out fresh primary keys."""
    kind, arg, extra = op
    table = db.catalog.table("t")
    if kind in ("bulk", "direct", "insert"):
        rows = []
        for k, a, b, u in arg:
            if k % 89 == 0:
                k = None
            elif k % 97 == 0 and serial:
                k = serial[k % len(serial)]  # a key already used
            else:
                k = 10**6 + len(serial)
                serial.append(k)
            rows.append((k, a, b, u))
        if kind == "bulk":
            return db.bulk_load("t", rows)
        if kind == "direct":
            return db.direct_path_load("t", rows)
        return table.insert_rows(rows)
    if kind == "delete":
        return db.execute("DELETE FROM t WHERE a = ?", (arg,)).rows
    if kind == "update":
        return db.execute("UPDATE t SET a = ? WHERE a = ?",
                          (extra, arg)).rows
    if kind == "analyze":
        db.analyze()
        return repr(db.stats["t"])
    low, high = extra
    i_a, i_ba, u_u = (table.indexes[name] for name in ("i_a", "i_ba", "u_u"))
    if arg == "eq":
        return i_a.search_eq((low,)), i_ba.search_eq(("x", low))
    if arg == "locate":
        return i_a.locate((low,)), table.primary_index.locate((high,))
    if arg == "prefix_run":
        return i_ba.prefix_run(("y",)), i_a.prefix_run((low,))
    if arg == "prefix":
        return list(i_ba.search_prefix((None,)))
    if arg == "range":
        return list(i_a.search_range(None if low is None else (low,),
                                     None if high is None else (high,)))
    if arg == "all":
        return list(i_ba.scan_all()), list(u_u.scan_all())
    if arg == "unique":
        return u_u.check_unique((None, None, None, low))
    return db.execute("SELECT k, a FROM t WHERE a = ?", (low,)).rows


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=120, deadline=None)
@given(st.lists(operations, max_size=20))
def test_deferred_build_charges_what_the_row_path_did(storage, ops):
    db, twin = make_db(storage), make_db(storage)
    on_row_path(twin)
    db_serial, twin_serial = [], []
    for op in ops:
        assert outcome(lambda: step(db, op, db_serial)) == \
            outcome(lambda: step(twin, op, twin_serial))
        assert observed(db) == observed(twin)
    for index in db.catalog.table("t").indexes.values():
        assert list(index.scan_all()) == \
            list(twin.catalog.table("t").indexes[index.name].scan_all())
        assert not index._deferred


def test_falling_and_random_bulk_keys_defer_and_merge_in_order():
    db, twin = make_db("heap"), make_db("heap")
    on_row_path(twin)
    rng = random.Random(5)
    rows = [(k, 500 - k, rng.choice("xyz"), None) for k in range(500)]
    rng.shuffle(rows)
    for database in (db, twin):
        database.bulk_load("t", rows)
    i_a = db.catalog.table("t").indexes["i_a"]
    assert i_a._runs and i_a._deferred == 500 - len(i_a._sorted)
    # counts see the deferred entries without merging them
    assert observed(db) == observed(twin)
    assert i_a._deferred
    db.analyze()
    twin.analyze()
    assert observed(db) == observed(twin)
    assert not i_a._deferred and i_a._sorted == sorted(i_a._sorted)


# -- loaders leave nothing deferred --------------------------------------------

def deferred_indexes(db):
    return [index.name for name in db.catalog.table_names
            for index in db.catalog.table(name).indexes.values()
            if index._deferred]


def test_no_index_holds_deferred_entries_after_a_loader():
    data = generate(0.0005, seed=3)
    assert deferred_indexes(load_original(data)) == []
    for version in (R3Version.V22, R3Version.V30):
        assert deferred_indexes(build_sap_system(data, version).db) == []


# -- SSTable -------------------------------------------------------------------

def per_entry_build(entries):
    bloom, offsets = BloomFilter(len(entries)), {}
    for pos, (rowid, _row) in enumerate(entries):
        bloom.add(rowid)
        offsets[rowid] = pos
    return bytes(bloom._bits), offsets


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=3000,
                unique=True), st.integers(1, 50))
def test_sstable_builds_the_offsets_and_fence_of_each_entry(
        rowids, rows_per_block):
    entries = [(rowid, (rowid,) if rowid % 3 else None)
               for rowid in sorted(rowids)]
    segment = SSTable(entries, rows_per_block, "lsm:t:1")
    assert (bytes(segment.bloom._bits), segment._offsets) == \
        per_entry_build(entries)
    assert segment.block_fence == [
        entries[i][0] for i in range(0, len(entries), rows_per_block)]
    assert all(segment.bloom.might_contain(rowid) for rowid in rowids)


# -- ANALYZE -------------------------------------------------------------------

def stats_db(storage):
    db = Database(storage=storage)
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer()), Column("a", SqlType.integer()),
        Column("d", SqlType.date())], primary_key=["k"]))
    db.create_table(TableSchema("s", [Column("x", SqlType.integer())]))
    db.create_index("i_a", "t", ["a"])
    db.catalog.table("t").insert_rows(
        [(1, 10, datetime.date(1995, 1, 1)), (2, 20, None)])
    db.execute("INSERT INTO s VALUES (7)")
    db.analyze()
    return db


CHANGES = {
    "insert": lambda db: db.execute("INSERT INTO t VALUES (3, 30, NULL)"),
    "delete": lambda db: db.execute("DELETE FROM t WHERE k = 1"),
    "update": lambda db: db.execute("UPDATE t SET a = 99 WHERE k = 2"),
    "bulk": lambda db: db.bulk_load("t", [(4, None, None)]),
    "direct": lambda db: db.direct_path_load(
        "t", [(5, 50, datetime.date(1996, 2, 29))]),
}


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@pytest.mark.parametrize("change", list(CHANGES))
def test_a_changed_table_gets_fresh_stats(storage, change):
    db = stats_db(storage)
    kept, old = db.stats["s"], db.stats["t"]
    CHANGES[change](db)
    scanned = db.metrics.get("table.s.tuples_scanned")
    db.analyze()
    assert db.stats["t"] == analyze(db.catalog.table("t")) != old
    assert db.stats["s"] == kept
    # ANALYZE charges its scan of the unchanged table too
    assert db.metrics.get("table.s.tuples_scanned") == scanned + 1

