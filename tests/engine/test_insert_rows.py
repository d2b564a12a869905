"""The batch insert kernel against the row-at-a-time body it replaced.

``Table.insert_rows`` looks up what is per table once per batch and
keeps the loop row-major; ``Table.insert`` is its one-row case.
``reference_insert`` is the body ``Table.insert`` had before, and
``reference_locate`` the body of ``BTreeIndex.locate``: applied row by
row to a twin database they must leave the same simulated clock, the
same counters, the same index entries, the same content and the same
log bytes — also when row *k* of a batch is refused.
"""

import bisect
import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import ConstraintError, ExecutionError, TypeError_
from repro.engine.index import make_key
from repro.sim.params import SimParams


def reference_insert(table, row, bulk):
    """``Table.insert`` as it was: one row, everything looked up anew."""
    row = table.schema.validate_row(row)
    pk = table.primary_index
    pos = None
    if pk is not None:
        key = pk.columns_of_row(row)
        if None in key:
            raise ConstraintError(
                f"NULL in primary key of {table.name}: {key}")
        pos, rowids = pk.locate(key)
        if rowids:
            raise ConstraintError(
                f"duplicate primary key in {table.name}: {key}")
    for index in table.indexes.values():
        if index is not pk:
            index.check_unique(row)
    rowid = table.store.append(row, bulk)
    table._counts[table.inserts_counter] += 1
    for index in table.indexes.values():
        if index is pk:
            pk.insert(row, rowid, bulk, pos)
        else:
            index.insert(row, rowid, bulk=bulk)
    if table.wal is not None:
        table.wal.log_insert(table.name, rowid, row,
                             table.store.page_of(rowid))
    return rowid


def reference_locate(index, values):
    """``BTreeIndex.locate`` as it was: the walk over equal keys, the
    set of pages and the ``min``/``max`` also when nothing is equal."""
    key = make_key(values)
    index._charge_traverse()
    entries = index._entries
    if not entries or entries[-1] < (key, -1):
        lo = len(entries)
    else:
        lo = bisect.bisect_left(entries, (key, -1))
    out, touched_pages = [], set()
    idx = lo
    while idx < len(entries) and entries[idx][0] == key:
        page = index._leaf_page(idx)
        if page not in touched_pages:
            touched_pages.add(page)
            index._buffer.access(index._file_name, page, sequential=True)
        out.append(entries[idx][1])
        idx += 1
    if not touched_pages:
        index._buffer.access(
            index._file_name,
            index._leaf_page(min(lo, max(len(entries) - 1, 0))),
            sequential=False)
    index._metrics.count("index.eq_lookups")
    return lo, out


# -- twin databases ----------------------------------------------------------

PRIMARY_KEYS = {"none": [], "one": ["a"], "two": ["a", "b"]}


def make_db(storage, wal, primary_key):
    """An 8-page pool over a table with a long key (few entries a leaf
    page), a unique and a non-unique secondary index, both over
    nullable columns."""
    db = Database(SimParams(buffer_pool_bytes=8 * 8192), storage=storage,
                  durability="wal" if wal else "off")
    db.create_table(TableSchema("t", [
        Column("a", SqlType.integer()),
        Column("b", SqlType.char(120)),
        Column("u", SqlType.integer()),
        Column("n", SqlType.char(3)),
        Column("r", SqlType.varchar(8), nullable=False),
        Column("d", SqlType.date()),
    ], primary_key=PRIMARY_KEYS[primary_key]))
    db.create_index("u_un", "t", ["u", "n"], unique=True)
    db.create_index("i_n", "t", ["n"])
    return db, db.catalog.table("t")


def observed(db, table):
    """Everything a later statement, report or recovery could see."""
    frames = None
    if db.wal is not None:
        frames = [(segment.index, list(segment.frames))
                  for segment in db.wal.store.segments]
    return {
        "now": repr(db.clock.now),
        "counters": db.metrics.all(),
        "indexes": {name: list(index._entries)
                    for name, index in table.indexes.items()},
        "bulk_pending": {name: index._bulk_pending
                         for name, index in table.indexes.items()},
        "rows": list(table.store.rows()),
        "digest": db.content_digest(),
        "resident": list(db.buffer_pool._pages),
        "frames": frames,
    }


def outcome(run):
    try:
        return "ok", run()
    except (ConstraintError, ExecutionError, TypeError_) as exc:
        return type(exc).__name__, str(exc)


day0 = datetime.date(1995, 1, 1)
rows = st.tuples(
    st.one_of(st.integers(0, 25), st.none()),
    st.sampled_from(["x", "y", None]),
    st.one_of(st.none(), st.integers(0, 12)),
    st.sampled_from(["a", "b", "c", None]),
    # NULL in a NOT NULL column, a type error, a string too long
    st.sampled_from(["r", "rr", "rrr", "r", "rr", None, 7, "r" * 9]),
    st.one_of(st.none(), st.integers(0, 40).map(
        lambda n: day0 + datetime.timedelta(days=n))),
)
batches = st.lists(st.tuples(st.lists(rows, max_size=12), st.booleans()),
                   max_size=8)


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@pytest.mark.parametrize("wal", [False, True], ids=["nowal", "wal"])
@pytest.mark.parametrize("primary_key", list(PRIMARY_KEYS))
@settings(max_examples=25, deadline=None)
@given(batches, st.booleans())
def test_batch_equals_the_row_loop(storage, wal, primary_key, work,
                                   ascending):
    batch_db, batch_t = make_db(storage, wal, primary_key)
    loop_db, loop_t = make_db(storage, wal, primary_key)
    for batch, bulk in work:
        if ascending:  # the append fast path of probe and insert
            batch = sorted(batch, key=lambda row: (
                row[0] is not None, row[0] or 0, row[1] or ""))

        def loop():
            return [reference_insert(loop_t, row, bulk) for row in batch]

        assert outcome(lambda: batch_t.insert_rows(batch, bulk)) == \
            outcome(loop)
        # a refused row leaves the rows before it and nothing of its own
        assert observed(batch_db, batch_t) == observed(loop_db, loop_t)
    assert batch_t.row_count == loop_t.row_count


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(rows, st.booleans()), max_size=40))
def test_insert_is_the_one_row_batch(storage, work):
    one_db, one_t = make_db(storage, True, "two")
    batch_db, batch_t = make_db(storage, True, "two")
    for row, bulk in work:
        assert outcome(lambda: one_t.insert(row, bulk)) == \
            outcome(lambda: batch_t.insert_rows([row], bulk)[0])
    assert observed(one_db, one_t) == observed(batch_db, batch_t)


def test_an_index_that_comes_or_goes_is_seen_by_the_next_batch():
    db, table = make_db("heap", False, "one")
    def entries():
        return {name: len(index._entries)
                for name, index in table.indexes.items()}

    table.insert_rows([(1, "x", 1, "a", "r", None)])
    db.create_index("i_d", "t", ["d"])
    table.insert_rows([(2, "x", 2, "a", "r", day0)], bulk=True)
    assert entries() == {"pk_t": 2, "u_un": 2, "i_n": 2, "i_d": 2}
    db.drop_index("i_n")
    table.insert_rows([(3, "x", 3, "a", "r", day0)])
    assert entries() == {"pk_t": 3, "u_un": 3, "i_d": 3}
    db.drop_index("u_un")
    table.insert_rows([(4, "x", 3, "a", "r", None)])  # no longer unique
    assert table.row_count == 4


def test_a_generator_of_rows_is_a_batch():
    _db, table = make_db("heap", False, "one")
    assert table.insert_rows(
        (k, "x", k, "a", "r", None) for k in range(5)) == list(range(5))
    assert table.insert_rows(()) == []


# -- refusals at row k -------------------------------------------------------

GOOD = [(k, "x", k, "a", "r", None) for k in range(4)]
REFUSED = {
    "duplicate key": ((1, "x", 9, "b", "r", None), ConstraintError,
                      "duplicate primary key in t"),
    "NULL in key": ((None, "x", 9, "b", "r", None), ConstraintError,
                    "NULL in primary key of t"),
    "unique violation": ((9, "x", 2, "a", "r", None), ExecutionError,
                         "unique index u_un violated"),
    "type error": ((9, "x", 9, "b", 7, None), TypeError_, "expected str"),
    "NOT NULL": ((9, "x", 9, "b", None, None), ConstraintError,
                 "NULL in NOT NULL column t.r"),
}


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@pytest.mark.parametrize("bulk", [False, True], ids=["row", "bulk"])
@pytest.mark.parametrize("refusal", list(REFUSED))
def test_row_k_is_refused_and_the_rows_before_it_stay(storage, bulk,
                                                      refusal):
    bad, error, text = REFUSED[refusal]
    db, table = make_db(storage, True, "one")
    twin_db, twin = make_db(storage, True, "one")
    with pytest.raises(error, match=text):
        table.insert_rows(GOOD + [bad, (20, "x", 20, "a", "r", None)], bulk)
    twin.insert_rows(GOOD, bulk)
    assert table.row_count == 4
    before = observed(db, table)
    reference = observed(twin_db, twin)
    if refusal in ("duplicate key", "unique violation"):
        # the charged primary-key probe of the refused row was made
        assert float(before.pop("now")) > float(reference.pop("now"))
        for state in (before, reference):
            for name in ("counters", "resident"):
                state.pop(name)
    assert before == reference


# -- the probe ----------------------------------------------------------------

def test_a_probe_past_a_full_last_leaf_looks_at_that_leaf():
    new_db, new_t = make_db("heap", False, "none")
    old_db, old_t = make_db("heap", False, "none")
    for db, table in ((new_db, new_t), (old_db, old_t)):
        db.create_index("i_a", "t", ["a"])
        per_page = table.indexes["i_a"].entries_per_page
        for k in range(2 * per_page):  # two full leaves
            table.indexes["i_a"].insert((k, "x", None, None, "r", None), k,
                                        bulk=True)
        db.buffer_pool.clear()
    probe = (2 * per_page,)
    assert new_t.indexes["i_a"].locate(probe) == (2 * per_page, []) == \
        reference_locate(old_t.indexes["i_a"], probe)
    assert ("idx:i_a", 1) in new_db.buffer_pool._pages
    assert list(new_db.buffer_pool._pages) == list(old_db.buffer_pool._pages)
    assert repr(new_db.clock.now) == repr(old_db.clock.now)



@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.sampled_from("xyz"),
                          st.booleans()), max_size=150),
       st.lists(st.tuples(st.one_of(st.none(), st.integers(-1, 32)),
                          st.sampled_from("wxyz")), max_size=40))
def test_locate_charges_and_answers_what_the_walk_did(inserts, probes):
    new_db, new_t = make_db("heap", False, "none")
    old_db, old_t = make_db("heap", False, "none")
    for db in (new_db, old_db):
        db.create_index("i_ab", "t", ["a", "b"])
    for rowid, (a, b, probe) in enumerate(inserts):
        for table in (new_t, old_t):
            table.indexes["i_ab"].insert((a, b, None, None, "r", None),
                                         rowid, bulk=True)
        if probe:
            assert new_t.indexes["i_ab"].locate((a, b)) == \
                reference_locate(old_t.indexes["i_ab"], (a, b))
    for values in probes:
        assert new_t.indexes["i_ab"].locate(values) == \
            reference_locate(old_t.indexes["i_ab"], values)
        assert new_t.indexes["i_ab"].search_eq(list(values)) == \
            reference_locate(old_t.indexes["i_ab"], values)[1]
        assert repr(new_db.clock.now) == repr(old_db.clock.now)
    assert new_db.metrics.all() == old_db.metrics.all()
    assert list(new_db.buffer_pool._pages) == list(old_db.buffer_pool._pages)
