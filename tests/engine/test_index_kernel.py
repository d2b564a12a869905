"""The index kernel: plain keys, one sentinel, one descent per insert.

A key used to be a tuple of ``(1, value)`` pairs with ``(0, 0)`` for
NULL; it is now the tuple of the values with ``NULL_FIRST`` for NULL.
The old ``make_key`` is kept here as the reference: both must put any
set of keys in the same order.  ``Table.insert`` used to descend the
primary index twice (the charged probe, then the insert); the two
descents are kept here as the reference for everything the one charges.
"""

import bisect
import copy
import datetime
import pickle
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import ConstraintError, ExecutionError
from repro.engine.index import NULL_FIRST, make_key
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.sim.params import SimParams


# -- (a) the key order is the old nested order ----------------------------

def nested_key(values: tuple) -> tuple:
    """``make_key`` as it was: every value wrapped so NULL sorts first."""
    return tuple([(0, 0) if v is None else (1, v) for v in values])


#: what one column can hold: values that order among themselves
FAMILIES = [
    st.one_of(
        st.integers(-3, 3),
        st.floats(-3, 3, allow_nan=False).map(lambda f: round(f * 2) / 2),
        st.decimals(-3, 3, places=1),
    ),
    st.dates(datetime.date(1992, 1, 1), datetime.date(1992, 1, 5)),
    st.sampled_from(["", "A", "AB", "B", "a", "00042", "zz"]),
]


@st.composite
def keys_of_one_index(draw):
    """Keys of equal width, each column of one family or NULL; few
    distinct values, so equal prefixes and all-NULL keys are common."""
    columns = draw(st.lists(st.sampled_from(FAMILIES), min_size=1,
                            max_size=3))
    key = st.tuples(*(st.one_of(st.none(), family) for family in columns))
    return draw(st.lists(key, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(keys_of_one_index(), st.integers(0, 3))
def test_plain_key_order_equals_nested_key_order(values, probe_rowid):
    plain = [(make_key(v), rowid) for rowid, v in enumerate(values)]
    nested = [(nested_key(v), rowid) for rowid, v in enumerate(values)]
    by_plain = sorted(range(len(values)), key=plain.__getitem__)
    assert by_plain == sorted(range(len(values)), key=nested.__getitem__)
    for a in range(len(values)):
        for b in range(len(values)):
            assert (plain[a] < plain[b]) == (nested[a] < nested[b])
            assert (plain[a][0] == plain[b][0]) == \
                (nested[a][0] == nested[b][0])
    plain.sort()
    nested.sort()
    for v in values:
        for rowid in (-1, probe_rowid):
            assert bisect.bisect_left(plain, (make_key(v), rowid)) == \
                bisect.bisect_left(nested, (nested_key(v), rowid))
        # a prefix orders as it did (search_prefix, search_range)
        assert bisect.bisect_left(plain, (make_key(v[:1]), -1)) == \
            bisect.bisect_left(nested, (nested_key(v[:1]), -1))


# -- (c) the sentinel -------------------------------------------------------

STORED = [0, -1, 10**12, 0.0, -2.5, Decimal("-9.99"), Decimal(0),
          datetime.date(1, 1, 1), datetime.date(1998, 12, 1), "", " ", "A",
          True]


@pytest.mark.parametrize("value", STORED, ids=repr)
def test_null_first_is_below_every_stored_value(value):
    assert NULL_FIRST < value
    assert NULL_FIRST <= value
    assert not (value < NULL_FIRST)
    assert not (value <= NULL_FIRST)
    assert value > NULL_FIRST
    assert value >= NULL_FIRST
    assert NULL_FIRST != value
    assert (NULL_FIRST, value) < (value, NULL_FIRST)


def test_null_first_equals_itself_alone():
    assert NULL_FIRST == NULL_FIRST
    assert not (NULL_FIRST < NULL_FIRST)
    assert not (NULL_FIRST > NULL_FIRST)
    assert NULL_FIRST <= NULL_FIRST >= NULL_FIRST
    assert make_key((None, 1)) == make_key((None, 1))
    assert make_key((None, None)) < make_key((None, 0))
    assert make_key((1, "x")) == (1, "x")  # a value is itself, unwrapped
    assert copy.deepcopy((NULL_FIRST,))[0] is NULL_FIRST
    assert pickle.loads(pickle.dumps(NULL_FIRST)) is NULL_FIRST


@pytest.fixture()
def db():
    database = Database()
    database.create_table(TableSchema("t", [
        Column("k", SqlType.integer(), nullable=False),
        Column("a", SqlType.integer()),
        Column("b", SqlType.char(4)),
    ], primary_key=["k"]))
    database.create_index("u_ab", "t", ["a", "b"], unique=True)
    database.create_index("i_a", "t", ["a"])
    return database


def test_unique_index_admits_any_number_of_all_null_keys(db):
    db.execute("INSERT INTO t VALUES (1, NULL, NULL), (2, NULL, NULL), "
               "(3, NULL, 'x'), (4, 7, NULL)")
    with pytest.raises(ExecutionError, match="unique index u_ab"):
        db.execute("INSERT INTO t VALUES (5, NULL, 'x')")  # partly NULL
    with pytest.raises(ExecutionError, match="unique index u_ab"):
        db.execute("UPDATE t SET b = 'x' WHERE k = 1")
    db.execute("UPDATE t SET a = NULL WHERE k = 4")  # a third all-NULL key
    index = db.catalog.table("t").indexes["u_ab"]
    assert [key for key, _ in index.scan_all()][:3] == \
        [(NULL_FIRST, NULL_FIRST)] * 3
    assert index.search_eq((None, None)) == [0, 1, 3]


def test_index_range_scan_skips_null_keys(db):
    db.execute("INSERT INTO t VALUES (1, NULL, 'n'), (2, 5, 'x'), "
               "(3, NULL, 'm'), (4, 9, 'y')")
    stmt = db.prepare("SELECT k FROM t WHERE a < ?")
    assert "IndexRangeScan" in stmt.explain()
    before = db.metrics.get("table.t.tuples_fetched")
    assert sorted(stmt.execute((100,)).rows) == [(2,), (4,)]
    # unbounded below: the walk starts at the NULL keys and fetches none
    assert db.metrics.get("table.t.tuples_fetched") - before == 2


# -- (b) one descent per insert ----------------------------------------------

def _bisect_calls(run) -> int:
    """``bisect.bisect_left`` calls (``c_call`` events) while ``run()``."""
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        calls += event == "c_call" and arg is bisect.bisect_left

    outer = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return calls


def test_bulk_insert_of_ascending_keys_never_bisects_the_primary_index(db):
    table = db.catalog.table("t")
    db.drop_index("u_ab")  # a unique index is probed before it is written
    db.create_index("i_b", "t", ["b"])
    # ``a`` and ``b`` fall: a secondary index defers the entries and
    # bisects only at a leaf write, once over the sorted tail and once
    # over each sorted list the entry is not past the end of — here one
    # write per index (682 entries a leaf): the tail and the first entry
    rows = [(k, 1000 - k, f"{1000 - k:04d}") for k in range(1000)]
    calls = _bisect_calls(
        lambda: [table.insert(row, bulk=True) for row in rows])
    writes = [1000 // table.indexes[name].entries_per_page
              for name in ("i_a", "i_b")]
    assert writes == [1, 1]
    assert calls == 2 * sum(writes), calls
    # ... and none when its keys rise too, equal keys included
    rising = [(k, 2000 + k // 3, f"{3000 + k // 2}")
              for k in range(1000, 2000)]
    assert _bisect_calls(
        lambda: [table.insert(row, bulk=True) for row in rising]) == 0
    db.drop_index("i_a")
    db.drop_index("i_b")
    # out of order: the probe descends, the insert does not descend again
    falling = [(k, k, "x") for k in range(2999, 1999, -1)]
    calls = _bisect_calls(lambda: [table.insert(row) for row in falling])
    assert 990 <= calls <= 1000, calls
    assert table.row_count == 3000
    assert [key for key, _ in table.primary_index.scan_all()] == \
        [(k,) for k in range(3000)]


def two_descent_insert(table, row, bulk):
    """``Table.insert`` as it was: probe with ``search_eq``, then let the
    primary index find the place a second time."""
    row = table.schema.validate_row(row)
    pk = table.primary_index
    key = pk.columns_of_row(row)
    if pk.search_eq(key):
        raise ConstraintError(f"duplicate primary key in t: {key}")
    rowid = table.store.append(row, bulk)
    table._counts[table.inserts_counter] += 1
    for index in table.indexes.values():
        index.insert(row, rowid, bulk=bulk)
    return rowid


def _small_paged_table():
    database = Database(SimParams(buffer_pool_bytes=8 * 8192))
    database.create_table(TableSchema("t", [
        Column("k", SqlType.char(200), nullable=False),
        Column("n", SqlType.integer(), nullable=False),
        Column("a", SqlType.integer()),
    ], primary_key=["k", "n"]))
    database.create_index("i_a", "t", ["a"])
    return database, database.catalog.table("t")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2),
                          st.one_of(st.none(), st.integers(0, 5)),
                          st.booleans()), max_size=120),
       st.booleans())
def test_one_descent_charges_what_two_descents_charged(ops, ascending):
    if ascending:
        ops = sorted(ops, key=lambda op: (f"{op[0]:03d}", op[1]))
    (one, one_t), (two, two_t) = _small_paged_table(), _small_paged_table()
    for k, n, a, bulk in ops:
        row = (f"{k:03d}", n, a)
        try:
            expected = two_descent_insert(two_t, row, bulk)
        except ConstraintError:
            with pytest.raises(ConstraintError, match="duplicate primary"):
                one_t.insert(row, bulk=bulk)
        else:
            assert one_t.insert(row, bulk=bulk) == expected
        assert repr(one.clock.now) == repr(two.clock.now)
    assert one.metrics.all() == two.metrics.all()  # hits and misses too
    for name, index in one_t.indexes.items():
        assert list(index.scan_all()) == list(two_t.indexes[name].scan_all())
