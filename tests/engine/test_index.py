import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.buffer import BufferPool
from repro.engine.errors import ExecutionError
from repro.engine.index import BTreeIndex, make_key
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector


def _index(columns=("a",), unique=False, cls=BTreeIndex):
    schema = TableSchema("t", [
        Column("a", SqlType.integer()),
        Column("b", SqlType.char(8)),
    ])
    clock = SimulatedClock()
    metrics = MetricsCollector()
    disk = DiskModel(clock, metrics, 0.001, 0.01, 0.01)
    pool = BufferPool(64, disk, clock, metrics, 0.00001)
    return cls("idx", schema, list(columns), unique, pool, clock,
               metrics, 0.0001, 8192)


class TestBTreeIndex:
    def test_eq_lookup(self):
        index = _index()
        index.insert((5, "x"), 100)
        index.insert((5, "y"), 101)
        index.insert((7, "z"), 102)
        assert sorted(index.search_eq((5,))) == [100, 101]
        assert index.search_eq((6,)) == []

    def test_delete(self):
        index = _index()
        index.insert((5, "x"), 100)
        index.delete((5, "x"), 100)
        assert index.search_eq((5,)) == []

    def test_delete_missing_entry(self):
        index = _index()
        with pytest.raises(ExecutionError):
            index.delete((5, "x"), 100)

    def test_unique_violation(self):
        index = _index(unique=True)
        index.insert((5, "x"), 1)
        with pytest.raises(ExecutionError):
            index.insert((5, "y"), 2)

    def test_range_scan(self):
        index = _index()
        for i in range(10):
            index.insert((i, ""), i)
        hits = [rowid for _k, rowid in index.search_range((3,), (6,))]
        assert hits == [3, 4, 5, 6]

    def test_range_exclusive_bounds(self):
        index = _index()
        for i in range(10):
            index.insert((i, ""), i)
        hits = [r for _k, r in index.search_range((3,), (6,), False, False)]
        assert hits == [4, 5]

    def test_range_unbounded(self):
        index = _index()
        for i in range(5):
            index.insert((i, ""), i)
        assert len(list(index.search_range(None, (2,)))) == 3
        assert len(list(index.search_range((3,), None))) == 2

    def test_prefix_scan_composite(self):
        index = _index(columns=("a", "b"))
        index.insert((1, "x"), 0)
        index.insert((1, "y"), 1)
        index.insert((2, "x"), 2)
        hits = [rowid for _k, rowid in index.search_prefix((1,))]
        assert hits == [0, 1]

    def test_null_keys_sort_first_and_are_allowed(self):
        index = _index()
        index.insert((None, ""), 0)
        index.insert((1, ""), 1)
        keys = [k for k, _r in index.scan_all()]
        assert keys[0] == make_key((None,))

    def test_size_accounting(self):
        index = _index()
        assert index.size_bytes == 0
        index.insert((1, ""), 0)
        assert index.size_bytes == index.entry_byte_width
        assert index.entry_byte_width == 4 + 8

    def test_string_keys_are_wider(self):
        int_index = _index(columns=("a",))
        str_index = _index(columns=("b",))
        assert str_index.entry_byte_width > int_index.entry_byte_width

    def test_page_count_grows(self):
        index = _index()
        assert index.page_count == 0
        for i in range(index.entries_per_page + 1):
            index.insert((i, ""), i)
        assert index.leaf_page_count == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=0, max_size=60),
       st.integers(0, 50), st.integers(0, 50))
def test_btree_range_matches_naive(values, lo_raw, hi_raw):
    lo, hi = min(lo_raw, hi_raw), max(lo_raw, hi_raw)
    index = _index()
    for rowid, value in enumerate(values):
        index.insert((value, ""), rowid)
    got = sorted(r for _k, r in index.search_range((lo,), (hi,)))
    expected = sorted(i for i, v in enumerate(values) if lo <= v <= hi)
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=40))
def test_btree_insert_delete_roundtrip(values):
    index = _index()
    for rowid, value in enumerate(values):
        index.insert((value, ""), rowid)
    for rowid, value in enumerate(values):
        index.delete((value, ""), rowid)
    assert index.entry_count == 0


def test_make_key_total_order_with_nulls():
    assert make_key((None,)) < make_key((0,))
    assert make_key((0,)) < make_key((1,))
