"""The B-tree against a sorted-list model, and its charges against pins.

``BTreeIndex`` is one sorted array of ``(key, rowid)`` with an append
fast path; the model is a plain list re-sorted after every insert.
Every lookup must return what the model returns, and — from a fixed
seed — the simulated clock, every counter and the buffer pool's hits
and misses must be what the two-array implementation charged.
"""

import random

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

SCHEMA = TableSchema("t", [
    Column("a", SqlType.integer()),
    Column("b", SqlType.char(8)),
])
POSITIONS = {"a": 0, "b": 1}


def make_index(columns, unique):
    """A small-paged index (10 or 6 entries a leaf) on a 16-page pool,
    so that leaf page ids, hits and misses all depend on positions."""
    clock = SimulatedClock()
    metrics = MetricsCollector()
    disk = DiskModel(clock, metrics, 0.001, 0.01, 0.01)
    pool = BufferPool(16, disk, clock, metrics, 0.00001)
    index = BTreeIndex("idx", SCHEMA, list(columns), unique, pool, clock,
                       metrics, 0.0001, 128)
    return index, clock, metrics


class Model:
    """What the index means: a sorted list of ``(key, rowid)``."""

    def __init__(self, columns, unique):
        self.positions = [POSITIONS[c] for c in columns]
        self.unique = unique
        self.entries = []

    def key(self, row):
        return make_key(tuple(row[p] for p in self.positions))

    def insert(self, row, rowid):
        key = self.key(row)
        if self.unique and any(v is not None for v in
                               (row[p] for p in self.positions)) \
                and any(k == key for k, _ in self.entries):
            raise ExecutionError("unique")
        self.entries.append((key, rowid))
        self.entries.sort()

    def delete(self, row, rowid):
        entry = (self.key(row), rowid)
        if entry not in self.entries:
            raise ExecutionError("missing")
        self.entries.remove(entry)

    def eq(self, values):
        key = make_key(values)
        return [rowid for k, rowid in self.entries if k == key]

    def prefix(self, values):
        key = make_key(values)
        return [e for e in self.entries if e[0][:len(key)] == key]

    def range(self, low, high, low_inclusive, high_inclusive):
        out = self.entries
        if low is not None:
            key = make_key(low)
            out = [e for e in out if e[0][:1] > key
                   or (low_inclusive and e[0][:1] == key)]
        if high is not None:
            key = make_key(high)
            out = [e for e in out if e[0][:1] < key
                   or (high_inclusive and e[0][:1] == key)]
        return out


class Pair:
    """An index and its model, driven by the same operations."""

    def __init__(self, columns, unique):
        self.index = make_index(columns, unique)[0]
        self.model = Model(columns, unique)
        self.first = self.model.positions[0]
        self.rows = {}  # live rowid -> row
        self.next_rowid = 0

    def insert(self, row, bulk):
        rowid = self.next_rowid
        self.next_rowid += 1
        try:
            self.model.insert(row, rowid)
        except ExecutionError:
            with pytest.raises(ExecutionError, match="unique index idx"):
                self.index.insert(row, rowid, bulk=bulk)
        else:
            self.index.insert(row, rowid, bulk=bulk)
            self.rows[rowid] = row

    def delete(self, choice):
        if not self.rows:
            with pytest.raises(ExecutionError, match="missing entry"):
                self.index.delete((1, "x"), 10**9)
            return
        rowid = sorted(self.rows)[choice % len(self.rows)]
        row = self.rows.pop(rowid)
        self.model.delete(row, rowid)
        self.index.delete(row, rowid)

    def eq(self, row):
        values = tuple(row[p] for p in self.model.positions)
        assert self.index.search_eq(values) == self.model.eq(values)

    def prefix(self, row):
        values = (row[self.first],)
        assert list(self.index.search_prefix(values)) == \
            self.model.prefix(values)

    def range(self, low, high, low_inclusive, high_inclusive):
        args = (low and (low[self.first],), high and (high[self.first],),
                low_inclusive, high_inclusive)
        assert list(self.index.search_range(*args)) == \
            self.model.range(*args)

    def scan(self):
        assert list(self.index.scan_all()) == self.model.entries

    def apply(self, op):
        getattr(self, op[0])(*op[1:])
        assert self.index.entry_count == len(self.model.entries)


ints = st.one_of(st.none(), st.integers(0, 12))
strs = st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab", "zz"]))
rows_st = st.tuples(ints, strs)
bounds = st.one_of(st.none(), rows_st)
ops_st = st.one_of(
    st.tuples(st.just("insert"), rows_st, st.booleans()),
    st.tuples(st.just("delete"), st.integers(0, 1000)),
    st.tuples(st.just("eq"), rows_st),
    st.tuples(st.just("prefix"), rows_st),
    st.tuples(st.just("range"), bounds, bounds, st.booleans(),
              st.booleans()),
    st.tuples(st.just("scan")),
)


@settings(max_examples=200, deadline=None)
@given(
    columns=st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "a")]),
    unique=st.booleans(),
    ops=st.lists(ops_st, max_size=60),
    presorted=st.lists(rows_st, max_size=25),
)
def test_btree_equals_sorted_list_model(columns, unique, ops, presorted):
    pair = Pair(columns, unique)
    # sorted input first: what a bulk load delivers (append fast path)
    for row in sorted(presorted, key=pair.model.key):
        pair.apply(("insert", row, True))
    for op in ops:
        pair.apply(op)
    pair.scan()


# -- charges from a fixed seed ------------------------------------------

def scripted_run(columns, unique, seed=19970601, steps=1500):
    """A fixed interleaving of every operation; returns what it charged."""
    rng = random.Random(seed)
    index, clock, metrics = make_index(columns, unique)
    rows = {}
    rowid = 0
    # a sorted bulk load, then a sorted run of plain inserts
    for n in range(300):
        row = (n // 2, f"k{n:05d}")
        try:
            index.insert(row, rowid, bulk=n < 200)
            rows[rowid] = row
        except ExecutionError:
            pass
        rowid += 1
    for _ in range(steps):
        roll = rng.random()
        a = rng.choice([None, *range(0, 400, 3)])
        b = rng.choice([None, "", "k00007", f"k{rng.randrange(400):05d}"])
        if roll < 0.35:
            try:
                index.insert((a, b), rowid, bulk=rng.random() < 0.3)
                rows[rowid] = (a, b)
            except ExecutionError:
                pass
            rowid += 1
        elif roll < 0.55 and rows:
            victim = rng.choice(sorted(rows))
            index.delete(rows.pop(victim), victim)
        elif roll < 0.70:
            index.search_eq(tuple((a, b)[POSITIONS[c]] for c in columns))
        elif roll < 0.80:
            list(index.search_prefix(((a, b)[POSITIONS[columns[0]]],)))
        elif roll < 0.95 and columns[0] == "a":
            low = rng.choice([None, (rng.randrange(400),)])
            high = rng.choice([None, (rng.randrange(400),)])
            list(index.search_range(low, high, rng.random() < 0.5,
                                    rng.random() < 0.5))
        else:
            list(index.scan_all())
    return {"now": clock.now, "entries": index.entry_count,
            **metrics.all()}


#: ``scripted_run`` on the two-array B-tree of the parent commit
CHARGE_PINS = {
    (("a",), False): {
        "now": 25.222390000002783, "entries": 575,
        "buffer.hits": 2929, "buffer.misses": 9605,
        "disk.random_reads": 825, "disk.seq_reads": 8780,
        "disk.time_s": 25.050000000003777, "disk.writes": 802,
        "index.eq_lookups": 224, "index.prefix_scans": 147,
        "index.range_scans": 217,
    },
    (("a", "b"), True): {
        "now": 32.82815000000663, "entries": 446,
        "buffer.hits": 3575, "buffer.misses": 14335,
        "disk.random_reads": 1216, "disk.seq_reads": 13119,
        "disk.time_s": 32.659000000007964, "disk.writes": 738,
        "index.eq_lookups": 221, "index.prefix_scans": 133,
        "index.range_scans": 219,
    },
    (("b",), True): {
        "now": 22.681860000001095, "entries": 210,
        "buffer.hits": 2746, "buffer.misses": 9864,
        "disk.random_reads": 817, "disk.seq_reads": 9047,
        "disk.time_s": 22.537000000002088, "disk.writes": 532,
        "index.eq_lookups": 230, "index.prefix_scans": 153,
    },
}


@pytest.mark.parametrize("columns,unique", list(CHARGE_PINS))
def test_scripted_charges_equal_parent_capture(columns, unique):
    assert scripted_run(columns, unique) == CHARGE_PINS[(columns, unique)]
