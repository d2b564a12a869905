"""``HeapFile.scan`` looks for tombstones only where there may be one.

The heap keeps a conservative set of pages that may hold a tombstone:
``delete`` and ``restore_slot``'s padding add to it,
``load_slots`` recomputes it.  ``reference_scan`` below is the scan body
as it was, which looked through every page.  Two twin heaps run one
random script of writes and scans — a scan also with writes between its
pages — each scanning one way; they must hand out the same pages and
leave the same ``repr`` of the clock, every counter and the LRU order,
and the set must cover every page that holds a tombstone.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.sim.params import SimParams


def reference_scan(heap):
    access = heap._buffer.access
    file_name = heap._file
    rows_per_page = heap.rows_per_page
    for first in range(0, len(heap._rows), rows_per_page):
        rows = heap._rows[first:first + rows_per_page]
        rowids = range(first, first + len(rows))
        if None in rows:
            rowids = [rowid for rowid, row in zip(rowids, rows)
                      if row is not None]
            if not rowids:
                continue
            rows = [row for row in rows if row is not None]
        access(file_name, first // rows_per_page, sequential=True)
        yield rowids, rows


def make_heap():
    params = SimParams()
    params.page_size_bytes = 64  # a few rows a page
    db = Database(params=params)
    db.create_table(TableSchema(
        "t", [Column("id", SqlType.integer()), Column("v", SqlType.char(8))],
        ["id"]))
    return db, db.catalog.table("t").store


def observed(db):
    return (repr(db.clock.now), db.metrics.all(),
            list(db.buffer_pool._pages))


def apply(heap, op) -> None:
    kind, at, value = op
    slots = len(heap._rows)
    if kind == "append":
        heap.append((value, "x"))
    elif kind == "delete" and slots and heap._rows[at % slots] is not None:
        heap.delete(at % slots)
    elif kind == "put" and slots:
        # overwrite a slot: tombstone or replace a live row, revive a
        # dead one
        rowid = at % slots
        if heap._rows[rowid] is None:
            heap.restore_slot(rowid, (value, "p"))
        elif value % 2:
            heap.delete(rowid)
        else:
            heap.update(rowid, (value, "p"))
    elif kind == "restore":
        rowid = slots + at % 9  # past the end: pads with tombstones
        if slots and value % 2 and heap._rows[at % slots] is None:
            rowid = at % slots  # into a tombstone
        heap.restore_slot(rowid, (value, "r"))
    elif kind == "load":
        heap.load_slots([None if (at + n) % 3 == 0 else (n, "l")
                         for n in range(value)])


def scanned(scan, heap, between) -> list:
    """The pages ``scan`` hands out, with ``between`` applied after the
    first page."""
    pages = []
    for rowids, rows in scan(heap):
        pages.append((list(rowids), list(rows)))
        if len(pages) == 1:
            for op in between:
                apply(heap, op)
    return pages


ops = st.tuples(st.sampled_from(["append", "append", "delete", "put",
                                 "restore", "load"]),
                st.integers(0, 200), st.integers(0, 40))
steps = st.one_of(ops.map(lambda op: ("write", op)),
                  st.lists(ops, max_size=3).map(lambda ops: ("scan", ops)))


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=40))
def test_a_scan_is_the_scan_that_looked_at_every_page(script):
    (db, heap), (ref_db, ref_heap) = make_heap(), make_heap()
    for kind, payload in script:
        if kind == "write":
            apply(heap, payload)
            apply(ref_heap, payload)
        else:
            assert scanned(type(heap).scan, heap, payload) == \
                scanned(reference_scan, ref_heap, payload)
        assert observed(db) == observed(ref_db)
        assert heap._rows == ref_heap._rows
        dead = {rowid // heap.rows_per_page
                for rowid, row in enumerate(heap._rows) if row is None}
        assert dead <= heap._tombstone_pages


def test_a_clean_heap_marks_no_page():
    db, heap = make_heap()
    for n in range(40):
        heap.append((n, "x"))
    heap.restore_slot(40, (40, "r"))  # at the end: no padding
    assert heap._tombstone_pages == set()
    heap.delete(5)
    assert heap._tombstone_pages == {5 // heap.rows_per_page}
