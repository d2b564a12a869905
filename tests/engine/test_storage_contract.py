"""Backend-conformance suite: every StorageBackend must agree on semantics.

Parametrized over the heap and LSM backends: DML visibility, point
reads, scans, crash-recovery digest identity, iterator stability under
concurrent-on-the-clock compaction, the slot-restoration API that
ARIES replay depends on, and the *cost* contract — which calls charge
the clock, which may never, and which metrics each layer may touch.
The LSM runs with a deliberately tiny memtable so flush and compaction
actually occur inside each test.
"""

import itertools

import pytest

from repro.engine.database import Database
from repro.engine.errors import ExecutionError, PlanError
from repro.engine.lsm import LsmTree
from repro.engine.schema import Column, TableSchema
from repro.engine.stats import analyze
from repro.engine.types import SqlType
from repro.engine.wal import DurableStore
from repro.sim.params import SimParams

BACKENDS = ("heap", "lsm")


def _params() -> SimParams:
    params = SimParams()
    # Small enough that a few hundred rows force several memtable
    # flushes and L0 compactions (heap ignores both knobs).
    params.lsm_memtable_bytes = 2048
    params.lsm_l0_compaction_trigger = 2
    return params


def _schema(name: str = "t") -> TableSchema:
    return TableSchema(
        name,
        [Column("id", SqlType.integer()), Column("v", SqlType.char(8))],
        ["id"],
    )


def _fresh(storage: str) -> Database:
    db = Database(params=_params(), storage=storage)
    db.create_table(_schema())
    return db


def _scan(table):
    """``(rowid, row)`` pulled one at a time out of the charged scan,
    which hands out a page at a time."""
    for rowids, rows in table.store.scan():
        yield from zip(rowids, rows)


def _mixed_dml(table, n: int = 300) -> dict[int, tuple]:
    """Deterministic insert/update/delete mix; returns rowid -> row."""
    model: dict[int, tuple] = {}
    for i in range(n):
        rowid = table.insert((i, f"v{i}"))
        model[rowid] = (i, f"v{i}")
    for rowid in range(0, n, 7):
        table.update(rowid, (rowid + 10_000, f"u{rowid}"))
        model[rowid] = (rowid + 10_000, f"u{rowid}")
    for rowid in range(3, n, 11):
        table.delete(rowid)
        del model[rowid]
    return model


@pytest.mark.parametrize("storage", BACKENDS)
class TestDmlSemantics:
    def test_insert_fetch_scan_roundtrip(self, storage):
        db = _fresh(storage)
        table = db.catalog.table("t")
        model = _mixed_dml(table)
        assert table.row_count == len(model)
        assert dict(_scan(table)) == model
        # scan yields live rows in rowid order on both backends
        rowids = [rowid for rowid, _row in _scan(table)]
        assert rowids == sorted(model)
        for rowid, row in model.items():
            assert table.fetch_row(rowid) == row

    def test_dead_rowids_raise(self, storage):
        db = _fresh(storage)
        table = db.catalog.table("t")
        rowid = table.insert((1, "one"))
        table.delete(rowid)
        with pytest.raises(ExecutionError):
            table.fetch_row(rowid)
        with pytest.raises(ExecutionError):
            table.delete(rowid)
        with pytest.raises(ExecutionError):
            table.update(rowid, (2, "two"))

    def test_lsm_actually_flushed_and_compacted(self, storage):
        db = _fresh(storage)
        _mixed_dml(db.catalog.table("t"))
        flushes = db.metrics.get("lsm.flushes")
        compactions = db.metrics.get("lsm.compactions")
        if storage == "lsm":
            assert flushes > 0 and compactions > 0
            assert db.metrics.get("disk.seq_writes") > 0
        else:
            assert flushes == 0 and compactions == 0
            assert db.metrics.get("disk.seq_writes") == 0

    def test_content_digest_matches_heap_reference(self, storage):
        db = _fresh(storage)
        _mixed_dml(db.catalog.table("t"))
        reference = _fresh("heap")
        _mixed_dml(reference.catalog.table("t"))
        assert db.content_digest() == reference.content_digest()


@pytest.mark.parametrize("storage", BACKENDS)
class TestCrashRecovery:
    def _durable(self, storage):
        params = _params()
        store = DurableStore(params)
        db = Database(params=params, durability="wal", store=store,
                      storage=storage)
        db.create_table(_schema())
        return db, store

    def test_crash_recovers_digest_identical(self, storage):
        db, store = self._durable(storage)
        model = _mixed_dml(db.catalog.table("t"))
        reference = db.content_digest()
        db.crash()
        recovered, report = Database.open(store)
        assert recovered.storage == storage
        assert recovered.content_digest() == reference
        assert dict(_scan(recovered.catalog.table("t"))) == model

    def test_checkpoint_then_more_work_recovers(self, storage):
        db, store = self._durable(storage)
        table = db.catalog.table("t")
        for i in range(120):
            table.insert((i, f"v{i}"))
        db.wal.checkpoint()
        for i in range(120, 200):
            table.insert((i, f"v{i}"))
        table.delete(5)
        reference = db.content_digest()
        db.crash()
        recovered, report = Database.open(store)
        assert recovered.content_digest() == reference
        assert report.redo_applied >= 0  # recovery ran to completion


@pytest.mark.parametrize("storage", BACKENDS)
class TestIteratorStability:
    def test_scan_survives_on_clock_compaction(self, storage):
        db = _fresh(storage)
        table = db.catalog.table("t")
        for i in range(240):
            table.insert((i, f"v{i}"))
        snapshot = list(_scan(table))
        it = _scan(table)
        head = list(itertools.islice(it, 50))
        # Force the backend's maintenance mid-iteration: on the LSM a
        # flush lands a new L0 segment and (trigger=2) cascades into a
        # compaction that rewrites the very segments being iterated.
        if isinstance(table.store, LsmTree):
            before = db.metrics.get("lsm.compactions")
            table.store.flush_memtable()
            table.store.restore_slot(10_000, (10_000, "late"))
            table.store.flush_memtable()
            assert db.metrics.get("lsm.compactions") > before
        assert head + list(it) == snapshot


@pytest.mark.parametrize("storage", BACKENDS)
class TestSlotApi:
    def test_restore_slot_into_occupied_slot_raises(self, storage):
        db = _fresh(storage)
        store = db.catalog.table("t").store
        rowid = store.append((1, "one"))
        with pytest.raises(ExecutionError):
            store.restore_slot(rowid, (2, "two"))

    def test_delete_tombstones_and_restore_slot_revives(self, storage):
        db = _fresh(storage)
        store = db.catalog.table("t").store
        rowid = store.append((1, "one"))
        store.delete(rowid)
        assert store.row_count == 0
        assert store.get(rowid) is None
        store.restore_slot(rowid, (2, "two"))
        assert store.row_count == 1
        assert store.get(rowid) == (2, "two")

    def test_store_delete_and_update_of_unknown_rowid_raise(self, storage):
        db = _fresh(storage)
        store = db.catalog.table("t").store
        store.append((1, "one"))
        with pytest.raises(ExecutionError):
            store.delete(7)
        with pytest.raises(ExecutionError):
            store.update(7, (7, "seven"))
        assert store.row_count == 1

    def test_restore_slot_past_the_end_leaves_dead_slots(self, storage):
        db = _fresh(storage)
        store = db.catalog.table("t").store
        store.restore_slot(5, (5, "five"))
        assert store.row_count == 1
        assert [store.get(rowid) for rowid in range(6)] == [None] * 5 + [
            (5, "five")]
        assert store.append((6, "six")) == 6
        with pytest.raises(ExecutionError):
            store.delete(3)

    def test_snapshot_load_slots_roundtrip(self, storage):
        db = _fresh(storage)
        table = db.catalog.table("t")
        model = _mixed_dml(table, n=150)
        slots = table.store.snapshot_slots()
        other = _fresh(storage)
        other.catalog.table("t").store.load_slots(slots)
        assert dict(other.catalog.table("t").store.rows()) == model
        assert other.catalog.table("t").row_count == len(model)


#: the probe surface: harness reads that may never charge or count
PROBES = {
    "rows": lambda db, table: list(table.store.rows()),
    "get": lambda db, table: [table.store.get(r) for r in (0, 3, 999)],
    "fetch": lambda db, table: table.store.fetch(0),
    "snapshot_slots": lambda db, table: table.store.snapshot_slots(),
    "content_digest": lambda db, table: db.content_digest(),
    "analyze": lambda db, table: analyze(table),
}

#: the charged surface, through the table layer and on the bare store
CHARGED = {
    "insert": lambda table: table.insert((9_000, "new")),
    "bulk_insert": lambda table: [table.insert((20_000 + i, "b"), bulk=True)
                                  for i in range(600)],
    "update": lambda table: table.update(0, (40_000, "upd")),
    "delete": lambda table: table.delete(1),
    "apply_insert": lambda table: table.apply_insert(3, (3, "redo")),
    "scan": lambda table: list(_scan(table)),
    "fetch_row": lambda table: table.fetch_row(0),
    "ingest_sorted": lambda table: table.store.ingest_sorted(
        [(30_000 + i, "d") for i in range(600)]),  # > one heap page
}


@pytest.mark.parametrize("storage", BACKENDS)
class TestCostContract:
    def _loaded(self, storage):
        db = _fresh(storage)
        table = db.catalog.table("t")
        _mixed_dml(table)
        return db, table

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probes_touch_neither_clock_nor_metrics(self, storage, probe):
        db, table = self._loaded(storage)
        before = (db.clock.now, db.metrics.all())
        PROBES[probe](db, table)
        assert (db.clock.now, db.metrics.all()) == before

    @pytest.mark.parametrize("call", sorted(CHARGED))
    def test_charged_calls_advance_the_clock(self, storage, call):
        db, table = self._loaded(storage)  # rowid 3 is a tombstone
        before = db.clock.now
        CHARGED[call](table)
        assert db.clock.now > before

    def test_read_charges_before_raising_on_a_dead_rowid(self, storage):
        db, table = self._loaded(storage)
        before = db.clock.now
        with pytest.raises(ExecutionError):
            table.store.read(3)
        assert db.clock.now > before

    def test_each_layer_touches_only_its_own_metrics(self, storage):
        db, table = self._loaded(storage)
        for call in CHARGED.values():
            call(table)
        names = set(db.metrics.all())
        if storage == "heap":
            assert not [n for n in names if n.startswith("lsm.")]
        # what the table counts itself is table.<name>.* and nothing
        # else: every other counter belongs to the layer that charged
        # (tuples_scanned is counted per row by whoever pulls rows out
        # of the page scan: see TestPageScan)
        own = {n for n in names if n.startswith("table.")}
        assert own == {f"table.t.{op}" for op in (
            "inserts", "updates", "deletes", "tuples_fetched")}
        layers = {n.split(".")[0] for n in names - own}
        assert layers <= {"buffer", "disk", "index", "lsm"}


class TestHeapScanCharging:
    """The heap prices a scan lazily, page by page, as rows are pulled."""

    def test_pages_are_charged_as_the_consumer_reaches_them(self):
        db = _fresh("heap")
        table = db.catalog.table("t")
        per_page = table.store.rows_per_page
        for i in range(3 * per_page):
            table.insert((i, "v"))
        db.buffer_pool.clear()
        misses = lambda: db.metrics.get("buffer.misses")  # noqa: E731
        before = misses()
        it = _scan(table)
        assert misses() == before  # nothing until the first pull
        next(it)
        assert misses() == before + 1
        for _ in range(per_page):
            next(it)
        assert misses() == before + 2

    def test_an_all_tombstone_page_is_never_charged(self):
        db = _fresh("heap")
        table = db.catalog.table("t")
        per_page = table.store.rows_per_page
        for i in range(3 * per_page):
            table.insert((i, "v"))
        for rowid in range(per_page, 2 * per_page):
            table.delete(rowid)
        db.buffer_pool.clear()
        before = db.metrics.get("buffer.misses")
        assert len(list(_scan(table))) == 2 * per_page
        assert db.metrics.get("buffer.misses") == before + 2


def _row_scan(table):
    """The per-row charged scan both backends had before scans handed
    out pages, kept as the reference for what a scan costs and when."""
    store = table.store
    if isinstance(store, LsmTree):
        segments = list(store._l0)
        segments.extend(s for s in store._levels if s is not None)
        for segment in segments:
            for block_no in range(segment.block_count):
                store._buffer.access(segment.name, block_no, sequential=True)
        for _ in range(len(store._memtable)):
            store._charge_memtable_op()
        store._metrics.count("lsm.scans")
        yield from store.rows()
        return
    last_page = -1
    for rowid, row in enumerate(store._rows):
        if row is not None:
            page = rowid // store.rows_per_page
            if page != last_page:
                last_page = page
                store._buffer.access(store._file, page, sequential=True)
            yield rowid, row


#: name -> rowids to delete, given the rows a page holds
TOMBSTONES = {
    "none": lambda per_page: (),
    "a whole page": lambda per_page: range(per_page, 2 * per_page),
    "part of a page": lambda per_page: range(per_page + 4, 2 * per_page, 3),
    "the head of a page": lambda per_page: range(per_page, per_page + 3),
}


@pytest.mark.parametrize("storage", BACKENDS)
class TestPageScan:
    """The charged scan hands out pages and costs what the row scan did."""

    def _three_pages(self, storage, tombstones):
        db = _fresh(storage)
        table = db.catalog.table("t")
        per_page = table.store.rows_per_page
        for i in range(3 * per_page + 5):
            table.insert((i, f"v{i}"))
        for rowid in TOMBSTONES[tombstones](per_page):
            table.delete(rowid)
        db.buffer_pool.clear()  # hits and misses now depend on the scan
        return db, table

    @pytest.mark.parametrize("pulled", ("all", "abandoned mid-page"))
    @pytest.mark.parametrize("tombstones", sorted(TOMBSTONES))
    def test_costs_what_the_row_scan_cost(self, storage, tombstones, pulled):
        observed = []
        for scan in (_row_scan, _scan):
            db, table = self._three_pages(storage, tombstones)
            limit = None if pulled == "all" \
                else table.store.rows_per_page + 7
            got = list(itertools.islice(scan(table), limit))
            assert got == list(itertools.islice(table.store.rows(), limit))
            observed.append((db.clock.now, db.metrics.all(),
                             list(db.buffer_pool._pages)))
        assert observed[0] == observed[1]
        assert observed[0][1]["buffer.misses"] > 0

    def test_pages_are_parallel_non_empty_sequences(self, storage):
        db, table = self._three_pages(storage, "a whole page")
        pages = list(table.store.scan())
        assert all(len(rowids) == len(rows) > 0 for rowids, rows in pages)
        assert [rowid for rowids, _rows in pages for rowid in rowids] == \
            [rowid for rowid, _row in table.store.rows()]

    @pytest.mark.parametrize("where", ("", "where v like 'v%'"),
                             ids=("unfiltered", "filtered"))
    def test_a_limit_counts_the_rows_it_pulled_not_the_page(self, storage,
                                                            where):
        db, table = self._three_pages(storage, "none")
        before = db.metrics.snapshot()
        assert len(db.execute(f"select id from t {where} limit 7").rows) == 7
        assert before.get("table.t.tuples_scanned") == 7
        assert before.get("exec.tuples") == 7 + 7  # scanned, projected


class TestStorageSelection:
    def test_unknown_storage_rejected(self):
        with pytest.raises(PlanError):
            Database(params=SimParams(), storage="btree")

    def test_heap_is_the_default(self):
        assert Database(params=SimParams()).storage == "heap"


class TestSegmentNames:
    """An LSM segment's buffer-pool file name is a serial of its
    database: twins name theirs alike, and a dropped table's names are
    never handed to the table re-created in its place."""

    def _filled(self, db, value):
        table = db.catalog.table("t")
        for key in range(300):
            table.insert((key, value))
        assert list(_scan(table))
        return table

    def test_twin_databases_cache_the_same_page_keys(self):
        resident = []
        for _ in range(2):
            db = _fresh("lsm")
            self._filled(db, "twin")
            resident.append(list(db.buffer_pool._pages))
        assert resident[0] == resident[1]
        assert any(name.startswith("lsm:t:") for name, _page in resident[0])

    def test_a_recreated_table_hits_no_page_of_the_dropped_one(self):
        db = _fresh("lsm")
        self._filled(db, "old")
        stale = set(db.buffer_pool._pages)
        db.drop_table("t")
        db.create_table(_schema())
        table = db.catalog.table("t")
        for key in range(300):
            table.insert((key, "new"))
        hits = db.metrics.get("buffer.hits")
        assert {row for _rowid, row in _scan(table)} == {
            (key, "new") for key in range(300)}
        assert db.metrics.get("buffer.hits") == hits
        segments = [*table.store._l0,
                    *(s for s in table.store._levels if s is not None)]
        assert segments
        assert not {name for name, _page in stale} & {
            segment.name for segment in segments}
