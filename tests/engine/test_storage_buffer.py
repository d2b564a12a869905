import pytest

from repro.engine.buffer import BufferPool
from repro.engine.errors import ExecutionError
from repro.engine.schema import Column, TableSchema
from repro.engine.storage import HeapFile
from repro.engine.types import SqlType
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector


def _schema():
    return TableSchema("t", [
        Column("a", SqlType.integer()),
        Column("b", SqlType.char(20)),
    ])


def _heap(schema=None):
    clock = SimulatedClock()
    metrics = MetricsCollector()
    disk = DiskModel(clock, metrics, 0.001, 0.01, 0.02)
    pool = BufferPool(4, disk, clock, metrics, 0.00001)
    return HeapFile(schema or _schema(), 8192, pool, disk)


class TestHeapFile:
    def test_append_and_fetch(self):
        heap = _heap()
        rowid = heap.append((1, "x"))
        assert heap.fetch(rowid) == (1, "x")

    def test_rowids_sequential(self):
        heap = _heap()
        assert [heap.append((i, "")) for i in range(3)] == [0, 1, 2]

    def test_delete_leaves_tombstone(self):
        heap = _heap()
        for i in range(3):
            heap.append((i, ""))
        heap.delete(1)
        assert [row[0] for _ids, rows in heap.scan() for row in rows] == [0, 2]
        assert heap.row_count == 2
        with pytest.raises(ExecutionError):
            heap.fetch(1)

    def test_double_delete_rejected(self):
        heap = _heap()
        heap.append((1, ""))
        heap.delete(0)
        with pytest.raises(ExecutionError):
            heap.delete(0)

    def test_update(self):
        heap = _heap()
        heap.append((1, "a"))
        heap.update(0, (2, "b"))
        assert heap.fetch(0) == (2, "b")

    def test_page_accounting(self):
        schema = _schema()  # row width 4+20+8 = 32 bytes
        heap = _heap(schema)
        assert heap.rows_per_page == 256
        for i in range(257):
            heap.append((i, ""))
        assert heap.page_count == 2
        assert heap.page_of(0) == 0
        assert heap.page_of(256) == 1

    def test_data_bytes_includes_tombstones(self):
        heap = _heap()
        heap.append((1, ""))
        heap.append((2, ""))
        before = heap.data_bytes
        heap.delete(0)
        assert heap.data_bytes == before


def _pool(capacity=4):
    clock = SimulatedClock()
    metrics = MetricsCollector()
    disk = DiskModel(clock, metrics, 0.001, 0.01, 0.02)
    return BufferPool(capacity, disk, clock, metrics, 0.00001), clock, \
        metrics


class TestBufferPool:
    def test_miss_then_hit(self):
        pool, clock, metrics = _pool()
        assert pool.access("f", 0, sequential=True) is False
        assert pool.access("f", 0, sequential=True) is True
        assert metrics.get("buffer.hits") == 1
        assert metrics.get("buffer.misses") == 1

    def test_miss_charges_disk(self):
        pool, clock, _m = _pool()
        pool.access("f", 0, sequential=True)
        assert clock.now == pytest.approx(0.001)
        pool.access("f", 1, sequential=False)
        assert clock.now == pytest.approx(0.011)

    def test_hit_is_cheap(self):
        pool, clock, _m = _pool()
        pool.access("f", 0, sequential=True)
        before = clock.now
        pool.access("f", 0, sequential=True)
        assert clock.now - before == pytest.approx(0.00001)

    def test_lru_eviction(self):
        pool, _c, metrics = _pool(capacity=2)
        pool.access("f", 0, True)
        pool.access("f", 1, True)
        pool.access("f", 0, True)  # 0 now most recent
        pool.access("f", 2, True)  # evicts 1
        assert pool.access("f", 0, True) is True
        assert pool.access("f", 1, True) is False

    def test_fresh_write_skips_read(self):
        pool, clock, _m = _pool()
        pool.write("tmp", 0, fresh=True)
        assert clock.now == pytest.approx(0.02)  # write only

    def test_non_resident_write_pays_read_modify_write(self):
        pool, clock, _m = _pool()
        pool.write("f", 0)
        assert clock.now == pytest.approx(0.01 + 0.02)

    def test_invalidate_file(self):
        pool, _c, _m = _pool()
        pool.access("f", 0, True)
        pool.access("g", 0, True)
        pool.invalidate_file("f")
        assert pool.access("g", 0, True) is True
        assert pool.access("f", 0, True) is False

    def test_resize_shrinks(self):
        pool, _c, _m = _pool(capacity=4)
        for page in range(4):
            pool.access("f", page, True)
        pool.resize(2)
        assert list(pool._pages) == [("f", 2), ("f", 3)]
        with pytest.raises(ValueError):
            pool.resize(0)

    def test_capacity_validation(self):
        clock = SimulatedClock()
        metrics = MetricsCollector()
        disk = DiskModel(clock, metrics, 1, 1, 1)
        with pytest.raises(ValueError):
            BufferPool(0, disk, clock, metrics, 0.1)
