"""Log-structured merge-tree storage backend.

The second :class:`~repro.engine.storage.StorageBackend`
implementation: writes land in a sorted in-memory memtable and are
flushed — when the memtable exceeds its byte budget — as immutable
sorted-string-table (SSTable) segments written *sequentially*.  An
L0 list of fresh segments is merged by leveled compaction into
exponentially larger levels, again with sequential I/O.  Reads probe
the memtable, then each segment newest-to-oldest, guarded by a
per-segment bloom filter and key-range fences, paying one random
block read (through the shared buffer pool) per segment that might
hold the key.

This is the load-vs-query tradeoff the benchmark measures: inserts
cost memtable CPU plus amortised sequential flush writes instead of
one random in-place page write, while point reads may touch several
segments instead of exactly one heap page.

Keys are rowids.  The engine hands out monotonically increasing
rowids, so freshly flushed runs are naturally sorted and the
StorageBackend contract (stable rowids, tombstoned deletes, the
slot-restoration API for checkpoint/recovery) maps directly onto
LSM entries: a delete writes a tombstone record that shadows older
versions until compaction drops it at the bottom level.

Determinism: bloom filters use fixed multiplicative hashing (never
Python's randomised ``hash``), and compaction is triggered by exact
byte/segment thresholds on the simulated clock — identical inputs
produce identical tick traces.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.buffer import BufferPool
from repro.engine.errors import ExecutionError
from repro.engine.schema import TableSchema
from repro.engine.storage import StorageBackend
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams

#: multiplicative-hash constants (Knuth-style, fixed for determinism)
_BLOOM_MULTIPLIERS = (2654435761, 2246822519, 3266489917)


class BloomFilter:
    """Fixed-size bloom filter over integer rowids.

    Three multiplicative hash functions over a power-of-two bit array.
    Deterministic across processes (no seed, no ``hash()``), so crash
    recovery rebuilds byte-identical filters.
    """

    def __init__(self, expected_keys: int) -> None:
        bits = 1
        while bits < max(64, expected_keys * 8):
            bits <<= 1
        self._mask = bits - 1
        self._bits = bytearray(bits // 8)

    def add(self, key: int) -> None:
        bits, mask = self._bits, self._mask
        for mult in _BLOOM_MULTIPLIERS:
            pos = (key * mult) & mask
            bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, key: int) -> bool:
        bits, mask = self._bits, self._mask
        for mult in _BLOOM_MULTIPLIERS:
            pos = (key * mult) & mask
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True


class SSTable:
    """One immutable sorted segment.

    Entries are ``(rowid, row | None)`` pairs in ascending rowid order
    (``None`` is a tombstone).  The segment carries min/max key fences,
    a sparse index with the first key of every block, and a bloom
    filter — the three structures a point read consults before paying
    any I/O.
    """

    def __init__(self, entries: list[tuple[int, tuple | None]],
                 rows_per_block: int, name: str) -> None:
        assert entries, "SSTable must hold at least one entry"
        #: the buffer pool's file name of this segment's blocks
        self.name = name
        self.entries = entries
        self.rows_per_block = rows_per_block
        self.min_key = entries[0][0]
        self.max_key = entries[-1][0]
        rowids = [rowid for rowid, _row in entries]
        #: first rowid of each block — the sparse index
        self.block_fence: list[int] = rowids[::rows_per_block]
        self.bloom = BloomFilter(len(entries))
        for rowid in rowids:
            self.bloom.add(rowid)
        self._offsets: dict[int, int] = dict(zip(rowids, range(len(rowids))))

    @property
    def block_count(self) -> int:
        return len(self.block_fence)

    def lookup(self, rowid: int) -> tuple[int, tuple | None] | None:
        """(block_no, entry) if this segment holds ``rowid``, else None.

        The caller charges the bloom probe / index probes / block read;
        this method is pure state so recovery digests stay tick-free.
        """
        pos = self._offsets.get(rowid)
        if pos is None:
            return None
        return pos // self.rows_per_block, self.entries[pos][1]

    def covers(self, rowid: int) -> bool:
        return self.min_key <= rowid <= self.max_key


class LsmTree(StorageBackend):
    """LSM-tree row storage for one table.

    Mutations pay memtable CPU (plus flush/compaction sequential
    writes when thresholds trip); charged reads pay bloom/sparse-index
    CPU plus buffered block I/O.
    """

    def __init__(
        self,
        schema: TableSchema,
        params: SimParams,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        disk: DiskModel,
        buffer_pool: BufferPool,
        segment_seq: Iterator[int],
    ) -> None:
        self.schema = schema
        self._params = params
        self._clock = clock
        self._metrics = metrics
        self._disk = disk
        self._buffer = buffer_pool
        #: the database's segment serial: a name is never reused within
        #: the buffer pool, not even after a drop and re-create
        self._segment_seq = segment_seq
        self.rows_per_page = max(
            1, params.page_size_bytes // schema.row_byte_width
        )
        #: memtable: rowid -> row | None (tombstone); kept sorted on
        #: flush — rowids arrive almost always in ascending order
        self._memtable: dict[int, tuple | None] = {}
        #: fresh flushed segments, oldest first
        self._l0: list[SSTable] = []
        #: levels[i] is level i+1 — one fully merged segment per level
        self._levels: list[SSTable | None] = []
        self._next_rowid = 0
        self._live = 0
        self.version = 0

    def _segment(self, entries: list[tuple[int, tuple | None]]) -> SSTable:
        return SSTable(entries, self.rows_per_page,
                       f"lsm:{self.schema.name}:{next(self._segment_seq)}")

    # -- cost helpers -----------------------------------------------------

    def _charge_memtable_op(self) -> None:
        self._clock.charge(self._params.lsm_memtable_op_s)

    def _pages_for_entries(self, count: int) -> int:
        if count <= 0:
            return 0
        return -(-count // self.rows_per_page)

    def _memtable_bytes(self) -> int:
        return len(self._memtable) * self.schema.row_byte_width

    # -- mutation ---------------------------------------------------------

    def append(self, row: tuple, bulk: bool = False) -> int:
        rowid = self._next_rowid
        self._next_rowid += 1
        self._memtable[rowid] = row
        self._live += 1
        self.version += 1
        self._charge_memtable_op()
        self._metrics.count("lsm.memtable_writes")
        self._maybe_flush()
        return rowid

    def delete(self, rowid: int) -> None:
        if self._visible(rowid) is None:
            raise ExecutionError(f"delete of dead rowid {rowid}")
        self._memtable[rowid] = None
        self._live -= 1
        self.version += 1
        self._charge_memtable_op()
        self._metrics.count("lsm.memtable_writes")
        self._maybe_flush()

    def update(self, rowid: int, row: tuple) -> None:
        if self._visible(rowid) is None:
            raise ExecutionError(f"update of dead rowid {rowid}")
        self._memtable[rowid] = row
        self.version += 1
        self._charge_memtable_op()
        self._metrics.count("lsm.memtable_writes")
        self._maybe_flush()

    # -- flush / compaction ----------------------------------------------

    def _maybe_flush(self) -> None:
        if self._memtable_bytes() >= self._params.lsm_memtable_bytes:
            self.flush_memtable()

    def flush_memtable(self) -> None:
        """Write the memtable as one sorted L0 segment (sequential I/O)."""
        if not self._memtable:
            return
        entries = sorted(self._memtable.items())
        segment = self._segment(entries)
        pages = self._pages_for_entries(len(entries))
        for _ in range(pages):
            self._disk.write_page(sequential=True)
        self._metrics.count("lsm.flushes")
        self._metrics.count("lsm.flush_pages", pages)
        self._memtable = {}
        self._l0.append(segment)
        if self.boundary is not None:
            self.boundary("lsm.flush")
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if len(self._l0) >= self._params.lsm_l0_compaction_trigger:
            self._compact_l0()
        self._cascade_levels()

    def _level_budget(self, level_index: int) -> int:
        """Byte budget of ``levels[level_index]`` (level ``index+1``)."""
        return self._params.lsm_memtable_bytes * (
            self._params.lsm_level_ratio ** (level_index + 1)
        )

    def _compact_l0(self) -> None:
        """Merge every L0 segment (plus L1) into a new L1 segment."""
        if not self._l0:
            return
        inputs = list(self._l0)
        if self._levels and self._levels[0] is not None:
            inputs.insert(0, self._levels[0])
        merged = self._merge(inputs, bottom=self._is_bottom(0))
        self._l0 = []
        if not self._levels:
            self._levels.append(None)
        self._levels[0] = merged
        self._cascade_levels()

    def _cascade_levels(self) -> None:
        """Push over-budget levels down until every level fits."""
        i = 0
        while i < len(self._levels):
            segment = self._levels[i]
            if segment is None or self._segment_bytes(segment) <= \
                    self._level_budget(i):
                i += 1
                continue
            inputs = [segment]
            if i + 1 < len(self._levels) and self._levels[i + 1] is not None:
                inputs.insert(0, self._levels[i + 1])
            merged = self._merge(inputs, bottom=self._is_bottom(i + 1))
            self._levels[i] = None
            if i + 1 == len(self._levels):
                self._levels.append(None)
            self._levels[i + 1] = merged
            i += 1

    def _is_bottom(self, level_index: int) -> bool:
        """No data below ``levels[level_index]`` → tombstones can drop."""
        return all(
            self._levels[j] is None
            for j in range(level_index + 1, len(self._levels))
        )

    def _merge(self, inputs: list[SSTable], bottom: bool) -> SSTable:
        """Merge segments (later inputs win), charging compaction I/O.

        Inputs are read sequentially and the merged run is written
        sequentially — the whole point of the LSM's write path.  The
        buffer pool drops the consumed segments' cached blocks.
        """
        merged: dict[int, tuple | None] = {}
        read_pages = 0
        for segment in inputs:  # oldest first: later segments overwrite
            read_pages += self._pages_for_entries(len(segment.entries))
            for rowid, row in segment.entries:
                merged[rowid] = row
        if bottom:
            entries = [(k, v) for k, v in sorted(merged.items())
                       if v is not None]
        else:
            entries = sorted(merged.items())
        for _ in range(read_pages):
            self._disk.read_page(sequential=True)
        out_pages = self._pages_for_entries(len(entries))
        for _ in range(out_pages):
            self._disk.write_page(sequential=True)
        self._metrics.count("lsm.compactions")
        self._metrics.count("lsm.compaction_pages", read_pages + out_pages)
        for segment in inputs:
            self._buffer.invalidate_file(segment.name)
        if self.boundary is not None:
            self.boundary("lsm.compaction")
        if not entries:
            # every row tombstoned away at the bottom level: keep one
            # tombstone entry so callers always get a segment back
            entries = sorted(merged.items())[:1]
        return self._segment(entries)

    # -- direct-path load -------------------------------------------------

    def ingest_sorted(self, rows: list[tuple]) -> list[int]:
        """Direct-path ingest: build L0 segments without the memtable.

        Rows are appended at fresh (ascending) rowids — already sorted
        by construction — and written straight to sequential pages in
        memtable-sized runs.  Costs one sequential page write per page
        and zero memtable CPU per row; the runs stack in L0 and
        compaction catches up once, after the last one.
        """
        if not rows:
            return []
        rowids: list[int] = []
        rows_per_run = max(
            1,
            self._params.lsm_memtable_bytes // self.schema.row_byte_width,
        )
        for start in range(0, len(rows), rows_per_run):
            chunk = rows[start:start + rows_per_run]
            fresh = range(self._next_rowid, self._next_rowid + len(chunk))
            self._next_rowid += len(chunk)
            entries: list[tuple[int, tuple | None]] = list(zip(fresh, chunk))
            rowids += fresh
            segment = self._segment(entries)
            pages = self._pages_for_entries(len(entries))
            for _ in range(pages):
                self._disk.write_page(sequential=True)
            self._metrics.count("lsm.flushes")
            self._metrics.count("lsm.flush_pages", pages)
            self._l0.append(segment)
            if self.boundary is not None:
                self.boundary("lsm.flush")
        self._live += len(rows)
        self.version += 1
        self._metrics.count("lsm.direct_rows", len(rows))
        self._maybe_compact()
        return rowids

    # -- probe surface (uncharged state readers) --------------------------

    def _visible(self, rowid: int) -> tuple | None:
        """Newest-wins visibility without charging the clock."""
        if rowid in self._memtable:
            return self._memtable[rowid]
        for segment in reversed(self._l0):
            if segment.covers(rowid):
                found = segment.lookup(rowid)
                if found is not None:
                    return found[1]
        for segment in self._levels:
            if segment is not None and segment.covers(rowid):
                found = segment.lookup(rowid)
                if found is not None:
                    return found[1]
        return None

    def fetch(self, rowid: int) -> tuple:
        row = self._visible(rowid)
        if row is None:
            raise ExecutionError(f"fetch of dead rowid {rowid}")
        return row

    def get(self, rowid: int) -> tuple | None:
        return self._visible(rowid)

    def rows(self) -> Iterator[tuple[int, tuple]]:
        """Yield (rowid, row) for every live row in rowid order.

        The merged view is materialised up front, so the iterator stays
        stable even if a concurrent-on-the-clock mutation triggers a
        flush or compaction mid-scan.
        """
        merged = self._merged_view()
        for rowid in sorted(merged):
            row = merged[rowid]
            if row is not None:
                yield rowid, row

    def _merged_view(self) -> dict[int, tuple | None]:
        merged: dict[int, tuple | None] = {}
        for segment in reversed(self._levels):  # deepest (oldest) first
            if segment is not None:
                for rowid, row in segment.entries:
                    merged[rowid] = row
        for segment in self._l0:  # oldest L0 first
            for rowid, row in segment.entries:
                merged[rowid] = row
        merged.update(self._memtable)
        return merged

    # -- charged readers ---------------------------------------------------

    def read(self, rowid: int, sequential: bool = False) -> tuple:
        """Charged point read; every LSM read is a random probe, so
        ``sequential`` buys nothing here."""
        row = self._probe(rowid)
        if row is None:
            raise ExecutionError(f"fetch of dead rowid {rowid}")
        return row

    def _probe(self, rowid: int) -> tuple | None:
        """Memtable probe, then per-segment bloom + sparse index + one
        buffered block read for each segment that might hold the key
        (newest first, stop at first hit)."""
        self._charge_memtable_op()
        if rowid in self._memtable:
            self._metrics.count("lsm.memtable_hits")
            return self._memtable[rowid]
        candidates: list[SSTable] = list(reversed(self._l0))
        candidates.extend(s for s in self._levels if s is not None)
        for segment in candidates:
            if not segment.covers(rowid):
                continue
            self._clock.charge(self._params.lsm_bloom_probe_s)
            self._metrics.count("lsm.bloom_probes")
            if not segment.bloom.might_contain(rowid):
                self._metrics.count("lsm.bloom_skips")
                continue
            found = segment.lookup(rowid)
            if found is None:
                # bloom false positive: pay the index walk for nothing
                self._charge_index_walk(segment)
                self._metrics.count("lsm.bloom_false_positives")
                continue
            block_no, row = found
            self._charge_index_walk(segment)
            self._buffer.access(segment.name, block_no, sequential=False)
            self._metrics.count("lsm.segment_reads")
            return row
        return None

    def _charge_index_walk(self, segment: SSTable) -> None:
        steps = max(1, segment.block_count.bit_length())
        self._clock.charge(self._params.lsm_index_probe_s * steps)

    def scan(self) -> Iterator[tuple[list[int], list[tuple]]]:
        """Charged merging scan: every segment is read sequentially
        through the buffer pool, plus memtable CPU per resident entry —
        all up front; the merged view then goes out in page-sized
        batches."""
        segments: list[SSTable] = list(self._l0)
        segments.extend(s for s in self._levels if s is not None)
        for segment in segments:
            for block_no in range(segment.block_count):
                self._buffer.access(segment.name, block_no, sequential=True)
        for _ in range(len(self._memtable)):
            self._charge_memtable_op()
        self._metrics.count("lsm.scans")
        merged = self._merged_view()
        live = [rowid for rowid in sorted(merged)
                if merged[rowid] is not None]
        for first in range(0, len(live), self.rows_per_page):
            rowids = live[first:first + self.rows_per_page]
            yield rowids, [merged[rowid] for rowid in rowids]

    # -- checkpoint / recovery --------------------------------------------

    def snapshot_slots(self) -> list[tuple | None]:
        """Dense slot array (tombstones as None) — heap-compatible."""
        merged = self._merged_view()
        return [merged.get(rowid) for rowid in range(self._next_rowid)]

    def load_slots(self, slots: list[tuple | None]) -> None:
        """Rebuild from a checkpoint image as one bottom-level segment."""
        self._memtable = {}
        self._l0 = []
        self._levels = []
        self._next_rowid = len(slots)
        self._live = sum(1 for row in slots if row is not None)
        entries = [(rowid, row) for rowid, row in enumerate(slots)
                   if row is not None]
        if entries:
            self._levels.append(self._segment(entries))
        self.version += 1

    def restore_slot(self, rowid: int, row: tuple) -> None:
        if self._visible(rowid) is not None:
            raise ExecutionError(f"redo insert into occupied slot {rowid}")
        self._memtable[rowid] = row
        if rowid >= self._next_rowid:
            self._next_rowid = rowid + 1
        self._live += 1
        self.version += 1
        self._charge_memtable_op()
        self._maybe_flush()

    # -- accounting --------------------------------------------------------

    def _segment_bytes(self, segment: SSTable) -> int:
        return len(segment.entries) * self.schema.row_byte_width

    @property
    def row_count(self) -> int:
        return self._live

    @property
    def page_count(self) -> int:
        pages = self._pages_for_entries(len(self._memtable))
        for segment in self._l0:
            pages += self._pages_for_entries(len(segment.entries))
        for segment in self._levels:
            if segment is not None:
                pages += self._pages_for_entries(len(segment.entries))
        return pages

    @property
    def data_bytes(self) -> int:
        entries = len(self._memtable)
        entries += sum(len(s.entries) for s in self._l0)
        entries += sum(
            len(s.entries) for s in self._levels if s is not None
        )
        return entries * self.schema.row_byte_width

    @property
    def compaction_backlog(self) -> int:
        """Pending L0 segments — the monitor's backlog gauge."""
        return len(self._l0)
