"""Partitioned heap storage: a deterministic overlay on ``HeapFile``.

A :class:`PartitionedHeap` splits one table's live rowids into N
partitions without moving any data: each partition is a rowid list with
its own re-packed page numbering, scanned through the buffer pool under
a virtual file name (``<table>#p<i>of<n>``) so per-partition page
accounting is exact — ``ceil(assigned_slots / rows_per_page)`` pages
per partition, tombstoned slots included until the next rebuild.

Partition assignment hashes the key with :func:`stable_hash` (CRC-32
over a canonical byte encoding — Python's builtin ``hash`` is salted
per process and would break reproducibility), so it is deterministic
across processes and runs.

The overlay is a *snapshot*: it is keyed on ``HeapFile.version`` and
the :class:`PartitionManager` rebuilds it lazily after any mutation.
Rows deleted after a build are skipped by the scan (the rowid resolves
to a tombstone); rows inserted after a build are only visible after the
rebuild the next parallel query triggers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.engine.errors import PlanError
from repro.engine.exec.base import ExecContext
from repro.engine.table import Table


def _canonical_bytes(value: object) -> bytes:
    """A stable byte encoding of a partition-key value."""
    if value is None:
        return b"\x00<null>"
    if isinstance(value, str):
        return value.encode("utf-8", "surrogatepass")
    # ints, floats, Decimals, dates: repr is stable across runs
    return repr(value).encode("ascii", "backslashreplace")


def stable_hash(value: object, seed: int = 0) -> int:
    """Deterministic 32-bit hash of a partition-key value.

    The same (value, seed) pair hashes identically in every process —
    the property the cross-run partition-assignment determinism test
    pins down.
    """
    return zlib.crc32(_canonical_bytes(value), seed & 0xFFFFFFFF)


@dataclass(frozen=True)
class PartitionSpec:
    """How one table is split: key column, partition count, hash seed."""

    column: str
    degree: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise PlanError(f"partition degree must be >= 2: {self.degree}")


class HeapPartition:
    """One partition: an ordered rowid list with local page numbering."""

    __slots__ = ("index", "file_name", "rowids", "rows_per_page")

    def __init__(self, index: int, file_name: str, rowids: list[int],
                 rows_per_page: int) -> None:
        self.index = index
        self.file_name = file_name
        self.rowids = rowids
        self.rows_per_page = rows_per_page

    @property
    def page_count(self) -> int:
        """Pages this partition occupies (snapshot slots, packed)."""
        if not self.rowids:
            return 0
        return -(-len(self.rowids) // self.rows_per_page)

    def page_of(self, local_slot: int) -> int:
        return local_slot // self.rows_per_page


class PartitionedHeap:
    """A full partitioning of one table under one :class:`PartitionSpec`."""

    def __init__(self, table: Table, spec: PartitionSpec) -> None:
        self.table = table
        self.spec = spec
        self.version = table.store.version
        self.key_position = table.schema.column_index(spec.column)
        rowid_lists: list[list[int]] = [[] for _ in range(spec.degree)]
        for rowid, row in table.store.rows():
            rowid_lists[self.partition_of(row[self.key_position])] \
                .append(rowid)
        rpp = table.store.rows_per_page
        self.partitions = [
            HeapPartition(
                i, f"{table.name}#p{i}of{spec.degree}", rowids, rpp
            )
            for i, rowids in enumerate(rowid_lists)
        ]

    def partition_of(self, value: object) -> int:
        """Deterministic partition index for one key value."""
        return stable_hash(value, self.spec.seed) % self.spec.degree

    # -- accounting ------------------------------------------------------

    def row_counts(self) -> list[int]:
        """Snapshot rows per partition (the skew evidence)."""
        return [len(p.rowids) for p in self.partitions]

    def skew(self) -> float:
        """max/mean partition fill; 1.0 is perfectly balanced."""
        counts = self.row_counts()
        total = sum(counts)
        if not total:
            return 1.0
        return max(counts) * len(counts) / total


class PartitionManager:
    """Version-checked cache of :class:`PartitionedHeap` overlays.

    Building a partitioning charges one sequential read of the table
    (the partitioner has to look at every key) plus per-row CPU; the
    overlay is then reused until the heap mutates.  On rebuild the old
    virtual partition files are invalidated in the buffer pool so stale
    pages cannot serve hits.
    """

    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx
        self._cache: dict[tuple[str, str, int, int],
                          PartitionedHeap] = {}

    def get(self, table: Table, spec: PartitionSpec) -> PartitionedHeap:
        key = (table.name, spec.column, spec.degree, spec.seed)
        cached = self._cache.get(key)
        if cached is not None and cached.version == table.store.version:
            return cached
        if cached is not None:
            for partition in cached.partitions:
                self.ctx.buffer_pool.invalidate_file(partition.file_name)
        built = self._build(table, spec)
        self._cache[key] = built
        return built

    def _build(self, table: Table, spec: PartitionSpec) -> PartitionedHeap:
        params = self.ctx.params
        self.ctx.clock.charge(
            table.store.page_count * params.seq_read_s
            + table.row_count * params.tuple_cpu_s
        )
        self.ctx.metrics.count("parallel.partition_builds")
        self.ctx.metrics.count("parallel.partition_build_rows",
                               table.row_count)
        built = PartitionedHeap(table, spec)
        # The partitioner materializes the partitions, so their pages
        # are resident afterwards: prime them through the buffer pool
        # (paying the write-out here rather than as cold misses inside
        # the first parallel query's lanes).
        for partition in built.partitions:
            for page in range(partition.page_count):
                self.ctx.buffer_pool.access(partition.file_name, page,
                                            sequential=True)
        return built

    def invalidate(self, table_name: str) -> None:
        """Drop cached overlays for one table (partition-column change)."""
        stale = [key for key in self._cache if key[0] == table_name.lower()]
        for key in stale:
            for partition in self._cache[key].partitions:
                self.ctx.buffer_pool.invalidate_file(partition.file_name)
            del self._cache[key]
