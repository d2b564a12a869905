"""Heap files: page-structured row storage with size accounting.

Rows live in Python lists (this is a simulator, not a persistence
layer), but pages are tracked exactly: each heap knows how many rows
fit a page given its schema's row width, so full scans charge the right
number of sequential page reads and the storage accountant can produce
the paper's Table 2 byte counts.

:class:`StorageBackend` is the abstract slice of this contract that
the rest of the engine (tables, executors, the WAL, recovery) relies
on.  :class:`HeapFile` here and :class:`~repro.engine.lsm.LsmTree` are
its two implementations; each prices its own physical work, so the
layers above have one code path whatever backend a table runs on.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, Sequence

from repro.engine.buffer import BufferPool
from repro.engine.errors import ExecutionError
from repro.engine.schema import TableSchema
from repro.sim.disk import DiskModel


class StorageBackend(abc.ABC):
    """Physical row storage for one table.

    The contract every backend must honour:

    * rowids are stable for the lifetime of a row — once handed out a
      rowid never moves to a different row (deletes tombstone);
    * ``version`` increases on every mutation (partition overlays and
      caches key their snapshots on it);
    * the **charged surface** (:meth:`append`, :meth:`update`,
      :meth:`delete`, :meth:`restore_slot`, :meth:`ingest_sorted`,
      :meth:`scan`, :meth:`read`) pays for its own physical work on the
      simulated clock — callers add nothing on top;
    * the **probe surface** (:meth:`rows`, :meth:`get`, :meth:`fetch`,
      :meth:`snapshot_slots`) never touches the clock or a metric: it
      is for harness checks, digests, statistics and index builds whose
      cost the caller accounts for separately (or not at all);
    * the slot-restoration API (:meth:`restore_slot`, :meth:`put_slot`,
      :meth:`snapshot_slots`, :meth:`load_slots`) lets checkpointing
      capture — and recovery rebuild — the *exact* physical state,
      tombstones included, so redo replay is idempotent.

    Charge order is part of the model (the clock sums floats): a
    mutation charges at the point it is called, so
    :class:`~repro.engine.table.Table` fixes where that falls relative
    to index maintenance.
    """

    #: crash-fuzz hook, called with the name of each durable boundary a
    #: backend crosses on its own (the WAL wires its ``_boundary``); a
    #: backend without such boundaries never calls it
    boundary: Callable[[str], None] | None = None
    #: rows that fit one page of this table's schema
    rows_per_page: int

    # -- charged surface ------------------------------------------------

    @abc.abstractmethod
    def append(self, row: tuple, bulk: bool = False) -> int:
        """Store ``row`` and return its rowid.

        ``bulk`` marks bulk-load inserts, whose page writes a backend
        may amortise across a page.
        """

    @abc.abstractmethod
    def delete(self, rowid: int) -> None:
        """Tombstone a live row."""

    @abc.abstractmethod
    def update(self, rowid: int, row: tuple) -> None:
        """Replace a live row in place."""

    @abc.abstractmethod
    def ingest_sorted(self, rows: list[tuple]) -> list[int]:
        """Direct-path ingest below the buffer pool; returns the rowids.

        Rows land at fresh ascending rowids with sequential page writes
        only.  The caller is responsible for WAL bypass and the sealing
        checkpoint.
        """

    @abc.abstractmethod
    def scan(self) -> Iterator[tuple[Sequence[int], Sequence[tuple]]]:
        """Every live row in storage order, a page at a time: yields
        ``(rowids, rows)``, two parallel non-empty sequences."""

    @abc.abstractmethod
    def read(self, rowid: int, sequential: bool = False) -> tuple:
        """The live row at ``rowid``; raises on a dead one, after
        charging the access that found it dead."""

    # -- probe surface (never charges) ----------------------------------

    @abc.abstractmethod
    def rows(self) -> Iterator[tuple[int, tuple]]:
        """:meth:`scan` without its cost, one ``(rowid, row)`` at a time."""

    @abc.abstractmethod
    def fetch(self, rowid: int) -> tuple:
        """:meth:`read` without its cost."""

    @abc.abstractmethod
    def get(self, rowid: int) -> tuple | None:
        """The row at ``rowid``, or ``None`` for a tombstone."""

    #: the buffer-pool file of a backend whose :meth:`read` of a live row
    #: is one buffer access of page ``rowid // rows_per_page`` of it and
    #: charges nothing else, so that a caller may replay a run of reads
    #: as their accesses (DESIGN.md §24) — such a backend also offers
    #: ``get_many(rowids)``, :meth:`get` of each; ``None``, the default,
    #: for a backend whose reads only :meth:`read` itself can price
    read_file: str | None = None

    # -- checkpoint / recovery ------------------------------------------

    @abc.abstractmethod
    def snapshot_slots(self) -> list[tuple | None]:
        """A copy of the full slot array (tombstones included)."""

    @abc.abstractmethod
    def load_slots(self, slots: list[tuple | None]) -> None:
        """Replace all slots wholesale (checkpoint-image restore; the
        caller charges the image read)."""

    @abc.abstractmethod
    def restore_slot(self, rowid: int, row: tuple) -> None:
        """Place ``row`` at exactly ``rowid`` (redo replay; charged)."""

    @abc.abstractmethod
    def put_slot(self, rowid: int, row: tuple | None) -> None:
        """Overwrite slot ``rowid`` (undo: tombstone or old image)."""

    # -- accounting -----------------------------------------------------

    @property
    @abc.abstractmethod
    def row_count(self) -> int: ...

    @property
    @abc.abstractmethod
    def page_count(self) -> int: ...

    @property
    @abc.abstractmethod
    def data_bytes(self) -> int: ...

    def page_of(self, rowid: int) -> int:
        """Page number holding ``rowid`` (keyspace position on the LSM)."""
        return rowid // self.rows_per_page

    @property
    def compaction_backlog(self) -> int:
        """Background reorganisation work pending (the monitor's gauge)."""
        return 0


class HeapFile(StorageBackend):
    """Slotted-row heap for one table.

    Row ids are stable list positions; deletes leave tombstones
    (``None``) that scans skip, mirroring how a real heap keeps page
    layout until reorganisation.  Every page touch goes through the
    shared buffer pool under the table's name; only the direct path
    writes to the disk model below it.
    """

    def __init__(self, schema: TableSchema, page_size_bytes: int,
                 buffer_pool: BufferPool, disk: DiskModel) -> None:
        self.schema = schema
        self._file = schema.name.lower()
        self._buffer = buffer_pool
        self._disk = disk
        self._rows: list[tuple | None] = []
        self._live = 0
        #: a read is one buffer access of its page (see :meth:`read`)
        self.read_file = self._file
        self.rows_per_page = max(1, page_size_bytes // schema.row_byte_width)
        #: bumped on every mutation; partition overlays key their caches
        #: on it to detect a stale rowid snapshot
        self.version = 0

    # -- charged surface --------------------------------------------------

    def append(self, row: tuple, bulk: bool = False) -> int:
        """Store ``row``: one page write, or — ``bulk`` — one fresh
        page write per filled page."""
        rowid = len(self._rows)
        self._rows.append(row)
        self._live += 1
        self.version += 1
        if not bulk:
            self._buffer.write(self._file, rowid // self.rows_per_page)
        elif rowid % self.rows_per_page == 0:
            self._buffer.write(self._file, rowid // self.rows_per_page,
                               fresh=True)
        return rowid

    def delete(self, rowid: int) -> None:
        if not self._slot_live(rowid):
            raise ExecutionError(f"delete of dead rowid {rowid}")
        self._rows[rowid] = None
        self._live -= 1
        self.version += 1
        self._buffer.write(self._file, rowid // self.rows_per_page)

    def update(self, rowid: int, row: tuple) -> None:
        if not self._slot_live(rowid):
            raise ExecutionError(f"update of dead rowid {rowid}")
        self._rows[rowid] = row
        self.version += 1
        self._buffer.write(self._file, rowid // self.rows_per_page)

    def ingest_sorted(self, rows: list[tuple]) -> list[int]:
        """Append ``rows`` as new extents: one sequential page write per
        page they start, straight to disk."""
        first_new_page = self.page_count
        first_rowid = len(self._rows)
        self._rows.extend(rows)
        self._live += len(rows)
        self.version += 1
        for _ in range(self.page_count - first_new_page):
            self._disk.write_page(sequential=True)
        # freshly written extents invalidate any cached pages
        self._buffer.invalidate_file(self._file)
        return list(range(first_rowid, len(self._rows)))

    def scan(self) -> Iterator[tuple[Sequence[int], Sequence[tuple]]]:
        """Heap-order scan: one sequential buffer access per page, paid
        before the page is handed out (an all-tombstone page is never
        charged and never handed out)."""
        access = self._buffer.access
        file_name = self._file
        rows_per_page = self.rows_per_page
        for first in range(0, len(self._rows), rows_per_page):
            rows = self._rows[first:first + rows_per_page]
            rowids: Sequence[int] = range(first, first + len(rows))
            if None in rows:
                rowids = [rowid for rowid, row in zip(rowids, rows)
                          if row is not None]
                if not rowids:
                    continue
                rows = [row for row in rows if row is not None]
            access(file_name, first // rows_per_page, sequential=True)
            yield rowids, rows

    def read(self, rowid: int, sequential: bool = False) -> tuple:
        """Row fetch by rowid: one buffer access (random unless the
        caller walks rowids in page order)."""
        self._buffer.access(self._file, rowid // self.rows_per_page,
                            sequential=sequential)
        row = self._rows[rowid] if 0 <= rowid < len(self._rows) else None
        if row is None:
            raise ExecutionError(f"fetch of dead rowid {rowid}")
        return row

    # -- probe surface ----------------------------------------------------

    def rows(self) -> Iterator[tuple[int, tuple]]:
        for rowid, row in enumerate(self._rows):
            if row is not None:
                yield rowid, row

    def fetch(self, rowid: int) -> tuple:
        if not self._slot_live(rowid):
            raise ExecutionError(f"fetch of dead rowid {rowid}")
        row = self._rows[rowid]
        assert row is not None
        return row

    def get(self, rowid: int) -> tuple | None:
        """The row at ``rowid``, or ``None`` for a tombstone.

        Partition scans visit rowids from a snapshot taken at partition
        build time; a row deleted since then is simply skipped, the way
        a scan skips a tombstoned slot.
        """
        if 0 <= rowid < len(self._rows):
            return self._rows[rowid]
        return None

    def get_many(self, rowids: Sequence[int]) -> list[tuple | None]:
        # no call per rowid: what a run of index entries costs (§24)
        slots, count = self._rows, len(self._rows)
        return [slots[rowid] if 0 <= rowid < count else None
                for rowid in rowids]

    def _slot_live(self, rowid: int) -> bool:
        return 0 <= rowid < len(self._rows) and self._rows[rowid] is not None

    # -- checkpoint / recovery ------------------------------------------

    def snapshot_slots(self) -> list[tuple | None]:
        return list(self._rows)

    def load_slots(self, slots: list[tuple | None]) -> None:
        self._rows = list(slots)
        self._live = sum(1 for row in self._rows if row is not None)
        self.version += 1

    def restore_slot(self, rowid: int, row: tuple) -> None:
        """Redo an insert at its original position.

        Replay must land rows at the rowids the original run assigned,
        or every later record's rowid references would dangle.  Gaps
        (possible when an undone loser left tombstones that a fresher
        checkpoint never captured) are padded with tombstones.
        """
        if rowid < len(self._rows):
            if self._rows[rowid] is not None:
                raise ExecutionError(
                    f"redo insert into occupied slot {rowid}"
                )
            self._rows[rowid] = row
        else:
            self._rows.extend([None] * (rowid - len(self._rows)))
            self._rows.append(row)
        self._live += 1
        self.version += 1
        self._buffer.write(self._file, rowid // self.rows_per_page)

    def put_slot(self, rowid: int, row: tuple | None) -> None:
        if not 0 <= rowid < len(self._rows):
            raise ExecutionError(f"put_slot of unknown rowid {rowid}")
        was_live = self._rows[rowid] is not None
        self._rows[rowid] = row
        self._live += (row is not None) - was_live
        self.version += 1

    # -- accounting -------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._live

    @property
    def page_count(self) -> int:
        """Pages the heap occupies (tombstones still take space)."""
        slots = len(self._rows)
        if slots == 0:
            return 0
        return -(-slots // self.rows_per_page)

    @property
    def data_bytes(self) -> int:
        return len(self._rows) * self.schema.row_byte_width
