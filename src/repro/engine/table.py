"""Physical table: storage backend + indexes + maintenance."""

from __future__ import annotations

from repro.engine.buffer import BufferPool
from repro.engine.errors import ConstraintError
from repro.engine.index import BTreeIndex
from repro.engine.lsm import LsmTree
from repro.engine.schema import TableSchema
from repro.engine.storage import HeapFile, StorageBackend
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams


class Table:
    """One physical table with its indexes.

    The storage backend prices its own reads and writes; the table
    orders them against index maintenance and counts tuples touched
    (``table.<name>.*``) so experiment reports can show
    operation-level breakdowns.
    """

    def __init__(
        self,
        schema: TableSchema,
        buffer_pool: BufferPool,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        params: SimParams,
        storage: str,
        disk: DiskModel,
    ) -> None:
        self.schema = schema
        self.name = schema.name.lower()
        self._buffer = buffer_pool
        self._counts = metrics.counts
        #: counter names, formatted once per table: the table counts
        #: per row, and so do direct-path load and whoever pulls rows
        #: out of ``store.scan()`` (``scanned_counter``, per row pulled)
        self.inserts_counter = f"table.{self.name}.inserts"
        self.deletes_counter = f"table.{self.name}.deletes"
        self.updates_counter = f"table.{self.name}.updates"
        self.scanned_counter = f"table.{self.name}.tuples_scanned"
        self.fetched_counter = f"table.{self.name}.tuples_fetched"
        self.storage = storage
        if storage == "lsm":
            self.store: StorageBackend = LsmTree(
                schema, params, clock, metrics, disk, buffer_pool
            )
        elif storage == "heap":
            self.store = HeapFile(schema, params.page_size_bytes,
                                  buffer_pool, disk)
        else:
            raise ValueError(f"unknown storage backend {storage!r}")
        self.indexes: dict[str, BTreeIndex] = {}
        self._pk_index: BTreeIndex | None = None
        #: the database's WriteAheadLog, or None when durability is off
        #: (the zero-touch default); set by Database at create time
        self.wal = None

    # -- index management -------------------------------------------------

    def attach_index(self, index: BTreeIndex, is_primary: bool = False) -> None:
        self.indexes[index.name.lower()] = index
        if is_primary:
            self._pk_index = index
        for rowid, row in self.store.rows():
            index.insert(row, rowid)

    def detach_index(self, name: str) -> None:
        index = self.indexes.pop(name.lower())
        if index is self._pk_index:
            self._pk_index = None
        self._buffer.invalidate_file(f"idx:{index.name}")

    @property
    def primary_index(self) -> BTreeIndex | None:
        return self._pk_index

    def index_on(self, column_name: str) -> BTreeIndex | None:
        """An index whose *first* key column is ``column_name``."""
        column_name = column_name.lower()
        for index in self.indexes.values():
            if index.column_names[0] == column_name:
                return index
        return None

    # -- DML ---------------------------------------------------------------

    def insert(self, row: tuple, bulk: bool = False) -> int:
        """Validate, check PK, store, maintain indexes.

        ``bulk`` marks bulk-load inserts: page writes amortise across a
        page (the loader charges one write per filled page instead of
        one per row), which is exactly the advantage SAP's batch input
        forgoes in the paper's Table 3.
        """
        row = self.schema.validate_row(row)
        pk = self._pk_index
        pk_pos = self._check_primary_key(row)
        # the charged probe above has just cleared the primary index
        self._check_unique(row, skip=pk)
        rowid = self.store.append(row, bulk)
        self._counts[self.inserts_counter] += 1
        for index in self.indexes.values():
            if index is pk:
                # the probe's descent is the insert's
                pk.insert(row, rowid, bulk, pk_pos)
            else:
                index.insert(row, rowid, bulk=bulk)
        if self.wal is not None:
            self.wal.log_insert(self.name, rowid, row,
                                self.store.page_of(rowid))
        return rowid

    def delete(self, rowid: int) -> None:
        row = self.store.fetch(rowid)
        for index in self.indexes.values():
            index.delete(row, rowid)
        self.store.delete(rowid)
        self._counts[self.deletes_counter] += 1
        if self.wal is not None:
            self.wal.log_delete(self.name, rowid, row,
                                self.store.page_of(rowid))

    def update(self, rowid: int, new_row: tuple) -> None:
        new_row = self.schema.validate_row(new_row)
        self._check_unique(new_row, own_rowid=rowid)
        old_row = self.store.fetch(rowid)
        for index in self.indexes.values():
            index.delete(old_row, rowid)
        for index in self.indexes.values():
            index.insert(new_row, rowid)
        # the store pays after index maintenance: the order is the model
        self.store.update(rowid, new_row)
        self._counts[self.updates_counter] += 1
        if self.wal is not None:
            self.wal.log_update(self.name, rowid, old_row, new_row,
                                self.store.page_of(rowid))

    def apply_insert(self, rowid: int, row: tuple) -> None:
        """Replay an insert at its original rowid (redo / undo-of-delete).

        Skips validation and the primary-key probe — the logged row
        already passed both on the original run — but charges the same
        physical costs (page write, index maintenance) a replayed
        insert pays during recovery.
        """
        self.store.restore_slot(rowid, row)
        self._counts[self.inserts_counter] += 1
        for index in self.indexes.values():
            index.insert(row, rowid)

    def _check_primary_key(self, row: tuple) -> int | None:
        """The charged primary-key probe; where the primary index will
        put the row (None without one)."""
        pk = self._pk_index
        if pk is None:
            return None
        key = pk.columns_of_row(row)
        if None in key:
            raise ConstraintError(
                f"NULL in primary key of {self.name}: {key}"
            )
        pos, rowids = pk.locate(key)
        if rowids:
            raise ConstraintError(
                f"duplicate primary key in {self.name}: {key}"
            )
        return pos

    def _check_unique(self, row: tuple, own_rowid: int | None = None,
                      skip: BTreeIndex | None = None) -> None:
        """Probe the unique indexes before the first mutation, so that
        a violating statement leaves store and indexes as they were.
        The probes are uncharged: a statement that passes costs what it
        cost before they existed."""
        for index in self.indexes.values():
            if index is not skip:
                index.check_unique(row, own_rowid)

    # -- access ---------------------------------------------------------------

    def fetch_row(self, rowid: int, sequential: bool = False) -> tuple:
        """Random row fetch (what unclustered index scans pay for)."""
        self._counts[self.fetched_counter] += 1
        return self.store.read(rowid, sequential)

    # -- accounting ---------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.store.row_count

    @property
    def data_bytes(self) -> int:
        return self.store.data_bytes

    @property
    def index_bytes(self) -> int:
        return sum(index.size_bytes for index in self.indexes.values())
