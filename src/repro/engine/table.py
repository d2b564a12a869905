"""Physical table: storage backend + indexes + maintenance."""

from __future__ import annotations

from typing import Iterable

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
        #: what :meth:`insert_rows` asks of the indexes (the unique probes
        #: and the inserts), resolved by the first batch after an index
        #: came or went
        self._insert_plan: tuple[list, list] | None = None
        #: the database's WriteAheadLog, or None when durability is off
        #: (the zero-touch default); set by Database at create time
        self.wal = None

    # -- index management -------------------------------------------------

    def attach_index(self, index: BTreeIndex, is_primary: bool = False) -> None:
        self.indexes[index.name.lower()] = index
        if is_primary:
            self._pk_index = index
        self._insert_plan = None
        for rowid, row in self.store.rows():
            index.insert(row, rowid)

    def detach_index(self, name: str) -> None:
        index = self.indexes.pop(name.lower())
        if index is self._pk_index:
            self._pk_index = None
        self._insert_plan = None
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
        """:meth:`insert_rows` of one row."""
        return self.insert_rows((row,), bulk)[0]

    def insert_rows(self, rows: Iterable[tuple],
                    bulk: bool = False) -> list[int]:
        """Validate, check keys, store, maintain indexes and log each
        row, in that order and row by row; returns the rowids.

        What is per table is looked up once per batch; the charges fall
        where a loop of one-row inserts puts them (the order is the
        model), and a row that fails leaves the rows before it in place
        and nothing of its own.

        ``bulk`` marks bulk-load inserts: page writes amortise across a
        page (the loader charges one write per filled page instead of
        one per row), which is exactly the advantage SAP's batch input
        forgoes in the paper's Table 3.
        """
        pk = self._pk_index
        if self._insert_plan is None:
            # the charged probe clears the primary index; the others are
            # probed before the first mutation, so that a violating row
            # leaves store and indexes as they were, and uncharged: a row
            # that passes costs what it cost before the probes existed
            self._insert_plan = (
                [index.check_unique for index in self.indexes.values()
                 if index.unique and index is not pk],
                [(index.insert, index is pk)
                 for index in self.indexes.values()])
        unique_checks, index_inserts = self._insert_plan
        if pk is not None:
            pk_columns, locate = pk.columns_of_row, pk.locate
        validate_row = self.schema.validate_row
        append = self.store.append
        counts, counter = self._counts, self.inserts_counter
        wal, name, page_of = self.wal, self.name, self.store.page_of
        pos = None
        rowids = []
        for row in rows:
            row = validate_row(row)
            if pk is not None:
                key = pk_columns(row)
                if None in key:
                    raise ConstraintError(
                        f"NULL in primary key of {name}: {key}"
                    )
                pos, found = locate(key)
                if found:
                    raise ConstraintError(
                        f"duplicate primary key in {name}: {key}"
                    )
            for check_unique in unique_checks:
                check_unique(row)
            rowid = append(row, bulk)
            counts[counter] += 1
            for insert, is_primary in index_inserts:
                if is_primary:
                    # the probe's descent is the insert's
                    insert(row, rowid, bulk, pos)
                else:
                    insert(row, rowid, bulk)
            if wal is not None:
                wal.log_insert(name, rowid, row, page_of(rowid))
            rowids.append(rowid)
        return rowids

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
        pk = self._pk_index
        if pk is not None:
            key = pk.columns_of_row(new_row)
            if None in key:
                raise ConstraintError(
                    f"NULL in primary key of {self.name}: {key}"
                )
        # probed before the first mutation, uncharged (see insert_rows)
        for index in self.indexes.values():
            index.check_unique(new_row, rowid)
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
