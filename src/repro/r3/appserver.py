"""The R/3 system facade: application server + back-end RDBMS.

An :class:`R3System` owns a back-end :class:`~repro.engine.Database`
(the second-party RDBMS of the paper), the data dictionary, the
database interface, the table buffers and the two query interfaces
(Open SQL / Native SQL).  App server and RDBMS share one simulated
clock, as in the paper's single-machine configuration.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable

from repro.engine.database import Database
from repro.r3.buffers import TableBufferManager
from repro.r3.dbif import DatabaseInterface
from repro.r3.ddic import DataDictionary, DDicField, DDicTable, TableKind
from repro.r3.errors import DDicError
from repro.r3.pools import ClusterContainer, PoolContainer
from repro.sim.clock import ClockSpan
from repro.sim.params import SimParams

DEFAULT_CLIENT = "301"


class R3Version(enum.Enum):
    """The two releases the paper measures."""

    V22 = "2.2G"
    V30 = "3.0E"

    @property
    def open_sql_joins(self) -> bool:
        """3.0 Open SQL can express joins (pushed to the RDBMS)."""
        return self is R3Version.V30

    @property
    def open_sql_aggregates(self) -> bool:
        """3.0 Open SQL can push *simple* single-attribute aggregates."""
        return self is R3Version.V30

    @property
    def can_convert_cluster(self) -> bool:
        """3.0 allows converting cluster tables to transparent."""
        return self is R3Version.V30


class R3System:
    #: serving requests; only a cluster ever takes a server down
    up = True

    def __init__(
        self,
        version: R3Version = R3Version.V22,
        params: SimParams | None = None,
        client: str = DEFAULT_CLIENT,
        degree: int = 1,
        durability: str = "off",
        store=None,
        database: Database | None = None,
        name: str = "as0",
        storage: str = "heap",
    ) -> None:
        self.version = version
        #: this application server's instance name (``as0`` for the
        #: classic single-server configuration; cluster secondaries get
        #: ``as1``, ``as2``, ...).  Monitor gauges of secondary servers
        #: are suffixed with the name so they never collide.
        self.name = name
        #: gauge-name suffix ("" for the default server, ".asN" else)
        self.gauge_suffix = "" if name == "as0" else f".{name}"
        #: optional BufferCoherence client (multi-server installations
        #: only; see :mod:`repro.r3.cluster`)
        self.coherence = None
        if database is not None:
            # Attach to an existing engine (typically one that just ran
            # crash recovery via Database.open); schema re-activation is
            # idempotent against its recovered catalog.
            self.params = database.params
            self.db = database
        else:
            self.params = params or SimParams()
            self.db = Database(params=self.params, name="sapdb",
                               degree=degree, durability=durability,
                               store=store, storage=storage)
        self.clock = self.db.clock
        self.metrics = self.db.metrics
        #: shared hierarchical tracer (one tree across all tiers)
        self.tracer = self.db.tracer
        #: shared workload monitor (one STAT/gauge stream across tiers)
        self.monitor = self.db.monitor
        self.client = client
        self.ddic = DataDictionary()
        #: optional FaultInjector (see :meth:`attach_faults`)
        self.faults = None
        self.dbif = DatabaseInterface(self)
        self.monitor.attach_source(
            f"breaker_open{self.gauge_suffix}",
            lambda: {"closed": 0.0, "half_open": 0.5,
                     "open": 1.0}[self.dbif.breaker.state.value])
        self.buffers = TableBufferManager(self)
        self.pools: dict[str, PoolContainer] = {}
        self.clusters: dict[str, ClusterContainer] = {}
        # Late imports to avoid cycles; these are the query interfaces.
        from repro.r3.nativesql import NativeSql
        from repro.r3.opensql.executor import OpenSql

        self.open_sql = OpenSql(self)
        self.native_sql = NativeSql(self)

    # -- measurement ---------------------------------------------------------

    def measure(self) -> ClockSpan:
        """Open a simulated-time measurement window."""
        return self.clock.span()

    # -- fault injection ----------------------------------------------------

    def attach_faults(self, profile_or_injector) -> "object":
        """Attach a fault injector to every tier of this system.

        Accepts a :class:`~repro.sim.faults.FaultProfile` (an injector
        is built on this system's clock/metrics) or a ready-made
        :class:`~repro.sim.faults.FaultInjector`.  Returns the injector.
        """
        from repro.sim.faults import FaultInjector, FaultProfile

        if isinstance(profile_or_injector, FaultProfile):
            injector = FaultInjector(profile_or_injector, self.clock,
                                     self.metrics)
        else:
            injector = profile_or_injector
        self.faults = injector
        self.db.disk.faults = injector
        if self.db.wal is not None:
            self.db.wal.faults = injector
        return injector

    def detach_faults(self) -> None:
        self.faults = None
        self.db.disk.faults = None
        if self.db.wal is not None:
            self.db.wal.faults = None

    # -- cost charging -------------------------------------------------------

    def charge_abap(self, rows: int = 1) -> None:
        """ABAP interpreter cost for processing ``rows`` records."""
        if rows:
            self.clock.charge(self.params.abap_row_s * rows)
            self.metrics.count("abap.rows_processed", rows)

    def charge_abap_each(self, rows: int) -> None:
        """``rows`` calls of ``charge_abap(1)`` in one: a run of equal
        additions and one count (DESIGN.md §24)."""
        self.clock.charge_each(self.params.abap_row_s, rows,
                               self.metrics.counts, "abap.rows_processed")

    def charge_decode_each(self, rows: int) -> None:
        """Pool/cluster decode cost for ``rows`` logical records: one
        addition of ``pool_decode_s`` each, as :meth:`charge_abap_each`."""
        self.clock.charge_each(self.params.pool_decode_s, rows,
                               self.metrics.counts, "abap.rows_decoded")

    def decode_each(self, decode: Callable[[str], tuple],
                    records: Iterable[str]) -> list[tuple]:
        """``decode`` of each pool record, each charged a decode before
        it is decoded: one run, or, when record *i* raises, the *i* + 1
        records up to it."""
        decoded: list[tuple] = []
        try:
            for record in records:
                decoded.append(decode(record))
        except BaseException:
            self.charge_decode_each(len(decoded) + 1)
            raise
        self.charge_decode_each(len(decoded))
        return decoded

    # -- schema activation -----------------------------------------------------

    def define_pool(self, name: str) -> PoolContainer:
        container = PoolContainer(name)
        self.pools[container.name] = container
        # Idempotent against a crash-recovered engine whose catalog
        # already carries the physical container.
        if not self.db.catalog.has_table(container.name):
            self.db.create_table(container.physical_schema())
        return container

    def define_cluster(self, name: str,
                       key_fields: list[DDicField]) -> ClusterContainer:
        container = ClusterContainer(name, key_fields)
        self.clusters[container.name] = container
        if not self.db.catalog.has_table(container.name):
            self.db.create_table(container.physical_schema())
        return container

    def activate_table(self, table: DDicTable) -> DDicTable:
        """Register a logical table and create transparent storage."""
        self.ddic.define(table)
        if table.kind is TableKind.TRANSPARENT:
            if not self.db.catalog.has_table(table.name):
                self.db.create_table(table.to_table_schema())
        elif table.kind is TableKind.POOL:
            if table.container not in self.pools:
                raise DDicError(
                    f"{table.name}: pool container {table.container} missing"
                )
        elif table.container not in self.clusters:
            raise DDicError(
                f"{table.name}: cluster container {table.container} missing"
            )
        return table

    # -- buffer coherence ----------------------------------------------------

    def note_write(self, table_name: str) -> None:
        """Record a write to ``table_name`` for buffer coherence.

        The writing server invalidates its *own* table buffer
        synchronously (R/3 semantics: local reads see local writes
        immediately).  In a multi-server cluster the write additionally
        appends a DDLOG invalidation record that peer servers replay on
        their sync period — see :mod:`repro.r3.cluster`.
        """
        self.buffers.invalidate(table_name)
        if self.coherence is not None:
            self.coherence.note_write(table_name)

    # -- logical writes (used by batch input and the loader) ---------------------

    def render_rows(self, table_name: str, rows: list[tuple],
                    cluster_key: tuple | None = None,
                    ) -> tuple[str, list[tuple]]:
        """Logical rows (without MANDT) of one table in physical form:
        the name of the table that stores them and the rows it stores.

        A transparent table stores each row behind its MANDT, a pool
        container one VARKEY/VARDATA row per logical row.  The rows of
        a cluster table are one cluster record: they need its
        ``cluster_key`` and come back packed into pages — or, once the
        table has been converted to transparent (3.0), row by row.
        """
        table = self.ddic.lookup(table_name)
        if table.kind is TableKind.CLUSTER:
            if cluster_key is None:
                raise DDicError(
                    f"{table.name}: cluster rows must be written per "
                    f"cluster (insert_cluster)"
                )
            container = self.clusters[table.container]
            return container.name, container.physical_rows(
                self.client, cluster_key, rows, table.encode_cluster_row)
        client = self.client
        full_rows = [(client, *row) for row in rows]
        if table.kind is TableKind.TRANSPARENT:
            return table.name, full_rows
        if cluster_key is not None:
            raise DDicError(f"{table.name} is not a cluster table")
        container = self.pools[table.container]
        return container.name, [container.physical_row(table, row)
                                for row in full_rows]

    def insert_logical(self, table_name: str, row: tuple,
                       bulk: bool = False) -> tuple[str, int]:
        """Insert one logical row (without MANDT) into a table.

        Returns the physical ``(table_name, rowid)`` of the stored row
        so callers that need crash rollback (batch input) can undo it.
        """
        return self.insert_logical_rows(table_name, [row], bulk)[0]

    def insert_logical_rows(self, table_name: str, rows: list[tuple],
                            bulk: bool = False) -> list[tuple[str, int]]:
        """Insert logical rows (without MANDT) of one table: rendered,
        stored and noted as one batch.  Returns their physical
        ``(table_name, rowid)`` pairs.

        The table buffer is invalidated once per batch that stored a
        row, also when a later row raised.  With a coherence layer
        every row's write is a DDLOG append, charged before the next
        row is stored: there the batch is row by row.
        """
        physical_name, rendered = self.render_rows(table_name, rows)
        physical = self.db.catalog.table(physical_name)
        name = table_name.lower()
        if self.coherence is not None:
            rowids = []
            for row in rendered:
                rowids += physical.insert_rows((row,), bulk)
                self.note_write(name)
        else:
            stored = physical.row_count
            try:
                rowids = physical.insert_rows(rendered, bulk)
            finally:
                if physical.row_count != stored:
                    self.note_write(name)
        return [(physical_name, rowid) for rowid in rowids]

    def insert_cluster(self, table_name: str, cluster_key: tuple,
                       rows: list[tuple],
                       bulk: bool = False) -> list[tuple[str, int]]:
        """Write all logical rows of one cluster record.

        After a table has been converted to transparent (3.0), the same
        document-level write degrades gracefully to row-wise inserts.
        Returns the physical ``(table_name, rowid)`` pairs written.
        """
        if self.ddic.lookup(table_name).kind is TableKind.TRANSPARENT:
            return self.insert_logical_rows(table_name, rows, bulk)
        physical_name, pages = self.render_rows(table_name, rows,
                                                cluster_key)
        rowids = self.db.catalog.table(physical_name).insert_rows(
            pages, bulk)
        self.note_write(table_name.lower())
        return [(physical_name, rowid) for rowid in rowids]

    def rollback_rows(self, undo: list[tuple[str, int]]) -> int:
        """Undo physical inserts (crash recovery / failed batch).

        Deletes in reverse insertion order, charging the per-row undo
        cost plus the regular delete I/O; invalidates app-server
        buffers once per touched table.  Returns the number of rows
        removed.
        """
        touched: set[str] = set()
        for physical_name, rowid in reversed(undo):
            self.db.catalog.table(physical_name).delete(rowid)
            self.clock.charge(self.params.rollback_row_s)
            touched.add(physical_name)
        for name in touched:
            self.note_write(name)
        if undo:
            self.metrics.count("recovery.rows_rolled_back", len(undo))
        return len(undo)

    # -- conversion (2.2 pool only; 3.0 any; used by the upgrade) ------------------

    def convert_table(self, table_name: str) -> None:
        """Convert an encapsulated table to a transparent table.

        Reads every logical row through the decoder, creates the
        transparent incarnation, and reinserts — an expensive, offline
        reorganisation, exactly as the paper describes for KONV.
        """
        table = self.ddic.lookup(table_name)
        if table.kind is TableKind.TRANSPARENT:
            raise DDicError(f"{table_name} is already transparent")
        if table.kind is TableKind.CLUSTER and \
                not self.version.can_convert_cluster:
            raise DDicError(
                "cluster tables can only be converted in Release 3.0"
            )
        rows = list(self._read_encapsulated_all(table))
        container_name = table.container
        self.ddic.convert_to_transparent(table.name)
        self.db.create_table(table.to_table_schema())
        self.db.catalog.table(table.name).insert_rows(rows, bulk=True)
        self.metrics.count(f"r3.converted.{table.name}")
        # The old encoded rows stay in the shared container for other
        # logical tables; purge this table's rows from a pool container.
        if container_name in self.pools:
            self.db.execute(
                f"DELETE FROM {container_name} WHERE tabname = ?",
                (table.name,),
            )

    def _read_encapsulated_all(self, table: DDicTable):
        """Decode every logical row (incl. MANDT) of a pool/cluster table."""
        if table.kind is TableKind.POOL:
            container = self.pools[table.container]
            result = self.dbif.execute_param(
                f"SELECT vardata FROM {container.name} WHERE tabname = ?",
                (table.name,),
            )
            yield from self.decode_each(
                table.decode_pool_row,
                (vardata for (vardata,) in result.rows))
        else:
            container = self.clusters[table.container]
            result = self.dbif.execute_param(
                f"SELECT mandt, vardata FROM {container.name}", ()
            )
            for mandt, vardata in result.rows:
                page = ClusterContainer.decode_page(table, vardata)
                self.charge_decode_each(len(page))  # a page is decoded whole
                for logical in page:
                    yield (mandt,) + logical

    # -- introspection ------------------------------------------------------------

    def table_count(self) -> int:
        return len(self.ddic.tables)
