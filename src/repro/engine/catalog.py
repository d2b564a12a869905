"""Catalog: tables, views, indexes."""

from __future__ import annotations

from typing import Iterator

from repro.engine.buffer import BufferPool
from repro.engine.errors import CatalogError
from repro.engine.index import BTreeIndex
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams


class Catalog:
    """Name -> object registry; all names case-insensitive."""

    def __init__(
        self,
        buffer_pool: BufferPool,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        params: SimParams,
        storage: str,
        disk: DiskModel,
        segment_seq: Iterator[int],
    ) -> None:
        self._buffer = buffer_pool
        self._clock = clock
        self._metrics = metrics
        self._params = params
        #: backend every new table is created with ("heap" | "lsm")
        self.storage = storage
        self._disk = disk
        self._segment_seq = segment_seq
        self._tables: dict[str, Table] = {}
        # Views map a name to a parsed SELECT AST (repro.engine.sql.ast).
        self._views: dict[str, object] = {}

    # -- tables ----------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     attach_pk: bool = True) -> Table:
        """Create a table (and, by default, its primary-key index).

        Recovery passes ``attach_pk=False`` so it can load the heap's
        checkpointed slots first and build the index over them in one
        pass via :meth:`attach_primary`.
        """
        name = schema.name.lower()
        if name in self._tables or name in self._views:
            raise CatalogError(f"{schema.name} already exists")
        table = Table(schema, self._buffer, self._clock, self._metrics,
                      self._params, storage=self.storage, disk=self._disk,
                      segment_seq=self._segment_seq)
        self._tables[name] = table
        if schema.primary_key and attach_pk:
            self.attach_primary(table)
        return table

    def attach_primary(self, table: Table) -> BTreeIndex:
        """Build and attach the primary-key B-tree over the current heap."""
        pk = BTreeIndex(
            name=f"pk_{table.name}",
            schema=table.schema,
            column_names=list(table.schema.primary_key),
            unique=True,
            buffer_pool=self._buffer,
            clock=self._clock,
            metrics=self._metrics,
            traverse_cpu_s=self._params.index_traverse_s,
            page_size_bytes=self._params.page_size_bytes,
        )
        table.attach_index(pk, is_primary=True)
        return pk

    def drop_table(self, name: str) -> None:
        table = self.table(name)
        for index_name in list(table.indexes):
            table.detach_index(index_name)
        del self._tables[name.lower()]
        self._buffer.invalidate_file(name.lower())

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- indexes -----------------------------------------------------------

    def create_index(
        self,
        index_name: str,
        table_name: str,
        column_names: list[str],
        unique: bool = False,
    ) -> BTreeIndex:
        table = self.table(table_name)
        lowered = index_name.lower()
        for existing in self._tables.values():
            if lowered in existing.indexes:
                raise CatalogError(f"index {index_name} already exists")
        index = BTreeIndex(
            name=lowered,
            schema=table.schema,
            column_names=column_names,
            unique=unique,
            buffer_pool=self._buffer,
            clock=self._clock,
            metrics=self._metrics,
            traverse_cpu_s=self._params.index_traverse_s,
            page_size_bytes=self._params.page_size_bytes,
        )
        table.attach_index(index)
        return index

    def has_index(self, index_name: str) -> bool:
        lowered = index_name.lower()
        return any(lowered in table.indexes
                   for table in self._tables.values())

    def drop_index(self, index_name: str) -> None:
        lowered = index_name.lower()
        for table in self._tables.values():
            if lowered in table.indexes:
                table.detach_index(lowered)
                return
        raise CatalogError(f"no index {index_name}")

    # -- views -------------------------------------------------------------

    def create_view(self, name: str, select_ast: object) -> None:
        lowered = name.lower()
        if lowered in self._tables or lowered in self._views:
            raise CatalogError(f"{name} already exists")
        self._views[lowered] = select_ast

    def drop_view(self, name: str) -> None:
        try:
            del self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"no view {name}") from None

    def view(self, name: str) -> object:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"no view {name}") from None

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    @property
    def view_names(self) -> list[str]:
        return sorted(self._views)
