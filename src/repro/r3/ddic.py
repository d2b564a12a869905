"""The SAP R/3 data dictionary (DDIC).

Every logical SAP table is registered here with one of three kinds:

* ``TRANSPARENT`` — mapped 1:1 onto an RDBMS table (client column
  MANDT first, primary key = MANDT + declared keys),
* ``POOL`` — bundled with other pool tables into one shared physical
  pool table; logical rows are encoded into a VARDATA string,
* ``CLUSTER`` — logically related rows packed into physical cluster
  rows keyed by the cluster key.

Pool and cluster tables are *encapsulated*: they can only be read
through Open SQL (the app server decodes them using the dictionary);
EXEC SQL cannot see them.  Release 3.0 allows converting any
encapsulated table to transparent — the KONV conversion is the paper's
single most consequential schema change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.r3.errors import DDicError
from repro.r3.pools import row_decoder, row_encoder

#: the client column present on every client-dependent SAP table
MANDT = "mandt"
MANDT_TYPE = SqlType.char(3)


class TableKind(enum.Enum):
    TRANSPARENT = "transparent"
    POOL = "pool"
    CLUSTER = "cluster"


@dataclass
class DDicField:
    name: str
    sql_type: SqlType
    key: bool = False


@dataclass
class DDicTable:
    """One logical SAP table definition.  ``fields`` is fixed (a
    conversion flips ``kind`` and ``container`` only): what derives from
    it — names, key, positions, row codecs — is derived once."""

    name: str
    kind: TableKind
    fields: list[DDicField]
    #: physical container for POOL/CLUSTER kinds
    container: str | None = None
    #: prefix of the key that forms the cluster key (CLUSTER only)
    cluster_key_length: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        if self.kind is not TableKind.TRANSPARENT and not self.container:
            raise DDicError(f"{self.name}: encapsulated table needs container")
        if self.kind is TableKind.CLUSTER and self.cluster_key_length < 1:
            raise DDicError(f"{self.name}: cluster needs a cluster key")

    @cached_property
    def key_fields(self) -> list[DDicField]:
        return [f for f in self.fields if f.key]

    @cached_property
    def field_names(self) -> list[str]:
        return [f.name.lower() for f in self.fields]

    @cached_property
    def positions(self) -> dict[str, int]:
        """Lower-case field name -> position in a logical row."""
        return {name: i for i, name in enumerate(self.field_names)}

    @cached_property
    def decode_cluster_row(self) -> Callable[[str], tuple]:
        """Encoded row -> logical row; cluster rows carry no MANDT."""
        return row_decoder(self.fields, self.name)

    @cached_property
    def decode_pool_row(self) -> Callable[[str], tuple]:
        """Encoded row -> logical row with its leading MANDT."""
        return row_decoder([DDicField(MANDT, MANDT_TYPE)] + self.fields,
                           self.name)

    @cached_property
    def encode_cluster_row(self) -> Callable[[tuple], str]:
        """Logical row -> encoded row; cluster rows carry no MANDT."""
        return row_encoder(self.fields, self.name)

    @cached_property
    def encode_pool_row(self) -> Callable[[tuple], str]:
        """Logical row with its leading MANDT -> encoded row."""
        return row_encoder([DDicField(MANDT, MANDT_TYPE)] + self.fields,
                           self.name)

    @property
    def encapsulated(self) -> bool:
        return self.kind is not TableKind.TRANSPARENT

    def to_table_schema(self) -> TableSchema:
        """The RDBMS schema of the table's transparent incarnation."""
        columns = [Column(MANDT, MANDT_TYPE, nullable=False)]
        columns.extend(
            Column(f.name.lower(), f.sql_type, nullable=True)
            for f in self.fields
        )
        primary_key = [MANDT] + [f.name.lower() for f in self.key_fields]
        return TableSchema(self.name, columns, primary_key=primary_key)


@dataclass
class DataDictionary:
    """Registry of logical tables; activation creates physical storage."""

    tables: dict[str, DDicTable] = field(default_factory=dict)

    def define(self, table: DDicTable) -> DDicTable:
        if table.name in self.tables:
            raise DDicError(f"table {table.name} already defined")
        self.tables[table.name] = table
        return table

    def lookup(self, name: str) -> DDicTable:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise DDicError(f"table {name} not in data dictionary") from None

    def has(self, name: str) -> bool:
        return name.lower() in self.tables

    def count_by_kind(self) -> dict[TableKind, int]:
        out = {kind: 0 for kind in TableKind}
        for table in self.tables.values():
            out[table.kind] += 1
        return out

    def convert_to_transparent(self, name: str) -> DDicTable:
        """Mark a pool/cluster table transparent (3.0 feature).

        Physical data migration is the app server's job
        (:meth:`repro.r3.appserver.R3System.convert_table`); this only
        flips the dictionary entry.
        """
        table = self.lookup(name)
        if table.kind is TableKind.TRANSPARENT:
            raise DDicError(f"{name} is already transparent")
        table.kind = TableKind.TRANSPARENT
        table.container = None
        table.cluster_key_length = 0
        return table
