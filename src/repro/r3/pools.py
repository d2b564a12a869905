"""Physical storage of pool and cluster tables.

Pool tables share one physical container of shape
``(TABNAME, VARKEY, VARDATA)``: one physical row per logical row, the
logical key flattened into VARKEY and the remaining fields encoded
into VARDATA.

Cluster tables pack *many* logical rows that share a cluster key into
few physical rows of shape ``(MANDT, <cluster key>, PAGNO, VARDATA)``
— for KONV, all pricing conditions of one document land in one cluster
record, which is why the KONV cluster is only readable through the
application server and why converting it to a transparent table
(Release 3.0) triples its footprint.

Encoded rows can only be interpreted with the data dictionary; each
decoded logical row charges the app server's decode CPU cost.  The
dictionary generates one decoder and one encoder per table
(:func:`row_decoder`, :func:`row_encoder`).
"""

from __future__ import annotations

import datetime
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType, TypeKind
from repro.r3.errors import DDicError

if TYPE_CHECKING:  # the dictionary imports this module for its decoders
    from repro.r3.ddic import DDicField, DDicTable

FIELD_SEP = "\x1f"
ROW_SEP = "\x1e"
NULL_MARK = "\x00"

#: VARDATA capacity of one physical cluster page
CLUSTER_PAGE_CHARS = 3000


def encode_value(value: object) -> str:
    if value is None:
        return NULL_MARK
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


#: kind -> conversion of an encoded value; other kinds are the text itself
_CONVERSIONS = {TypeKind.INTEGER: int, TypeKind.DECIMAL: float,
                TypeKind.DATE: datetime.date.fromisoformat}


def decode_value(text: str, sql_type: SqlType) -> object:
    if text == NULL_MARK:
        return None
    return _CONVERSIONS.get(sql_type.kind, str)(text)


def encode_row(values: tuple) -> str:
    return FIELD_SEP.join([  # encode_value, inline
        NULL_MARK if v is None
        else v.isoformat() if isinstance(v, datetime.date) else str(v)
        for v in values])


def row_encoder(fields: Sequence[DDicField],
                table: str | None = None) -> Callable[[tuple], str]:
    """Generate ``encode(row)``, which is :func:`encode_row` for a row
    of ``fields``: per field the text of a value of the field's own
    type; any other value, NULL among them, goes to
    :func:`encode_value`."""
    cells = [f"v{i}" for i in range(len(fields))]
    # ``str`` of a date (not of a datetime) is its ISO format
    encoded = ", ".join(
        f"{v if t is str else f'str({v})'} "
        f"if type({v}) is {t.__name__} else encode_value({v})"
        for v, t in zip(cells, (f.sql_type.exact_type for f in fields)))
    source = (f"def encode(row):\n"
              f" try:\n"
              f"  [{', '.join(cells)}] = row\n"
              f" except ValueError:\n"
              f"  raise DDicError(f'{table or 'row'}: {{len(row)}} values, '\n"
              f"                  f'{len(fields)} fields expected') from None\n"
              f" return FIELD_SEP.join([{encoded}])\n")
    names = {"FIELD_SEP": FIELD_SEP, "encode_value": encode_value,
             "date": datetime.date, "DDicError": DDicError}
    exec(compile(source, "<generated>/repro/r3/pools.py", "exec"), names)
    return names["encode"]


def row_decoder(fields: Sequence[DDicField],
                table: str | None = None) -> Callable[[str], tuple]:
    """Generate ``decode(text)`` for one encoded row of ``fields``: the
    split parts unpacked, :func:`decode_value` inline per field.  The
    file name ends in this module's path (``perf/layers.py`` attributes
    profiled time by that ending)."""
    parts = [f"p{i}" for i in range(len(fields))]
    values = "".join(
        f"None if {p} == NULL_MARK else "
        f"{f'{k.name}({p})' if k in _CONVERSIONS else p}, "
        for p, k in zip(parts, (f.sql_type.kind for f in fields)))
    source = (f"def decode(text):\n"
              f" try:\n"
              f"  [{', '.join(parts)}] = text.split(FIELD_SEP)\n"
              f"  return ({values})\n"
              f" except ValueError:\n"
              f"  raise corrupt(text) from None\n")
    names = {"FIELD_SEP": FIELD_SEP, "NULL_MARK": NULL_MARK,
             "corrupt": lambda text: _corrupt(table, fields, text),
             **{kind.name: fn for kind, fn in _CONVERSIONS.items()}}
    exec(compile(source, "<generated>/repro/r3/pools.py", "exec"), names)
    return names["decode"]


def _corrupt(table: str | None, fields: Sequence[DDicField],
             text: str) -> DDicError:
    """Why ``text`` does not decode: wrong part count or a bad value."""
    parts = text.split(FIELD_SEP)
    if len(parts) != len(fields):
        return DDicError(f"corrupt encoded row: {len(parts)} parts, "
                         f"{len(fields)} fields expected")
    for part, f in zip(parts, fields):
        try:
            decode_value(part, f.sql_type)
        except ValueError:
            break
    where = f"{table}.{f.name}" if table else f.name
    return DDicError(f"corrupt encoded value {part!r} for field {where}")


def decode_row(text: str, fields: list[DDicField]) -> tuple:
    return row_decoder(fields)(text)


class PoolContainer:
    """One physical pool table holding several logical pool tables."""

    def __init__(self, name: str) -> None:
        self.name = name.lower()

    def physical_schema(self) -> TableSchema:
        return TableSchema(self.name, [
            Column("tabname", SqlType.char(16), nullable=False),
            Column("varkey", SqlType.varchar(64), nullable=False),
            Column("vardata", SqlType.varchar(512), nullable=False),
        ], primary_key=["tabname", "varkey"])

    @staticmethod
    def varkey_of(table: DDicTable, row: tuple) -> str:
        """Flatten MANDT + logical key fields into the VARKEY string.

        ``row`` is the full logical row *including* the leading MANDT.
        """
        positions = table.positions
        return "|".join([encode_value(row[0])] + [
            encode_value(row[1 + positions[f.name.lower()]])
            for f in table.key_fields
        ])

    def physical_row(self, table: DDicTable, row: tuple) -> tuple:
        return (table.name, self.varkey_of(table, row),
                table.encode_pool_row(row))

    @staticmethod
    def decode(table: DDicTable, vardata: str) -> tuple:
        """Logical row (incl. MANDT) from a VARDATA string."""
        return table.decode_pool_row(vardata)


class ClusterContainer:
    """One physical cluster table for one (or more) logical tables.

    ``key_fields`` are the cluster key columns *after* MANDT; the
    physical primary key is (MANDT, <key fields>, PAGNO).
    """

    def __init__(self, name: str, key_fields: list[DDicField]) -> None:
        self.name = name.lower()
        self.key_fields = key_fields

    def physical_schema(self) -> TableSchema:
        columns = [Column("mandt", SqlType.char(3), nullable=False)]
        columns.extend(
            Column(f.name.lower(), f.sql_type, nullable=False)
            for f in self.key_fields
        )
        columns.append(Column("pagno", SqlType.integer(), nullable=False))
        columns.append(
            Column("vardata", SqlType.varchar(CLUSTER_PAGE_CHARS),
                   nullable=False)
        )
        keys = ["mandt"] + [f.name.lower() for f in self.key_fields] + \
            ["pagno"]
        return TableSchema(self.name, columns, primary_key=keys)

    def physical_rows(self, mandt: str, cluster_key: tuple,
                      logical_rows: list[tuple],
                      encode: Callable[[tuple], str] = encode_row,
                      ) -> list[tuple]:
        """Pack logical rows (without MANDT) into physical page rows;
        ``encode`` is the rows' table's ``encode_cluster_row``."""
        pages: list[tuple] = []
        current: list[str] = []
        current_len = 0
        pagno = 0

        def flush() -> None:
            nonlocal pagno, current, current_len
            if current:
                pages.append(
                    (mandt, *cluster_key, pagno, ROW_SEP.join(current))
                )
                pagno += 1
                current = []
                current_len = 0

        for row in logical_rows:
            encoded = encode(row)
            if current_len + len(encoded) + 1 > CLUSTER_PAGE_CHARS:
                flush()
            current.append(encoded)
            current_len += len(encoded) + 1
        flush()
        return pages

    @staticmethod
    def decode_page(table: DDicTable, vardata: str) -> list[tuple]:
        """Logical rows (without MANDT) from one physical page."""
        if not vardata:
            return []
        return list(map(table.decode_cluster_row, vardata.split(ROW_SEP)))
