"""Table schemas: columns, keys, and row width accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.engine.errors import CatalogError, ConstraintError
from repro.engine.types import SqlType


@dataclass(frozen=True)
class Column:
    """A named, typed column; ``nullable`` defaults to True, and a
    row with NULL in a ``nullable=False`` column does not validate."""

    name: str
    sql_type: SqlType
    nullable: bool = True

    @property
    def byte_width(self) -> int:
        return self.sql_type.byte_width


# Per-row storage overhead (slot pointer + row header), in bytes.
ROW_OVERHEAD_BYTES = 8


@dataclass
class TableSchema:
    """Schema of one physical table.

    ``primary_key`` lists column names forming the primary key; an empty
    list means no primary key (allowed for e.g. staging tables).
    """

    name: str
    columns: list[Column]
    primary_key: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            lowered = col.name.lower()
            if lowered in seen:
                raise CatalogError(f"duplicate column {col.name} in {self.name}")
            seen.add(lowered)
        for key_col in self.primary_key:
            if not self.has_column(key_col):
                raise CatalogError(
                    f"primary key column {key_col} not in table {self.name}"
                )
        self._index_by_name = {
            col.name.lower(): i for i, col in enumerate(self.columns)
        }

    # -- lookups -------------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name.lower() in {c.name.lower() for c in self.columns}

    def column_index(self, name: str) -> int:
        try:
            return self._index_by_name[name.lower()]
        except KeyError:
            raise CatalogError(f"no column {name} in table {self.name}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    # -- storage accounting ---------------------------------------------

    @property
    def row_byte_width(self) -> int:
        """On-disk bytes per row including per-row overhead."""
        return sum(c.byte_width for c in self.columns) + ROW_OVERHEAD_BYTES

    def validate_row(self, row: tuple) -> tuple:
        """Type-check and coerce a full-width row tuple."""
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row width {len(row)} != {len(self.columns)} for {self.name}"
            )
        return self._validate_cells(row)

    @cached_property
    def _validate_cells(self):
        """The row validator, compiled at the schema's first row.

        One unrolled function: per cell the exact-type (and string
        length) test under which ``SqlType.validate`` would return the
        value as it is.  Only a cell that fails the test is handed to
        ``SqlType.validate``, which alone defines coercion and errors —
        behind the NULL check of a ``NOT NULL`` column: NULL never
        passes an exact-type test, so a valid row pays nothing for it.
        """
        cells = [f"v{i}" for i in range(len(self.columns))]
        lines = ["def validate_cells(row):", f"    [{', '.join(cells)}] = row"]
        names: dict[str, object] = {}
        for cell, col in zip(cells, self.columns):
            sql_type = col.sql_type
            names[f"type_{cell}"] = sql_type.exact_type
            names[f"validate_{cell}"] = sql_type.validate if col.nullable \
                else self._not_null(col)
            test = f"type({cell}) is not type_{cell}"
            if sql_type.exact_type is str:
                test += f" or len({cell}) > {sql_type.length}"
            lines.append(f"    if {test}: {cell} = validate_{cell}({cell})")
        lines.append(f"    return ({''.join(c + ', ' for c in cells)})")
        exec("\n".join(lines), names)
        return names["validate_cells"]

    def _not_null(self, column: Column):
        """``SqlType.validate`` of a ``NOT NULL`` column: NULL raises."""
        validate = column.sql_type.validate
        where = f"{self.name.lower()}.{column.name.lower()}"

        def validate_not_null(value: object) -> object:
            if value is None:
                raise ConstraintError(f"NULL in NOT NULL column {where}")
            return validate(value)

        return validate_not_null
