"""SQL type system.

Types carry the on-disk byte width used by the storage accountant — the
paper's Table 2 (10x data inflation, 8x index inflation) is a direct
consequence of byte widths: SAP R/3 stores keys as 16-byte CHAR strings
where the TPC-D schema uses 4-byte integers.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass

from repro.engine.errors import TypeError_


class TypeKind(enum.Enum):
    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    CHAR = "CHAR"
    VARCHAR = "VARCHAR"
    DATE = "DATE"


#: per kind, the Python type whose instances ``SqlType.validate``
#: returns as they are (a ``str`` only within the declared length).
#: Exact types: ``bool`` is not ``int`` here, ``datetime`` is not ``date``.
_EXACT_TYPES = {
    TypeKind.INTEGER: int,
    TypeKind.DECIMAL: float,
    TypeKind.CHAR: str,
    TypeKind.VARCHAR: str,
    TypeKind.DATE: datetime.date,
}


@dataclass(frozen=True)
class SqlType:
    """A SQL column type with storage width semantics.

    ``length`` is the declared length for CHAR/VARCHAR and ignored for
    the fixed-width types.  ``scale`` is only meaningful for DECIMAL.
    """

    kind: TypeKind
    length: int = 0
    scale: int = 0

    # -- constructors -------------------------------------------------

    @staticmethod
    def integer() -> "SqlType":
        return SqlType(TypeKind.INTEGER)

    @staticmethod
    def decimal() -> "SqlType":
        """DECIMAL(15,2), the one decimal the schemas use."""
        return SqlType(TypeKind.DECIMAL, length=15, scale=2)

    @staticmethod
    def char(length: int) -> "SqlType":
        return SqlType(TypeKind.CHAR, length=length)

    @staticmethod
    def varchar(length: int) -> "SqlType":
        return SqlType(TypeKind.VARCHAR, length=length)

    @staticmethod
    def date() -> "SqlType":
        return SqlType(TypeKind.DATE)

    # -- storage ------------------------------------------------------

    @property
    def byte_width(self) -> int:
        """On-disk width in bytes (average width for VARCHAR)."""
        if self.kind is TypeKind.INTEGER:
            return 4
        if self.kind is TypeKind.DECIMAL:
            return 8
        if self.kind is TypeKind.CHAR:
            return self.length
        if self.kind is TypeKind.VARCHAR:
            # Assume half-full variable strings plus a 2-byte length.
            return max(1, self.length // 2) + 2
        if self.kind is TypeKind.DATE:
            return 4
        raise AssertionError(f"unhandled kind {self.kind}")

    # -- value handling ------------------------------------------------

    @property
    def exact_type(self) -> type:
        """``type(value) is exact_type`` (and, for a string,
        ``len(value) <= length``) means ``validate(value) is value``:
        the test a compiled row validator makes instead of the call."""
        return _EXACT_TYPES[self.kind]

    def validate(self, value: object) -> object:
        """Coerce/validate a Python value for this type; None passes."""
        if value is None:
            return None
        if self.kind is TypeKind.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError_(f"expected int, got {value!r}")
            return value
        if self.kind is TypeKind.DECIMAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError_(f"expected numeric, got {value!r}")
            return float(value)
        if self.kind in (TypeKind.CHAR, TypeKind.VARCHAR):
            if not isinstance(value, str):
                raise TypeError_(f"expected str, got {value!r}")
            if self.kind is TypeKind.CHAR and len(value) > self.length:
                raise TypeError_(
                    f"string of length {len(value)} exceeds CHAR({self.length})"
                )
            if self.kind is TypeKind.VARCHAR and len(value) > self.length:
                raise TypeError_(
                    f"string of length {len(value)} exceeds VARCHAR({self.length})"
                )
            return value
        if self.kind is TypeKind.DATE:
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                return datetime.date.fromisoformat(value)
            raise TypeError_(f"expected date, got {value!r}")
        raise AssertionError(f"unhandled kind {self.kind}")

    def __str__(self) -> str:
        if self.kind in (TypeKind.CHAR, TypeKind.VARCHAR):
            return f"{self.kind.value}({self.length})"
        if self.kind is TypeKind.DECIMAL:
            return f"DECIMAL({self.length},{self.scale})"
        return self.kind.value
