import datetime

import pytest

from repro.engine.errors import TypeError_
from repro.engine.types import SqlType, TypeKind


class TestByteWidths:
    def test_integer_is_four_bytes(self):
        assert SqlType.integer().byte_width == 4

    def test_decimal_is_eight_bytes(self):
        assert SqlType.decimal().byte_width == 8

    def test_char_width_is_declared_length(self):
        assert SqlType.char(18).byte_width == 18

    def test_varchar_assumes_half_full(self):
        assert SqlType.varchar(100).byte_width == 52

    def test_date_is_four_bytes(self):
        assert SqlType.date().byte_width == 4

    def test_sap_string_key_vs_integer_key(self):
        """The paper's index-inflation root cause in one assertion."""
        assert SqlType.char(16).byte_width == 4 * SqlType.integer().byte_width


class TestValidation:
    def test_none_passes_every_type(self):
        for sql_type in (SqlType.integer(), SqlType.char(3),
                         SqlType.decimal(), SqlType.date()):
            assert sql_type.validate(None) is None

    def test_integer_accepts_int(self):
        assert SqlType.integer().validate(42) == 42

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeError_):
            SqlType.integer().validate(True)

    def test_integer_rejects_string(self):
        with pytest.raises(TypeError_):
            SqlType.integer().validate("42")

    def test_decimal_coerces_int_to_float(self):
        value = SqlType.decimal().validate(5)
        assert value == 5.0 and isinstance(value, float)

    def test_char_length_enforced(self):
        with pytest.raises(TypeError_):
            SqlType.char(3).validate("abcd")

    def test_char_accepts_shorter(self):
        assert SqlType.char(5).validate("ab") == "ab"

    def test_varchar_length_enforced(self):
        with pytest.raises(TypeError_):
            SqlType.varchar(2).validate("abc")

    def test_date_accepts_date(self):
        d = datetime.date(1995, 6, 17)
        assert SqlType.date().validate(d) == d

    def test_date_parses_iso_string(self):
        assert SqlType.date().validate("1995-06-17") == \
            datetime.date(1995, 6, 17)

    def test_date_rejects_int(self):
        with pytest.raises(TypeError_):
            SqlType.date().validate(1995)

    def test_str_rendering(self):
        assert str(SqlType.char(10)) == "CHAR(10)"
        assert str(SqlType.decimal()) == "DECIMAL(15,2)"
        assert str(SqlType.integer()) == "INTEGER"

    def test_kind_enum(self):
        assert SqlType.varchar(5).kind is TypeKind.VARCHAR
