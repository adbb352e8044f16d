"""Tests for column data types."""

import datetime
import warnings

import pytest

from repro.errors import SchemaError
from repro.storage.datatypes import (BOOLEAN, FLOAT, INTEGER, TEXT, TIMESTAMP,
                                     TextType, type_by_name)


class TestIntegerType:
    def test_coerces_plain_int(self):
        assert INTEGER.coerce(42) == 42

    def test_coerces_integral_float(self):
        assert INTEGER.coerce(3.0) == 3

    def test_rejects_fractional_float(self):
        with pytest.raises(SchemaError):
            INTEGER.coerce(3.5)

    def test_rejects_boolean(self):
        with pytest.raises(SchemaError):
            INTEGER.coerce(True)

    def test_none_passes_through(self):
        assert INTEGER.coerce(None) is None


class TestFloatType:
    def test_coerces_int_to_float(self):
        assert FLOAT.coerce(2) == 2.0
        assert isinstance(FLOAT.coerce(2), float)

    def test_rejects_string(self):
        with pytest.raises(SchemaError):
            FLOAT.coerce("2.5")


class TestTextType:
    def test_accepts_string(self):
        assert TEXT.coerce("hello") == "hello"

    def test_rejects_non_string(self):
        with pytest.raises(SchemaError):
            TEXT.coerce(5)

    def test_max_length_enforced(self):
        bounded = TextType(max_length=3)
        assert bounded.coerce("abc") == "abc"
        with pytest.raises(SchemaError):
            bounded.coerce("abcd")

    def test_width_estimate_tracks_length(self):
        assert TEXT.estimate_width("abcdef") == 6
        assert TEXT.estimate_width(None) == 1

    def test_equality_depends_on_max_length(self):
        assert TextType(max_length=5) == TextType(max_length=5)
        assert TextType(max_length=5) != TextType(max_length=6)


class TestBooleanType:
    def test_accepts_bool(self):
        assert BOOLEAN.coerce(True) is True

    def test_accepts_zero_one(self):
        assert BOOLEAN.coerce(1) is True
        assert BOOLEAN.coerce(0) is False

    def test_rejects_other_ints(self):
        with pytest.raises(SchemaError):
            BOOLEAN.coerce(2)


class TestTimestampType:
    def test_accepts_datetime(self):
        moment = datetime.datetime(2011, 12, 1, 10, 30)
        assert TIMESTAMP.coerce(moment) == moment

    def test_accepts_epoch_seconds(self):
        result = TIMESTAMP.coerce(0)
        assert result == datetime.datetime(1970, 1, 1)

    @pytest.mark.parametrize("epoch", [
        0, 1, 1_000_000, 1_322_735_400, 1_000_000.0, 86400.5, 0.25, 0.000001,
        999_999.999999, -1, -1.5, -86400.25, -0.000001])
    def test_epoch_seconds_are_naive_utc(self, epoch):
        """Ints, floats, negative and sub-second epochs: the naive UTC moment,
        the same one the deprecated ``utcfromtimestamp`` produced."""
        result = TIMESTAMP.coerce(epoch)
        assert result.tzinfo is None
        assert result == (datetime.datetime(1970, 1, 1)
                          + datetime.timedelta(seconds=epoch))
        if hasattr(datetime.datetime, "utcfromtimestamp"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                assert result == datetime.datetime.utcfromtimestamp(float(epoch))

    def test_accepts_iso_string(self):
        assert TIMESTAMP.coerce("2011-12-01T10:30:00") == datetime.datetime(2011, 12, 1, 10, 30)

    def test_rejects_garbage(self):
        with pytest.raises(SchemaError):
            TIMESTAMP.coerce(object())


class TestTypeByName:
    @pytest.mark.parametrize("name,expected", [
        ("integer", INTEGER), ("INT", INTEGER), ("bigint", INTEGER),
        ("float", FLOAT), ("text", TEXT), ("bool", BOOLEAN),
        ("timestamp", TIMESTAMP), ("datetime", TIMESTAMP),
    ])
    def test_known_names(self, name, expected):
        assert type_by_name(name) is expected

    def test_unknown_name_raises(self):
        with pytest.raises(SchemaError):
            type_by_name("jsonb")
