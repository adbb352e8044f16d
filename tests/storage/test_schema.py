"""Tests for table schemas and column definitions."""

import pytest

from repro.errors import ColumnNotFoundError, SchemaError
from repro.storage import ColumnDef, IndexDef, TableSchema


def make_schema(**kwargs):
    return TableSchema(
        "users",
        [
            ColumnDef("id", "integer", nullable=True),
            ColumnDef("name", "text", nullable=False),
            ColumnDef("age", "integer", default=0),
        ],
        **kwargs,
    )


class TestColumnDef:
    def test_string_dtype_resolved(self):
        col = ColumnDef("x", "integer")
        assert col.dtype.name == "integer"

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            ColumnDef("", "integer")

    def test_callable_default(self):
        col = ColumnDef("x", "integer", default=lambda: 7)
        assert col.resolve_default() == 7


class TestIndexDef:
    def test_columns_coerced_to_tuple(self):
        idx = IndexDef("ix", ["a", "b"])
        assert idx.columns == ("a", "b")

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            IndexDef("ix", [])


class TestTableSchema:
    def test_column_lookup(self):
        schema = make_schema()
        columns = {column.name: column for column in schema.columns}
        assert columns["name"].nullable is False
        assert "age" in schema.column_names
        assert "missing" not in schema.column_names

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [ColumnDef("id", "integer"),
                              ColumnDef("id", "text")])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [ColumnDef("a", "integer")])

    def test_index_referencing_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(indexes=[IndexDef("bad", ("missing",))])

    def test_add_index_validates(self):
        schema = make_schema()
        schema.add_index(IndexDef("users_age", ("age",)))
        assert schema.indexes[-1].columns == ("age",)
        with pytest.raises(SchemaError):
            schema.add_index(IndexDef("bad", ("missing",)))

    def test_coerce_row_applies_defaults(self):
        schema = make_schema()
        row = schema.coerce_row({"name": "alice"})
        assert row == {"id": None, "name": "alice", "age": 0}

    def test_coerce_row_rejects_unknown_columns(self):
        with pytest.raises(ColumnNotFoundError):
            make_schema().coerce_row({"nope": 1})

    def test_coerce_row_update_mode_only_touches_given(self):
        schema = make_schema()
        assert schema.coerce_row({"age": 9}, for_insert=False) == {"age": 9}

    def test_estimate_row_width_counts_text(self):
        schema = make_schema()
        small = schema.estimate_row_width({"id": 1, "name": "a", "age": 1})
        large = schema.estimate_row_width({"id": 1, "name": "a" * 500, "age": 1})
        assert large > small
