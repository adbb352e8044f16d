"""Tests for the table layer: constraints, indexes, trigger firing."""

import pytest

from repro.errors import ConstraintViolation, RowNotFoundError
from repro.storage import (BufferPool, ColumnDef, Database, IndexDef,
                           Recorder, TableSchema)
from repro.storage.table import Table
from repro.storage.triggers import TriggerManager


def make_table(unique_email=False):
    recorder = Recorder()
    indexes = [IndexDef("users_age_idx", ("age",))]
    if unique_email:
        indexes.append(IndexDef("users_email_uniq", ("email",), unique=True))
    schema = TableSchema(
        "users",
        [
            ColumnDef("id", "integer", nullable=True),
            ColumnDef("email", "text", nullable=False),
            ColumnDef("age", "integer", default=0),
        ],
        primary_key="id",
        indexes=indexes,
    )
    return Table(schema, BufferPool(64, recorder), TriggerManager(recorder), recorder)


class TestInsert:
    def test_auto_assigns_primary_key(self):
        table = make_table()
        row1 = table.insert({"email": "a@x"})
        row2 = table.insert({"email": "b@x"})
        assert row1["id"] == 1
        assert row2["id"] == 2

    def test_explicit_pk_respected_and_counter_advanced(self):
        table = make_table()
        table.insert({"id": 10, "email": "a@x"})
        row = table.insert({"email": "b@x"})
        assert row["id"] == 11

    def test_not_null_enforced(self):
        table = make_table()
        with pytest.raises(ConstraintViolation):
            table.insert({"email": None})

    def test_duplicate_pk_rejected_and_rolled_back(self):
        table = make_table()
        table.insert({"id": 1, "email": "a@x"})
        with pytest.raises(ConstraintViolation):
            table.insert({"id": 1, "email": "b@x"})
        assert table.row_count == 1

    def test_unique_secondary_index_enforced(self):
        table = make_table(unique_email=True)
        table.insert({"email": "a@x"})
        with pytest.raises(ConstraintViolation):
            table.insert({"email": "a@x"})
        assert table.row_count == 1

    def test_secondary_index_populated(self):
        table = make_table()
        row = table.insert({"email": "a@x", "age": 30})
        index = table.index_for_column("age")
        assert index.lookup(30) == [row.rowid]


class TestInsertCharges:
    """What one INSERT costs in the model, pinned so that changing it is
    deliberate: the index descent of an INSERT is *free* (``BPlusTree.insert``
    counts no node touches) while ``Index.delete`` and every lookup charge
    theirs — the asymmetry recorded in docs/ARCHITECTURE.md's cost-model row."""

    def make_database(self):
        table = make_table(unique_email=True)
        assert len(table.all_indexes()) == 3
        db = Database()
        return db, db.create_table(table.schema)

    def nonzero(self, counters):
        return {name: n for name, n in counters.as_dict().items() if n}

    def test_insert_charges_no_index_node_touches(self):
        db, _table = self.make_database()
        with db.measure() as first:
            db.insert("users", {"email": "a@x", "age": 3})
        assert self.nonzero(first) == {
            "statements": 1, "inserts": 1, "pages_missed": 1,
            "pages_dirtied": 1, "commits": 1}
        with db.measure() as second:
            db.insert("users", {"email": "b@x", "age": 3})
        assert self.nonzero(second) == {
            "statements": 1, "inserts": 1, "pages_hit": 1,
            "pages_dirtied": 1, "commits": 1}

    def test_no_event_is_recorded_with_a_zero_count(self):
        db, table = self.make_database()
        recorded = []
        record = db.recorder.record
        db.recorder.record = lambda event, n=1: (recorded.append((event, n)),
                                                 record(event, n))
        db.insert("users", {"email": "a@x", "age": None})
        table.index_for_column("age").lookup(None)      # the NULL bucket
        assert recorded and all(n > 0 for _event, n in recorded)

    def test_delete_and_lookup_do_charge_their_descent(self):
        db, _table = self.make_database()
        db.insert("users", {"email": "a@x", "age": 3})
        with db.measure() as lookup:
            db.find("users", where={"email": "a@x"})
        with db.measure() as delete:
            db.delete("users", where={"id": 1})
        assert lookup.index_node_touches == 1
        assert delete.index_node_touches == 4           # find it, then 3 trees


class TestUpdateDelete:
    def test_update_moves_index_entries(self):
        table = make_table()
        row = table.insert({"email": "a@x", "age": 30})
        table.update_row(row.rowid, {"age": 31})
        index = table.index_for_column("age")
        assert index.lookup(30) == []
        assert index.lookup(31) == [row.rowid]

    def test_a_row_moved_back_is_placed_in_row_id_order(self):
        table = make_table()
        rows = [table.insert({"email": f"{n}@x", "age": 30}) for n in range(3)]
        table.update_row(rows[1].rowid, {"age": 31})
        table.insert({"email": "z@x", "age": 30})
        table.delete_row(rows[0].rowid)
        table.update_row(rows[1].rowid, {"age": 30})      # back, out of order
        assert table.index_for_column("age").lookup(30) == [
            rows[1].rowid, rows[2].rowid, 4]

    def test_update_cannot_touch_primary_key(self):
        table = make_table()
        row = table.insert({"email": "a@x"})
        with pytest.raises(ConstraintViolation):
            table.update_row(row.rowid, {"id": 99})

    def test_update_missing_row(self):
        with pytest.raises(RowNotFoundError):
            make_table().update_row(5, {"age": 1})

    def test_delete_cleans_indexes(self):
        table = make_table()
        row = table.insert({"email": "a@x", "age": 25})
        table.delete_row(row.rowid)
        assert table.index_for_column("age").lookup(25) == []
        assert table.fetch_by_pk(row["id"]) is None


class TestTriggers:
    def test_insert_update_delete_fire_triggers(self):
        table = make_table()
        events = []
        table.trigger_manager.create_trigger(
            "t_ins", "users", "insert", lambda d: events.append(("insert", d["new"]["email"])))
        table.trigger_manager.create_trigger(
            "t_upd", "users", "update",
            lambda d: events.append(("update", d["old"]["age"], d["new"]["age"])))
        table.trigger_manager.create_trigger(
            "t_del", "users", "delete", lambda d: events.append(("delete", d["old"]["email"])))
        row = table.insert({"email": "a@x", "age": 1})
        table.update_row(row.rowid, {"age": 2})
        table.delete_row(row.rowid)
        assert events == [("insert", "a@x"), ("update", 1, 2), ("delete", "a@x")]

    def test_fire_triggers_false_suppresses(self):
        table = make_table()
        events = []
        table.trigger_manager.create_trigger(
            "t_ins", "users", "insert", lambda d: events.append("fired"))
        table.insert({"email": "a@x"}, fire_triggers=False)
        assert events == []


class TestAddIndex:
    def test_backfills_existing_rows(self):
        table = make_table()
        table.insert({"email": "a@x", "age": 10})
        table.insert({"email": "b@x", "age": 20})
        index = table.add_index(IndexDef("users_email_idx", ("email",)))
        assert len(index.lookup("a@x")) == 1
        assert table.index_for_column("email") is index
