"""Tests for the Database facade (DDL, DML, measurement)."""

import pytest

from repro.errors import DuplicateTableError, TableNotFoundError
from repro.storage import (ColumnDef, Database, IndexDef, OrderBy, SelectQuery,
                           TableSchema)


def users_schema():
    return TableSchema(
        "users",
        [ColumnDef("id", "integer", nullable=True), ColumnDef("name", "text")],
        primary_key="id",
    )


class TestDDL:
    def test_create_and_drop_table(self):
        db = Database()
        db.create_table(users_schema())
        assert db.has_table("users")
        assert db.table_names() == ["users"]
        db.drop_table("users")
        assert not db.has_table("users")

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(users_schema())
        with pytest.raises(DuplicateTableError):
            db.create_table(users_schema())

    def test_drop_missing_table_raises(self):
        with pytest.raises(TableNotFoundError):
            Database().drop_table("nope")

    def test_drop_table_removes_its_triggers(self):
        db = Database()
        db.create_table(users_schema())
        db.create_trigger("t", "users", "insert", lambda d: None)
        db.drop_table("users")
        assert len(db.triggers) == 0

    def test_create_index_on_existing_table(self):
        db = Database()
        db.create_table(users_schema())
        db.insert("users", {"name": "alice"})
        db.create_index("users", IndexDef("users_name_idx", ("name",)))
        assert db.table("users").index_for_column("name") is not None

    def test_trigger_on_missing_table_rejected(self):
        with pytest.raises(TableNotFoundError):
            Database().create_trigger("t", "nope", "insert", lambda d: None)


class TestDMLHelpers:
    def test_insert_find_get(self):
        db = Database()
        db.create_table(users_schema())
        stored = db.insert("users", {"name": "alice"})
        assert stored["id"] == 1
        assert db.get_by_pk("users", 1)["name"] == "alice"
        assert db.get_by_pk("users", 999) is None
        assert db.find("users", where={"name": "alice"})[0]["id"] == 1

    def test_update_and_delete_with_where(self):
        db = Database()
        db.create_table(users_schema())
        db.insert("users", {"name": "alice"})
        db.insert("users", {"name": "bob"})
        updated = db.update("users", {"name": "carol"}, where={"name": "alice"})
        assert len(updated) == 1
        deleted = db.delete("users", where={"name": "bob"})
        assert len(deleted) == 1
        assert len(db.find("users")) == 1

    def test_find_with_limit(self):
        db = Database()
        db.create_table(users_schema())
        for i in range(5):
            db.insert("users", {"name": f"u{i}"})
        assert len(db.find("users", limit=3)) == 3


class TestMeasurement:
    def test_measure_and_demand(self):
        db = Database()
        db.create_table(users_schema())
        with db.measure() as counters:
            db.insert("users", {"name": "alice"})
            db.find("users", where={"id": 1})
        assert counters.inserts == 1
        assert counters.statements == 2
        demand = db.demand_of(counters)
        assert demand.db_cpu_ms > 0
        assert demand.db_disk_ms > 0


class TestRowOwnership:
    """A stored dict is never mutated once stored, and every row that leaves
    the engine is the caller's own copy: nothing handed out aliases storage."""

    @staticmethod
    def make_db():
        db = Database()
        db.create_table(TableSchema(
            "people",
            [ColumnDef("id", "integer", nullable=True), ColumnDef("name", "text"),
             ColumnDef("team", "text"), ColumnDef("age", "integer", default=0)],
            primary_key="id",
            indexes=[IndexDef("people_team_idx", ("team",)),
                     IndexDef("people_age_idx", ("age",))]))
        for i in range(6):
            db.insert("people", {"name": f"p{i}", "team": "ab"[i % 2], "age": 20 + i})
        return db

    @staticmethod
    def snapshot(db):
        """Everything a reader can see: a scan, and a lookup through each index."""
        return {
            "scan": db.select(SelectQuery("people")),
            "by_pk": [db.get_by_pk("people", pk) for pk in range(1, 8)],
            "by_team": [db.find("people", where={"team": team}) for team in "ab"],
            "by_age": db.find("people", where={"age__gte": 0},
                              order_by=[OrderBy("age")]),
            "projected": db.select(SelectQuery("people", columns=["name", "age"])),
        }

    @staticmethod
    def scribble(row):
        for key in list(row):
            row[key] = "scribbled"
        row["extra"] = object()

    def test_mutating_results_leaves_storage_unchanged(self):
        db = self.make_db()
        before = self.snapshot(db)
        handed_out = self.snapshot(db)
        for rows in handed_out.values():
            for row in rows:
                for values in (row if isinstance(row, list) else [row]):
                    if values is not None:
                        self.scribble(values)
        assert self.snapshot(db) == before

    def test_mutating_dml_return_values_leaves_storage_unchanged(self):
        db = self.make_db()
        inserted = db.insert("people", {"name": "new", "team": "a", "age": 1})
        updated = db.update("people", {"age": 50}, where={"team": "b"})
        deleted = db.delete("people", where={"name": "p0"})
        assert (len(updated), len(deleted)) == (3, 1)
        before = self.snapshot(db)
        for row in [inserted, *updated, *deleted]:
            self.scribble(row)
        assert self.snapshot(db) == before
        assert [row["age"] for row in before["by_team"][1]] == [50, 50, 50]

    def test_mutating_what_a_trigger_receives_leaves_storage_unchanged(self):
        db = self.make_db()
        seen = []
        for event in ("insert", "update", "delete"):
            for n in range(2):      # two triggers: each gets its own copies
                def handler(data, event=event):
                    seen.append((event, dict(data["new"] or {}),
                                 dict(data["old"] or {})))
                    for image in (data["new"], data["old"]):
                        if image is not None:
                            self.scribble(image)
                db.create_trigger(f"t_{event}_{n}", "people", event, handler)
        db.insert("people", {"name": "new", "team": "a", "age": 1})
        db.update("people", {"age": 2}, where={"name": "new"})
        assert db.find("people", where={"age": 2}) == [
            {"id": 7, "name": "new", "team": "a", "age": 2}]
        db.delete("people", where={"name": "new"})
        new_row = {"id": 7, "name": "new", "team": "a", "age": 1}
        assert seen == [
            ("insert", new_row, {}), ("insert", new_row, {}),
            ("update", dict(new_row, age=2), new_row),
            ("update", dict(new_row, age=2), new_row),
            ("delete", {}, dict(new_row, age=2)),
            ("delete", {}, dict(new_row, age=2)),
        ]
        assert len(db.find("people")) == 6

    def test_a_row_keeps_showing_the_values_it_was_read_over(self):
        db = self.make_db()
        table = db.table("people")
        row = table.fetch_by_pk(3)
        copy = row.to_dict()
        self.scribble(copy)
        assert table.fetch_by_pk(3)["name"] == "p2"
        db.update("people", {"name": "renamed", "age": 99}, where={"id": 3})
        assert (row["name"], row["age"]) == ("p2", 22)
        assert table.fetch_by_pk(3)["name"] == "renamed"
        db.delete("people", where={"id": 3})
        assert (row["name"], row["age"]) == ("p2", 22)

    def test_abort_restores_equal_rows_even_if_results_were_mutated(self):
        db = self.make_db()
        before = self.snapshot(db)
        db.begin()
        for row in db.update("people", {"age": 1, "team": "z"}, where={"team": "a"}):
            self.scribble(row)
        for row in db.delete("people", where={"team": "b"}):
            self.scribble(row)
        self.scribble(db.insert("people", {"name": "temp", "team": "a"}))
        db.abort()
        after = self.snapshot(db)
        # Undo re-inserts deleted rows at the end of the heap: same rows,
        # same index contents, scan order aside.
        by_id = lambda rows: sorted(rows, key=lambda row: row["id"])  # noqa: E731
        assert by_id(after["scan"]) == by_id(before["scan"])
        assert after["by_pk"] == before["by_pk"]
        assert [by_id(rows) for rows in after["by_team"]] == before["by_team"]
        assert after["by_age"] == before["by_age"]
