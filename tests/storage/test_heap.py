"""Tests for heap (page-structured row) storage."""

import pytest

from repro.errors import RowNotFoundError
from repro.storage import BufferPool, ColumnDef, TableSchema
from repro.storage.heap import HeapFile


def make_heap(page_size=512, pool_pages=64):
    schema = TableSchema(
        "notes",
        [ColumnDef("id", "integer", nullable=True), ColumnDef("text", "text")],
        primary_key="id",
    )
    return HeapFile(schema, BufferPool(pool_pages), page_size=page_size)


class TestHeapFile:
    def test_insert_assigns_monotonic_rowids(self):
        heap = make_heap()
        r1 = heap.insert({"id": 1, "text": "a"})
        r2 = heap.insert({"id": 2, "text": "b"})
        assert r2.rowid > r1.rowid
        assert heap.row_count == 2

    def test_fetch_returns_copy(self):
        heap = make_heap()
        row = heap.insert({"id": 1, "text": "a"})
        fetched = heap.fetch(row.rowid)
        fetched.to_dict()["text"] = "mutated"
        assert heap.fetch(row.rowid)["text"] == "a"

    def test_insert_copies_the_callers_dict(self):
        heap = make_heap()
        values = {"id": 1, "text": "a"}
        row = heap.insert(values)
        values["text"] = "mutated"
        assert heap.fetch(row.rowid)["text"] == "a"

    def test_fetch_missing_raises(self):
        with pytest.raises(RowNotFoundError):
            make_heap().fetch(99)

    def test_update_returns_old_and_new(self):
        heap = make_heap()
        row = heap.insert({"id": 1, "text": "a"})
        before = heap.fetch(row.rowid)
        old, new = heap.update(row.rowid, {"text": "b"})
        assert old["text"] == "a"
        assert new["text"] == "b"
        assert heap.fetch(row.rowid)["text"] == "b"
        # Stored dicts are never mutated: the update installed a new one, and
        # the displaced dict is the pre-image every earlier view still shows.
        assert old is not new
        assert row["text"] == before["text"] == "a"

    def test_delete_removes_row(self):
        heap = make_heap()
        row = heap.insert({"id": 1, "text": "a"})
        deleted = heap.delete(row.rowid)
        assert deleted["text"] == "a"
        assert not heap.exists(row.rowid)
        with pytest.raises(RowNotFoundError):
            heap.delete(row.rowid)

    def test_rows_spill_onto_multiple_pages(self):
        heap = make_heap(page_size=256)
        for i in range(50):
            heap.insert({"id": i, "text": "x" * 100})
        assert heap.page_count > 1

    def test_a_row_wider_than_a_page_fills_exactly_one(self):
        heap = make_heap(page_size=256)
        heap.insert({"id": 1, "text": "x" * 400})
        heap.insert({"id": 2, "text": "y"})
        assert heap.page_count == 2
        assert heap._page_free[0] == 0

    def test_scan_returns_all_live_rows(self):
        heap = make_heap()
        rows = [heap.insert({"id": i, "text": str(i)}) for i in range(10)]
        heap.delete(rows[3].rowid)
        scanned = {values["id"] for page in heap.scan() for _rowid, values in page}
        assert scanned == {i for i in range(10) if i != 3}

    def test_scan_charges_one_access_per_page(self):
        heap = make_heap(page_size=256)
        for i in range(40):
            heap.insert({"id": i, "text": "x" * 100})
        pool = heap.buffer_pool
        before = pool.hits + pool.misses
        list(heap.scan())
        accesses = (pool.hits + pool.misses) - before
        assert accesses == heap.page_count

    def test_delete_leaves_a_hole_every_read_steps_over(self):
        heap = make_heap()
        rows = [heap.insert({"id": i, "text": str(i)}) for i in range(4)]
        hole = rows[1].rowid
        heap.delete(hole)
        live = [row.rowid for row in rows if row.rowid != hole]
        assert heap.row_count == 3
        assert not heap.exists(hole)
        assert all(heap.exists(rowid) for rowid in live)
        assert heap.fetch(rows[2].rowid)["id"] == 2
        assert [rowid for rowid, _ in heap.fetch_many(row.rowid for row in rows)] == live
        assert [rowid for page in heap.scan() for rowid, _ in page] == live
        # The hole is never reused: row ids only grow.
        assert heap.insert({"id": 9, "text": "9"}).rowid == rows[-1].rowid + 1

    def test_unknown_row_ids_raise(self):
        heap = make_heap()
        first, deleted, last = (heap.insert({"id": i, "text": str(i)})
                                for i in range(3))
        heap.delete(deleted.rowid)
        # -1 would be ``last`` if the directory let a negative id index it.
        for rowid in (0, -1, -3, last.rowid + 1, 10 ** 6, deleted.rowid):
            message = f"^table 'notes' has no row id {rowid}$"
            for read_or_write in (heap.fetch, heap.delete,
                                  lambda r: heap.update(r, {"text": "x"})):
                with pytest.raises(RowNotFoundError, match=message):
                    read_or_write(rowid)
            assert not heap.exists(rowid)
        assert heap.fetch_many([0, -1, first.rowid, deleted.rowid,
                                last.rowid + 1]) == [(first.rowid, dict(first))]
        assert heap.row_count == 2

    def test_fetch_many_deduplicates_page_accesses(self):
        heap = make_heap(page_size=4096)
        rows = [heap.insert({"id": i, "text": "small"}) for i in range(20)]
        pool = heap.buffer_pool
        before = pool.hits + pool.misses
        fetched = heap.fetch_many(iter(r.rowid for r in rows))
        assert [rowid for rowid, _values in fetched] == [r.rowid for r in rows]
        # All 20 small rows share a single 4 KB page.
        assert (pool.hits + pool.misses) - before == 1
