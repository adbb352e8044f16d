"""Heap storage: rows packed into fixed-size pages.

The heap stores the actual row data for a table.  Rows are assigned
monotonically increasing row ids and packed into pages based on their
estimated byte width, so the number of pages a scan touches is proportional
to the table's data volume — which is what makes the buffer pool and disk
cost model meaningful.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import RowNotFoundError
from .bufferpool import BufferPool, PageId
from .rows import Row
from .schema import TableSchema

#: Default page size in bytes (Postgres uses 8 KB pages).
DEFAULT_PAGE_SIZE = 8192


class HeapFile:
    """Page-structured row storage for one table."""

    def __init__(
        self,
        schema: TableSchema,
        buffer_pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.schema = schema
        self.buffer_pool = buffer_pool
        self.page_size = page_size
        # The row directory: rowid -> stored values (None: deleted, and row
        # id 0, never assigned) and rowid -> page_no; the next rowid is their
        # length.
        self._values: List[Optional[Dict[str, Any]]] = [None]
        self._pages: List[int] = [0]
        self._live = 0
        # page_no -> free bytes remaining
        self._page_free: List[int] = []
        # page_no -> rowids living there, in insertion order
        self._page_rows: List[List[int]] = []

    # -- page management ------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._page_free)

    @property
    def row_count(self) -> int:
        return self._live

    # -- mutations ------------------------------------------------------------
    # A values dict is never mutated once stored (:mod:`repro.storage.rows`):
    # reads hand out stored dicts in place, whoever lets one leave copies it.

    def insert(self, values: Dict[str, Any]) -> Row:
        """Append a row and return it (with its new rowid)."""
        width = min(self.schema.estimate_row_width(values), self.page_size)
        free = self._page_free
        if not free or free[-1] < width:
            # The last page cannot take the row: open a new one.
            free.append(self.page_size)
            self._page_rows.append([])
        page_no = len(free) - 1
        rowid = len(self._values)
        stored = dict(values)
        self._values.append(stored)
        self._pages.append(page_no)
        self._live += 1
        free[page_no] -= width
        self._page_rows[page_no].append(rowid)
        self.buffer_pool.write(self.schema.name, page_no)
        return Row(rowid, stored)

    def _stored(self, rowid: int) -> Dict[str, Any]:
        # ``0 <`` first: a negative id must not index from the end.
        if 0 < rowid < len(self._values):
            stored = self._values[rowid]
            if stored is not None:
                return stored
        raise RowNotFoundError(f"table {self.schema.name!r} has no row id {rowid}")

    def update(self, rowid: int,
               changes: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Install ``{**stored, **changes}``.  Returns the (displaced, installed)
        stored images: the displaced dict is the row's pre-image."""
        old = self._stored(rowid)
        new = self._values[rowid] = {**old, **changes}
        self.buffer_pool.write(self.schema.name, self._pages[rowid])
        return old, new

    def delete(self, rowid: int) -> Dict[str, Any]:
        """Remove a row.  Returns its (no longer stored) values."""
        stored = self._stored(rowid)
        page_no = self._pages[rowid]
        self._values[rowid] = None
        self._live -= 1
        try:
            self._page_rows[page_no].remove(rowid)
        except ValueError:  # pragma: no cover - defensive
            pass
        self.buffer_pool.write(self.schema.name, page_no)
        return stored

    # -- reads ----------------------------------------------------------------
    # A read touches no page itself: it appends the id of each page it reads
    # to the statement's ``pages`` list, and the statement reads them from
    # the buffer pool, in that order, and charges them with its other counts.

    def fetch(self, rowid: int) -> Row:
        """One row by rowid; touches no page."""
        return Row(rowid, self._stored(rowid))

    def fetch_many(self, rowids: Iterable[int],
                   pages: List[PageId]) -> List[Tuple[int, Dict[str, Any]]]:
        """``(rowid, stored values)`` of several rows; the id of each distinct
        page they live on goes to ``pages`` once, in first-read order.
        Unknown and deleted row ids are skipped."""
        values, page_of, end = self._values, self._pages, len(self._values)
        name = self.schema.name
        rows: List[Tuple[int, Dict[str, Any]]] = []
        touched: set = set()
        for rowid in rowids:
            stored = values[rowid] if 0 < rowid < end else None
            if stored is None:
                continue
            page_no = page_of[rowid]
            if page_no not in touched:
                touched.add(page_no)
                pages.append((name, page_no))
            rows.append((rowid, stored))
        return rows

    def exists(self, rowid: int) -> bool:
        return 0 < rowid < len(self._values) and self._values[rowid] is not None

    def scan(self, pages: List[PageId]) -> Iterator[List[Tuple[int, Dict[str, Any]]]]:
        """Full scan in page order: the ``(rowid, stored values)`` of one
        non-empty page at a time, its id going to ``pages`` as it is read."""
        values, name = self._values, self.schema.name
        for page_no, rowids in enumerate(self._page_rows):
            if rowids:
                pages.append((name, page_no))
                yield [(rowid, values[rowid]) for rowid in rowids]  # type: ignore[misc]

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Tuple[List[Optional[Tuple[Any, ...]]], List[int],
                                int, List[int], List[List[int]]]:
        """The heap as plain data: each stored row as the tuple of its
        values (a stored dict holds its columns in schema order), ``None``
        for a deleted row; then the row-to-page list, the live-row count and
        each page's free bytes and row ids, which are the live lists."""
        rows = [None if values is None else tuple(values.values())
                for values in self._values]
        return rows, self._pages, self._live, self._page_free, self._page_rows

    def restore(self, state: Tuple[List[Optional[Tuple[Any, ...]]], List[int],
                                   int, List[int], List[List[int]]]) -> None:
        """Take what :meth:`snapshot` gave.  Each row is rebuilt keyed by this
        schema's own column-name objects, as an INSERT keys it."""
        rows, self._pages, self._live, self._page_free, self._page_rows = state
        names = self.schema.column_names
        self._values = [None if values is None else dict(zip(names, values))
                        for values in rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HeapFile {self.schema.name}: {self.row_count} rows, "
            f"{self.page_count} pages>"
        )
